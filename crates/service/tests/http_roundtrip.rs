//! End-to-end integration tests over real sockets: cache semantics, job
//! lifecycle, graceful shutdown and conformance of served results against
//! the library run directly.

use std::time::Duration;

use gillespie::{Ensemble, EnsembleOptions, SimulationOptions, SpeciesThresholdClassifier};
use service::{serve, App, Client, Method, Request, ServiceConfig};

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 64,
        max_body_bytes: 1 << 20,
        fabric: None,
        slow_request_ms: 10_000,
    }
}

fn coin_request(seed: u64, trials: u64, wait: bool) -> String {
    format!(
        "{{\"network\":\"x -> h @ 3\\nx -> t @ 1\",\"initial\":{{\"x\":1}},\
         \"trials\":{trials},\"seed\":{seed},\"wait\":{wait},\
         \"classifier\":[\
         {{\"species\":\"h\",\"at_least\":1,\"outcome\":\"heads\"}},\
         {{\"species\":\"t\",\"at_least\":1,\"outcome\":\"tails\"}}]}}"
    )
}

/// Reads `path.to.key` out of a JSON body.
fn json_number(body: &str, path: &[&str]) -> f64 {
    let mut value = service::json::parse(body).expect("valid JSON body");
    for key in path {
        value = value
            .get(key)
            .unwrap_or_else(|| panic!("missing `{key}` in {body}"))
            .clone();
    }
    value.as_f64(path.last().unwrap()).expect("numeric field")
}

/// The tentpole acceptance test: the same ensemble job twice over HTTP —
/// the second response comes from the cache, byte-identical, and
/// `GET /metrics` shows exactly one cache hit.
#[test]
fn repeated_request_is_a_byte_identical_cache_hit() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");

    let request = coin_request(7, 2_000, true);
    let fresh = client
        .post("/simulate", &request)
        .expect("first round trip");
    assert_eq!(fresh.status, 200, "body: {}", fresh.body);
    assert_eq!(fresh.header("cache"), Some("miss"));
    // The report is self-describing: the seed rides in the body…
    assert_eq!(json_number(&fresh.body, &["seed"]), 7.0);

    let cached = client
        .post("/simulate", &request)
        .expect("second round trip");
    assert_eq!(cached.status, 200);
    assert_eq!(cached.header("cache"), Some("hit"));
    // …so cached and fresh responses differ *only* in the cache header.
    assert_eq!(
        cached.body, fresh.body,
        "cache replay must be byte-identical"
    );

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(json_number(&metrics.body, &["cache", "hits"]), 1.0);
    assert_eq!(json_number(&metrics.body, &["cache", "misses"]), 1.0);
    assert_eq!(json_number(&metrics.body, &["scheduler", "completed"]), 1.0);

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// Served ensemble reports must not diverge from a single-threaded library
/// run — the scheduler's chunked fan-out is bit-faithful.
#[test]
fn served_reports_match_a_single_threaded_run() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    let reply = client
        .post("/simulate", &coin_request(99, 3_000, true))
        .expect("round trip");
    assert_eq!(reply.status, 200, "body: {}", reply.body);

    let crn: crn::Crn = "x -> h @ 3\nx -> t @ 1".parse().expect("network");
    let initial = crn.state_from_counts([("x", 1)]).expect("state");
    let classifier = SpeciesThresholdClassifier::new()
        .rule_named(&crn, "h", 1, "heads")
        .expect("rule")
        .rule_named(&crn, "t", 1, "tails")
        .expect("rule");
    let report = Ensemble::new(&crn, initial, classifier)
        .options(
            EnsembleOptions::new()
                .trials(3_000)
                .master_seed(99)
                .threads(1)
                .simulation(SimulationOptions::new().max_events(10_000_000)),
        )
        .run()
        .expect("local run");

    assert_eq!(
        json_number(&reply.body, &["report", "counts", "heads"]),
        report.count("heads") as f64
    );
    assert_eq!(
        json_number(&reply.body, &["report", "counts", "tails"]),
        report.count("tails") as f64
    );
    assert_eq!(
        json_number(&reply.body, &["report", "mean_final_time"]),
        report.mean_final_time,
        "floating-point statistics must be bit-identical"
    );

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// A lambda-switch `POST /synthesize` round trip must match the exact CME
/// goldens pinned in `tests/exact_verification.rs`.
#[test]
fn synthesize_round_trip_matches_exact_verification_goldens() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    let request = "{\"input\":\"moi\",\
        \"response\":{\"constant\":2,\"log2\":1,\"linear\":1},\
        \"outcomes\":[\"lysis\",\"lysogeny\"],\"outputs\":[\"cro2\",\"ci2\"],\
        \"thresholds\":[1,1],\"food\":[1,1],\"input_total\":8,\
        \"input_range\":[1,4],\"evaluate\":[1,2],\"wait\":true}";
    let reply = client.post("/synthesize", request).expect("round trip");
    assert_eq!(reply.status, 200, "body: {}", reply.body);

    let body = service::json::parse(&reply.body).expect("valid body");
    let evaluations = body
        .get("evaluations")
        .expect("evaluations")
        .as_array("evaluations")
        .expect("array");
    // The same goldens as tests/exact_verification.rs, to the same 1e-9.
    let golden = [(1.0, 0.374_999_999_750), (2.0, 0.624_998_998_258)];
    assert_eq!(evaluations.len(), golden.len());
    for (evaluation, (x, expected)) in evaluations.iter().zip(golden) {
        assert_eq!(evaluation.get("x").unwrap().as_f64("x").unwrap(), x);
        let lysis = evaluation
            .get("exact")
            .expect("exact")
            .get("lysis")
            .expect("lysis")
            .as_f64("lysis")
            .expect("number");
        assert!(
            (lysis - expected).abs() < 1e-9,
            "x={x}: served {lysis:.12} vs golden {expected:.12}"
        );
    }

    // The cached replay agrees byte for byte.
    let cached = client.post("/synthesize", request).expect("replay");
    assert_eq!(cached.header("cache"), Some("hit"));
    assert_eq!(cached.body, reply.body);

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// `POST /exact` answers a first-passage query with the exact probability.
#[test]
fn exact_endpoint_serves_first_passage_probabilities() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    let request = "{\"network\":\"x -> heads @ 3\\nx -> tails @ 1\",\
        \"initial\":{\"x\":1},\
        \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
        \"analysis\":{\"type\":\"first_passage\",\"outcomes\":[\
        {\"name\":\"heads\",\"species\":\"heads\",\"at_least\":1},\
        {\"name\":\"tails\",\"species\":\"tails\",\"at_least\":1}]},\
        \"wait\":true}";
    let reply = client.post("/exact", request).expect("round trip");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let heads = json_number(&reply.body, &["probabilities", "heads"]);
    assert!((heads - 0.75).abs() < 1e-12, "exact P(heads) = {heads}");

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// A transient whose uniformization series would run for `Λt = 1e12`
/// terms is refused before any work with the typed series-budget error,
/// and the daemon's only worker is free for the next request.
#[test]
fn overlong_transients_are_refused_and_the_daemon_keeps_serving() {
    let mut config = test_config();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    let request = "{\"network\":\"a -> b @ 1\\nb -> a @ 1\",\"initial\":{\"a\":1},\
        \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
        \"analysis\":{\"type\":\"transient\",\"t\":1e12},\"wait\":true}";
    let started = std::time::Instant::now();
    let reply = client.post("/exact", request).expect("round trip");
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(500), "took {elapsed:?}");
    assert_eq!(reply.status, 500, "body: {}", reply.body);
    assert_eq!(reply.header("x-job-state"), Some("failed"));
    let body = service::json::parse(&reply.body).expect("valid JSON body");
    let error = body
        .get("error")
        .expect("error")
        .as_str("error")
        .expect("text");
    assert!(
        error.contains("Λt = 1.000e12") && error.contains("budget of 1e9"),
        "error: {error}"
    );

    let coin = "{\"network\":\"x -> heads @ 3\\nx -> tails @ 1\",\
        \"initial\":{\"x\":1},\
        \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
        \"analysis\":{\"type\":\"first_passage\",\"outcomes\":[\
        {\"name\":\"heads\",\"species\":\"heads\",\"at_least\":1}]},\
        \"wait\":true}";
    let next = client.post("/exact", coin).expect("next round trip");
    assert_eq!(next.status, 200, "body: {}", next.body);

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// Async lifecycle: submit without `wait`, poll to completion, then cancel
/// a long job and watch its worker slot go to the next job.
#[test]
fn cancellation_frees_the_worker_slot() {
    let mut config = test_config();
    config.workers = 1; // a single slot makes occupancy observable
    let handle = serve(config).expect("bind");
    let client = Client::new(handle.addr()).expect("client");

    // A long-running job: tens of millions of quick trials.
    let long = client
        .post("/simulate", &coin_request(1, 50_000_000, false))
        .expect("submit long");
    assert_eq!(long.status, 202, "body: {}", long.body);
    let long_id = json_number(&long.body, &["job"]) as u64;

    // A short job queued behind it.
    let short = client
        .post("/simulate", &coin_request(2, 1_000, false))
        .expect("submit short");
    assert_eq!(short.status, 202);
    let short_id = json_number(&short.body, &["job"]) as u64;

    // Cancel the long job; its trial-granular token poll frees the slot.
    let cancelled = client.delete(&format!("/jobs/{long_id}")).expect("cancel");
    assert_eq!(cancelled.status, 202, "body: {}", cancelled.body);

    // The short job now completes…
    let done = client
        .get(&format!("/jobs/{short_id}?wait=1"))
        .expect("poll short");
    assert_eq!(done.status, 200, "body: {}", done.body);
    assert_eq!(done.header("x-job-state"), Some("completed"));
    assert_eq!(done.header("cache"), Some("miss"));

    // …and the long job settles as cancelled.
    let long_status = client
        .get(&format!("/jobs/{long_id}?wait=1"))
        .expect("poll long");
    assert_eq!(long_status.header("x-job-state"), Some("cancelled"));
    // Cancelling again conflicts.
    let again = client
        .delete(&format!("/jobs/{long_id}"))
        .expect("re-cancel");
    assert_eq!(again.status, 409);

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// 64 jobs in flight on the scheduler at once: everything completes, and
/// spot-checked reports match fresh library runs.
#[test]
fn sustains_64_concurrent_in_flight_jobs() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");

    let mut ids = Vec::new();
    for seed in 0..64u64 {
        let reply = client
            .post("/simulate", &coin_request(seed, 50_000, false))
            .expect("submit");
        assert_eq!(reply.status, 202, "seed {seed}: {}", reply.body);
        ids.push((seed, json_number(&reply.body, &["job"]) as u64));
    }
    // All 64 were accepted before any could finish submitting's worth of
    // work; now they must all complete without deadlock.
    for (seed, id) in &ids {
        let done = client.get(&format!("/jobs/{id}?wait=1")).expect("poll");
        assert_eq!(
            done.header("x-job-state"),
            Some("completed"),
            "seed {seed}: {}",
            done.body
        );
        assert_eq!(json_number(&done.body, &["seed"]), *seed as f64);
    }
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(
        json_number(&metrics.body, &["scheduler", "completed"]),
        64.0
    );
    assert_eq!(json_number(&metrics.body, &["scheduler", "failed"]), 0.0);

    // Divergence spot check against a single-threaded library run.
    let crn: crn::Crn = "x -> h @ 3\nx -> t @ 1".parse().expect("network");
    let initial = crn.state_from_counts([("x", 1)]).expect("state");
    for seed in [0u64, 31, 63] {
        let classifier = SpeciesThresholdClassifier::new()
            .rule_named(&crn, "h", 1, "heads")
            .expect("rule")
            .rule_named(&crn, "t", 1, "tails")
            .expect("rule");
        let report = Ensemble::new(&crn, initial.clone(), classifier)
            .options(
                EnsembleOptions::new()
                    .trials(50_000)
                    .master_seed(seed)
                    .threads(1)
                    .simulation(SimulationOptions::new().max_events(10_000_000)),
            )
            .run()
            .expect("local run");
        let (_, id) = ids[seed as usize];
        let served = client.get(&format!("/jobs/{id}")).expect("fetch");
        assert_eq!(
            json_number(&served.body, &["report", "counts", "heads"]),
            report.count("heads") as f64,
            "seed {seed} diverged from the single-threaded run"
        );
    }

    handle.shutdown(Duration::from_secs(5));
    handle.join();
}

/// Malformed input surfaces as a 400 with the parser's line+column.
#[test]
fn bad_requests_name_line_and_column() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");

    let reply = client
        .post("/simulate", "{\"network\":\"x -> h @ fast\",\"trials\":10}")
        .expect("round trip");
    assert_eq!(reply.status, 400);
    assert!(
        reply.body.contains("line 1, column 10"),
        "error should pinpoint the bad rate: {}",
        reply.body
    );

    let reply = client.post("/simulate", "not json").expect("round trip");
    assert_eq!(reply.status, 400);

    let reply = client.get("/jobs/999").expect("round trip");
    assert_eq!(reply.status, 404);

    let reply = client.post("/healthz", "{}").expect("round trip");
    assert_eq!(reply.status, 405);

    let reply = client.get("/nope").expect("round trip");
    assert_eq!(reply.status, 404);

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// A throwaway server that answers its first connection with a canned,
/// possibly malformed, HTTP response — for client-hardening regressions.
fn canned_server(response: &'static str) -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            use std::io::{Read, Write};
            let mut scratch = [0u8; 4096];
            let _ = stream.read(&mut scratch);
            let _ = stream.write_all(response.as_bytes());
        }
    });
    addr
}

/// An address nothing listens on: bind an ephemeral port, then drop the
/// listener so connects are refused.
fn dead_addr() -> std::net::SocketAddr {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("addr")
}

/// Regression: `Client::new` used to keep only the *first* resolved
/// address, so a multi-address resolution whose first candidate was dead
/// failed outright. Every address must be tried in order.
#[test]
fn client_tries_every_resolved_address() {
    let handle = serve(test_config()).expect("bind");
    let addrs = [dead_addr(), handle.addr()];
    let client = Client::new(&addrs[..]).expect("client");
    let reply = client.get("/healthz").expect("second address must answer");
    assert_eq!(reply.status, 200);
    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// Regression: duplicate `Content-Length` headers with conflicting values
/// were resolved last-write-wins — classic request-smuggling surface. Both
/// sides of the transport must reject the conflict outright.
#[test]
fn conflicting_content_lengths_are_rejected_on_both_sides() {
    // Server side: a raw request with two disagreeing lengths gets a 400.
    let handle = serve(test_config()).expect("bind");
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(
            b"POST /simulate HTTP/1.1\r\nhost: test\r\ncontent-length: 2\r\n\
              content-length: 3\r\nconnection: close\r\n\r\n{}",
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "conflicting lengths must be a 400: {response}"
    );
    handle.shutdown(Duration::from_secs(2));
    handle.join();

    // Client side: a response with disagreeing lengths is a transport error.
    let addr =
        canned_server("HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-length: 7\r\n\r\nhello");
    let client = Client::new(addr).expect("client");
    let err = client
        .get("/healthz")
        .expect_err("must reject the conflict");
    assert!(err.contains("conflicting"), "err: {err}");
}

/// Regression: a response without `Content-Length` used to fall back to
/// read-to-EOF, hanging a keep-alive connection for the full I/O timeout.
/// The client must fail fast instead.
#[test]
fn client_fails_fast_on_unframed_responses() {
    let addr = canned_server("HTTP/1.1 200 OK\r\nconnection: keep-alive\r\n\r\nunframed body");
    let client = Client::new(addr)
        .expect("client")
        .timeout(Duration::from_secs(30));
    let start = std::time::Instant::now();
    let err = client
        .get("/healthz")
        .expect_err("must refuse unframed body");
    assert!(err.contains("content-length"), "err: {err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "must fail fast, not wait out the I/O timeout"
    );
}

/// `POST /shutdown` is refused for non-loopback peers (checked at the
/// router level with a synthetic peer address) and drains in-flight jobs
/// for loopback callers.
#[test]
fn shutdown_is_loopback_only_and_drains_in_flight_jobs() {
    // Router-level check of the loopback guard.
    let app = App::new(test_config());
    let router = app.router();
    let request = Request {
        method: Method::Post,
        path: "/shutdown".to_string(),
        query: None,
        headers: Vec::new(),
        body: String::new(),
    };
    let refused = router.dispatch(&request, "203.0.113.9:4444".parse().expect("addr"));
    assert_eq!(refused.status, 403);

    // Full-stack drain over a socket.
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    let submitted = client
        .post("/simulate", &coin_request(5, 200_000, false))
        .expect("submit");
    assert_eq!(submitted.status, 202);
    let id = json_number(&submitted.body, &["job"]) as u64;

    let drained = client
        .post("/shutdown", "{\"deadline_ms\":30000}")
        .expect("shutdown");
    assert_eq!(drained.status, 200, "body: {}", drained.body);
    assert!(json_number(&drained.body, &["finished"]) >= 1.0);

    // The in-flight job finished rather than being killed.
    let app = handle.app();
    let snapshot = app.scheduler().status(id).expect("job known");
    assert_eq!(snapshot.state, service::JobState::Completed);
    handle.join();
}

/// Regression: framing-error bodies spliced the request line into the JSON
/// text with only `"` replaced, so a backslash in the request line made
/// the `400` body invalid JSON. Both framing errors — a malformed request
/// and an oversized body — must answer with a body the JSON reader accepts,
/// carrying the offending bytes intact.
#[test]
fn framing_error_bodies_are_valid_json() {
    let mut config = test_config();
    config.max_body_bytes = 16;
    let handle = serve(config).expect("bind");
    let exchange = |raw: &[u8]| -> (String, String) {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(raw).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("framed response");
        (head.to_string(), body.to_string())
    };

    let (head, body) = exchange(b"GE\\T / HTTP/1.1\r\nhost: test\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let parsed = service::json::parse(&body)
        .unwrap_or_else(|e| panic!("400 body is not JSON ({e}): {body}"));
    let error = parsed.get("error").expect("error").as_str("error").unwrap();
    assert!(error.contains("GE\\T / HTTP/1.1"), "error: {error}");

    // The declared length alone is rejected; no body bytes follow.
    let (head, body) =
        exchange(b"POST /simulate HTTP/1.1\r\nhost: test\r\ncontent-length: 64\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 413"), "{head}");
    let parsed = service::json::parse(&body)
        .unwrap_or_else(|e| panic!("413 body is not JSON ({e}): {body}"));
    assert!(parsed.get("error").is_some(), "body: {body}");

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// Stopping closes idle keep-alive connections: a client holding one open
/// neither stalls `join` nor gets answers from the stopped server.
#[test]
fn stop_closes_idle_keep_alive_connections() {
    use std::io::{BufReader, Write};
    let handle = serve(test_config()).expect("bind");
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let healthz = b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n";
    stream.write_all(healthz).expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let reply = service::http::read_response(&mut reader).expect("reply");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(reply.keeps_alive(), "{:?}", reply.headers);

    handle.shutdown(Duration::from_secs(2));
    let started = std::time::Instant::now();
    handle.join();
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "join waited {waited:?}");

    let _ = stream.write_all(healthz);
    let again = service::http::read_response(&mut reader);
    assert!(
        !matches!(&again, Ok(reply) if reply.status == 200),
        "a stopped server answered: {again:?}"
    );
}
