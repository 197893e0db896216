//! Telemetry integration tests: structured logging and trace-span
//! recording never change result bytes, `GET /trace/:job_id` exposes the
//! full span tree of a fabric job, and both metrics expositions stay
//! consistent with the traffic that produced them.
//!
//! The global logger is process-wide, so every assertion that captures or
//! reconfigures it lives in ONE test (`trace_level_logging_...`); the
//! other tests leave the logger alone (its default state is off).

use std::collections::HashSet;
use std::time::Duration;

use obs::log::BufferWriter;
use service::json::Json;
use service::{serve, Client, FabricConfig, ServiceConfig, ServiceHandle};

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 256,
        cache_capacity: 256,
        max_body_bytes: 1 << 20,
        fabric: None,
        slow_request_ms: 10_000,
    }
}

fn boot_workers(n: usize) -> (Vec<ServiceHandle>, Vec<String>) {
    let handles: Vec<ServiceHandle> = (0..n)
        .map(|_| serve(test_config()).expect("bind worker"))
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

fn boot_coordinator(workers: Vec<String>, shard_trials: u64) -> ServiceHandle {
    let mut config = test_config();
    // Any request slower than 1 ms is "slow" — which a fabric ensemble job
    // always is, so the slow_request warning path gets exercised.
    config.slow_request_ms = 1;
    config.fabric = Some(FabricConfig {
        workers,
        shard_trials,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..FabricConfig::default()
    });
    serve(config).expect("bind coordinator")
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

fn shutdown_all(handles: impl IntoIterator<Item = ServiceHandle>) {
    for handle in handles {
        handle.shutdown(Duration::from_secs(5));
        handle.join();
    }
}

/// One parsed span from a `/trace/:id` body.
#[derive(Debug)]
struct SpanRow {
    id: String,
    parent: Option<String>,
    name: String,
}

fn parse_spans(body: &str) -> Vec<SpanRow> {
    let parsed = service::json::parse(body).expect("valid trace body");
    let Some(Json::Array(spans)) = parsed.get("spans") else {
        panic!("no spans array in {body}");
    };
    spans
        .iter()
        .map(|span| {
            let field = |key: &str| {
                span.get(key)
                    .unwrap_or_else(|| panic!("span missing `{key}` in {body}"))
                    .clone()
            };
            let id = field("id").as_str("id").expect("span id").to_string();
            let parent = match field("parent") {
                Json::Null => None,
                Json::String(parent) => Some(parent),
                other => panic!("span parent is {other:?}"),
            };
            let name = field("name").as_str("name").expect("span name").to_string();
            SpanRow { id, parent, name }
        })
        .collect()
}

/// The tentpole's acceptance gate: turn EVERYTHING on — trace-level JSON
/// logging into a capture buffer, a 3-worker fabric with trace-header
/// propagation, a 1 ms slow-request threshold — and the result bytes must
/// still be identical to a silent single-process run. Then walk the
/// recorded span tree end to end.
#[test]
fn trace_level_logging_leaves_fabric_bytes_identical_and_records_the_span_tree() {
    // Reference bytes first, with the logger in its default (off) state.
    let reference_request = coin_request(99, 600, true);
    let single = serve(test_config()).expect("bind single");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/simulate", &reference_request)
        .expect("single-process run");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    shutdown_all([single]);

    // Now the loudest possible telemetry configuration.
    let buffer = BufferWriter::new();
    obs::logger().set_writer(Box::new(buffer.clone()));
    obs::logger().set_json(true);
    obs::logger().set_level_spec("trace").expect("level spec");

    let (workers, addrs) = boot_workers(3);
    let coordinator = boot_coordinator(addrs, 200); // 600 trials → 3 shards
    let client = Client::new(coordinator.addr()).expect("client");
    let reply = client
        .post("/simulate", &reference_request)
        .expect("fabric run");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(
        reply.body, reference.body,
        "trace-level logging + fabric tracing changed the result bytes"
    );

    // A fresh-seed async submission hands back the job id, which is the
    // trace id. (A cache replay would record no trace at all.)
    let submitted = client
        .post("/simulate", &coin_request(100, 600, false))
        .expect("async submit");
    assert_eq!(submitted.status, 202, "body: {}", submitted.body);
    let job = json_number(&submitted.body, &["job"]) as u64;
    let done = client
        .get(&format!("/jobs/{job}?wait=1"))
        .expect("wait for job");
    assert_eq!(done.status, 200, "body: {}", done.body);

    // Coordinator-side span tree: root job span, parse, classify,
    // schedule-wait, one shard span per planned shard with its dispatch
    // attempts, and the merge.
    let trace = client.get(&format!("/trace/{job}")).expect("trace query");
    assert_eq!(trace.status, 200, "body: {}", trace.body);
    let spans = parse_spans(&trace.body);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("job"), 1, "spans: {:?}", spans);
    assert_eq!(count("parse"), 1, "spans: {:?}", spans);
    assert_eq!(count("classify"), 1, "spans: {:?}", spans);
    assert_eq!(count("schedule-wait"), 1, "spans: {:?}", spans);
    assert_eq!(count("shard"), 3, "spans: {:?}", spans);
    assert!(count("dispatch") >= 3, "spans: {:?}", spans);
    assert_eq!(count("merge"), 1, "spans: {:?}", spans);

    // The tree is well-formed: exactly one root, and every parent id
    // resolves to another recorded span.
    let ids: HashSet<&str> = spans.iter().map(|s| s.id.as_str()).collect();
    for span in &spans {
        match (&span.parent, span.name.as_str()) {
            (None, "job") => {}
            (None, other) => panic!("span `{other}` has no parent"),
            (Some(parent), _) => {
                assert!(
                    ids.contains(parent.as_str()),
                    "span `{}` has dangling parent {parent}; spans: {:?}",
                    span.name,
                    spans
                );
            }
        }
    }

    // Worker-side: the trace header carried the coordinator's trace id, so
    // the workers' own sinks hold the `shard-exec` spans for this job.
    let mut shard_execs = 0;
    for worker in &workers {
        let reply = Client::new(worker.addr())
            .expect("client")
            .get(&format!("/trace/{job}"))
            .expect("worker trace query");
        if reply.status == 200 {
            shard_execs += parse_spans(&reply.body)
                .iter()
                .filter(|s| s.name == "shard-exec")
                .count();
        }
    }
    assert!(
        shard_execs >= 3,
        "expected one shard-exec span per shard across the workers, saw {shard_execs}"
    );

    // Captured log output: JSON lines with the standard envelope, covering
    // the scheduler, the fabric and the slow-request warning (the 1 ms
    // threshold on the coordinator makes every ensemble job "slow").
    let contents = buffer.contents();
    assert!(!contents.is_empty(), "trace-level run logged nothing");
    for line in contents.lines().filter(|l| !l.is_empty()) {
        let parsed = service::json::parse(line)
            .unwrap_or_else(|e| panic!("log line is not JSON ({e}): {line}"));
        for key in ["ts_us", "level", "target", "event"] {
            assert!(
                parsed.get(key).is_some(),
                "log line missing `{key}`: {line}"
            );
        }
    }
    for event in [
        "job_queued",
        "job_started",
        "job_finished",
        "dispatch",
        "slow_request",
    ] {
        assert!(
            contents.contains(&format!("\"event\":\"{event}\"")),
            "no `{event}` event in captured logs:\n{contents}"
        );
    }

    // Leave the global logger silent for any test scheduled after this one.
    obs::logger().set_level_spec("off").expect("reset level");
    obs::logger().set_json(false);
    shutdown_all([coordinator]);
    shutdown_all(workers);
}

/// The JSON exposition gained an additive per-endpoint section, and
/// `?format=text` renders the whole registry (plus cache/scheduler extras)
/// as a Prometheus-style text document.
#[test]
fn metrics_expositions_cover_endpoints_uptime_and_cache() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    let request = coin_request(7, 50, true);
    let first = client.post("/simulate", &request).expect("simulate");
    assert_eq!(first.status, 200, "body: {}", first.body);
    let bad = client
        .post("/simulate", "{definitely not json")
        .expect("bad request");
    assert_eq!(bad.status, 400, "body: {}", bad.body);
    let replay = client.post("/simulate", &request).expect("replay");
    assert_eq!(replay.header("cache"), Some("hit"));

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(json_number(&metrics.body, &["uptime_ms"]) >= 0.0);
    assert_eq!(
        json_number(&metrics.body, &["endpoints", "simulate", "requests"]),
        3.0,
        "body: {}",
        metrics.body
    );
    assert_eq!(
        json_number(&metrics.body, &["endpoints", "simulate", "responses_4xx"]),
        1.0
    );
    assert_eq!(
        json_number(
            &metrics.body,
            &["endpoints", "simulate", "latency_us", "count"]
        ),
        3.0
    );
    // The legacy shape is untouched: the per-endpoint counter and the named
    // field are the same series.
    assert_eq!(
        json_number(&metrics.body, &["http", "simulate_requests"]),
        3.0
    );

    let text = client.get("/metrics?format=text").expect("text metrics");
    assert_eq!(text.status, 200);
    assert_eq!(
        text.header("content-type"),
        Some("text/plain; charset=utf-8")
    );
    for needle in [
        "http_requests_total{endpoint=\"simulate\"} 3\n",
        "http_responses_total{endpoint=\"simulate\",class=\"4xx\"} 1\n",
        "http_request_duration_us{endpoint=\"simulate\",quantile=\"0.5\"}",
        "sim_steps_total{stepper=\"",
        "scheduler_queue_depth 0\n",
        "scheduler_queue_wait_us_count 1\n",
        "cache_lookup_duration_us_count 2\n",
        "cache_hits_total 1\n",
        "cache_misses_total 1\n",
        "service_uptime_ms",
    ] {
        assert!(
            text.body.contains(needle),
            "missing `{needle}` in:\n{}",
            text.body
        );
    }

    shutdown_all([handle]);
}

/// `/trace/:id` input validation: unknown jobs 404, non-numeric ids 400.
#[test]
fn trace_endpoint_rejects_unknown_and_malformed_ids() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    assert_eq!(client.get("/trace/999999").expect("query").status, 404);
    assert_eq!(client.get("/trace/not-a-job").expect("query").status, 400);
    shutdown_all([handle]);
}

/// Queue-depth and running-jobs gauges move with the scheduler: a saturated
/// one-worker daemon reports a visible queue through the text exposition.
#[test]
fn scheduler_gauges_track_queue_depth() {
    let mut config = test_config();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    // A pile of async jobs (distinct seeds defeat the cache) on one worker:
    // at least some must be queued or running when we sample the gauges.
    for seed in 0..8 {
        let reply = client
            .post("/simulate", &coin_request(1_000 + seed, 50_000, false))
            .expect("submit");
        assert_eq!(reply.status, 202, "body: {}", reply.body);
    }
    let text = client.get("/metrics?format=text").expect("text metrics");
    let gauge = |name: &str| -> f64 {
        text.body
            .lines()
            .find_map(|line| line.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no `{name}` in:\n{}", text.body))
            .trim()
            .parse()
            .expect("gauge value")
    };
    assert!(
        gauge("scheduler_queue_depth") + gauge("scheduler_running_jobs") >= 1.0,
        "all jobs settled before the gauges were sampled:\n{}",
        text.body
    );
    shutdown_all([handle]);
}

/// Sweep points are traced like simulate shards: each grid point records a
/// `point` span on the coordinator (not a `shard` span, so a sweep still
/// counts as one chunk wherever chunks are counted from `shard` spans), its
/// fabric dispatches carry the trace header, and the worker's `/check`
/// records its solve as a `shard-exec` span under the coordinator's trace —
/// while the sweep document stays byte-identical to a single-process run.
#[test]
fn fabric_sweep_points_record_point_dispatch_and_worker_spans() {
    let request = "{\"network\":\"x -> h @ {k}\\nx -> t @ 1\",\"initial\":{\"x\":1},\
                   \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
                   \"property\":{\"type\":\"reach_before\",\
                   \"target\":{\"species\":\"h\",\"at_least\":1},\
                   \"competitor\":{\"species\":\"t\",\"at_least\":1}},\
                   \"sweep\":{\"parameter\":\"k\",\"values\":[1,3,9,27]},\"wait\":WAIT}";

    let single = serve(test_config()).expect("bind single");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/check", &request.replace("WAIT", "true"))
        .expect("single-process sweep");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    shutdown_all([single]);

    let (workers, addrs) = boot_workers(2);
    let coordinator = boot_coordinator(addrs, 250);
    let client = Client::new(coordinator.addr()).expect("client");
    let submitted = client
        .post("/check", &request.replace("WAIT", "false"))
        .expect("async sweep");
    assert_eq!(submitted.status, 202, "body: {}", submitted.body);
    let job = json_number(&submitted.body, &["job"]) as u64;
    let done = client
        .get(&format!("/jobs/{job}?wait=1"))
        .expect("wait for sweep");
    assert_eq!(done.status, 200, "body: {}", done.body);
    assert_eq!(
        done.body, reference.body,
        "traced fabric sweep diverged from the single-process document"
    );

    let trace = client.get(&format!("/trace/{job}")).expect("trace query");
    assert_eq!(trace.status, 200, "body: {}", trace.body);
    let spans = parse_spans(&trace.body);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("job"), 1, "spans: {:?}", spans);
    assert_eq!(count("schedule-wait"), 1, "spans: {:?}", spans);
    assert_eq!(count("point"), 4, "spans: {:?}", spans);
    assert_eq!(count("shard"), 0, "spans: {:?}", spans);
    assert!(count("dispatch") >= 4, "spans: {:?}", spans);
    let ids: HashSet<&str> = spans.iter().map(|s| s.id.as_str()).collect();
    for span in spans.iter().filter(|s| s.name != "job") {
        let parent = span.parent.as_deref().expect("only the root has no parent");
        assert!(ids.contains(parent), "dangling parent: {:?}", spans);
    }

    let mut shard_execs = 0;
    for worker in &workers {
        let reply = Client::new(worker.addr())
            .expect("client")
            .get(&format!("/trace/{job}"))
            .expect("worker trace query");
        if reply.status == 200 {
            shard_execs += parse_spans(&reply.body)
                .iter()
                .filter(|s| s.name == "shard-exec")
                .count();
        }
    }
    assert_eq!(
        shard_execs, 4,
        "expected one worker shard-exec span per grid point"
    );

    shutdown_all([coordinator]);
    shutdown_all(workers);
}
