//! The structure cache over real sockets: a daemon warmed with every
//! structure at other rates answers `/exact` and `/check` byte for byte
//! like a cold one, its unit spans say whether the structure was held, and
//! a job that panics fails alone.

use std::time::{Duration, Instant};

use service::api::{CheckRequest, ExactRequest};
use service::{serve, Client, ServiceConfig, ServiceHandle};

fn start() -> (ServiceHandle, Client) {
    let handle = serve(ServiceConfig {
        workers: 2,
        cache_capacity: 64,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    (handle, client)
}

/// One `/exact` or `/check` request of the corpus, with its rates scaled by
/// `scale` (and, where it has them, its time, tolerance, outcome names and
/// sweep grid varied with it): every scale has the same structures.
fn corpus(scale: f64) -> Vec<(&'static str, String)> {
    let k = |rate: f64| rate * scale;
    let t = 0.5 + scale / 4.0;
    let exact = |network: String, initial: &str, bounds: &str, analysis: String| {
        (
            "/exact",
            format!(
                "{{\"network\":\"{network}\",\"initial\":{initial},\"bounds\":{bounds},\
                 \"analysis\":{analysis},\"wait\":true}}"
            ),
        )
    };
    let check = |network: String, initial: &str, bounds: &str, property: &str, sweep: &str| {
        (
            "/check",
            format!(
                "{{\"network\":\"{network}\",\"initial\":{initial},\"bounds\":{bounds},\
                 \"property\":{property}{sweep},\"wait\":true}}"
            ),
        )
    };
    let birth_death = format!("0 -> a @ {}\\na -> 0 @ {}", k(8.0), k(1.0));
    let dimerisation = format!("2 a -> b @ {}\\nb -> 2 a @ {}", k(0.02), k(1.0));
    let race = format!("x -> h @ {}\\nx -> t @ {}", k(2.0), k(1.0));
    let swap = format!("a -> b @ {}\\nb -> a @ {}", k(1.2), k(1.0));
    let truncating = "{\"policy\":\"truncating\",\"default_cap\":24}";
    let race_target = "\"target\":{\"species\":\"h\",\"at_least\":4}";
    let race_competitor = "\"competitor\":{\"species\":\"t\",\"at_least\":4}";
    vec![
        exact(
            birth_death.clone(),
            "{\"a\":4}",
            truncating,
            format!("{{\"type\":\"transient\",\"t\":{t},\"species\":[\"a\"]}}"),
        ),
        exact(
            dimerisation.clone(),
            "{\"a\":20}",
            "{\"policy\":\"strict\",\"default_cap\":20}",
            format!(
                "{{\"type\":\"transient\",\"t\":{t},\"tolerance\":1e-{},\
                 \"species\":[\"b\"]}}",
                9 + (scale as u32 % 3)
            ),
        ),
        exact(
            race.clone(),
            "{\"x\":7}",
            "{\"default_cap\":7}",
            format!(
                "{{\"type\":\"first_passage\",\"outcomes\":[\
                 {{\"name\":\"heads{scale}\",\"species\":\"h\",\"at_least\":4}},\
                 {{\"name\":\"tails\",\"species\":\"t\",\"at_least\":4}}]}}"
            ),
        ),
        check(
            race.clone(),
            "{\"x\":7}",
            "{\"default_cap\":7}",
            &format!("{{\"type\":\"reach_before\",{race_target},{race_competitor}}}"),
            "",
        ),
        check(
            race.clone(),
            "{\"x\":7}",
            "{\"default_cap\":7}",
            &format!("{{\"type\":\"reach_within\",{race_target},\"window\":[0.1,{t}]}}"),
            "",
        ),
        check(
            swap,
            "{\"a\":5,\"b\":5}",
            "{\"default_cap\":10}",
            "{\"type\":\"hitting_time\",\"target\":{\"species\":\"a\",\"at_least\":10}}",
            "",
        ),
        check(
            birth_death,
            "{}",
            truncating,
            "{\"type\":\"stationary\",\"target\":{\"species\":\"a\",\"at_least\":9}}",
            "",
        ),
        check(
            format!("x -> h @ {{k}}\\nx -> t @ {}", k(1.0)),
            "{\"x\":7}",
            "{\"default_cap\":7}",
            &format!("{{\"type\":\"reach_before\",{race_target},{race_competitor}}}"),
            &format!(
                ",\"sweep\":{{\"parameter\":\"k\",\"values\":[{},{},{}]}}",
                k(0.5),
                k(1.0),
                k(3.0)
            ),
        ),
        // A window that is invalid, refused before any space is sought.
        check(
            race,
            "{\"x\":7}",
            "{\"default_cap\":7}",
            &format!("{{\"type\":\"reach_within\",{race_target},\"window\":[1,0.5]}}"),
            "",
        ),
        // A strict bound the births exceed: no structure to hold.
        exact(
            format!("0 -> a @ {}", k(1.0)),
            "{}",
            "{\"policy\":\"strict\",\"default_cap\":3}",
            format!("{{\"type\":\"transient\",\"t\":{t}}}"),
        ),
        // The same bound under an invalid window: the window is refused
        // first, at parse time.
        check(
            format!("0 -> a @ {}", k(1.0)),
            "{}",
            "{\"policy\":\"strict\",\"default_cap\":3}",
            "{\"type\":\"reach_within\",\"target\":{\"species\":\"a\",\"at_least\":2},\
             \"window\":[-1,0.5]}",
            "",
        ),
        // A state budget the dimerisation chain exceeds.
        exact(
            dimerisation,
            "{\"a\":20}",
            "{\"policy\":\"strict\",\"default_cap\":20,\"max_states\":5}",
            format!("{{\"type\":\"transient\",\"t\":{t}}}"),
        ),
    ]
}

/// The body the request's own `execute` renders, or the status and error
/// of its refusal: 400 when it does not parse, 500 when its job fails.
fn cold_oracle(endpoint: &str, body: &str) -> Result<String, (u16, String)> {
    let json = service::json::parse(body).expect("corpus body parses");
    let refused = |e: service::ServiceError| (400, e.to_string());
    let failed = |e: service::ServiceError| (500, e.to_string());
    match endpoint {
        "/exact" => ExactRequest::parse(&json)
            .map_err(refused)?
            .execute()
            .map_err(failed),
        _ => {
            let request = CheckRequest::parse(&json).map_err(refused)?;
            let bodies = request
                .points
                .iter()
                .map(|p| p.execute())
                .collect::<Result<Vec<_>, _>>()
                .map_err(failed)?;
            match request.sweep {
                Some(_) => request.render_sweep(&bodies).map_err(failed),
                None => Ok(bodies.into_iter().next().expect("one point")),
            }
        }
    }
}

/// Sends the corpus and returns each reply's status and body.
fn replies(client: &Client, requests: &[(&str, String)]) -> Vec<(u16, String)> {
    requests
        .iter()
        .map(|(endpoint, body)| {
            let reply = client.post(endpoint, body).expect("round trip");
            (reply.status, reply.body)
        })
        .collect()
}

#[test]
fn warm_daemons_answer_like_cold_ones_byte_for_byte() {
    let requests = corpus(1.0);

    let (cold, cold_client) = start();
    let cold_replies = replies(&cold_client, &requests);
    // The race structure is shared: the first passage enumerates it, and
    // the race check and the sweep's three points re-weight it.
    assert_eq!(cold.app().structures().stats().hits, 4);

    let (warm, warm_client) = start();
    for scale in [3.0, 0.25] {
        replies(&warm_client, &corpus(scale));
    }
    let before = warm.app().structures().stats();
    let warm_replies = replies(&warm_client, &requests);
    let after = warm.app().structures().stats();

    for (((endpoint, body), cold), warm) in requests.iter().zip(&cold_replies).zip(&warm_replies) {
        // A failed job's status document names its job id, which counts the
        // warm-up jobs too; its error must match.
        let error = |reply: &(u16, String)| {
            let json = service::json::parse(&reply.1).expect("JSON body");
            json.get("error")
                .map(|e| e.as_str("error").unwrap().to_string())
        };
        if cold.0 == 200 {
            assert_eq!(cold, warm, "{endpoint} {body}");
        } else {
            assert_eq!((cold.0, error(cold)), (warm.0, error(warm)), "{body}");
        }
        match cold_oracle(endpoint, body) {
            Ok(expected) => assert_eq!((cold.0, &cold.1), (200, &expected), "{body}"),
            Err((status, error)) => {
                assert_eq!(cold.0, status, "{body}: {}", cold.1);
                assert!(cold.1.contains(&error), "{body}: {} lacks {error}", cold.1);
            }
        }
    }
    // Every solve that reaches a space re-weights a held one: ten that
    // succeed, the sweep's three points among them. The bound and budget
    // errors never hold one, and the two invalid windows are refused before
    // any space is sought.
    let successes = cold_replies
        .iter()
        .filter(|(status, _)| *status == 200)
        .count();
    assert_eq!(successes, 8);
    let refused = cold_replies
        .iter()
        .filter(|(status, _)| *status == 400)
        .count();
    assert_eq!(refused, 2);
    assert_eq!(after.hits - before.hits, 10);
    assert_eq!(after.misses - before.misses, 2);
    assert_eq!(after.entries, before.entries);
    assert!(after.bytes > 0 && after.bytes <= service::STRUCTURE_CACHE_BYTES);

    for handle in [cold, warm] {
        handle.shutdown(Duration::from_secs(2));
        handle.join();
    }
}

/// The attributes of the first span named `name` in a job's trace.
fn span_attrs(client: &Client, job: &str, name: &str) -> Vec<(String, String)> {
    let reply = client.get(&format!("/trace/{job}")).expect("trace");
    let trace = service::json::parse(&reply.body).expect("trace JSON");
    let spans = trace.get("spans").expect("spans");
    let service::json::Json::Array(spans) = spans else {
        panic!("spans is an array")
    };
    let span = spans
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str("name").ok()) == Some(name))
        .unwrap_or_else(|| panic!("no {name} span in {}", reply.body));
    let service::json::Json::Array(attrs) = span.get("attrs").expect("attrs") else {
        panic!("attrs is an array")
    };
    attrs
        .iter()
        .map(|a| {
            let field = |k| a.get(k).unwrap().as_str(k).unwrap().to_string();
            (field("key"), field("value"))
        })
        .collect()
}

/// The value of attribute `key`.
fn attr<'a>(attrs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn unit_spans_and_metrics_report_the_structure_cache() {
    let (handle, client) = start();
    let requests = corpus(1.0);
    // Job 1: the birth-death transient, enumerated.
    assert_eq!(
        client.post(requests[0].0, &requests[0].1).unwrap().status,
        200
    );
    let attrs = span_attrs(&client, "1", "shard");
    assert_eq!(attrs[0], ("analysis".to_string(), "exact".to_string()));
    assert_eq!(attr(&attrs, "structure"), Some("miss"));
    assert_eq!(attr(&attrs, "states"), Some("25"));
    // The series terms and the rate its solve used: the mass drifts from
    // a = 4 towards the mean 8, past every restricted rate, so the solve
    // runs at the generator's own Λ = 8 + 24.
    let crn: crn::Crn = "0 -> a @ 8\na -> 0 @ 1".parse().unwrap();
    let initial = crn.state_from_counts([("a", 4)]).unwrap();
    let space =
        cme::StateSpace::enumerate(&crn, &initial, &cme::PopulationBounds::truncating(24)).unwrap();
    let solution = space.transient(0.75, 1e-12).unwrap();
    assert_eq!(solution.uniformization_rate, 32.0);
    let terms = solution.terms.to_string();
    assert_eq!(attr(&attrs, "terms"), Some(terms.as_str()));
    assert_eq!(attr(&attrs, "rate"), Some("32"));
    // Job 2: the same structure at other rates, re-weighted.
    let faster = &corpus(2.0)[0];
    assert_eq!(client.post(faster.0, &faster.1).unwrap().status, 200);
    let attrs = span_attrs(&client, "2", "shard");
    assert_eq!(attr(&attrs, "structure"), Some("hit"));
    assert_eq!(attr(&attrs, "states"), Some("25"));
    // Job 3: a check point.
    assert_eq!(
        client.post(requests[3].0, &requests[3].1).unwrap().status,
        200
    );
    let attrs = span_attrs(&client, "3", "point");
    assert_eq!(attr(&attrs, "structure"), Some("miss"));
    assert!(attr(&attrs, "states").is_some());

    let metrics = client.get("/metrics").unwrap().body;
    let metrics = service::json::parse(&metrics).unwrap();
    let section = metrics.get("cme_structure_cache").expect("section");
    let count = |k: &str| section.get(k).unwrap().as_u64(k).unwrap();
    assert_eq!(
        (count("hits"), count("misses"), count("entries")),
        (1, 2, 2)
    );
    assert_eq!(count("evictions"), 0);
    assert!(count("bytes") > 0);
    let text = client.get("/metrics?format=text").unwrap().body;
    for series in [
        "cme_structure_cache_hits_total 1",
        "cme_structure_cache_misses_total 2",
        "cme_structure_cache_evictions_total 0",
        "cme_structure_cache_bytes ",
        "jobs_panicked_total 0",
    ] {
        assert!(text.contains(series), "{series} missing from\n{text}");
    }

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}

/// Transients whose dense marginal cannot be allocated: the unit panics
/// (`capacity overflow`, a count near 2⁶⁴), the job fails with a JSON body,
/// and the daemon answers the next request and shuts down in time.
#[test]
fn a_panicking_unit_fails_its_job_and_the_daemon_serves_on() {
    let (handle, client) = start();
    let panicking = [
        "{\"network\":\"a -> c @ 1\\nb -> b @ 1\",\"initial\":{\"b\":2305843009213693952},\
         \"bounds\":{\"policy\":\"truncating\",\"default_cap\":4611686018427387904},\
         \"analysis\":{\"type\":\"transient\",\"t\":1,\"species\":[\"b\"]},\"wait\":true}",
        "{\"network\":\"0 -> a @ 1\",\"initial\":{\"a\":18446744073709549568},\
         \"bounds\":{\"policy\":\"truncating\",\"default_cap\":18446744073709549568},\
         \"analysis\":{\"type\":\"transient\",\"t\":1,\"species\":[\"a\"]},\"wait\":true}",
    ];
    for body in panicking {
        let reply = client.post("/exact", body).expect("round trip");
        assert_eq!(reply.status, 500, "{}", reply.body);
        assert_eq!(reply.header("x-job-state"), Some("failed"));
        let json = service::json::parse(&reply.body).expect("JSON body");
        let error = json.get("error").unwrap().as_str("error").unwrap();
        assert!(error.contains("panicked"), "{error}");
    }
    // u64::MAX itself is 2⁶⁴ as a JSON number: a typed 400 naming the field.
    let literal = "{\"network\":\"0 -> a @ 1\",\"initial\":{\"a\":18446744073709551615},\
        \"bounds\":{\"policy\":\"truncating\",\"default_cap\":18446744073709551615},\
        \"analysis\":{\"type\":\"transient\",\"t\":1,\"species\":[\"a\"]},\"wait\":true}";
    let reply = client.post("/exact", literal).expect("round trip");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("initial.a"), "{}", reply.body);
    let cap = literal.replace("\"a\":18446744073709551615", "\"a\":1");
    let reply = client.post("/exact", &cap).expect("round trip");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("bounds.default_cap"), "{}", reply.body);

    let next = &corpus(1.0)[2];
    assert_eq!(client.post(next.0, &next.1).unwrap().status, 200);
    let text = client.get("/metrics?format=text").unwrap().body;
    assert!(text.contains("jobs_panicked_total 2"), "{text}");
    let metrics = service::json::parse(&client.get("/metrics").unwrap().body).unwrap();
    let scheduler = metrics.get("scheduler").unwrap();
    assert_eq!(scheduler.get("panicked").unwrap().as_u64("panicked"), Ok(2));
    assert_eq!(scheduler.get("failed").unwrap().as_u64("failed"), Ok(2));

    let started = Instant::now();
    handle.shutdown(Duration::from_secs(2));
    handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{:?}",
        started.elapsed()
    );
}

/// The books of a transient close end to end: the cap-1024 birth–death
/// chain started at its stationary mean, over HTTP.
#[test]
fn a_transient_body_closes_its_books() {
    let (handle, client) = start();
    let body = "{\"network\":\"0 -> a @ 128\\na -> 0 @ 2\",\"initial\":{\"a\":64},\
        \"bounds\":{\"policy\":\"truncating\",\"default_cap\":1024},\
        \"analysis\":{\"type\":\"transient\",\"t\":1,\"tolerance\":1e-10,\
        \"species\":[\"a\"]},\"wait\":true}";
    let reply = client.post("/exact", body).expect("round trip");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let json = service::json::parse(&reply.body).expect("JSON body");
    let number = |value: &service::json::Json, what: &str| value.as_f64(what).unwrap();
    let service::json::Json::Array(marginal) = json.get("marginals").unwrap().get("a").unwrap()
    else {
        panic!("the marginal is an array")
    };
    let retained: f64 = marginal.iter().map(|p| number(p, "marginal")).sum();
    let leaked = number(json.get("leaked").unwrap(), "leaked");
    let truncation = number(json.get("truncation_error").unwrap(), "truncation_error");
    assert!(
        (retained + leaked + truncation - 1.0).abs() <= 1e-12,
        "Σ {retained}, leaked {leaked:e}, truncation {truncation:e}"
    );
    assert!(truncation <= 1e-10, "truncation {truncation:e}");
    // An immigration–death chain started at its stationary mean keeps it.
    let mean = number(json.get("expectations").unwrap().get("a").unwrap(), "a");
    assert!((mean - 64.0).abs() <= 1e-6, "mean {mean}");
    let request = ExactRequest::parse(&service::json::parse(body).unwrap()).unwrap();
    assert_eq!(reply.body, request.execute().unwrap());

    handle.shutdown(Duration::from_secs(2));
    handle.join();
}
