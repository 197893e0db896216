//! The traced run: per-layer metrics.
//!
//! The traced run opens with an untraced half window, then runs a traced
//! half window on its own stream: each client times a `GET /healthz` after
//! every fourth request, and a collector thread reads every finished job's
//! spans back through `GET /trace/:id`. Afterwards the benchmark replays a
//! fixed prefix of the traced stream through each layer's public functions
//! — JSON parse, request parse, CRN parse, classify, cache key, a result
//! cache replica, the ensemble over the server's chunk plan, merge, render,
//! the CME phases and the fabric shard path — and times each call. The
//! prefix does not depend on timing, so the work counts it reports repeat
//! exactly for a seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cme::{FirstPassage, GeneratorMatrix, StateSpace};
use gillespie::engine::CancelToken;
use gillespie::{Ensemble, SimProfile, StepperKind};
use obs::trace::{span_id, TraceSink};
use service::api::{CheckRequest, ExactAnalysis, ExactRequest, SimulateRequest};
use service::json::{self, Json};
use service::{Client, Fabric, FabricConfig, ResultCache, ShardTrace};

use crate::measure::{mean, percentile, timed};
use crate::runner::{closed_loop, LoopOutput, Prepared, SCHEDULER_WORKERS};
use crate::workload::{Endpoint, Request, FABRIC_SHARD_TRIALS, STREAM_TIMED, STREAM_TRACED};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 39] = [
    ("http.healthz_rtt_us", "us"),
    ("http.request_bytes", "bytes"),
    ("http.response_bytes", "bytes"),
    ("json.parse_us", "us"),
    ("api.parse_us", "us"),
    ("api.cache_key_us", "us"),
    ("api.render_us", "us"),
    ("crn.parse_us", "us"),
    ("gillespie.classify_us", "us"),
    ("gillespie.steps", "count"),
    ("gillespie.propensity_evals_per_step", "ratio"),
    ("gillespie.run_range_us", "us"),
    ("gillespie.ns_per_step.direct", "ns"),
    ("gillespie.ns_per_step.next-reaction", "ns"),
    ("gillespie.ns_per_step.composition-rejection", "ns"),
    ("gillespie.ns_per_step.tau-leaping", "ns"),
    ("gillespie.ns_per_step.hybrid", "ns"),
    ("gillespie.merge_us", "us"),
    ("scheduler.queue_wait_p50_us", "us"),
    ("scheduler.queue_wait_p99_us", "us"),
    ("scheduler.chunks_per_job", "count"),
    ("scheduler.rejected", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_1000", "count"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cme.enumerate_us", "us"),
    ("cme.generator_us", "us"),
    ("cme.solve_us", "us"),
    ("cme.states", "count"),
    ("cme.series_terms", "count"),
    ("fabric.shard_rtt_us", "us"),
    ("fabric.shard_exec_us", "us"),
    ("fabric.dispatch_overhead_us", "us"),
    ("fabric.wire_codec_us", "us"),
    ("fabric.retries", "count"),
    ("unattributed_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.latency_us", "us"),
];

/// The layers a workload is meant to load: they should hold the largest
/// share of its attributed time.
pub fn designated_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "ssa_cold" => &["gillespie"],
        "exact_check" => &["cme"],
        "cache_replay" => &["http", "json", "api", "crn", "cache"],
        _ => &["fabric"],
    }
}

/// Requests of the traced stream replayed through the layers.
fn replay_prefix(workload: &str) -> u64 {
    match workload {
        "ssa_cold" => 48,
        "cache_replay" => 400,
        "exact_check" => 32,
        _ => 64,
    }
}

/// Trace ids of the fabric shard replays, far above any job id.
const REPLAY_TRACE_BASE: u64 = 1 << 50;

/// The outcome of a traced run.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Jobs whose spans were read back, and requests replayed.
    pub jobs: usize,
    pub replayed: usize,
    /// Attributed microseconds per request, by layer.
    pub attribution: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// Server counters read from `GET /metrics` (and `GET /fabric`).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
    jobs: u64,
    rejected: f64,
    retries: f64,
}

impl Counters {
    fn read(client: &Client, fabric: bool) -> Result<Counters, String> {
        let metrics = client.get("/metrics")?.json()?;
        let field = |section: &str, key: &str| -> Result<f64, String> {
            metrics
                .get(section)
                .and_then(|s| s.get(key))
                .ok_or_else(|| format!("/metrics has no {section}.{key}"))?
                .as_f64(key)
        };
        let retries = if fabric {
            let state = client.get("/fabric")?.json()?;
            state
                .get("shard_retries")
                .ok_or("/fabric has no shard_retries")?
                .as_f64("shard_retries")?
        } else {
            0.0
        };
        Ok(Counters {
            hits: field("cache", "hits")?,
            misses: field("cache", "misses")?,
            evictions: field("cache", "evictions")?,
            jobs: (field("scheduler", "completed")?
                + field("scheduler", "failed")?
                + field("scheduler", "cancelled")?) as u64,
            rejected: field("scheduler", "rejected")?,
            retries,
        })
    }
}

/// What one job's spans say.
struct JobTrace {
    queue_wait_us: Option<f64>,
    chunks: usize,
}

fn span_durations(trace: &Json, name: &str) -> Vec<f64> {
    let Some(Json::Array(spans)) = trace.get("spans") else {
        return Vec::new();
    };
    spans
        .iter()
        .filter(|span| span.get("name").and_then(|n| n.as_str("name").ok()) == Some(name))
        .filter_map(|span| {
            let start = span.get("start_us")?.as_f64("start_us").ok()?;
            let end = span.get("end_us")?.as_f64("end_us").ok()?;
            Some(end - start)
        })
        .collect()
}

/// Reads the spans of a finished job (one whose root `job` span exists).
fn job_trace(client: &Client, id: u64) -> Option<JobTrace> {
    let reply = client.get(&format!("/trace/{id}")).ok()?;
    if reply.status != 200 {
        return None;
    }
    let trace = reply.json().ok()?;
    if span_durations(&trace, "job").is_empty() {
        return None;
    }
    Some(JobTrace {
        queue_wait_us: span_durations(&trace, "schedule-wait").first().copied(),
        chunks: span_durations(&trace, "shard").len().max(1),
    })
}

/// Follows job ids from `first` as their traces complete, until `last`
/// (unknown while it reads `u64::MAX`) is reached. A job whose spans left
/// the bounded trace ring is skipped after a grace period.
fn collect_traces(client: &Client, first: u64, last: &AtomicU64) -> Vec<JobTrace> {
    let mut traces = Vec::new();
    let mut id = first;
    let mut misses = 0;
    loop {
        let last_id = last.load(Ordering::SeqCst);
        if id > last_id {
            return traces;
        }
        match job_trace(client, id) {
            Some(trace) => {
                traces.push(trace);
                id += 1;
                misses = 0;
            }
            None => {
                if last_id != u64::MAX {
                    misses += 1;
                    if misses > 100 {
                        id += 1;
                        misses = 0;
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Per-call timings gathered by the replays.
#[derive(Default)]
struct Replay {
    requests: usize,
    json: Vec<f64>,
    api: Vec<f64>,
    api_self_total: f64,
    crn: Vec<f64>,
    classify: Vec<f64>,
    key: Vec<f64>,
    render: Vec<f64>,
    lookup: Vec<f64>,
    insert: Vec<f64>,
    sim_executed: usize,
    steps: u64,
    evals: u64,
    run_range: Vec<f64>,
    per_kind: BTreeMap<&'static str, (f64, u64)>,
    merge: Vec<f64>,
    enumerate: Vec<f64>,
    generator: Vec<f64>,
    solve: Vec<f64>,
    states: Vec<f64>,
    terms: Vec<f64>,
    shard_rtt: Vec<f64>,
    shard_exec: Vec<f64>,
    codec: Vec<f64>,
    failures: Vec<String>,
}

/// The fabric side of a replay: a coordinator replica dispatching to the
/// workload's workers.
struct FabricReplica {
    fabric: Fabric,
    sink: Arc<TraceSink>,
    workers: Vec<Client>,
}

/// The server's local chunk plan: about four ranges per scheduler worker.
fn local_plan(trials: u64) -> Vec<(u64, u64)> {
    let target = (SCHEDULER_WORKERS as u64 * 4).clamp(1, trials);
    let size = trials.div_ceil(target);
    (0..trials.div_ceil(size))
        .map(|i| (i * size, ((i + 1) * size).min(trials)))
        .collect()
}

impl Replay {
    fn front(&mut self, body: &str) -> Result<Json, String> {
        self.requests += 1;
        let (parsed, t) = timed(|| json::parse(body));
        self.json.push(t);
        parsed
    }

    /// Times the CRN text parse and books the API self time (request parse
    /// minus the CRN parse and classify it contains).
    fn api(&mut self, api_us: f64, networks: &[String], classify_us: f64) {
        let crn_us: f64 = networks
            .iter()
            .map(|text| timed(|| crn::parse_network(text)).1)
            .sum();
        self.api.push(api_us);
        self.crn.push(crn_us);
        self.api_self_total += (api_us - crn_us - classify_us).max(0.0);
    }

    /// Looks `key` up in the replica; `true` on a hit.
    fn lookup(&mut self, cache: &ResultCache, key: &str) -> bool {
        let (hit, t) = timed(|| cache.lookup(key).is_some());
        self.lookup.push(t);
        hit
    }

    fn finish(
        &mut self,
        cache: &ResultCache,
        key: &str,
        body: &str,
        served: Option<&str>,
        what: &str,
    ) {
        self.insert.push(timed(|| cache.insert(key, body)).1);
        if served.is_some_and(|served| served != body) {
            self.failures.push(format!(
                "{what}: served body differs from the replayed layers"
            ));
        }
    }

    fn simulate(
        &mut self,
        request: &Request,
        served: Option<&str>,
        cache: &ResultCache,
        fabric: Option<&FabricReplica>,
        index: u64,
    ) -> Result<(), String> {
        let json = self.front(&request.body)?;
        let (parsed, api_us) = timed(|| SimulateRequest::parse(&json));
        let req = parsed.map_err(|e| e.to_string())?;
        let classify_us = if req.method == StepperKind::Auto {
            let t = timed(|| gillespie::classify(&req.crn, &req.initial)).1;
            self.classify.push(t);
            t
        } else {
            0.0
        };
        let network = json.get("network").ok_or("no network")?.as_str("network")?;
        self.api(api_us, &[network.to_string()], classify_us);
        let (key, t) = timed(|| req.cache_key());
        self.key.push(t);
        if self.lookup(cache, &key) {
            return Ok(());
        }
        let classifier = req.classifier().map_err(|e| e.to_string())?;
        let ensemble = Ensemble::new(&req.crn, req.initial.clone(), classifier)
            .options(req.ensemble_options());
        let plan = match fabric {
            Some(replica) => replica.fabric.plan(req.trials),
            None => local_plan(req.trials),
        };
        let cancel = CancelToken::new();
        let mut partials = Vec::with_capacity(plan.len());
        let mut run_us = 0.0;
        let mut steps = 0;
        for (shard, &(start, end)) in plan.iter().enumerate() {
            let mut profile = SimProfile::default();
            let (partial, t) =
                timed(|| ensemble.run_range_profiled(start, end, &cancel, &mut profile));
            let partial = partial.map_err(|e| e.to_string())?;
            run_us += t;
            steps += profile.steps;
            self.evals += profile.propensity_evals;
            if let Some(replica) = fabric {
                let (wire, t_wire) = timed(|| req.to_wire((start, end)));
                let (text, t_render) = timed(|| SimulateRequest::render_partial(&partial));
                let (reparsed, t_parse) = timed(|| json::parse(&text));
                let reparsed = reparsed?;
                let (decoded, t_decode) = timed(|| SimulateRequest::parse_partial(&reparsed));
                decoded.map_err(|e| e.to_string())?;
                std::hint::black_box(wire);
                self.codec.push(t_wire + t_render + t_parse + t_decode);
                let trace_id = (REPLAY_TRACE_BASE + index).to_string();
                let trace = ShardTrace {
                    sink: Arc::clone(&replica.sink),
                    parent: span_id(&trace_id, "shard", shard as u64),
                    trace_id,
                    index: shard as u64,
                };
                let (remote, t) = timed(|| {
                    replica
                        .fabric
                        .run_shard(&req, (start, end), &cancel, Some(&trace))
                });
                remote?;
                self.shard_rtt.push(t);
            }
            partials.push(partial);
        }
        if let Some(replica) = fabric {
            let path = format!("/trace/{}", REPLAY_TRACE_BASE + index);
            for worker in &replica.workers {
                if let Ok(trace) = worker.get(&path).and_then(|reply| reply.json()) {
                    self.shard_exec.extend(span_durations(&trace, "shard-exec"));
                }
            }
        }
        self.sim_executed += 1;
        self.steps += steps;
        self.run_range.push(run_us);
        let kind = self.per_kind.entry(req.resolved.name()).or_default();
        kind.0 += run_us;
        kind.1 += steps;
        let (report, t) = timed(|| ensemble.merge(partials));
        self.merge.push(t);
        let report = report.map_err(|e| e.to_string())?;
        let (body, t) = timed(|| req.render_report(&report));
        self.render.push(t);
        self.finish(
            cache,
            &key,
            &body,
            served,
            &format!("simulate request {index}"),
        );
        Ok(())
    }

    fn exact(
        &mut self,
        request: &Request,
        served: Option<&str>,
        cache: &ResultCache,
        index: u64,
    ) -> Result<(), String> {
        let json = self.front(&request.body)?;
        let (parsed, api_us) = timed(|| ExactRequest::parse(&json));
        let req = parsed.map_err(|e| e.to_string())?;
        let network = json.get("network").ok_or("no network")?.as_str("network")?;
        self.api(api_us, &[network.to_string()], 0.0);
        let (key, t) = timed(|| req.cache_key());
        self.key.push(t);
        if self.lookup(cache, &key) {
            return Ok(());
        }
        let cme_error = |e: cme::CmeError| e.to_string();
        match &req.analysis {
            ExactAnalysis::Transient { t, tolerance, .. } => {
                let (space, t_enum) =
                    timed(|| StateSpace::enumerate(&req.crn, &req.initial, &req.bounds));
                let space = space.map_err(cme_error)?;
                let (generator, t_gen) = timed(|| GeneratorMatrix::from_space(&space));
                let mut p0 = vec![0.0; space.len()];
                p0[space.initial_index()] = 1.0;
                let (solution, t_solve) = timed(|| cme::transient(&generator, &p0, *t, *tolerance));
                let solution = solution.map_err(cme_error)?;
                self.enumerate.push(t_enum);
                self.generator.push(t_gen);
                self.solve.push(t_solve);
                self.states.push(space.len() as f64);
                self.terms.push(solution.terms as f64);
            }
            ExactAnalysis::FirstPassage { outcomes } => {
                let targets: Vec<(crn::SpeciesId, u64)> = outcomes
                    .iter()
                    .map(|(_, species, at_least)| {
                        (
                            req.crn.species_id(species).expect("validated species"),
                            *at_least,
                        )
                    })
                    .collect();
                let absorbing = |s: &crn::State| {
                    targets
                        .iter()
                        .any(|&(id, at_least)| s.count(id) >= at_least)
                };
                let (space, t_enum) = timed(|| {
                    StateSpace::enumerate_absorbing(&req.crn, &req.initial, &req.bounds, absorbing)
                });
                space.map_err(cme_error)?;
                let mut passage = FirstPassage::new(&req.crn);
                for (name, species, at_least) in outcomes {
                    passage = passage
                        .outcome_species_at_least(name.as_str(), species, *at_least)
                        .map_err(cme_error)?;
                }
                let (distribution, t_all) = timed(|| passage.solve(&req.initial, &req.bounds));
                let distribution = distribution.map_err(cme_error)?;
                self.enumerate.push(t_enum);
                self.solve.push((t_all - t_enum).max(0.0));
                self.states.push(distribution.states() as f64);
            }
        }
        let body = req.execute().map_err(|e| e.to_string())?;
        self.finish(
            cache,
            &key,
            &body,
            served,
            &format!("exact request {index}"),
        );
        Ok(())
    }

    fn check(
        &mut self,
        request: &Request,
        served: Option<&str>,
        cache: &ResultCache,
        index: u64,
    ) -> Result<(), String> {
        let json = self.front(&request.body)?;
        let (parsed, api_us) = timed(|| CheckRequest::parse(&json));
        let req = parsed.map_err(|e| e.to_string())?;
        let template = json.get("network").ok_or("no network")?.as_str("network")?;
        let networks: Vec<String> = match &req.sweep {
            None => vec![template.to_string()],
            Some((parameter, values)) => values
                .iter()
                .map(|v| template.replace(&format!("{{{parameter}}}"), &v.to_string()))
                .collect(),
        };
        self.api(api_us, &networks, 0.0);
        let (key, t) = timed(|| req.cache_key());
        self.key.push(t);
        if self.lookup(cache, &key) {
            return Ok(());
        }
        let mut bodies = Vec::with_capacity(req.points.len());
        for point in &req.points {
            let (body, t) = timed(|| point.execute());
            let body = body.map_err(|e| e.to_string())?;
            self.solve.push(t);
            let states = json::parse(&body)?
                .get("states")
                .ok_or("verdict has no states")?
                .as_f64("states")?;
            self.states.push(states);
            bodies.push(body);
        }
        let body = if req.sweep.is_some() {
            let (document, t) = timed(|| req.render_sweep(&bodies));
            self.render.push(t);
            document.map_err(|e| e.to_string())?
        } else {
            bodies.remove(0)
        };
        self.finish(
            cache,
            &key,
            &body,
            served,
            &format!("check request {index}"),
        );
        Ok(())
    }
}

/// The sum of `values`, reading `+0` (not the empty sum's `-0`) when empty.
fn sum(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() + 0.0
}

/// Runs the traced run of a set-up workload.
pub fn traced_run(prepared: &Prepared, seconds: f64) -> Result<Traced, String> {
    let workload = &prepared.workload;
    let is_fabric = workload.name == "fabric_sharded";
    let half = Duration::from_secs_f64(seconds / 2.0);
    let client = Client::new(prepared.services.front.addr())?;

    let untraced = closed_loop(prepared, STREAM_TIMED, half, &|_, _| false, None);
    let before = Counters::read(&client, is_fabric)?;
    let prefix = replay_prefix(workload.name);
    let last = AtomicU64::new(u64::MAX);
    let (traced, jobs, after) = std::thread::scope(|scope| -> Result<_, String> {
        let collector = scope.spawn(|| collect_traces(&client, before.jobs + 1, &last));
        let traced = closed_loop(prepared, STREAM_TRACED, half, &|_, i| i < prefix, Some(4));
        let after = Counters::read(&client, is_fabric);
        let last_job = after.as_ref().map_or(before.jobs, |a| a.jobs);
        last.store(last_job, Ordering::SeqCst);
        let jobs = collector.join().expect("trace collector");
        Ok((traced, jobs, after?))
    })?;

    let mut replay = Replay::default();
    let cache = ResultCache::new(workload.cache_capacity());
    for (request, body) in workload.hot_set().iter().zip(&prepared.warm_bodies) {
        let json = json::parse(&request.body)?;
        let key = match request.endpoint {
            Endpoint::Simulate => SimulateRequest::parse(&json).map(|r| r.cache_key()),
            Endpoint::Exact => ExactRequest::parse(&json).map(|r| r.cache_key()),
            Endpoint::Check => CheckRequest::parse(&json).map(|r| r.cache_key()),
        }
        .map_err(|e| e.to_string())?;
        cache.insert(&key, body);
    }
    let fabric = is_fabric.then(|| FabricReplica {
        fabric: Fabric::new(FabricConfig {
            workers: prepared.services.worker_addrs(),
            shard_trials: FABRIC_SHARD_TRIALS,
            ..FabricConfig::default()
        }),
        sink: Arc::new(TraceSink::new(4096)),
        workers: prepared
            .services
            .worker_addrs()
            .iter()
            .map(|addr| Client::new(addr.as_str()).expect("loopback address"))
            .collect(),
    });
    let served: BTreeMap<u64, &str> = traced
        .kept
        .iter()
        .map(|(index, _, body)| (*index, body.as_str()))
        .collect();
    for index in 0..prefix {
        let request = workload.request(STREAM_TRACED, index);
        let served = served.get(&index).copied();
        let result = match request.endpoint {
            Endpoint::Simulate => replay.simulate(&request, served, &cache, fabric.as_ref(), index),
            Endpoint::Exact => replay.exact(&request, served, &cache, index),
            Endpoint::Check => replay.check(&request, served, &cache, index),
        };
        if let Err(error) = result {
            replay
                .failures
                .push(format!("replay of traced request {index}: {error}"));
        }
    }

    Ok(summarise(&untraced, &traced, &jobs, before, after, replay))
}

fn summarise(
    untraced: &LoopOutput,
    traced: &LoopOutput,
    jobs: &[JobTrace],
    before: Counters,
    after: Counters,
    replay: Replay,
) -> Traced {
    let n = replay.requests.max(1) as f64;
    let waits: Vec<f64> = jobs.iter().filter_map(|j| j.queue_wait_us).collect();
    let sent = traced.samples.len().max(1) as f64;
    let latencies: Vec<f64> = traced
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_us)
        .collect();
    let healthz = mean(&traced.healthz_us);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let shard_rtt = mean(&replay.shard_rtt);
    let shard_exec = mean(&replay.shard_exec);
    let rps = |o: &LoopOutput| o.completed_ok() as f64 / o.window.as_secs_f64();

    let mut metrics = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        metrics.insert(name, if value.is_finite() { value } else { 0.0 });
    };
    put("http.healthz_rtt_us", healthz);
    put(
        "http.request_bytes",
        mean(
            &traced
                .samples
                .iter()
                .map(|s| s.request_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "http.response_bytes",
        mean(
            &traced
                .samples
                .iter()
                .map(|s| s.response_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    put("json.parse_us", mean(&replay.json));
    put("api.parse_us", mean(&replay.api));
    put("api.cache_key_us", mean(&replay.key));
    put("api.render_us", mean(&replay.render));
    put("crn.parse_us", mean(&replay.crn));
    put("gillespie.classify_us", mean(&replay.classify));
    put(
        "gillespie.steps",
        replay.steps as f64 / replay.sim_executed.max(1) as f64,
    );
    put(
        "gillespie.propensity_evals_per_step",
        replay.evals as f64 / replay.steps.max(1) as f64,
    );
    put("gillespie.run_range_us", mean(&replay.run_range));
    for (kind, metric) in [
        ("direct", "gillespie.ns_per_step.direct"),
        ("next-reaction", "gillespie.ns_per_step.next-reaction"),
        (
            "composition-rejection",
            "gillespie.ns_per_step.composition-rejection",
        ),
        ("tau-leaping", "gillespie.ns_per_step.tau-leaping"),
        ("hybrid", "gillespie.ns_per_step.hybrid"),
    ] {
        let (us, steps) = replay.per_kind.get(kind).copied().unwrap_or_default();
        put(
            metric,
            if steps == 0 {
                0.0
            } else {
                us * 1e3 / steps as f64
            },
        );
    }
    put("gillespie.merge_us", mean(&replay.merge));
    put("scheduler.queue_wait_p50_us", percentile(&waits, 0.5));
    put("scheduler.queue_wait_p99_us", percentile(&waits, 0.99));
    put(
        "scheduler.chunks_per_job",
        mean(&jobs.iter().map(|j| j.chunks as f64).collect::<Vec<_>>()),
    );
    put("scheduler.rejected", after.rejected - before.rejected);
    put(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    put(
        "cache.evictions_per_1000",
        1000.0 * (after.evictions - before.evictions) / sent,
    );
    put("cache.lookup_us", mean(&replay.lookup));
    put("cache.insert_us", mean(&replay.insert));
    put("cme.enumerate_us", mean(&replay.enumerate));
    put("cme.generator_us", mean(&replay.generator));
    put("cme.solve_us", mean(&replay.solve));
    put("cme.states", mean(&replay.states));
    put("cme.series_terms", mean(&replay.terms));
    put("fabric.shard_rtt_us", shard_rtt);
    put("fabric.shard_exec_us", shard_exec);
    put("fabric.dispatch_overhead_us", shard_rtt - shard_exec);
    put("fabric.wire_codec_us", mean(&replay.codec));
    put("fabric.retries", after.retries - before.retries);
    put("trace.overhead_ratio", rps(traced) / rps(untraced));
    put("trace.latency_us", mean(&latencies));

    // Busy time per replayed request, by layer. Stepping on the fabric is
    // the workers' shard execution, the rest of a shard round trip is the
    // fabric's own.
    let stepping = if replay.shard_rtt.is_empty() {
        sum(&replay.run_range)
    } else {
        shard_exec * replay.shard_rtt.len() as f64
    };
    let jobs_per_request = jobs.len() as f64 / sent;
    let attribution = vec![
        ("http", healthz),
        ("json", sum(&replay.json) / n),
        (
            "api",
            (replay.api_self_total + sum(&replay.key) + sum(&replay.render)) / n,
        ),
        ("crn", sum(&replay.crn) / n),
        ("cache", (sum(&replay.lookup) + sum(&replay.insert)) / n),
        ("scheduler", mean(&waits) * jobs_per_request),
        (
            "gillespie",
            (sum(&replay.classify) + stepping + sum(&replay.merge)) / n,
        ),
        (
            "cme",
            (sum(&replay.enumerate) + sum(&replay.generator) + sum(&replay.solve)) / n,
        ),
        (
            "fabric",
            (sum(&replay.shard_rtt) - stepping.min(sum(&replay.shard_rtt))) / n,
        ),
    ];
    let attributed: f64 = attribution.iter().map(|(_, us)| us).sum();
    put("unattributed_us", mean(&latencies) - attributed);

    let mut failures = replay.failures;
    for sample in untraced.samples.iter().chain(&traced.samples) {
        if let Some(error) = &sample.error {
            failures.push(format!("request {}: {error}", sample.index));
        }
    }
    Traced {
        metrics,
        jobs: jobs.len(),
        replayed: replay.requests,
        attribution,
        attempted: untraced.samples.len() + traced.samples.len(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::set_up;

    /// The work counts a traced run pins for a seed.
    const EXACT_COUNTS: [&str; 5] = [
        "gillespie.steps",
        "gillespie.propensity_evals_per_step",
        "cme.states",
        "cme.series_terms",
        "scheduler.chunks_per_job",
    ];

    fn traced(workload: &str) -> Traced {
        let (prepared, _) = set_up(workload, 9).expect("set-up");
        let traced = traced_run(&prepared, 0.6);
        prepared.services.stop();
        let traced = traced.expect("traced run");
        assert!(
            traced.failures.is_empty(),
            "{workload}: {:?}",
            traced.failures
        );
        traced
    }

    #[test]
    fn two_traced_runs_report_the_same_counts() {
        for workload in crate::workload::WORKLOADS {
            let (a, b) = (traced(workload), traced(workload));
            for metric in EXACT_COUNTS {
                if workload == "cache_replay" && metric == "scheduler.chunks_per_job" {
                    continue;
                }
                assert_eq!(a.metrics[metric], b.metrics[metric], "{workload}: {metric}");
            }
            for name in LAYER_METRICS.map(|(name, _)| name) {
                assert!(a.metrics.contains_key(name), "{workload}: no {name}");
            }
            assert!(a
                .attribution
                .iter()
                .all(|(layer, _)| *layer != "unattributed"));
        }
    }
}
