//! Service set-up, the closed-loop clients and the correctness checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gillespie::Ensemble;
use service::api::{CheckRequest, ExactRequest, SimulateRequest};
use service::{serve, Client, FabricConfig, ServiceConfig, ServiceHandle};

use crate::measure::{fnv1a, micros};
use crate::workload::{Endpoint, Request, Workload, EXAMPLE1_TARGET, FABRIC_SHARD_TRIALS};

/// Client threads of every workload: the closed loop runs one request per
/// client at a time. With one client the hit path (client, connection
/// thread) runs on fewer threads than a 2-core machine has cores, so the
/// latency tail measures the program rather than the kernel's run queue.
pub const CLIENTS: usize = 1;

/// Target length of one slice of the timed window; the end-to-end metrics
/// are medians over the slices.
pub const SLICE_SECONDS: f64 = 2.0;

/// The number of equal slices `window` is cut into: about `SLICE_SECONDS`
/// each, at least one.
pub fn slice_count(window: Duration) -> usize {
    ((window.as_secs_f64() / SLICE_SECONDS).round() as usize).max(1)
}

/// Scheduler threads of every daemon, fixed so chunk plans do not follow the
/// machine.
pub const SCHEDULER_WORKERS: usize = 2;

/// The daemons of one workload: the front service the clients talk to and,
/// for `fabric_sharded`, its two loopback workers.
pub struct Services {
    pub front: ServiceHandle,
    pub workers: Vec<ServiceHandle>,
}

pub fn service_config(cache_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        workers: SCHEDULER_WORKERS,
        cache_capacity,
        slow_request_ms: 0,
        ..ServiceConfig::default()
    }
}

impl Services {
    /// Starts the daemons of `workload`. Fabric workers run without a result
    /// cache: every job of the workload has a fresh seed, so a worker cache
    /// could never hit, and without it the traced run's shard replays reach
    /// the same cold path the workload drove.
    pub fn start(workload: &Workload) -> Result<Services, String> {
        let bind = |config| serve(config).map_err(|e| format!("cannot start a service: {e}"));
        if workload.name != "fabric_sharded" {
            return Ok(Services {
                front: bind(service_config(workload.cache_capacity()))?,
                workers: Vec::new(),
            });
        }
        let workers = (0..2)
            .map(|_| bind(service_config(0)))
            .collect::<Result<Vec<_>, _>>()?;
        let front = bind(ServiceConfig {
            fabric: Some(FabricConfig {
                workers: workers.iter().map(|w| w.addr().to_string()).collect(),
                shard_trials: FABRIC_SHARD_TRIALS,
                ..FabricConfig::default()
            }),
            ..service_config(workload.cache_capacity())
        })?;
        Ok(Services { front, workers })
    }

    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr().to_string()).collect()
    }

    /// Drains and joins every daemon.
    pub fn stop(self) {
        for handle in std::iter::once(self.front).chain(self.workers) {
            handle.shutdown(Duration::from_secs(5));
            handle.join();
        }
    }
}

/// A set-up workload: corpus, running daemons and the warm-up replies.
pub struct Prepared {
    pub workload: Workload,
    pub services: Services,
    /// The body of each warm-up reply (for `cache_replay`, the miss that
    /// filled each hot slot).
    pub warm_bodies: Vec<String>,
}

/// Generates the corpus, starts the daemons and sends the warm-up requests,
/// returning the set-up and its duration.
pub fn set_up(name: &str, seed: u64) -> Result<(Prepared, Duration), String> {
    let started = Instant::now();
    let workload = Workload::new(name, seed)?;
    let services = Services::start(&workload)?;
    let client = Client::new(services.front.addr())?;
    let mut warm_bodies = Vec::new();
    for request in workload.warmup() {
        let reply = client.post(request.endpoint.path(), &request.body)?;
        if reply.status != 200 {
            return Err(format!(
                "warm-up {} answered {}: {}",
                request.endpoint.path(),
                reply.status,
                reply.body
            ));
        }
        warm_bodies.push(reply.body);
    }
    let elapsed = started.elapsed();
    Ok((
        Prepared {
            workload,
            services,
            warm_bodies,
        },
        elapsed,
    ))
}

/// One request of a closed loop, as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: u64,
    pub entry: usize,
    pub hot: Option<usize>,
    pub latency_us: f64,
    /// Completion time since the window opened.
    pub end: Duration,
    /// Transport success, status 200 and, on cold workloads, a cache miss.
    pub ok: bool,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub body_hash: u64,
    pub error: Option<String>,
}

/// What a closed loop observed.
pub struct LoopOutput {
    pub samples: Vec<Sample>,
    /// `(request, response body)` of the requests `keep` selected.
    pub kept: Vec<(u64, Request, String)>,
    pub healthz_us: Vec<f64>,
    pub window: Duration,
    /// Process CPU milliseconds at each slice boundary of the window,
    /// `slice_count(window) + 1` readings from its opening to its close.
    pub cpu_marks: Vec<f64>,
}

impl LoopOutput {
    /// Samples that completed inside the window.
    pub fn in_window(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.end <= self.window)
    }

    pub fn completed_ok(&self) -> usize {
        self.in_window().filter(|s| s.ok).count()
    }

    /// The in-window samples cut by completion time into `count` equal
    /// slices of the window.
    pub fn slices(&self, count: usize) -> Vec<Vec<&Sample>> {
        let width = self.window.as_secs_f64() / count as f64;
        let mut slices = vec![Vec::new(); count];
        for sample in self.in_window() {
            let slice = (sample.end.as_secs_f64() / width) as usize;
            slices[slice.min(count - 1)].push(sample);
        }
        slices
    }
}

/// Runs `CLIENTS` closed-loop clients on `stream` for `window`: each sends
/// its next request only once the previous reply arrived. With
/// `probe_every`, each client also times a `GET /healthz` after every that
/// many requests.
pub fn closed_loop(
    prepared: &Prepared,
    stream: u64,
    window: Duration,
    keep: &(dyn Fn(&Request, u64) -> bool + Sync),
    probe_every: Option<u64>,
) -> LoopOutput {
    let addr = prepared.services.front.addr();
    let workload = &prepared.workload;
    let next = AtomicU64::new(0);
    let barrier = Barrier::new(CLIENTS + 1);
    let (results, cpu_marks) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (next, barrier) = (&next, &barrier);
                scope.spawn(move || {
                    let client = Client::new(addr).expect("loopback address");
                    let mut samples = Vec::new();
                    let mut kept = Vec::new();
                    let mut healthz = Vec::new();
                    barrier.wait();
                    let opened = Instant::now();
                    let mut sent = 0u64;
                    while opened.elapsed() < window {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let request = workload.request(stream, index);
                        let started = Instant::now();
                        let reply = client.post(request.endpoint.path(), &request.body);
                        let finished = Instant::now();
                        let mut sample = Sample {
                            index,
                            entry: request.entry,
                            hot: request.hot,
                            latency_us: micros(finished - started),
                            end: finished - opened,
                            ok: false,
                            request_bytes: request.body.len(),
                            response_bytes: 0,
                            body_hash: 0,
                            error: None,
                        };
                        match reply {
                            Err(error) => sample.error = Some(error),
                            Ok(reply) => {
                                sample.response_bytes = reply.body.len();
                                sample.body_hash = fnv1a(reply.body.as_bytes());
                                if reply.status != 200 {
                                    sample.error =
                                        Some(format!("status {}: {}", reply.status, reply.body));
                                } else if workload.is_cold() && reply.header("cache") == Some("hit")
                                {
                                    sample.error = Some("a cold request hit the cache".to_string());
                                } else {
                                    sample.ok = true;
                                }
                                if keep(&request, index) {
                                    kept.push((index, request, reply.body));
                                }
                            }
                        }
                        samples.push(sample);
                        sent += 1;
                        if probe_every.is_some_and(|every| sent.is_multiple_of(every)) {
                            let started = Instant::now();
                            if client.get("/healthz").is_ok_and(|r| r.status == 200) {
                                healthz.push(micros(started.elapsed()));
                            }
                        }
                    }
                    (samples, kept, healthz)
                })
            })
            .collect();
        barrier.wait();
        let opened = Instant::now();
        let slices = slice_count(window);
        let mut cpu_marks = vec![crate::measure::process_cpu_ms()];
        for slice in 1..=slices {
            let due = opened + window.mul_f64(slice as f64 / slices as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            cpu_marks.push(crate::measure::process_cpu_ms());
        }
        let results: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        (results, cpu_marks)
    });
    let mut output = LoopOutput {
        samples: Vec::new(),
        kept: Vec::new(),
        healthz_us: Vec::new(),
        window,
        cpu_marks,
    };
    for (samples, kept, healthz) in results {
        output.samples.extend(samples);
        output.kept.extend(kept);
        output.healthz_us.extend(healthz);
    }
    output.samples.sort_by_key(|s| s.index);
    output.kept.sort_by_key(|k| k.0);
    output
}

/// Which replies the correctness checks re-derive: the first few of the
/// stream (every entry of the first blocks) and then a sparse sample.
pub fn keep_for_check(index: u64) -> bool {
    index < 16 || index.is_multiple_of(199)
}

fn example1_entry(workload: &Workload) -> Option<usize> {
    workload
        .entry_names()
        .iter()
        .position(|&n| n == "example1_first_passage")
}

/// The replies a timed run keeps for [`check_replies`]: the sampled ones
/// and every (small) Example 1 first-passage body.
pub fn keep_rule(workload: &Workload) -> impl Fn(&Request, u64) -> bool + Sync {
    let example1 = example1_entry(workload);
    move |request, index| keep_for_check(index) || Some(request.entry) == example1
}

/// The body a single-process service renders for a `/simulate` request:
/// `Ensemble::run` on one thread, then `render_report`.
pub fn simulate_reference(body: &str) -> Result<String, String> {
    let json = service::json::parse(body)?;
    let request = SimulateRequest::parse(&json).map_err(|e| e.to_string())?;
    let classifier = request.classifier().map_err(|e| e.to_string())?;
    let report = Ensemble::new(&request.crn, request.initial.clone(), classifier)
        .options(request.ensemble_options().threads(1))
        .run()
        .map_err(|e| e.to_string())?;
    Ok(request.render_report(&report))
}

/// The body the service renders for an `/exact` or `/check` request,
/// computed in process.
pub fn analysis_reference(endpoint: Endpoint, body: &str) -> Result<String, String> {
    let json = service::json::parse(body)?;
    match endpoint {
        Endpoint::Exact => ExactRequest::parse(&json)
            .and_then(|r| r.execute())
            .map_err(|e| e.to_string()),
        Endpoint::Check => {
            let request = CheckRequest::parse(&json).map_err(|e| e.to_string())?;
            let bodies = request
                .points
                .iter()
                .map(|p| p.execute())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            if request.sweep.is_some() {
                request.render_sweep(&bodies).map_err(|e| e.to_string())
            } else {
                Ok(bodies.into_iter().next().expect("one point"))
            }
        }
        Endpoint::Simulate => simulate_reference(body),
    }
}

/// Checks an Example 1 first-passage body against {0.3, 0.4, 0.3}. At
/// γ ≈ 1000 the module's error is of order 1/γ, so this is a sanity bound.
pub fn check_example1(body: &str) -> Result<(), String> {
    let json = service::json::parse(body)?;
    let probabilities = json.get("probabilities").ok_or("no probabilities")?;
    for (i, target) in EXAMPLE1_TARGET.iter().enumerate() {
        let name = format!("T{}", i + 1);
        let p = probabilities
            .get(&name)
            .ok_or_else(|| format!("no {name}"))?
            .as_f64(&name)?;
        if (p - target).abs() > 1e-2 {
            return Err(format!("P({name}) = {p}, expected {target} ± 1e-2"));
        }
    }
    Ok(())
}

/// Re-derives the kept replies of a timed run and returns one message per
/// failed check. `cache_replay` hits must replay the miss that filled their
/// slot; cold `/simulate` bodies must equal the one-thread ensemble (or,
/// for the fabric, the body of a plain single-process service); analysis
/// bodies must equal their in-process solve.
pub fn check_replies(prepared: &Prepared, output: &LoopOutput) -> Vec<String> {
    let workload = &prepared.workload;
    let mut failures = Vec::new();
    let example1_entry = example1_entry(workload);
    for sample in &output.samples {
        if let Some(slot) = sample.hot {
            if sample.ok && sample.body_hash != fnv1a(prepared.warm_bodies[slot].as_bytes()) {
                failures.push(format!(
                    "request {}: hot slot {slot} replayed other bytes than its filling miss",
                    sample.index
                ));
            }
        }
    }
    let plain = (workload.name == "fabric_sharded").then(|| {
        serve(service_config(workload.cache_capacity())).expect("plain reference service")
    });
    let plain_client = plain
        .as_ref()
        .map(|p| Client::new(p.addr()).expect("loopback address"));
    for (index, request, body) in &output.kept {
        if Some(request.entry) == example1_entry {
            if let Err(error) = check_example1(body) {
                failures.push(format!("request {index}: {error}"));
            }
        }
        if !keep_for_check(*index) {
            continue;
        }
        let expected = if let Some(slot) = request.hot {
            Ok(prepared.warm_bodies[slot].clone())
        } else if let Some(client) = &plain_client {
            client
                .post(request.endpoint.path(), &request.body)
                .map(|reply| reply.body)
        } else {
            analysis_reference(request.endpoint, &request.body)
        };
        match expected {
            Ok(expected) if &expected == body => {}
            Ok(_) => failures.push(format!(
                "request {index} ({}): body differs from the reference",
                workload.entry_names()[request.entry]
            )),
            Err(error) => failures.push(format!("request {index}: reference failed: {error}")),
        }
    }
    if let Some(plain) = plain {
        plain.shutdown(Duration::from_secs(5));
        plain.join();
    }
    failures
}
