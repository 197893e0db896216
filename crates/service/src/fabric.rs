//! The distributed ensemble fabric: shard dispatch, retry and merge.
//!
//! A coordinator daemon configured with worker addresses splits each
//! `/simulate` ensemble into trial-range shards, posts every shard to a
//! worker as a `"range": [start, end)` request, and merges the returned
//! [`EnsemblePartial`](gillespie::EnsemblePartial) wire documents into the
//! final report. Three properties hold by construction:
//!
//! * **Byte determinism** — trial `i` runs with seed `master_seed + i` on
//!   whichever worker gets its shard, and partials merge through exact
//!   accumulators whose readout is a pure function of the per-trial value
//!   multiset. The merged `EnsembleReport` is therefore bit-identical to a
//!   single-process run for *any* cluster shape, shard size, worker
//!   failure or retry pattern.
//! * **Bounded memory** — a shard travels as outcome counts plus `O(1)`
//!   exact accumulators, never per-trial samples, so a million-trial job
//!   costs the coordinator one small document per shard regardless of
//!   trial count. Running statistics stream through a
//!   [`Moments`](gillespie::Moments) accumulator as shards land.
//! * **Fault tolerance** — a failed dispatch (dead worker, timeout, error
//!   status) retries on the next healthy worker with bounded doubling
//!   backoff; the worker registry's consecutive-failure counter steers
//!   round-robin away from dead workers until they answer again.
//!
//! Cache federation has two tiers: the coordinator's own
//! [`ResultCache`](crate::ResultCache) answers whole-job replays, and each
//! worker caches its shards under their range-keyed documents, so a
//! re-sharded or partially retried job reuses every shard the pool has seen
//! before. The
//! per-tier hit/miss counters are exposed through `GET /fabric` and the
//! `fabric` section of `GET /metrics`.
//!
//! `/check` parameter sweeps ride the same machinery: each grid point is a
//! work unit dispatched to `/check` on a worker ([`Fabric::run_check`]),
//! retried, counted and traced exactly like a simulate shard, with the
//! per-point verdict cached worker-side under the point's canonical key.
//!
//! A shard's body is its request's canonical document plus the resolved
//! stepper, the shard's `range` and `wait: true` (see [`crate::api`]), and
//! the trial ranges come from the same [`plan_ranges`] a daemon without
//! workers uses to cut ensembles into in-process units.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gillespie::engine::CancelToken;
use gillespie::{EnsemblePartial, Moments};
use obs::log::{event, Level, Value};
use obs::trace::{span_id, Span, TraceContext, TraceSink};
use obs::MetricsRegistry;

use crate::api::{CheckPoint, SimulateRequest};
use crate::client::Client;
use crate::json::Json;
use crate::registry::{WorkerRegistry, WorkerSnapshot};

/// The request header a coordinator stamps on every shard dispatch so the
/// worker's spans attach to the coordinator's trace tree.
pub const TRACE_HEADER: &str = "x-stochsynth-trace";

/// Trace coordinates for one unit of work: the sink spans are recorded
/// into, the owning trace, and the span the unit's dispatch attempts (or
/// its in-process execution) nest under. Purely observational — dispatch
/// order, retries and merges are identical with or without it.
#[derive(Clone)]
pub struct ShardTrace {
    /// Where dispatch spans are recorded.
    pub sink: Arc<TraceSink>,
    /// The coordinator's trace id (its job id, as text).
    pub trace_id: String,
    /// The unit's span id (`shard`, or `point` for a sweep point) — the
    /// parent of every dispatch attempt span.
    pub parent: u64,
    /// The shard's chunk index, folded into dispatch span ids so attempts
    /// of different shards never collide.
    pub index: u64,
}

impl ShardTrace {
    /// Records span `name` (`index` tells siblings apart) under this
    /// trace's parent, spanning `start_us..end_us`.
    pub(crate) fn record_between(
        &self,
        name: &str,
        index: u64,
        start_us: u64,
        end_us: u64,
        attrs: &[(&str, String)],
    ) {
        self.sink.record(Span {
            trace_id: self.trace_id.clone(),
            id: span_id(&self.trace_id, name, index),
            parent: Some(self.parent),
            name: name.to_string(),
            start_us,
            end_us,
            attrs: attrs
                .iter()
                .map(|(key, value)| (key.to_string(), value.clone()))
                .collect(),
        });
    }

    /// [`record_between`](Self::record_between) from `start_us` until now.
    pub(crate) fn record(&self, name: &str, index: u64, start_us: u64, attrs: &[(&str, String)]) {
        self.record_between(name, index, start_us, self.sink.now_us(), attrs);
    }
}

/// A span's `outcome` attribute.
pub(crate) fn outcome<T, E>(result: &Result<T, E>) -> String {
    if result.is_ok() { "ok" } else { "error" }.to_string()
}

/// Splits `trials` into consecutive ranges `[start, end)` of `fixed` trials
/// each, or, when `fixed` is 0, of about a quarter of `trials / units`, so
/// `units` executors each get about four ranges to share out. This is the
/// one plan for fabric shards and in-process chunks alike.
pub(crate) fn plan_ranges(trials: u64, units: u64, fixed: u64) -> Vec<(u64, u64)> {
    let size = if fixed > 0 {
        fixed
    } else {
        trials.div_ceil(units.max(1) * 4)
    }
    .max(1);
    let mut ranges = Vec::with_capacity(trials.div_ceil(size) as usize);
    let mut start = 0;
    while start < trials {
        let end = (start + size).min(trials);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Configuration of a fabric coordinator.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker addresses to register at startup.
    pub workers: Vec<String>,
    /// Trials per shard. `0` sizes shards automatically (about four per
    /// worker). A fixed explicit value makes shard boundaries independent
    /// of the pool size, which maximises worker-cache reuse when the
    /// cluster shape changes between runs.
    pub shard_trials: u64,
    /// Dispatch attempts per shard before the job fails.
    pub max_attempts: u32,
    /// Initial retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-shard HTTP I/O timeout.
    pub request_timeout: Duration,
    /// Per-address connect timeout (kept short so a dead worker costs
    /// little before the shard rebalances).
    pub connect_timeout: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: Vec::new(),
            shard_trials: 0,
            max_attempts: 6,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            request_timeout: Duration::from_secs(600),
            connect_timeout: Duration::from_secs(2),
        }
    }
}

/// A point-in-time copy of the fabric counters. "Shard" counts every
/// dispatched work unit: simulate trial-range shards and `/check` grid
/// points alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricStats {
    /// Shards handed to workers (including retried dispatches).
    pub shards_dispatched: u64,
    /// Shards merged successfully.
    pub shards_completed: u64,
    /// Dispatches that had to be retried on another (or the same) worker.
    pub shard_retries: u64,
    /// Individual dispatch failures (connect, timeout, error status).
    pub worker_failures: u64,
    /// Shards a worker answered from its own result cache.
    pub remote_cache_hits: u64,
    /// Shards a worker had to compute.
    pub remote_cache_misses: u64,
}

impl FabricStats {
    /// The counters under their JSON keys: the one list `GET /fabric` and
    /// both `GET /metrics` formats render (the text series of `key` is
    /// `fabric_<key>_total`).
    pub(crate) fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("shards_dispatched", self.shards_dispatched),
            ("shards_completed", self.shards_completed),
            ("shard_retries", self.shard_retries),
            ("worker_failures", self.worker_failures),
            ("remote_cache_hits", self.remote_cache_hits),
            ("remote_cache_misses", self.remote_cache_misses),
        ]
    }
}

/// The coordinator side of the distributed ensemble fabric.
#[derive(Debug)]
pub struct Fabric {
    registry: WorkerRegistry,
    config: FabricConfig,
    shards_dispatched: AtomicU64,
    shards_completed: AtomicU64,
    shard_retries: AtomicU64,
    worker_failures: AtomicU64,
    remote_cache_hits: AtomicU64,
    remote_cache_misses: AtomicU64,
    /// Running final-time statistics over every trial merged so far, fed
    /// by shard moments as they land — the streaming monitoring surface of
    /// long jobs (`GET /fabric` exposes it mid-flight).
    streamed: Mutex<Moments>,
    /// When set, per-worker round-trip histograms
    /// (`fabric_shard_rtt_us{worker="…"}`) are recorded here.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Fabric {
    /// Creates a fabric and registers the configured workers.
    pub fn new(config: FabricConfig) -> Fabric {
        let registry = WorkerRegistry::new();
        for addr in &config.workers {
            registry.register(addr);
        }
        Fabric {
            registry,
            config,
            shards_dispatched: AtomicU64::new(0),
            shards_completed: AtomicU64::new(0),
            shard_retries: AtomicU64::new(0),
            worker_failures: AtomicU64::new(0),
            remote_cache_hits: AtomicU64::new(0),
            remote_cache_misses: AtomicU64::new(0),
            streamed: Mutex::new(Moments::new()),
            metrics: None,
        }
    }

    /// Attaches a metrics registry; dispatches then record per-worker
    /// round-trip histograms into it.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Fabric {
        self.metrics = Some(registry);
        self
    }

    /// The worker registry (for `/fabric/workers` registration and tests).
    pub fn registry(&self) -> &WorkerRegistry {
        &self.registry
    }

    /// The configuration the fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Splits `trials` into shard ranges `[start, end)`: `shard_trials`
    /// each, or about four per registered worker.
    pub fn plan(&self, trials: u64) -> Vec<(u64, u64)> {
        plan_ranges(trials, self.registry.len() as u64, self.config.shard_trials)
    }

    /// Runs one shard on the worker pool: dispatch, retry with bounded
    /// doubling backoff, rebalance onto surviving workers, and parse the
    /// returned partial.
    ///
    /// # Errors
    ///
    /// A message naming the shard and the last failure, once
    /// `max_attempts` dispatches failed or the job was cancelled.
    pub fn run_shard(
        &self,
        request: &SimulateRequest,
        range: (u64, u64),
        cancel: &CancelToken,
        trace: Option<&ShardTrace>,
    ) -> Result<EnsemblePartial, String> {
        let body = request.to_wire(range);
        let what = format!("shard [{}, {})", range.0, range.1);
        let partial = self.post_with_retry("/simulate", &body, &what, cancel, trace, |body| {
            let json = crate::json::parse(body)?;
            SimulateRequest::parse_partial(&json).map_err(|e| e.to_string())
        })?;
        self.streamed
            .lock()
            .expect("streamed moments lock")
            .merge(partial.time_moments());
        Ok(partial)
    }

    /// Runs one `/check` grid point on the worker pool, returning the
    /// worker's rendered verdict body verbatim (bodies travel opaquely so
    /// the sweep document stays byte-identical to a local solve). Shares
    /// the shard dispatch/retry/trace machinery and counters — a point a
    /// worker answers from its cache counts as a remote cache hit, exactly
    /// like a replayed shard.
    ///
    /// # Errors
    ///
    /// A message naming the grid point and the last failure, once
    /// `max_attempts` dispatches failed or the job was cancelled.
    pub fn run_check(
        &self,
        point: &CheckPoint,
        index: usize,
        cancel: &CancelToken,
        trace: Option<&ShardTrace>,
    ) -> Result<String, String> {
        let body = point.to_wire();
        let what = format!("check point {index}");
        self.post_with_retry("/check", &body, &what, cancel, trace, |body| {
            // A worker that hit its wait timeout answers 200 with a job
            // *status* document; treat anything but a verdict as a failed
            // dispatch so the point retries rather than polluting the sweep.
            let json = crate::json::parse(body)?;
            match json.get("kind").and_then(|k| k.as_str("kind").ok()) {
                Some("check") => Ok(body.to_string()),
                _ => Err("worker answered without a check verdict".to_string()),
            }
        })
    }

    /// The shared dispatch driver: post `body` to `path` on the pool,
    /// retrying with bounded doubling backoff and rebalancing onto
    /// surviving workers; `parse` validates each answer (a parse failure
    /// counts as a worker failure and retries like any other).
    fn post_with_retry<T>(
        &self,
        path: &str,
        body: &str,
        what: &str,
        cancel: &CancelToken,
        trace: Option<&ShardTrace>,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut backoff = self.config.backoff;
        let mut last_error = "no workers registered".to_string();
        for attempt in 0..self.config.max_attempts {
            if cancel.is_cancelled() {
                return Err("job cancelled".to_string());
            }
            if attempt > 0 {
                self.shard_retries.fetch_add(1, Ordering::Relaxed);
                event(
                    Level::Debug,
                    "service::fabric",
                    "retry",
                    &[
                        ("what", Value::str(what)),
                        ("attempt", Value::U64(u64::from(attempt))),
                        ("backoff_ms", Value::U64(backoff.as_millis() as u64)),
                        ("last_error", Value::str(&last_error)),
                    ],
                );
                sleep_cancellable(backoff, cancel);
                backoff = (backoff * 2).min(self.config.backoff_cap);
            }
            let Some(addr) = self.registry.next_worker() else {
                return Err("no workers registered".to_string());
            };
            self.shards_dispatched.fetch_add(1, Ordering::Relaxed);
            // The dispatch span is numbered *before* the call so the worker
            // can be told its parent through the trace header.
            let dispatch_span =
                trace.map(|t| (t.index * 1000 + u64::from(attempt), t.sink.now_us()));
            let started = Instant::now();
            let result = self
                .dispatch(&addr, path, body, trace.zip(dispatch_span))
                .and_then(|(body, hit)| parse(&body).map(|parsed| (parsed, hit)));
            let rtt = started.elapsed();
            let rtt_us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
            if let Some(registry) = &self.metrics {
                registry
                    .histogram(&format!("fabric_shard_rtt_us{{worker=\"{addr}\"}}"))
                    .record(rtt_us);
            }
            if let (Some(t), Some((index, start_us))) = (trace, dispatch_span) {
                t.record(
                    "dispatch",
                    index,
                    start_us,
                    &[
                        ("worker", addr.clone()),
                        ("attempt", attempt.to_string()),
                        ("outcome", outcome(&result)),
                    ],
                );
            }
            event(
                Level::Trace,
                "service::fabric",
                "dispatch",
                &[
                    ("what", Value::str(what)),
                    ("worker", Value::str(&addr)),
                    ("attempt", Value::U64(u64::from(attempt))),
                    ("rtt_us", Value::U64(rtt_us)),
                    ("ok", Value::Bool(result.is_ok())),
                ],
            );
            match result {
                Ok((parsed, cache_hit)) => {
                    self.registry.record_success(&addr, cache_hit);
                    if cache_hit {
                        self.remote_cache_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.remote_cache_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    self.shards_completed.fetch_add(1, Ordering::Relaxed);
                    return Ok(parsed);
                }
                Err(error) => {
                    self.registry.record_failure(&addr);
                    self.worker_failures.fetch_add(1, Ordering::Relaxed);
                    last_error = format!("worker {addr}: {error}");
                }
            }
        }
        event(
            Level::Warn,
            "service::fabric",
            "dispatch_exhausted",
            &[
                ("what", Value::str(what)),
                ("attempts", Value::U64(u64::from(self.config.max_attempts))),
                ("last_error", Value::str(&last_error)),
            ],
        );
        Err(format!(
            "{what} failed after {} attempts: {last_error}",
            self.config.max_attempts
        ))
    }

    /// One dispatch: post the request (stamping the trace header when this
    /// hop is traced), check the status, report the body and whether the
    /// worker's cache answered it.
    fn dispatch(
        &self,
        addr: &str,
        path: &str,
        body: &str,
        hop: Option<(&ShardTrace, (u64, u64))>,
    ) -> Result<(String, bool), String> {
        let client = Client::new(addr)?
            .timeout(self.config.request_timeout)
            .connect_timeout(self.config.connect_timeout);
        let reply = match hop {
            Some((t, (dispatch_index, _))) => {
                let context = TraceContext {
                    trace_id: t.trace_id.clone(),
                    parent: span_id(&t.trace_id, "dispatch", dispatch_index),
                };
                client.post_with_headers(
                    path,
                    body,
                    &[(TRACE_HEADER, context.header_value().as_str())],
                )?
            }
            None => client.post(path, body)?,
        };
        if !reply.is_success() {
            return Err(format!("status {}: {}", reply.status, reply.body));
        }
        let cache_hit = reply.header("cache") == Some("hit");
        Ok((reply.body, cache_hit))
    }

    /// The fabric counters.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            shards_dispatched: self.shards_dispatched.load(Ordering::Relaxed),
            shards_completed: self.shards_completed.load(Ordering::Relaxed),
            shard_retries: self.shard_retries.load(Ordering::Relaxed),
            worker_failures: self.worker_failures.load(Ordering::Relaxed),
            remote_cache_hits: self.remote_cache_hits.load(Ordering::Relaxed),
            remote_cache_misses: self.remote_cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Renders the fabric state (counters, streaming statistics, worker
    /// pool) — the body of `GET /fabric` and the `fabric` section of
    /// `GET /metrics`.
    pub fn render(&self) -> Json {
        let streamed = self.streamed.lock().expect("streamed moments lock");
        let workers: Vec<Json> = self.registry.snapshot().iter().map(render_worker).collect();
        let mut members: Vec<_> = self
            .stats()
            .counters()
            .into_iter()
            .map(|(key, value)| (key, Json::count(value)))
            .collect();
        members.extend([
            (
                "streaming",
                Json::object([
                    ("trials", Json::count(streamed.count())),
                    ("mean_final_time", Json::num(streamed.mean())),
                    ("final_time_variance", Json::num(streamed.variance())),
                ]),
            ),
            ("workers", Json::Array(workers)),
        ]);
        Json::object(members)
    }
}

fn render_worker(worker: &WorkerSnapshot) -> Json {
    Json::object([
        ("addr", Json::str(worker.addr.clone())),
        ("healthy", Json::Bool(worker.healthy)),
        (
            "consecutive_failures",
            Json::count(u64::from(worker.consecutive_failures)),
        ),
        ("dispatched", Json::count(worker.dispatched)),
        ("completed", Json::count(worker.completed)),
        ("failed", Json::count(worker.failed)),
        ("cache_hits", Json::count(worker.cache_hits)),
        ("cache_misses", Json::count(worker.cache_misses)),
    ])
}

/// Sleeps up to `total`, polling the cancel token every few milliseconds
/// so a cancelled job stops backing off promptly.
fn sleep_cancellable(total: Duration, cancel: &CancelToken) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while !remaining.is_zero() && !cancel.is_cancelled() {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_tiles_the_trial_range_exactly() {
        let fabric = Fabric::new(FabricConfig {
            shard_trials: 100,
            ..FabricConfig::default()
        });
        let plan = fabric.plan(250);
        assert_eq!(plan, vec![(0, 100), (100, 200), (200, 250)]);
        // Explicit shard size is independent of the worker pool.
        assert_eq!(fabric.plan(100), vec![(0, 100)]);
        assert_eq!(fabric.plan(1), vec![(0, 1)]);
    }

    #[test]
    fn auto_plan_scales_with_the_pool() {
        let fabric = Fabric::new(FabricConfig {
            workers: vec!["a".to_string(), "b".to_string()],
            ..FabricConfig::default()
        });
        let plan = fabric.plan(800);
        assert_eq!(plan.len(), 8, "plan: {plan:?}");
        assert_eq!(plan.first(), Some(&(0, 100)));
        assert_eq!(plan.last(), Some(&(700, 800)));
        // The tiling is gapless.
        for window in plan.windows(2) {
            assert_eq!(window[0].1, window[1].0);
        }
    }

    #[test]
    fn run_shard_without_workers_fails_fast() {
        let fabric = Fabric::new(FabricConfig::default());
        let body =
            crate::json::parse("{\"network\":\"x -> h @ 1\",\"initial\":{\"x\":1},\"trials\":10}")
                .unwrap();
        let request = SimulateRequest::parse(&body).unwrap();
        let err = fabric
            .run_shard(&request, (0, 10), &CancelToken::new(), None)
            .unwrap_err();
        assert!(err.contains("no workers"), "err: {err}");
    }

    #[test]
    fn cancelled_jobs_stop_dispatching() {
        let fabric = Fabric::new(FabricConfig {
            workers: vec!["127.0.0.1:1".to_string()],
            ..FabricConfig::default()
        });
        let body =
            crate::json::parse("{\"network\":\"x -> h @ 1\",\"initial\":{\"x\":1},\"trials\":10}")
                .unwrap();
        let request = SimulateRequest::parse(&body).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = fabric
            .run_shard(&request, (0, 10), &token, None)
            .unwrap_err();
        assert!(err.contains("cancelled"), "err: {err}");
    }
}
