//! The assembled service: endpoints wired to the scheduler, cache and
//! metrics, plus the [`serve`] entry point used by `stochsynthd`, the
//! examples and the integration tests.
//!
//! # Endpoints
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /simulate` | Ensemble job (any [`StepperKind`](gillespie::StepperKind)); cached |
//! | `POST /exact` | CME first-passage / transient analysis; cached |
//! | `POST /synthesize` | The paper's synthesis pipeline + exact evaluation; cached |
//! | `POST /check` | Model-checker verdict (races, time windows, hitting times, stationary mass) or a parameter sweep of one; cached per grid point |
//! | `GET /jobs/:id` | Job status, or the result body once completed |
//! | `DELETE /jobs/:id` | Cancels a queued or running job |
//! | `GET /healthz` | Liveness |
//! | `GET /metrics` | Request, cache, scheduler and fabric counters |
//! | `GET /fabric` | Fabric counters, streaming statistics and worker pool |
//! | `POST /fabric/workers` | Loopback-only worker registration |
//! | `POST /shutdown` | Loopback-only graceful drain |
//!
//! Every job is a list of units — the trial ranges of an ensemble, the
//! grid points of a sweep, or one whole solve — that run through one
//! wrapper: it records each unit's span (`shard`, or `point` for a check
//! point) and hands the unit to an executor, and the job's merge turns the
//! unit outputs into the body the cache stores. A daemon started with
//! fabric workers configured acts as a **coordinator**: its executor
//! dispatches `/simulate` shards and `/check` sweep points to the pool (see
//! [`crate::fabric`]); any other daemon runs the same units in-process. Any daemon answers shard requests
//! (`"range": [start, end)`) with a partial document instead of a full
//! report, which is also how workers cache shards for federation.
//!
//! Result-bearing responses carry a `cache: hit|miss` header; bodies are
//! **byte-identical** between a fresh computation and its cached replay
//! (the cache stores rendered bytes, and the engine is deterministic for a
//! fixed seed), so the header is the *only* way to tell them apart.

use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gillespie::engine::CancelToken;
use gillespie::{Ensemble, EnsemblePartial, SimProfile, StepperKind};
use obs::log::{event, Level, Value};
use obs::trace::{span_id, Span, TraceContext, TraceSink};

use crate::api::{CheckPoint, CheckRequest, ExactRequest, SimulateRequest, SynthesizeRequest};
use crate::cache::ResultCache;
use crate::error::ServiceError;
use crate::fabric::{outcome, plan_ranges, Fabric, FabricConfig, ShardTrace, TRACE_HEADER};
use crate::http::{Method, Response};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::router::{RouteContext, Router};
use crate::scheduler::{
    ChunkOutput, JobId, JobSnapshot, JobState, JobWork, Scheduler, SchedulerTelemetry, SubmitError,
};
use crate::server::{Server, ServerHandle};
use crate::structures::{
    StructureCache, UnitSpaces, STRUCTURE_CACHE_BYTES, STRUCTURE_CACHE_ENTRIES,
};

/// How long a `wait: true` submission blocks before degrading to a `202`
/// status response the client can poll.
const WAIT_TIMEOUT: Duration = Duration::from_secs(600);

/// Bounded capacity of the in-memory trace ring: old spans are dropped
/// once this many are held, so tracing every job forever cannot grow
/// memory.
const TRACE_CAPACITY: usize = 4096;

/// Configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Scheduler worker threads (0 = one per CPU).
    pub workers: usize,
    /// Bounded job-queue capacity.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// When set, this daemon coordinates a worker fabric: `/simulate`
    /// ensembles shard across the configured pool instead of running on
    /// the local scheduler threads.
    pub fabric: Option<FabricConfig>,
    /// Requests whose handler takes at least this many milliseconds emit a
    /// `slow_request` warning event. `0` disables the check.
    pub slow_request_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 256,
            max_body_bytes: 1 << 20,
            fabric: None,
            slow_request_ms: 10_000,
        }
    }
}

/// The shared state behind every route handler.
pub struct App {
    scheduler: Scheduler,
    cache: ResultCache,
    /// The rate-free structures of enumerated CME state spaces, weighed
    /// for `/exact` and `/check` solves that differ only in their rates.
    structures: StructureCache,
    metrics: Metrics,
    /// Bounded ring of trace spans; `GET /trace/:job_id` reads it.
    trace: Arc<TraceSink>,
    fabric: Option<Arc<Fabric>>,
    config: ServiceConfig,
    /// Set once the listener is bound; `/shutdown` self-connects through it
    /// to wake the accept loop.
    local_addr: OnceLock<SocketAddr>,
    /// Raised by `/shutdown`; checked by the accept loop.
    stopping: Mutex<bool>,
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "App({:?})", self.config)
    }
}

impl App {
    /// Creates the service state (scheduler workers start immediately).
    pub fn new(config: ServiceConfig) -> Arc<App> {
        let metrics = Metrics::new();
        let trace = Arc::new(TraceSink::new(TRACE_CAPACITY));
        // The scheduler reports queue waits into the shared histogram and
        // gauges, and the dequeue hook turns each wait into a
        // `schedule-wait` span under the job's root span. None of this
        // influences scheduling order — see the telemetry docs.
        let dequeue_sink = Arc::clone(&trace);
        let telemetry = SchedulerTelemetry {
            queue_wait_us: Arc::clone(&metrics.queue_wait_us),
            queue_depth: metrics.registry().gauge("scheduler_queue_depth"),
            running_jobs: metrics.registry().gauge("scheduler_running_jobs"),
            on_dequeue: Box::new(move |id, _label, wait| {
                let end_us = dequeue_sink.now_us();
                let wait_us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
                job_trace(&dequeue_sink, id).record_between(
                    "schedule-wait",
                    0,
                    end_us.saturating_sub(wait_us),
                    end_us,
                    &[],
                );
            }),
        };
        let fabric = config
            .fabric
            .clone()
            .map(|f| Arc::new(Fabric::new(f).with_metrics(Arc::clone(metrics.registry()))));
        Arc::new(App {
            scheduler: Scheduler::with_telemetry(
                config.workers,
                config.queue_capacity,
                Some(telemetry),
            ),
            cache: ResultCache::new(config.cache_capacity),
            structures: StructureCache::new(STRUCTURE_CACHE_BYTES, STRUCTURE_CACHE_ENTRIES),
            metrics,
            trace,
            fabric,
            config,
            local_addr: OnceLock::new(),
            stopping: Mutex::new(false),
        })
    }

    /// The scheduler, for embedders and tests.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The result cache, for embedders and tests.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The structure cache, for embedders and tests.
    pub fn structures(&self) -> &StructureCache {
        &self.structures
    }

    /// The typed metrics handles, for embedders and tests.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace-span ring, for embedders and tests.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// The fabric coordinator, when this daemon was configured with one.
    pub fn fabric(&self) -> Option<&Arc<Fabric>> {
        self.fabric.as_ref()
    }

    /// Builds the route table for this app. Every handler is wrapped in
    /// [`instrumented`], which renders its error, times it, maintains the
    /// per-endpoint request/status/latency series and emits the request log
    /// events.
    pub fn router(self: &Arc<App>) -> Router {
        let routes: [(Method, &str, &'static str, Endpoint); 12] = [
            (Method::Post, "/simulate", "simulate", submit_simulate),
            (Method::Post, "/exact", "exact", submit_exact),
            (Method::Post, "/synthesize", "synthesize", submit_synthesize),
            (Method::Post, "/check", "check", submit_check),
            (Method::Get, "/jobs/:id", "job_status", job_status),
            (Method::Delete, "/jobs/:id", "job_cancel", job_cancel),
            (Method::Get, "/healthz", "healthz", healthz),
            (Method::Get, "/metrics", "metrics", metrics),
            (Method::Get, "/trace/:id", "trace", trace_query),
            (Method::Get, "/fabric", "fabric", fabric_state),
            (
                Method::Post,
                "/fabric/workers",
                "fabric_workers",
                register_worker,
            ),
            (Method::Post, "/shutdown", "shutdown", shutdown),
        ];
        let mut router = Router::new();
        for (method, path, endpoint, handler) in routes {
            let app = Arc::clone(self);
            router.route(
                method,
                path,
                instrumented(self, endpoint, move |ctx| handler(&app, ctx)),
            );
        }
        router
    }

    /// Counts one written response (every response, including framing-level
    /// rejections and router-level 404/405s — wired in as the server's
    /// [`ResponseObserver`](crate::ResponseObserver) by [`serve`]).
    pub fn count_response(&self, response: &Response) {
        self.metrics.requests.inc();
        if (400..500).contains(&response.status) {
            self.metrics.responses_4xx.inc();
        } else if response.status >= 500 {
            self.metrics.responses_5xx.inc();
        }
    }

    /// The cache and scheduler counters, owned by their subsystems rather
    /// than the registry, by section: the one list both `/metrics` formats
    /// render.
    fn subsystem_counters(&self) -> [(&'static str, CounterRows); 3] {
        let (cache, jobs) = (self.cache.stats(), self.scheduler.stats());
        let structures = self.structures.stats();
        [
            (
                "cache",
                vec![
                    ("entries", Some("entries"), cache.entries as u64),
                    ("capacity", Some("capacity"), cache.capacity as u64),
                    ("hits", Some("hits_total"), cache.hits),
                    ("misses", Some("misses_total"), cache.misses),
                    ("evictions", Some("evictions_total"), cache.evictions),
                ],
            ),
            (
                "scheduler",
                vec![
                    ("workers", Some("workers"), jobs.workers as u64),
                    ("queued", None, jobs.queued as u64),
                    ("running", None, jobs.running as u64),
                    ("completed", Some("jobs_completed_total"), jobs.completed),
                    ("failed", Some("jobs_failed_total"), jobs.failed),
                    ("cancelled", Some("jobs_cancelled_total"), jobs.cancelled),
                    ("rejected", Some("jobs_rejected_total"), jobs.rejected),
                    ("steals", Some("steals_total"), jobs.steals),
                    ("panicked", None, self.metrics.jobs_panicked.get()),
                ],
            ),
            (
                "cme_structure_cache",
                vec![
                    ("entries", Some("entries"), structures.entries as u64),
                    ("bytes", Some("bytes"), structures.bytes as u64),
                    ("hits", Some("hits_total"), structures.hits),
                    ("misses", Some("misses_total"), structures.misses),
                    ("evictions", Some("evictions_total"), structures.evictions),
                ],
            ),
        ]
    }

    /// The JSON exposition (`GET /metrics`).
    fn render_metrics(&self) -> String {
        let count = |(key, value): (&str, u64)| (key.to_string(), Json::count(value));
        let m = &self.metrics;
        let mut http: Vec<_> = [
            ("requests", m.requests.get()),
            ("responses_4xx", m.responses_4xx.get()),
            ("responses_5xx", m.responses_5xx.get()),
        ]
        .map(count)
        .into();
        // Per-endpoint breakdown for the four submission endpoints: request
        // count, status classes and service-time quantiles.
        let mut endpoints = Vec::new();
        for name in ["simulate", "exact", "synthesize", "check"] {
            let series = m.endpoint(name);
            http.push(count((&format!("{name}_requests"), series.requests.get())));
            let latency = series.latency_us.snapshot();
            endpoints.push((
                name.to_string(),
                Json::object([
                    ("requests", Json::count(series.requests.get())),
                    ("responses_4xx", Json::count(series.responses_4xx.get())),
                    ("responses_5xx", Json::count(series.responses_5xx.get())),
                    (
                        "latency_us",
                        Json::object([
                            ("count", Json::count(latency.count)),
                            ("p50", Json::count(latency.p50())),
                            ("p90", Json::count(latency.p90())),
                            ("p99", Json::count(latency.p99())),
                            ("max", Json::count(latency.max)),
                        ]),
                    ),
                ]),
            ));
        }
        let auto_resolutions = StepperKind::ALL
            .map(|kind| {
                let key = kind.name().replace('-', "_");
                count((&key, m.auto_resolution_counter(kind).get()))
            })
            .into();
        let mut members = vec![
            count(("uptime_ms", m.uptime_ms())),
            ("http".to_string(), Json::Object(http)),
            ("endpoints".to_string(), Json::Object(endpoints)),
            (
                "auto_resolutions".to_string(),
                Json::Object(auto_resolutions),
            ),
        ];
        for (section, rows) in self.subsystem_counters() {
            let rows = rows.into_iter().map(|(key, _, value)| count((key, value)));
            members.push((section.to_string(), Json::Object(rows.collect())));
        }
        if let Some(fabric) = &self.fabric {
            members.push(("fabric".to_string(), fabric.render()));
        }
        Json::Object(members).render()
    }

    /// The Prometheus-style text exposition (`GET /metrics?format=text`):
    /// every registry series, plus the subsystem counters appended as
    /// gauges.
    fn render_metrics_text(&self) -> String {
        let mut extra = vec![("service_uptime_ms".to_string(), self.metrics.uptime_ms())];
        for (section, rows) in self.subsystem_counters() {
            for (_, series, value) in rows {
                extra.extend(series.map(|series| (format!("{section}_{series}"), value)));
            }
        }
        if let Some(fabric) = &self.fabric {
            for (key, value) in fabric.stats().counters() {
                extra.push((format!("fabric_{key}_total"), value));
            }
        }
        let extra: Vec<_> = extra.into_iter().map(|(k, v)| (k, v as f64)).collect();
        self.metrics.registry().render_text(&extra)
    }
}

/// One `/metrics` section's subsystem counters as `(JSON key, text series,
/// value)`. A text series is named `<section>_<series>`; a row without one
/// is JSON-only, because the text exposition has it as a registry gauge.
type CounterRows = Vec<(&'static str, Option<&'static str>, u64)>;

/// A route handler. Its error is rendered as the error's status with an
/// `{"error": …}` body.
type Endpoint = fn(&Arc<App>, &RouteContext<'_>) -> Result<Response, ServiceError>;

/// Wraps a route handler with its error rendering and the per-endpoint
/// telemetry: service-time histogram, request/status counters, a
/// debug-level `request` event, and a warn-level `slow_request` event when
/// the handler ran longer than [`ServiceConfig::slow_request_ms`]. The
/// telemetry is purely observational — the response passes through
/// untouched.
fn instrumented(
    app: &Arc<App>,
    endpoint: &'static str,
    handler: impl Fn(&RouteContext<'_>) -> Result<Response, ServiceError> + Send + Sync + 'static,
) -> impl Fn(&RouteContext<'_>) -> Response + Send + Sync + 'static {
    let app = Arc::clone(app);
    let series = app.metrics.endpoint(endpoint);
    move |ctx| {
        let started = Instant::now();
        let response = handler(ctx).unwrap_or_else(|error| error_response(&error));
        let elapsed = started.elapsed();
        series.observe(response.status, elapsed);
        let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        event(
            Level::Debug,
            "service::http",
            "request",
            &[
                ("endpoint", Value::str(endpoint)),
                ("status", Value::U64(u64::from(response.status))),
                ("elapsed_us", Value::U64(elapsed_us)),
            ],
        );
        let threshold_ms = app.config.slow_request_ms;
        if threshold_ms > 0 && elapsed >= Duration::from_millis(threshold_ms) {
            event(
                Level::Warn,
                "service::http",
                "slow_request",
                &[
                    ("endpoint", Value::str(endpoint)),
                    ("status", Value::U64(u64::from(response.status))),
                    ("elapsed_ms", Value::U64(elapsed_us / 1_000)),
                    ("threshold_ms", Value::U64(threshold_ms)),
                ],
            );
        }
        response
    }
}

/// `GET /trace/:id` — the recorded span tree of one job, ordered by start
/// time. Span ids render as 16-hex-digit strings (they are 64-bit hashes,
/// too wide for JSON's f64 numbers).
fn trace_query(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    let id = parse_job_id(ctx)?;
    let trace_id = id.to_string();
    let spans = app.trace.spans(&trace_id);
    if spans.is_empty() {
        return Err(ServiceError::UnknownJob { id });
    }
    let rendered: Vec<Json> = spans
        .iter()
        .map(|span| {
            let attrs: Vec<Json> = span
                .attrs
                .iter()
                .map(|(k, v)| {
                    Json::object([
                        ("key", Json::str(k.clone())),
                        ("value", Json::str(v.clone())),
                    ])
                })
                .collect();
            Json::object([
                ("id", Json::str(format!("{:016x}", span.id))),
                (
                    "parent",
                    match span.parent {
                        Some(parent) => Json::str(format!("{parent:016x}")),
                        None => Json::Null,
                    },
                ),
                ("name", Json::str(span.name.clone())),
                ("start_us", Json::count(span.start_us)),
                ("end_us", Json::count(span.end_us)),
                ("attrs", Json::Array(attrs)),
            ])
        })
        .collect();
    Ok(Response::json(
        200,
        Json::object([
            ("trace", Json::str(trace_id)),
            ("spans", Json::Array(rendered)),
        ])
        .render(),
    ))
}

/// `GET /healthz` — liveness.
fn healthz(app: &Arc<App>, _: &RouteContext<'_>) -> Result<Response, ServiceError> {
    let body = Json::object([
        ("status", Json::str("ok")),
        ("workers", Json::count(app.scheduler.stats().workers as u64)),
        ("uptime_ms", Json::count(app.metrics.uptime_ms())),
    ]);
    Ok(Response::json(200, body.render()))
}

/// `GET /metrics` — the JSON exposition, or `?format=text` for the
/// Prometheus-style one.
fn metrics(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    Ok(if ctx.query_param("format") == Some("text") {
        Response::text(200, app.render_metrics_text())
    } else {
        Response::json(200, app.render_metrics())
    })
}

/// The fabric of a coordinator; a 400 on any other daemon.
fn coordinator(app: &App) -> Result<&Arc<Fabric>, ServiceError> {
    app.fabric
        .as_ref()
        .ok_or_else(|| ServiceError::bad_request("this daemon is not a fabric coordinator"))
}

/// `GET /fabric` — the fabric counters, streaming statistics and pool.
fn fabric_state(app: &Arc<App>, _: &RouteContext<'_>) -> Result<Response, ServiceError> {
    Ok(Response::json(200, coordinator(app)?.render().render()))
}

/// Renders a [`ServiceError`] as its HTTP response.
fn error_response(error: &ServiceError) -> Response {
    Response::json(
        error.status(),
        Json::object([("error", Json::str(error.to_string()))]).render(),
    )
}

/// Renders a job-status body (for every non-completed state).
fn status_body(snapshot: &JobSnapshot) -> String {
    let mut members = vec![
        ("kind", Json::str("job")),
        ("job", Json::count(snapshot.id)),
        ("state", Json::str(snapshot.state.as_str())),
        ("label", Json::str(snapshot.label.clone())),
        ("priority", Json::count(u64::from(snapshot.priority))),
        ("progress", Json::num(snapshot.progress())),
        (
            "completed_chunks",
            Json::count(snapshot.completed_chunks as u64),
        ),
        ("total_chunks", Json::count(snapshot.total_chunks as u64)),
    ];
    if let Some(error) = &snapshot.error {
        members.push(("error", Json::str(error.clone())));
    }
    if let Some(index) = snapshot.completion_index {
        members.push(("completion_index", Json::count(index)));
    }
    Json::object(members).render()
}

/// The response for a job snapshot: the raw result body for completed jobs,
/// a status document otherwise. Every variant carries an `x-job-state`
/// header; result bodies add `cache: miss` (they were computed, not
/// replayed).
fn snapshot_response(snapshot: &JobSnapshot) -> Response {
    let state = snapshot.state.as_str();
    match snapshot.state {
        JobState::Completed => Response::json(
            200,
            snapshot
                .result
                .clone()
                .expect("completed jobs have results"),
        )
        .header("cache", "miss")
        .header("x-job-state", state),
        JobState::Failed => Response::json(500, status_body(snapshot)).header("x-job-state", state),
        _ => Response::json(200, status_body(snapshot)).header("x-job-state", state),
    }
}

/// The trace handle of job `id`: spans recorded through it nest under the
/// job's root `job` span (the job id, as text, is the trace id).
fn job_trace(sink: &Arc<TraceSink>, id: JobId) -> ShardTrace {
    let trace_id = id.to_string();
    ShardTrace {
        sink: Arc::clone(sink),
        parent: span_id(&trace_id, "job", 0),
        trace_id,
        index: 0,
    }
}

/// The coordinator's trace context a dispatched unit carries, if any.
fn remote_trace(ctx: &RouteContext<'_>) -> Option<TraceContext> {
    ctx.request
        .header(TRACE_HEADER)
        .and_then(TraceContext::parse)
}

/// Where a job's units run. Both variants answer the same calls, so a job
/// plans, traces and merges its units the same way wherever they execute.
enum Executor {
    /// In this process, on the scheduler thread that runs the unit.
    Local(Arc<App>),
    /// On the fabric's worker pool.
    Fabric(Arc<Fabric>),
}

impl Executor {
    /// The fabric once it has workers, otherwise this process.
    fn of(app: &Arc<App>) -> Executor {
        match app.fabric.as_ref().filter(|f| !f.registry().is_empty()) {
            Some(fabric) => Executor::Fabric(Arc::clone(fabric)),
            None => Executor::Local(Arc::clone(app)),
        }
    }

    /// Splits `trials` into the ranges a job runs as separate units, about
    /// four per scheduler thread or worker: enough for idle threads to
    /// steal, without shattering small ensembles into per-trial units.
    fn plan(&self, trials: u64) -> Vec<(u64, u64)> {
        match self {
            // Called before submission: the scheduler lock is not held.
            Executor::Local(app) => plan_ranges(trials, app.scheduler.stats().workers as u64, 0),
            Executor::Fabric(fabric) => fabric.plan(trials),
        }
    }

    /// Runs trials `range` of `request`. An in-process run adds its engine
    /// profile to the metrics and records a `shard-exec` span under `trace`.
    fn run_shard(
        &self,
        request: &SimulateRequest,
        range: (u64, u64),
        cancel: &CancelToken,
        trace: &ShardTrace,
    ) -> Result<EnsemblePartial, String> {
        let app = match self {
            Executor::Local(app) => app,
            Executor::Fabric(fabric) => {
                return fabric.run_shard(request, range, cancel, Some(trace))
            }
        };
        let started_us = trace.sink.now_us();
        let classifier = request.classifier().map_err(|e| e.to_string())?;
        let mut profile = SimProfile::default();
        let partial = Ensemble::new(&request.crn, request.initial.clone(), classifier)
            .options(request.ensemble_options())
            .run_range_profiled(range.0, range.1, cancel, &mut profile)
            .map_err(|e| e.to_string())?;
        app.metrics
            .record_profile(request.resolved.name(), &profile);
        trace.record(
            "shard-exec",
            trace.parent,
            started_us,
            &[
                ("range", format!("[{}, {})", range.0, range.1)),
                ("steps", profile.steps.to_string()),
                ("propensity_evals", profile.propensity_evals.to_string()),
            ],
        );
        Ok(partial)
    }

    /// Solves `/check` point `index`, returning its verdict body. An
    /// in-process solve records a `shard-exec` span under `trace`.
    /// A local solve takes its state space from the structure cache and
    /// adds the cache's verdict to `attrs`.
    fn run_check(
        &self,
        point: &CheckPoint,
        index: usize,
        cancel: &CancelToken,
        trace: &ShardTrace,
        attrs: &mut UnitAttrs,
    ) -> Result<String, String> {
        let app = match self {
            Executor::Local(app) => app,
            Executor::Fabric(fabric) => return fabric.run_check(point, index, cancel, Some(trace)),
        };
        let started_us = trace.sink.now_us();
        let mut spaces = UnitSpaces {
            cache: &app.structures,
            attrs,
        };
        let body = point.execute_in(&mut spaces).map_err(|e| e.to_string())?;
        let property = point.property.kind_name().to_string();
        trace.record(
            "shard-exec",
            trace.parent,
            started_us,
            &[("property", property)],
        );
        Ok(body)
    }
}

/// Attributes a unit adds to its own span.
type UnitAttrs = Vec<(&'static str, String)>;

/// Runs unit `index` of a job on the scheduler thread, under the trace it
/// records into, adding any attributes of its own span to the list.
type RunUnit = Box<
    dyn Fn(usize, &CancelToken, &ShardTrace, &mut UnitAttrs) -> Result<ChunkOutput, String>
        + Send
        + Sync,
>;

/// Merges a job's unit outputs, in unit order, into its body; spans go
/// under the job's root.
type MergeUnits =
    Box<dyn Fn(Vec<ChunkOutput>, &ShardTrace) -> Result<String, String> + Send + Sync>;

/// A span that predates its job: `(name, start_us, end_us, attrs)`.
type EarlySpan = (&'static str, u64, u64, Vec<(&'static str, String)>);

/// A job to submit: its cache key, its scheduling, and its units.
struct Job {
    label: &'static str,
    key: String,
    priority: u8,
    wait: bool,
    /// Each unit's span name and attribute name: `shard` and `range` (or
    /// `analysis`) for trial ranges and whole solves, `point` and `point`
    /// for check points.
    unit: (&'static str, &'static str),
    /// Each unit's attribute value: its trial range or grid point.
    units: Vec<String>,
    /// Set when this job is one unit of a coordinator's job: its units then
    /// trace their execution under the coordinator's trace, and its own
    /// trace keeps only the job root and the schedule wait.
    remote: Option<TraceContext>,
    /// Spans timed before the job had an id (request parse and classify).
    early: Vec<EarlySpan>,
    run: RunUnit,
    merge: MergeUnits,
}

impl Job {
    /// A job of one opaque in-process unit (`/exact`, `/synthesize`),
    /// which may add attributes to its span.
    fn single(
        label: &'static str,
        key: String,
        priority: u8,
        wait: bool,
        execute: impl Fn(&mut UnitAttrs) -> Result<String, ServiceError> + Send + Sync + 'static,
    ) -> Job {
        Job {
            label,
            key,
            priority,
            wait,
            unit: ("shard", "analysis"),
            units: vec![label.to_string()],
            remote: None,
            early: Vec::new(),
            run: Box::new(move |_, _, _, attrs| {
                execute(attrs)
                    .map(ChunkOutput::Body)
                    .map_err(|e| e.to_string())
            }),
            merge: Box::new(|outputs, _| Ok(bodies(outputs).remove(0))),
        }
    }

    /// The scheduler work of job `id`. Every unit runs through the one
    /// wrapper, which records the unit's span unless a coordinator
    /// dispatched it here; the merged body is cached, then the root `job`
    /// span closes. The merge runs under the scheduler lock.
    ///
    /// A unit or merge that panics fails its job with a typed message and
    /// counts in `jobs_panicked_total`; the scheduler thread lives on.
    fn into_work(self, app: Arc<App>, id: JobId, submitted_us: u64) -> JobWork {
        let root = job_trace(&app.trace, id);
        let Job {
            label,
            key,
            unit: (span, attr),
            units,
            remote,
            run,
            merge,
            ..
        } = self;
        let chunks = units.len();
        let unit_root = root.clone();
        let unit_panics = Arc::clone(&app.metrics.jobs_panicked);
        let run_chunk = move |index: usize, cancel: &CancelToken| {
            let shard = index as u64;
            let trace = match &remote {
                Some(context) => ShardTrace {
                    sink: Arc::clone(&unit_root.sink),
                    trace_id: context.trace_id.clone(),
                    parent: context.parent,
                    index: shard,
                },
                None => ShardTrace {
                    parent: span_id(&unit_root.trace_id, span, shard),
                    index: shard,
                    ..unit_root.clone()
                },
            };
            let started_us = unit_root.sink.now_us();
            let mut attrs = UnitAttrs::new();
            let result = catch_unwind(AssertUnwindSafe(|| run(index, cancel, &trace, &mut attrs)))
                .unwrap_or_else(|payload| Err(panicked("unit", &unit_panics, payload)));
            if remote.is_none() {
                let own = [(attr, units[index].clone()), ("outcome", outcome(&result))];
                // Most units add nothing: their span keeps its two
                // attributes on the stack.
                if attrs.is_empty() {
                    unit_root.record(span, shard, started_us, &own);
                } else {
                    attrs.splice(0..0, own);
                    unit_root.record(span, shard, started_us, &attrs);
                }
            }
            result
        };
        let finish = move |outputs: Vec<ChunkOutput>| {
            let result = catch_unwind(AssertUnwindSafe(|| merge(outputs, &root))).unwrap_or_else(
                |payload| Err(panicked("merge", &app.metrics.jobs_panicked, payload)),
            );
            if let Ok(body) = &result {
                app.cache.insert(&key, body);
            }
            root.sink.record(Span {
                trace_id: root.trace_id.clone(),
                id: root.parent,
                parent: None,
                name: "job".to_string(),
                start_us: submitted_us,
                end_us: root.sink.now_us(),
                attrs: vec![
                    ("label".to_string(), label.to_string()),
                    ("outcome".to_string(), outcome(&result)),
                ],
            });
            result
        };
        JobWork {
            chunks,
            run_chunk: Box::new(run_chunk),
            finish: Box::new(finish),
        }
    }
}

/// Counts a caught panic and turns its payload into the job's error.
fn panicked(stage: &str, count: &obs::Counter, payload: Box<dyn std::any::Any + Send>) -> String {
    count.inc();
    let message = payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string payload".to_string());
    format!("internal error: a job {stage} panicked: {message}")
}

/// The bodies of units that produce bodies.
fn bodies(outputs: Vec<ChunkOutput>) -> Vec<String> {
    outputs
        .into_iter()
        .map(|output| match output {
            ChunkOutput::Body(body) => body,
            ChunkOutput::Partial(_) => unreachable!("these units produce bodies"),
        })
        .collect()
}

/// Shared submit flow: consult the cache (timing the lookup), otherwise
/// schedule the job and either wait for it (`wait: true`) or hand back a
/// `202`. Cache hits schedule nothing and record no spans: the replayed
/// bytes never went near the scheduler.
fn submit_cached_job(app: &Arc<App>, mut job: Job) -> Result<Response, ServiceError> {
    let lookup_started = Instant::now();
    let cached = app.cache.lookup(&job.key);
    app.metrics
        .cache_lookup_us
        .record(u64::try_from(lookup_started.elapsed().as_micros()).unwrap_or(u64::MAX));
    if let Some(body) = cached {
        return Ok(Response::json(200, body)
            .header("cache", "hit")
            .header("x-job-state", "completed"));
    }
    let submitted_us = app.trace.now_us();
    let (priority, label, wait) = (job.priority, job.label, job.wait);
    // A unit a coordinator dispatched here is traced in the coordinator's
    // tree (its `shard` or `point` span and this daemon's `shard-exec`); its
    // own trace keeps only the job root and the schedule wait.
    let early = match job.remote {
        Some(_) => Vec::new(),
        None => std::mem::take(&mut job.early),
    };
    let build_app = Arc::clone(app);
    let id = app
        .scheduler
        .submit_with(priority, label, move |id| {
            job.into_work(build_app, id, submitted_us)
        })
        .map_err(|error| match error {
            SubmitError::QueueFull { capacity } => ServiceError::Busy { capacity },
            SubmitError::Draining => ServiceError::Unavailable {
                message: "server is draining".to_string(),
            },
        })?;
    // Recorded here rather than in the build callback, which runs under the
    // scheduler lock.
    if !early.is_empty() {
        let root = job_trace(&app.trace, id);
        for (name, start_us, end_us, attrs) in &early {
            root.record_between(name, 0, *start_us, *end_us, attrs);
        }
    }
    if wait {
        if let Some(snapshot) = app.scheduler.wait_terminal(id, WAIT_TIMEOUT) {
            return Ok(snapshot_response(&snapshot));
        }
    }
    let snapshot = app.scheduler.status(id).expect("job was just submitted");
    Ok(Response::json(202, status_body(&snapshot))
        .header("cache", "miss")
        .header("x-job-state", snapshot.state.as_str()))
}

/// Parses the request body as JSON, mapping failures to a 400.
fn parse_body(ctx: &RouteContext<'_>) -> Result<Json, ServiceError> {
    json::parse(&ctx.request.body)
        .map_err(|e| ServiceError::bad_request(format!("invalid JSON body: {e}")))
}

/// `POST /fabric/workers` — registers a worker address with the
/// coordinator at run time (loopback-only, like `/shutdown`: the pool an
/// operator dispatches compute to is operator configuration, not a public
/// surface).
fn register_worker(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    if !ctx.peer.ip().is_loopback() {
        return Err(ServiceError::Forbidden {
            message: "POST /fabric/workers is only accepted from loopback".to_string(),
        });
    }
    let fabric = coordinator(app)?;
    let addr = parse_body(ctx)?
        .get("addr")
        .ok_or_else(|| ServiceError::bad_request("missing `addr`"))?
        .as_str("addr")
        .map_err(ServiceError::bad_request)?
        .to_string();
    let registered = fabric.registry().register(&addr);
    Ok(Response::json(
        200,
        Json::object([
            ("addr", Json::str(addr)),
            ("registered", Json::Bool(registered)),
            ("workers", Json::count(fabric.registry().len() as u64)),
        ])
        .render(),
    ))
}

fn submit_simulate(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    // The `parse` and `classify` spans are timed here and recorded once the
    // job exists: the trace id is the job id.
    let parse_started_us = app.trace.now_us();
    let body = parse_body(ctx)?;
    let parse_done_us = app.trace.now_us();
    let request = Arc::new(SimulateRequest::parse(&body)?);
    let classify_done_us = app.trace.now_us();
    // Count what the portfolio decided (even when the cache answers the
    // request): the per-kind histogram in `/metrics` is how operators see
    // which regimes their workloads land in.
    if request.method == StepperKind::Auto {
        app.metrics.auto_resolution_counter(request.resolved).inc();
    }
    // A shard request (`"range": [start, end)`) is one unit of a
    // coordinator's job: it runs in-process, traced under the coordinator's
    // trace, and answers with its partial's wire document, cached under its
    // range-keyed document so a retried or re-dispatched shard replays
    // byte-for-byte. Any other request splits into trial ranges on the
    // executor.
    let (label, executor, plan) = match request.range {
        Some(range) => (
            "simulate-shard",
            Executor::Local(Arc::clone(app)),
            vec![range],
        ),
        None => {
            let executor = Executor::of(app);
            let plan = executor.plan(request.trials);
            ("simulate", executor, plan)
        }
    };
    let run_request = Arc::clone(&request);
    let job = Job {
        label,
        key: request.cache_key(),
        priority: request.priority,
        wait: request.wait,
        unit: ("shard", "range"),
        units: plan
            .iter()
            .map(|(start, end)| format!("[{start}, {end})"))
            .collect(),
        remote: request.range.and_then(|_| remote_trace(ctx)),
        early: vec![
            ("parse", parse_started_us, parse_done_us, Vec::new()),
            (
                "classify",
                parse_done_us,
                classify_done_us,
                vec![
                    ("method", request.method.name().to_string()),
                    ("resolved", request.resolved.name().to_string()),
                ],
            ),
        ],
        run: Box::new(move |index, cancel, trace, _| {
            let partial = executor.run_shard(&run_request, plan[index], cancel, trace)?;
            // A shard renders its partial here, not in the merge: the merge
            // runs under the scheduler lock.
            Ok(match run_request.range {
                Some(_) => ChunkOutput::Body(SimulateRequest::render_partial(&partial)),
                None => ChunkOutput::Partial(Box::new(partial)),
            })
        }),
        merge: Box::new(move |outputs, root| merge_ensemble(&request, outputs, root)),
    };
    submit_cached_job(app, job)
}

/// Merges a simulate job's partials, in trial order, into its report body;
/// a shard request's single unit already rendered its partial document.
fn merge_ensemble(
    request: &SimulateRequest,
    outputs: Vec<ChunkOutput>,
    root: &ShardTrace,
) -> Result<String, String> {
    if request.range.is_some() {
        return Ok(bodies(outputs).remove(0));
    }
    let started_us = root.sink.now_us();
    let partials: Vec<EnsemblePartial> = outputs
        .into_iter()
        .map(|output| match output {
            ChunkOutput::Partial(partial) => *partial,
            ChunkOutput::Body(_) => unreachable!("ensemble units produce partials"),
        })
        .collect();
    let merged = partials.len();
    let classifier = request.classifier().map_err(|e| e.to_string())?;
    let report = Ensemble::new(&request.crn, request.initial.clone(), classifier)
        .options(request.ensemble_options())
        .merge(partials)
        .map_err(|e| e.to_string())?;
    let body = request.render_report(&report);
    root.record("merge", 0, started_us, &[("partials", merged.to_string())]);
    Ok(body)
}

fn submit_exact(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    let request = ExactRequest::parse(&parse_body(ctx)?)?;
    let (key, priority, wait) = (request.cache_key(), request.priority, request.wait);
    let run_app = Arc::clone(app);
    let job = Job::single("exact", key, priority, wait, move |attrs| {
        request.execute_in(&mut UnitSpaces {
            cache: &run_app.structures,
            attrs,
        })
    });
    submit_cached_job(app, job)
}

fn submit_synthesize(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    let request = SynthesizeRequest::parse(&parse_body(ctx)?)?;
    let (key, priority, wait) = (request.cache_key(), request.priority, request.wait);
    let job = Job::single("synthesize", key, priority, wait, move |_| {
        request.execute()
    });
    submit_cached_job(app, job)
}

fn submit_check(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    let request = Arc::new(CheckRequest::parse(&parse_body(ctx)?)?);
    // A sweepless check is one in-process unit — when a coordinator
    // dispatched it, one point of a sweep, traced under the coordinator's
    // trace. A sweep runs each grid point as its own unit on the executor,
    // and every point consults (and fills) the per-point cache before the
    // sweep document is assembled, so re-gridded sweeps and single-point
    // replays reuse each other's solves, on top of the whole-document key.
    let (label, executor, remote) = match request.sweep {
        None => ("check", Executor::Local(Arc::clone(app)), remote_trace(ctx)),
        Some(_) => ("check-sweep", Executor::of(app), None),
    };
    let run_request = Arc::clone(&request);
    let run_app = Arc::clone(app);
    let job = Job {
        label,
        key: request.cache_key(),
        priority: request.priority,
        wait: request.wait,
        unit: ("point", "point"),
        units: (0..request.points.len())
            .map(|index| index.to_string())
            .collect(),
        remote,
        early: Vec::new(),
        run: Box::new(move |index, cancel, trace, attrs| {
            let point = &run_request.points[index];
            let key = run_request.sweep.as_ref().map(|_| point.cache_key());
            if let Some(body) = key.as_ref().and_then(|key| run_app.cache.lookup(key)) {
                return Ok(ChunkOutput::Body(body));
            }
            let body = executor.run_check(point, index, cancel, trace, attrs)?;
            if let Some(key) = &key {
                run_app.cache.insert(key, &body);
            }
            Ok(ChunkOutput::Body(body))
        }),
        merge: Box::new(move |outputs, _| {
            let mut bodies = bodies(outputs);
            match request.sweep {
                None => Ok(bodies.remove(0)),
                Some(_) => request.render_sweep(&bodies).map_err(|e| e.to_string()),
            }
        }),
    };
    submit_cached_job(app, job)
}

fn parse_job_id(ctx: &RouteContext<'_>) -> Result<JobId, ServiceError> {
    ctx.param("id")
        .and_then(|id| id.parse::<JobId>().ok())
        .ok_or_else(|| ServiceError::bad_request("job ids are positive integers"))
}

fn job_status(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    let id = parse_job_id(ctx)?;
    // `?wait=1` turns the poll into a blocking wait (used by the CLI).
    if ctx.query_param("wait").is_some() {
        if let Some(snapshot) = app.scheduler.wait_terminal(id, WAIT_TIMEOUT) {
            return Ok(snapshot_response(&snapshot));
        }
    }
    let snapshot = app.scheduler.status(id);
    Ok(snapshot_response(
        &snapshot.ok_or(ServiceError::UnknownJob { id })?,
    ))
}

fn job_cancel(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    let id = parse_job_id(ctx)?;
    match app.scheduler.status(id) {
        None => Err(ServiceError::UnknownJob { id }),
        // `cancel` re-checks terminality under the scheduler lock: a job
        // that settles between the status read and the cancel reports a
        // conflict, never `cancelled: true`.
        Some(_) if app.scheduler.cancel(id) => {
            let snapshot = app.scheduler.status(id).expect("job still known");
            Ok(Response::json(
                202,
                Json::object([
                    ("job", Json::count(id)),
                    ("state", Json::str(snapshot.state.as_str())),
                    ("cancelled", Json::Bool(true)),
                ])
                .render(),
            ))
        }
        Some(_) => {
            // Re-read: the pre-cancel snapshot may predate the settling.
            let state = app
                .scheduler
                .status(id)
                .map_or("settled", |s| s.state.as_str());
            Err(ServiceError::Conflict {
                message: format!("job {id} is already {state}"),
            })
        }
    }
}

fn shutdown(app: &Arc<App>, ctx: &RouteContext<'_>) -> Result<Response, ServiceError> {
    if !ctx.peer.ip().is_loopback() {
        return Err(ServiceError::Forbidden {
            message: "POST /shutdown is only accepted from loopback".to_string(),
        });
    }
    let deadline_ms = if ctx.request.body.trim().is_empty() {
        5_000
    } else {
        match parse_body(ctx)?.get("deadline_ms") {
            Some(value) => value
                .as_u64("deadline_ms")
                .map_err(ServiceError::bad_request)?,
            None => 5_000,
        }
    };
    let report = app.scheduler.drain(Duration::from_millis(deadline_ms));
    // Stop the accept loop: raise the flag, then self-connect to wake it.
    *app.stopping.lock().expect("stop flag") = true;
    if let Some(addr) = app.local_addr.get() {
        let _ = std::net::TcpStream::connect_timeout(addr, Duration::from_secs(1));
    }
    Ok(Response::json(
        200,
        Json::object([
            ("status", Json::str("drained")),
            ("finished", Json::count(report.finished)),
            ("cancelled", Json::count(report.cancelled)),
        ])
        .render(),
    ))
}

/// A running service: the bound address plus handles to stop and join it.
#[derive(Debug)]
pub struct ServiceHandle {
    app: Arc<App>,
    server: ServerHandle,
}

impl ServiceHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The shared app state (scheduler, cache, metrics).
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Drains the scheduler and stops the server — the programmatic
    /// equivalent of `POST /shutdown`.
    pub fn shutdown(&self, deadline: Duration) {
        self.app.scheduler.drain(deadline);
        *self.app.stopping.lock().expect("stop flag") = true;
        self.server.stop();
    }

    /// Blocks until the accept loop exits (via [`ServiceHandle::shutdown`]
    /// or `POST /shutdown`), then joins connection threads.
    pub fn join(self) {
        self.server.join();
    }
}

/// Binds and starts a service instance.
///
/// # Errors
///
/// Propagates socket bind errors.
pub fn serve(config: ServiceConfig) -> std::io::Result<ServiceHandle> {
    let app = App::new(config.clone());
    let router = app.router();
    let stop_app = Arc::clone(&app);
    let observe_app = Arc::clone(&app);
    let server = Server::bind(&config.addr, router, config.max_body_bytes)?
        .stop_when(move || *stop_app.stopping.lock().expect("stop flag"))
        .observe(move |response| observe_app.count_response(response));
    let _ = app.local_addr.set(server.local_addr()?);
    let server = server.start();
    Ok(ServiceHandle { app, server })
}
