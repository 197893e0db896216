//! The bounded work-stealing job scheduler.
//!
//! Jobs enter a bounded, priority-ordered injector queue. Each worker
//! thread owns a deque of *tasks* (the chunks of one job); a worker
//! prefers its own deque (newest first, for locality), then **steals the
//! oldest task from a sibling's deque**, and only then pops a fresh job
//! from the injector and expands it into chunk tasks. Stealing is what
//! keeps a many-chunk ensemble job from serialising behind one worker
//! while its siblings idle.
//!
//! Scheduling policy:
//!
//! * **priorities** — the injector pops the highest-priority job first
//!   (FIFO within a priority);
//! * **anti-starvation** — every [`AGING_PERIOD`]-th pop takes the oldest
//!   queued job regardless of priority, so a stream of urgent work can
//!   delay background jobs but never park them forever;
//! * **bounded** — submissions beyond the queue capacity are rejected
//!   ([`SubmitError::QueueFull`]) instead of buffering without limit;
//! * **cancellation** — every job carries a
//!   [`CancelToken`](gillespie::engine::CancelToken) shared with the
//!   running chunk (the ensemble engine polls it between trials), so a
//!   `DELETE /jobs/:id` frees the worker slot within one trial, not at the
//!   end of the job;
//! * **determinism** — chunk outputs are buffered per job and merged in
//!   chunk order by the job's `finish` closure, so a report computed by
//!   any interleaving of workers is bit-identical to a single-threaded
//!   run.
//!
//! The deques are guarded by one scheduler mutex rather than per-deque
//! locks: tasks here are coarse (milliseconds of simulation), so the
//! critical sections — a few pointer moves — are never contended long
//! enough to matter, and a single lock makes the state machine easy to
//! reason about.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gillespie::engine::CancelToken;
use gillespie::EnsemblePartial;
use obs::log::{event, Level, Value};
use obs::{Gauge, Histogram};

/// Identifies one submitted job.
pub type JobId = u64;

/// Every this-many injector pops, the oldest queued job wins regardless of
/// priority (the anti-starvation escape hatch).
const AGING_PERIOD: u64 = 4;

/// How many terminal jobs (and their result bodies) are retained for
/// polling before the oldest are forgotten.
const TERMINAL_RETENTION: usize = 1024;

/// The lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the injector queue.
    Queued,
    /// At least one chunk has started.
    Running,
    /// All chunks finished and the result body is available.
    Completed,
    /// A chunk (or the finish step) failed.
    Failed,
    /// The job was cancelled before completing.
    Cancelled,
}

impl JobState {
    /// `true` for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }

    /// The state's wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// The output of one task (chunk) of a job.
///
/// The partial is boxed: its exact accumulators are ~1.2 KiB inline, and
/// outputs sit in a `Vec` sized to the chunk count while the job drains.
#[derive(Debug)]
pub enum ChunkOutput {
    /// A block of ensemble trials, merged in chunk order at finish time.
    Partial(Box<EnsemblePartial>),
    /// A complete rendered body (single-chunk analysis jobs).
    Body(String),
}

/// The work a job performs, split into independent chunks.
///
/// `run_chunk` is called once per chunk index (possibly concurrently, on
/// any worker); `finish` receives the outputs **in chunk order** and
/// produces the final response body. Both must be deterministic functions
/// of their inputs — the result cache depends on it.
pub struct JobWork {
    /// Number of independent chunks (≥ 1).
    pub chunks: usize,
    /// Runs one chunk. The token is raised on cancellation; long chunks
    /// should poll it (the ensemble engine does so between trials).
    #[allow(clippy::type_complexity)]
    pub run_chunk: Box<dyn Fn(usize, &CancelToken) -> Result<ChunkOutput, String> + Send + Sync>,
    /// Merges the chunk outputs into the final body.
    #[allow(clippy::type_complexity)]
    pub finish: Box<dyn Fn(Vec<ChunkOutput>) -> Result<String, String> + Send + Sync>,
}

/// Observability handles the scheduler updates as jobs move through the
/// queue. All of it is strictly read-only with respect to scheduling
/// decisions: the histogram, gauges and hook observe transitions, they
/// never reorder or delay them — which is what keeps result bytes
/// independent of whether telemetry is wired up.
pub struct SchedulerTelemetry {
    /// Queue wait (submission → first chunk dispatched), microseconds.
    pub queue_wait_us: Arc<Histogram>,
    /// Jobs currently waiting in the injector queue.
    pub queue_depth: Arc<Gauge>,
    /// Jobs with at least one chunk started and not yet settled.
    pub running_jobs: Arc<Gauge>,
    /// Called (under the scheduler lock) when a job leaves the queue and
    /// starts running: `(id, label, wait)`. The app records the
    /// `schedule-wait` trace span here. Must not call back into the
    /// scheduler.
    #[allow(clippy::type_complexity)]
    pub on_dequeue: Box<dyn Fn(JobId, &str, Duration) + Send + Sync>,
}

impl std::fmt::Debug for SchedulerTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SchedulerTelemetry")
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded injector queue is at capacity.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The scheduler is draining for shutdown.
    Draining,
}

/// A point-in-time view of one job, for `GET /jobs/:id`.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// The submission priority (0 = background … 9 = urgent).
    pub priority: u8,
    /// A short label describing the job kind (`simulate`, `exact`, …).
    pub label: String,
    /// Chunks finished so far.
    pub completed_chunks: usize,
    /// Total chunks.
    pub total_chunks: usize,
    /// The result body, present once `state == Completed`.
    pub result: Option<String>,
    /// The failure message, present once `state == Failed`.
    pub error: Option<String>,
    /// Global completion sequence number (1-based), stamped when the job
    /// reaches a terminal state. Exposes completion *order* to tests and
    /// clients without racing on wall-clock time.
    pub completion_index: Option<u64>,
}

impl JobSnapshot {
    /// Fraction of chunks finished, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total_chunks == 0 {
            return 1.0;
        }
        self.completed_chunks as f64 / self.total_chunks as f64
    }
}

/// Counters for `GET /metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Worker thread count.
    pub workers: usize,
    /// Jobs waiting in the injector.
    pub queued: usize,
    /// Jobs with at least one chunk in flight.
    pub running: usize,
    /// Jobs completed successfully since start.
    pub completed: u64,
    /// Jobs failed since start.
    pub failed: u64,
    /// Jobs cancelled since start.
    pub cancelled: u64,
    /// Submissions rejected by the queue bound.
    pub rejected: u64,
    /// Tasks a worker stole from a sibling's deque.
    pub steals: u64,
}

/// The outcome of [`Scheduler::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that reached `Completed`/`Failed` during (or before) the drain.
    pub finished: u64,
    /// Jobs forcibly cancelled when the deadline expired.
    pub cancelled: u64,
}

struct QueuedJob {
    id: JobId,
    priority: u8,
    seq: u64,
}

struct JobEntry {
    priority: u8,
    label: String,
    state: JobState,
    /// When the job entered the queue; the queue-wait histogram measures
    /// from here to the first chunk expansion.
    queued_at: Instant,
    cancel: Arc<CancelToken>,
    work: Option<Arc<JobWork>>,
    outputs: Vec<Option<ChunkOutput>>,
    completed_chunks: usize,
    total_chunks: usize,
    /// Tasks handed to a worker but not yet retired (running right now).
    inflight_chunks: usize,
    /// Tasks still sitting in some deque.
    pending_chunks: usize,
    first_error: Option<String>,
    result: Option<String>,
    completion_index: Option<u64>,
}

impl JobEntry {
    fn snapshot(&self, id: JobId) -> JobSnapshot {
        JobSnapshot {
            id,
            state: self.state,
            priority: self.priority,
            label: self.label.clone(),
            completed_chunks: self.completed_chunks,
            total_chunks: self.total_chunks,
            result: self.result.clone(),
            error: self.first_error.clone(),
            completion_index: self.completion_index,
        }
    }
}

#[derive(Clone, Copy)]
struct Task {
    job: JobId,
    chunk: usize,
}

struct SchedState {
    queue: Vec<QueuedJob>,
    deques: Vec<VecDeque<Task>>,
    jobs: HashMap<JobId, JobEntry>,
    /// Terminal jobs in completion order, for bounded retention: once more
    /// than [`TERMINAL_RETENTION`] jobs have settled, the oldest are
    /// forgotten (their ids answer `status` with `None`, like unknown
    /// jobs). Without this the map — and every retained result body —
    /// would grow for the life of the process.
    terminal_order: VecDeque<JobId>,
    next_id: JobId,
    next_seq: u64,
    pops: u64,
    completion_counter: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    rejected: u64,
    steals: u64,
    /// Jobs in `Running` state, maintained incrementally so telemetry
    /// gauges never need an O(jobs) scan.
    running_count: usize,
    draining: bool,
    shutdown: bool,
    telemetry: Option<SchedulerTelemetry>,
}

impl SchedState {
    /// Pushes the current queue depth / running count into the gauges.
    fn publish_gauges(&self) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.queue_depth.set(self.queue.len() as u64);
            telemetry.running_jobs.set(self.running_count as u64);
        }
    }
}

struct SchedulerInner {
    state: Mutex<SchedState>,
    /// Signalled on new work, job completion and shutdown.
    cv: Condvar,
    queue_capacity: usize,
    workers: usize,
}

/// The bounded work-stealing job scheduler. See the [module
/// docs](self) for the scheduling policy.
pub struct Scheduler {
    inner: Arc<SchedulerInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheduler({} workers)", self.inner.workers)
    }
}

impl Scheduler {
    /// Starts `workers` threads (0 = one per available CPU) with a bounded
    /// injector queue of `queue_capacity` jobs.
    pub fn new(workers: usize, queue_capacity: usize) -> Scheduler {
        Scheduler::with_telemetry(workers, queue_capacity, None)
    }

    /// Like [`Scheduler::new`], with observability handles the scheduler
    /// updates as jobs move through the queue.
    pub fn with_telemetry(
        workers: usize,
        queue_capacity: usize,
        telemetry: Option<SchedulerTelemetry>,
    ) -> Scheduler {
        let workers = if workers > 0 {
            workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let inner = Arc::new(SchedulerInner {
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                deques: (0..workers).map(|_| VecDeque::new()).collect(),
                jobs: HashMap::new(),
                terminal_order: VecDeque::new(),
                next_id: 1,
                next_seq: 0,
                pops: 0,
                completion_counter: 0,
                completed: 0,
                failed: 0,
                cancelled: 0,
                rejected: 0,
                steals: 0,
                running_count: 0,
                draining: false,
                shutdown: false,
                telemetry,
            }),
            cv: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            workers,
        });
        let threads = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("stochsynth-worker-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { inner, threads }
    }

    /// Submits a job at `priority` (0 = background … 9 = urgent; values
    /// above 9 are clamped).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity and
    /// [`SubmitError::Draining`] once shutdown has begun.
    pub fn submit(
        &self,
        priority: u8,
        label: impl Into<String>,
        work: JobWork,
    ) -> Result<JobId, SubmitError> {
        self.submit_with(priority, label, move |_| work)
    }

    /// Submits a job whose work is built *after* the job id is allocated:
    /// `build` receives the id and returns the [`JobWork`]. This is how the
    /// app bakes the trace id (the job id, as text) into chunk closures —
    /// the id does not exist before admission, and recording spans under a
    /// provisional id would orphan them.
    ///
    /// `build` runs under the scheduler lock and must not call back into
    /// the scheduler; it should only construct closures.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit`]. When the submission is rejected, `build`
    /// is never called.
    pub fn submit_with(
        &self,
        priority: u8,
        label: impl Into<String>,
        build: impl FnOnce(JobId) -> JobWork,
    ) -> Result<JobId, SubmitError> {
        let label = label.into();
        let mut state = self.inner.state.lock().expect("scheduler lock");
        if state.draining || state.shutdown {
            return Err(SubmitError::Draining);
        }
        if state.queue.len() >= self.inner.queue_capacity {
            state.rejected += 1;
            event(
                Level::Warn,
                "service::scheduler",
                "job_rejected",
                &[
                    ("label", Value::str(label)),
                    ("capacity", Value::U64(self.inner.queue_capacity as u64)),
                ],
            );
            return Err(SubmitError::QueueFull {
                capacity: self.inner.queue_capacity,
            });
        }
        let id = state.next_id;
        state.next_id += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        let work = build(id);
        assert!(work.chunks >= 1, "jobs have at least one chunk");
        let total_chunks = work.chunks;
        state.jobs.insert(
            id,
            JobEntry {
                priority: priority.min(9),
                label: label.clone(),
                state: JobState::Queued,
                queued_at: Instant::now(),
                cancel: Arc::new(CancelToken::new()),
                work: Some(Arc::new(work)),
                outputs: Vec::new(),
                completed_chunks: 0,
                total_chunks,
                inflight_chunks: 0,
                pending_chunks: 0,
                first_error: None,
                result: None,
                completion_index: None,
            },
        );
        state.queue.push(QueuedJob {
            id,
            priority: priority.min(9),
            seq,
        });
        state.publish_gauges();
        event(
            Level::Debug,
            "service::scheduler",
            "job_queued",
            &[
                ("corr", Value::U64(id)),
                ("label", Value::str(label)),
                ("priority", Value::U64(u64::from(priority.min(9)))),
                ("chunks", Value::U64(total_chunks as u64)),
                ("queue_depth", Value::U64(state.queue.len() as u64)),
            ],
        );
        drop(state);
        self.inner.cv.notify_all();
        Ok(id)
    }

    /// Cancels a job: a queued job is removed immediately, a running job's
    /// token is raised so its chunks stop at the next poll.
    ///
    /// Returns `false` when the job is unknown or already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.inner.state.lock().expect("scheduler lock");
        let Some(entry) = state.jobs.get(&id) else {
            return false;
        };
        if entry.state.is_terminal() {
            return false;
        }
        let was_queued = entry.state == JobState::Queued;
        entry.cancel.cancel();
        if was_queued {
            state.queue.retain(|q| q.id != id);
            finish_job(&mut state, id, JobState::Cancelled);
        } else {
            // Running: drop still-queued chunk tasks now; in-flight chunks
            // observe the token and retire through `retire_task`.
            for deque in &mut state.deques {
                deque.retain(|t| t.job != id);
            }
            let entry = state.jobs.get_mut(&id).expect("job exists");
            entry.pending_chunks = 0;
            if entry.inflight_chunks == 0 {
                finish_job(&mut state, id, JobState::Cancelled);
            }
        }
        drop(state);
        self.inner.cv.notify_all();
        true
    }

    /// Returns a snapshot of the job, or `None` if the id is unknown.
    pub fn status(&self, id: JobId) -> Option<JobSnapshot> {
        let state = self.inner.state.lock().expect("scheduler lock");
        state.jobs.get(&id).map(|entry| entry.snapshot(id))
    }

    /// Blocks until the job reaches a terminal state, up to `timeout`.
    /// Returns the final snapshot, or `None` on timeout / unknown id.
    pub fn wait_terminal(&self, id: JobId, timeout: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock().expect("scheduler lock");
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(entry) if entry.state.is_terminal() => {
                    return Some(entry.snapshot(id));
                }
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .inner
                .cv
                .wait_timeout(state, deadline - now)
                .expect("scheduler lock");
            state = next;
        }
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> SchedulerStats {
        let state = self.inner.state.lock().expect("scheduler lock");
        SchedulerStats {
            workers: self.inner.workers,
            queued: state.queue.len(),
            running: state.running_count,
            completed: state.completed,
            failed: state.failed,
            cancelled: state.cancelled,
            rejected: state.rejected,
            steals: state.steals,
        }
    }

    /// Stops accepting new jobs and waits up to `deadline` for queued and
    /// running jobs to finish; whatever is still alive afterwards is
    /// cancelled. The scheduler keeps serving `status` queries afterwards
    /// but rejects submissions.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let until = Instant::now() + deadline;
        let mut state = self.inner.state.lock().expect("scheduler lock");
        state.draining = true;
        drop(state);
        self.inner.cv.notify_all();

        let mut state = self.inner.state.lock().expect("scheduler lock");
        loop {
            let alive: Vec<JobId> = state
                .jobs
                .iter()
                .filter(|(_, e)| !e.state.is_terminal())
                .map(|(&id, _)| id)
                .collect();
            if alive.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= until {
                // Deadline expired: cancel the stragglers and wait for
                // their in-flight chunks to retire (bounded by the chunk
                // granularity, i.e. at most one trial).
                for id in alive {
                    if let Some(entry) = state.jobs.get(&id) {
                        entry.cancel.cancel();
                        let was_queued = entry.state == JobState::Queued;
                        if was_queued {
                            state.queue.retain(|q| q.id != id);
                            finish_job(&mut state, id, JobState::Cancelled);
                        } else {
                            for deque in &mut state.deques {
                                deque.retain(|t| t.job != id);
                            }
                            let entry = state.jobs.get_mut(&id).expect("job exists");
                            entry.pending_chunks = 0;
                            if entry.inflight_chunks == 0 {
                                finish_job(&mut state, id, JobState::Cancelled);
                            }
                        }
                    }
                }
                self.inner.cv.notify_all();
                while state.jobs.values().any(|e| !e.state.is_terminal()) {
                    let (next, _) = self
                        .inner
                        .cv
                        .wait_timeout(state, Duration::from_millis(50))
                        .expect("scheduler lock");
                    state = next;
                }
                break;
            }
            let (next, _) = self
                .inner
                .cv
                .wait_timeout(state, until - now)
                .expect("scheduler lock");
            state = next;
        }
        DrainReport {
            finished: state.completed + state.failed,
            cancelled: state.cancelled,
        }
    }

    /// Drains with a zero deadline and joins the worker threads.
    pub fn shutdown(mut self) {
        self.stop_workers();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    fn stop_workers(&self) {
        let mut state = self.inner.state.lock().expect("scheduler lock");
        state.draining = true;
        state.shutdown = true;
        drop(state);
        self.inner.cv.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stop_workers();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Marks a job terminal, updating counters and the completion index.
fn finish_job(state: &mut SchedState, id: JobId, terminal: JobState) {
    let counter = {
        state.completion_counter += 1;
        state.completion_counter
    };
    let entry = state.jobs.get_mut(&id).expect("job exists");
    debug_assert!(!entry.state.is_terminal());
    let was_running = entry.state == JobState::Running;
    let label = entry.label.clone();
    let error = entry.first_error.clone();
    entry.state = terminal;
    entry.completion_index = Some(counter);
    entry.work = None;
    entry.outputs.clear();
    if was_running {
        state.running_count = state.running_count.saturating_sub(1);
    }
    match terminal {
        JobState::Completed => state.completed += 1,
        JobState::Failed => state.failed += 1,
        JobState::Cancelled => state.cancelled += 1,
        _ => unreachable!("finish_job only sets terminal states"),
    }
    state.publish_gauges();
    let mut fields = vec![
        ("corr", Value::U64(id)),
        ("label", Value::str(label)),
        ("state", Value::str(terminal.as_str())),
        ("completion_index", Value::U64(counter)),
    ];
    if let Some(message) = error {
        fields.push(("error", Value::Str(message)));
    }
    let level = if terminal == JobState::Failed {
        Level::Warn
    } else {
        Level::Debug
    };
    event(level, "service::scheduler", "job_finished", &fields);
    // Bounded retention: forget the oldest settled jobs (and their result
    // bodies) once more than TERMINAL_RETENTION have accumulated.
    state.terminal_order.push_back(id);
    while state.terminal_order.len() > TERMINAL_RETENTION {
        let oldest = state
            .terminal_order
            .pop_front()
            .expect("retention queue is non-empty");
        state.jobs.remove(&oldest);
    }
}

/// Pops the next job from the injector: highest priority first, FIFO within
/// a priority — except every [`AGING_PERIOD`]-th pop, which takes the
/// globally oldest job so low priorities cannot starve.
fn pop_job(state: &mut SchedState) -> Option<QueuedJob> {
    if state.queue.is_empty() {
        return None;
    }
    state.pops += 1;
    let aging = state.pops.is_multiple_of(AGING_PERIOD);
    let best = state
        .queue
        .iter()
        .enumerate()
        .min_by_key(|(_, q)| {
            if aging {
                (0u8, q.seq)
            } else {
                // Highest priority first → smallest (9 - priority).
                (9 - q.priority, q.seq)
            }
        })
        .map(|(i, _)| i)?;
    Some(state.queue.swap_remove(best))
}

fn worker_loop(inner: &SchedulerInner, worker: usize) {
    let mut state = inner.state.lock().expect("scheduler lock");
    loop {
        // 1. Own deque, newest first (locality within a job).
        let task = state.deques[worker].pop_back().or_else(|| {
            // 2. Steal the oldest task from the busiest sibling.
            let victim = (0..state.deques.len())
                .filter(|&v| v != worker)
                .max_by_key(|&v| state.deques[v].len())
                .filter(|&v| !state.deques[v].is_empty());
            if let Some(v) = victim {
                state.steals += 1;
                state.deques[v].pop_front()
            } else {
                None
            }
        });
        let task = match task {
            Some(task) => Some(task),
            None => match pop_job(&mut state) {
                // 3. Expand a fresh job into chunk tasks on our own deque.
                Some(queued) => {
                    let entry = state.jobs.get_mut(&queued.id).expect("queued job exists");
                    if entry.state != JobState::Queued {
                        // Cancelled while queued (defensive; cancel removes
                        // queue entries eagerly).
                        None
                    } else {
                        entry.state = JobState::Running;
                        let wait = entry.queued_at.elapsed();
                        let label = entry.label.clone();
                        let chunks = entry.total_chunks;
                        entry.outputs = (0..chunks).map(|_| None).collect();
                        entry.pending_chunks = chunks;
                        for chunk in (0..chunks).rev() {
                            state.deques[worker].push_back(Task {
                                job: queued.id,
                                chunk,
                            });
                        }
                        state.running_count += 1;
                        let wait_us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
                        if let Some(telemetry) = &state.telemetry {
                            telemetry.queue_wait_us.record(wait_us);
                            (telemetry.on_dequeue)(queued.id, &label, wait);
                        }
                        state.publish_gauges();
                        event(
                            Level::Debug,
                            "service::scheduler",
                            "job_started",
                            &[
                                ("corr", Value::U64(queued.id)),
                                ("label", Value::str(label)),
                                ("queue_wait_us", Value::U64(wait_us)),
                                ("chunks", Value::U64(chunks as u64)),
                            ],
                        );
                        // Wake siblings so they can steal our fresh chunks.
                        inner.cv.notify_all();
                        state.deques[worker].pop_back()
                    }
                }
                None => None,
            },
        };

        let Some(task) = task else {
            if state.shutdown {
                return;
            }
            let (next, _) = inner
                .cv
                .wait_timeout(state, Duration::from_millis(100))
                .expect("scheduler lock");
            state = next;
            continue;
        };

        // Claim the chunk and run it unlocked.
        let Some((work, cancel)) = state.jobs.get_mut(&task.job).and_then(|entry| {
            if entry.state != JobState::Running {
                return None;
            }
            entry.pending_chunks = entry.pending_chunks.saturating_sub(1);
            entry.inflight_chunks += 1;
            Some((
                Arc::clone(entry.work.as_ref().expect("running job has work")),
                Arc::clone(&entry.cancel),
            ))
        }) else {
            continue;
        };

        drop(state);
        let outcome = if cancel.is_cancelled() {
            Err("cancelled".to_string())
        } else {
            (work.run_chunk)(task.chunk, &cancel)
        };
        state = inner.state.lock().expect("scheduler lock");
        retire_task(inner, &mut state, task, outcome, &work);
    }
}

/// Books the outcome of one finished chunk and completes/fails/cancels the
/// job when its last outstanding chunk retires.
fn retire_task(
    inner: &SchedulerInner,
    state: &mut SchedState,
    task: Task,
    outcome: Result<ChunkOutput, String>,
    work: &Arc<JobWork>,
) {
    let Some(entry) = state.jobs.get_mut(&task.job) else {
        return;
    };
    entry.inflight_chunks = entry.inflight_chunks.saturating_sub(1);
    if entry.state.is_terminal() {
        inner.cv.notify_all();
        return;
    }
    let cancelled = entry.cancel.is_cancelled();
    match outcome {
        Ok(output) if !cancelled => {
            entry.outputs[task.chunk] = Some(output);
            entry.completed_chunks += 1;
        }
        Ok(_) => {}
        Err(message) => {
            if entry.first_error.is_none() && !cancelled {
                entry.first_error = Some(message);
            }
            // Stop sibling chunks of a failed job early.
            entry.cancel.cancel();
            for deque in &mut state.deques {
                deque.retain(|t| t.job != task.job);
            }
            let entry = state.jobs.get_mut(&task.job).expect("job exists");
            entry.pending_chunks = 0;
        }
    }

    let entry = state.jobs.get_mut(&task.job).expect("job exists");
    let outstanding = entry.pending_chunks + entry.inflight_chunks;
    if outstanding > 0 {
        inner.cv.notify_all();
        return;
    }
    // Last chunk retired: settle the job.
    if entry.cancel.is_cancelled() && entry.first_error.is_none() {
        finish_job(state, task.job, JobState::Cancelled);
    } else if entry.first_error.is_some() {
        finish_job(state, task.job, JobState::Failed);
    } else if entry.completed_chunks == entry.total_chunks {
        let outputs: Vec<ChunkOutput> = entry
            .outputs
            .iter_mut()
            .map(|slot| slot.take().expect("all chunks completed"))
            .collect();
        match (work.finish)(outputs) {
            Ok(body) => {
                let entry = state.jobs.get_mut(&task.job).expect("job exists");
                entry.result = Some(body);
                finish_job(state, task.job, JobState::Completed);
            }
            Err(message) => {
                let entry = state.jobs.get_mut(&task.job).expect("job exists");
                entry.first_error = Some(message);
                finish_job(state, task.job, JobState::Failed);
            }
        }
    } else {
        // Chunks were dropped without error or cancellation — impossible by
        // construction, but never leave a job limbo'd.
        let entry = state.jobs.get_mut(&task.job).expect("job exists");
        entry.first_error = Some("internal: chunks lost without cancellation".to_string());
        finish_job(state, task.job, JobState::Failed);
    }
    inner.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A job whose chunks each return a `Body` with their index; finish
    /// concatenates.
    fn counting_job(chunks: usize, delay: Duration) -> JobWork {
        JobWork {
            chunks,
            run_chunk: Box::new(move |i, cancel| {
                let started = Instant::now();
                while started.elapsed() < delay {
                    if cancel.is_cancelled() {
                        return Ok(ChunkOutput::Body(String::new()));
                    }
                    std::thread::yield_now();
                }
                Ok(ChunkOutput::Body(format!("{i};")))
            }),
            finish: Box::new(|outputs| {
                let mut body = String::new();
                for output in outputs {
                    match output {
                        ChunkOutput::Body(s) => body.push_str(&s),
                        ChunkOutput::Partial(_) => unreachable!(),
                    }
                }
                Ok(body)
            }),
        }
    }

    #[test]
    fn chunks_merge_in_chunk_order_regardless_of_workers() {
        let scheduler = Scheduler::new(4, 64);
        let id = scheduler
            .submit(5, "test", counting_job(16, Duration::ZERO))
            .unwrap();
        let snapshot = scheduler
            .wait_terminal(id, Duration::from_secs(10))
            .expect("job finishes");
        assert_eq!(snapshot.state, JobState::Completed);
        let expected: String = (0..16).map(|i| format!("{i};")).collect();
        assert_eq!(snapshot.result.as_deref(), Some(expected.as_str()));
        assert!((snapshot.progress() - 1.0).abs() < 1e-12);
        scheduler.shutdown();
    }

    #[test]
    fn sustains_many_concurrent_jobs_without_deadlock() {
        let scheduler = Scheduler::new(4, 128);
        let ids: Vec<JobId> = (0..80)
            .map(|i| {
                scheduler
                    .submit((i % 10) as u8, "test", counting_job(3, Duration::ZERO))
                    .unwrap()
            })
            .collect();
        for id in ids {
            let snapshot = scheduler
                .wait_terminal(id, Duration::from_secs(30))
                .expect("every job finishes");
            assert_eq!(snapshot.state, JobState::Completed);
        }
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 80);
        assert_eq!(stats.queued, 0);
        scheduler.shutdown();
    }

    #[test]
    fn queue_bound_rejects_past_capacity() {
        // One worker stuck on a slow job; the queue holds 2 more.
        let scheduler = Scheduler::new(1, 2);
        let blocker = scheduler
            .submit(5, "slow", counting_job(1, Duration::from_millis(300)))
            .unwrap();
        // Give the worker a moment to pull the blocker off the queue.
        std::thread::sleep(Duration::from_millis(50));
        let _a = scheduler
            .submit(5, "q1", counting_job(1, Duration::ZERO))
            .unwrap();
        let _b = scheduler
            .submit(5, "q2", counting_job(1, Duration::ZERO))
            .unwrap();
        let err = scheduler
            .submit(5, "q3", counting_job(1, Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        assert_eq!(scheduler.stats().rejected, 1);
        scheduler
            .wait_terminal(blocker, Duration::from_secs(10))
            .unwrap();
        scheduler.shutdown();
    }

    #[test]
    fn priorities_order_queued_jobs() {
        // One worker; first job blocks while the rest queue up.
        let scheduler = Scheduler::new(1, 64);
        let blocker = scheduler
            .submit(9, "blocker", counting_job(1, Duration::from_millis(200)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let low = scheduler
            .submit(1, "low", counting_job(1, Duration::ZERO))
            .unwrap();
        let high = scheduler
            .submit(8, "high", counting_job(1, Duration::ZERO))
            .unwrap();
        for id in [blocker, low, high] {
            scheduler
                .wait_terminal(id, Duration::from_secs(10))
                .unwrap();
        }
        let low_index = scheduler.status(low).unwrap().completion_index.unwrap();
        let high_index = scheduler.status(high).unwrap().completion_index.unwrap();
        assert!(
            high_index < low_index,
            "high priority ({high_index}) must complete before low ({low_index})"
        );
        scheduler.shutdown();
    }

    #[test]
    fn aging_prevents_starvation_of_low_priorities() {
        // A single worker with a steady stream of urgent jobs: the one
        // background job still completes before the stream runs dry.
        let scheduler = Scheduler::new(1, 64);
        let blocker = scheduler
            .submit(9, "blocker", counting_job(1, Duration::from_millis(100)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let background = scheduler
            .submit(0, "background", counting_job(1, Duration::ZERO))
            .unwrap();
        let urgent: Vec<JobId> = (0..12)
            .map(|_| {
                scheduler
                    .submit(9, "urgent", counting_job(1, Duration::ZERO))
                    .unwrap()
            })
            .collect();
        for id in urgent.iter().chain([&blocker, &background]) {
            scheduler
                .wait_terminal(*id, Duration::from_secs(10))
                .unwrap();
        }
        let background_index = scheduler
            .status(background)
            .unwrap()
            .completion_index
            .unwrap();
        let last_urgent_index = urgent
            .iter()
            .map(|&id| scheduler.status(id).unwrap().completion_index.unwrap())
            .max()
            .unwrap();
        assert!(
            background_index < last_urgent_index,
            "aging must let the background job ({background_index}) through \
             before the urgent stream ends ({last_urgent_index})"
        );
        scheduler.shutdown();
    }

    #[test]
    fn cancelling_a_running_job_frees_the_worker() {
        let scheduler = Scheduler::new(1, 16);
        // A job that runs until cancelled.
        let sticky = scheduler
            .submit(
                5,
                "sticky",
                JobWork {
                    chunks: 1,
                    run_chunk: Box::new(|_, cancel| {
                        while !cancel.is_cancelled() {
                            std::thread::yield_now();
                        }
                        Ok(ChunkOutput::Body(String::new()))
                    }),
                    finish: Box::new(|_| Ok("done".to_string())),
                },
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let queued = scheduler
            .submit(5, "next", counting_job(1, Duration::ZERO))
            .unwrap();
        assert!(scheduler.cancel(sticky));
        let snapshot = scheduler
            .wait_terminal(sticky, Duration::from_secs(10))
            .expect("cancellation settles");
        assert_eq!(snapshot.state, JobState::Cancelled);
        // The freed worker picks the queued job up.
        let snapshot = scheduler
            .wait_terminal(queued, Duration::from_secs(10))
            .expect("queued job runs after the cancel");
        assert_eq!(snapshot.state, JobState::Completed);
        // Cancelling a terminal job is a no-op.
        assert!(!scheduler.cancel(sticky));
        assert_eq!(scheduler.stats().cancelled, 1);
        scheduler.shutdown();
    }

    #[test]
    fn failed_chunks_fail_the_job_and_stop_siblings() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let scheduler = Scheduler::new(2, 16);
        let counter = Arc::clone(&attempts);
        let id = scheduler
            .submit(
                5,
                "failing",
                JobWork {
                    chunks: 8,
                    run_chunk: Box::new(move |i, _| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        if i == 0 {
                            Err("chunk 0 exploded".to_string())
                        } else {
                            std::thread::sleep(Duration::from_millis(10));
                            Ok(ChunkOutput::Body(String::new()))
                        }
                    }),
                    finish: Box::new(|_| Ok(String::new())),
                },
            )
            .unwrap();
        let snapshot = scheduler
            .wait_terminal(id, Duration::from_secs(10))
            .expect("failure settles");
        assert_eq!(snapshot.state, JobState::Failed);
        assert!(snapshot.error.as_deref().unwrap().contains("chunk 0"));
        scheduler.shutdown();
    }

    #[test]
    fn drain_finishes_quick_jobs_and_cancels_stragglers() {
        let scheduler = Scheduler::new(2, 16);
        let quick = scheduler
            .submit(5, "quick", counting_job(2, Duration::ZERO))
            .unwrap();
        let sticky = scheduler
            .submit(
                5,
                "sticky",
                JobWork {
                    chunks: 1,
                    run_chunk: Box::new(|_, cancel| {
                        while !cancel.is_cancelled() {
                            std::thread::yield_now();
                        }
                        Ok(ChunkOutput::Body(String::new()))
                    }),
                    finish: Box::new(|_| Ok(String::new())),
                },
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let report = scheduler.drain(Duration::from_millis(200));
        assert!(report.finished >= 1);
        assert_eq!(report.cancelled, 1);
        assert_eq!(scheduler.status(quick).unwrap().state, JobState::Completed);
        assert_eq!(scheduler.status(sticky).unwrap().state, JobState::Cancelled);
        // Draining rejects new submissions.
        assert_eq!(
            scheduler
                .submit(5, "late", counting_job(1, Duration::ZERO))
                .unwrap_err(),
            SubmitError::Draining
        );
        scheduler.shutdown();
    }

    #[test]
    fn terminal_jobs_are_retained_boundedly() {
        let scheduler = Scheduler::new(2, 2048);
        let total = TERMINAL_RETENTION + 50;
        let submit = || {
            scheduler
                .submit(5, "tiny", counting_job(1, Duration::ZERO))
                .unwrap()
        };
        // Retention follows settle order, so job 0 settles before any other
        // is submitted: it is then the oldest settled job on any schedule.
        let first = submit();
        scheduler
            .wait_terminal(first, Duration::from_secs(60))
            .expect("job 0 settles");
        let ids: Vec<JobId> = std::iter::once(first)
            .chain((1..total).map(|_| submit()))
            .collect();
        // Early jobs may already be evicted by the time they would be
        // polled, so wait on the aggregate counter instead.
        let deadline = Instant::now() + Duration::from_secs(60);
        while scheduler.stats().completed < total as u64 {
            assert!(Instant::now() < deadline, "jobs did not all finish");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The oldest settled jobs were forgotten; recent ones still answer.
        assert!(
            scheduler.status(ids[0]).is_none(),
            "oldest job should be evicted"
        );
        assert!(scheduler.status(*ids.last().unwrap()).is_some());
        // Counters survive eviction.
        assert_eq!(scheduler.stats().completed, total as u64);
        scheduler.shutdown();
    }

    #[test]
    fn submit_with_sees_the_job_id_and_telemetry_observes_the_wait() {
        let seen = Arc::new(Mutex::new(Vec::<(JobId, String)>::new()));
        let telemetry = SchedulerTelemetry {
            queue_wait_us: Arc::new(Histogram::new()),
            queue_depth: Arc::new(Gauge::default()),
            running_jobs: Arc::new(Gauge::default()),
            on_dequeue: {
                let seen = Arc::clone(&seen);
                Box::new(move |id, label, _wait| {
                    seen.lock().unwrap().push((id, label.to_string()));
                })
            },
        };
        let wait_hist = Arc::clone(&telemetry.queue_wait_us);
        let scheduler = Scheduler::with_telemetry(2, 16, Some(telemetry));
        let id = scheduler
            .submit_with(5, "traced", |id| JobWork {
                chunks: 1,
                run_chunk: Box::new(move |_, _| Ok(ChunkOutput::Body(format!("job={id}")))),
                finish: Box::new(|mut outputs| match outputs.remove(0) {
                    ChunkOutput::Body(s) => Ok(s),
                    ChunkOutput::Partial(_) => unreachable!(),
                }),
            })
            .unwrap();
        let snapshot = scheduler
            .wait_terminal(id, Duration::from_secs(10))
            .expect("job finishes");
        // The build closure captured the real job id before any chunk ran.
        assert_eq!(
            snapshot.result.as_deref(),
            Some(format!("job={id}").as_str())
        );
        assert_eq!(wait_hist.snapshot().count, 1);
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[(id, "traced".to_string())]
        );
        scheduler.shutdown();
    }

    #[test]
    fn work_is_stolen_across_workers() {
        let scheduler = Scheduler::new(4, 16);
        // One job with many slow-ish chunks: the expanding worker cannot
        // keep them all; siblings must steal.
        let id = scheduler
            .submit(5, "wide", counting_job(32, Duration::from_millis(5)))
            .unwrap();
        scheduler
            .wait_terminal(id, Duration::from_secs(30))
            .expect("job finishes");
        assert!(
            scheduler.stats().steals > 0,
            "siblings should have stolen chunks: {:?}",
            scheduler.stats()
        );
        scheduler.shutdown();
    }
}
