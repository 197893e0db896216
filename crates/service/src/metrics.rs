//! Service-wide telemetry surfaced through `GET /metrics`.
//!
//! Counters, gauges and latency histograms live in one
//! [`obs::MetricsRegistry`]; the legacy JSON body of `GET /metrics` reads
//! the same series (so its shape is unchanged), and
//! `GET /metrics?format=text` renders the whole registry as a
//! Prometheus-style text exposition. Cache, scheduler and fabric counters
//! live with their owners ([`ResultCache`](crate::ResultCache),
//! [`Scheduler`](crate::Scheduler), [`Fabric`](crate::Fabric)); the app
//! layer lists them once and renders both bodies from that list.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gillespie::{SimProfile, StepperKind};
use obs::{Counter, Histogram, MetricsRegistry};

/// The per-endpoint telemetry handles the request wrapper bumps: request
/// count, 4xx/5xx breakdown and a service-time histogram. Handles are
/// shared `Arc`s from the registry, so asking twice for the same endpoint
/// returns the same series.
#[derive(Debug, Clone)]
pub struct EndpointMetrics {
    /// Requests dispatched to this endpoint's handler.
    pub requests: Arc<Counter>,
    /// 4xx responses from this endpoint.
    pub responses_4xx: Arc<Counter>,
    /// 5xx responses from this endpoint.
    pub responses_5xx: Arc<Counter>,
    /// Handler service time, microseconds.
    pub latency_us: Arc<Histogram>,
}

impl EndpointMetrics {
    /// Records one handled response: the request count, the status class
    /// and the service time.
    pub fn observe(&self, status: u16, elapsed: Duration) {
        self.requests.inc();
        if (400..500).contains(&status) {
            self.responses_4xx.inc();
        } else if status >= 500 {
            self.responses_5xx.inc();
        }
        self.latency_us
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }
}

/// The service's typed metrics: a registry plus named handles for the
/// service-wide series.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    registry: Arc<MetricsRegistry>,
    /// Total HTTP responses written — one per request the server answered,
    /// including framing-level `400`/`413` rejections and router-level
    /// `404`/`405`s that never reach a handler.
    pub requests: Arc<Counter>,
    /// Responses with a 4xx status (all endpoints).
    pub responses_4xx: Arc<Counter>,
    /// Responses with a 5xx status (all endpoints).
    pub responses_5xx: Arc<Counter>,
    /// Result-cache lookup latency, microseconds.
    pub cache_lookup_us: Arc<Histogram>,
    /// Scheduler queue wait (submission → first chunk dispatched),
    /// microseconds. The handle is shared with the scheduler's telemetry.
    pub queue_wait_us: Arc<Histogram>,
    /// Job units and merges that panicked; each failed its job.
    pub jobs_panicked: Arc<Counter>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates zeroed series with the clock started now.
    pub fn new() -> Metrics {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Metrics {
            started: Instant::now(),
            requests: registry.counter("http_requests_total"),
            responses_4xx: registry.counter("http_responses_total{class=\"4xx\"}"),
            responses_5xx: registry.counter("http_responses_total{class=\"5xx\"}"),
            cache_lookup_us: registry.histogram("cache_lookup_duration_us"),
            queue_wait_us: registry.histogram("scheduler_queue_wait_us"),
            jobs_panicked: registry.counter("jobs_panicked_total"),
            registry,
        };
        // The text exposition lists every resolution series from the start.
        for kind in StepperKind::ALL {
            metrics.auto_resolution_counter(kind);
        }
        metrics
    }

    /// The registry behind every handle (for the text exposition and for
    /// subsystems that register their own series — the fabric's per-worker
    /// round-trip histograms).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The per-endpoint handles for `endpoint`, registered on first use.
    pub fn endpoint(&self, endpoint: &str) -> EndpointMetrics {
        EndpointMetrics {
            requests: self
                .registry
                .counter(&format!("http_requests_total{{endpoint=\"{endpoint}\"}}")),
            responses_4xx: self.registry.counter(&format!(
                "http_responses_total{{endpoint=\"{endpoint}\",class=\"4xx\"}}"
            )),
            responses_5xx: self.registry.counter(&format!(
                "http_responses_total{{endpoint=\"{endpoint}\",class=\"5xx\"}}"
            )),
            latency_us: self.registry.histogram(&format!(
                "http_request_duration_us{{endpoint=\"{endpoint}\"}}"
            )),
        }
    }

    /// The per-kind resolution counter for an `auto` request that resolved
    /// to `kind` (`auto_resolutions_total{stepper="<name>"}`).
    pub fn auto_resolution_counter(&self, kind: StepperKind) -> Arc<Counter> {
        self.registry.counter(&format!(
            "auto_resolutions_total{{stepper=\"{}\"}}",
            kind.name()
        ))
    }

    /// Adds one chunk's engine work counters to the per-stepper sums
    /// (`sim_steps_total{stepper="direct"}`, …). Observational only — the
    /// profile is collected out-of-band and never alters result bytes.
    pub fn record_profile(&self, stepper: &str, profile: &SimProfile) {
        let add = |series: &str, value: u64| {
            if value > 0 {
                self.registry
                    .counter(&format!("{series}{{stepper=\"{stepper}\"}}"))
                    .add(value);
            }
        };
        add("sim_steps_total", profile.steps);
        add("sim_propensity_evals_total", profile.propensity_evals);
        add("sim_leaps_accepted_total", profile.leaps_accepted);
        add("sim_leaps_rejected_total", profile.leaps_rejected);
        add("sim_rk45_accepted_total", profile.rk45_accepted);
        add("sim_rk45_rejected_total", profile.rk45_rejected);
    }

    /// Milliseconds since the service started. Saturates instead of
    /// truncating: the old `as u64` cast would silently wrap a (very) long
    /// uptime's u128 millisecond count.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_through_shared_handles() {
        let metrics = Metrics::new();
        metrics.requests.inc();
        metrics.requests.inc();
        metrics.responses_4xx.inc();
        assert_eq!(metrics.requests.get(), 2);
        assert_eq!(metrics.responses_4xx.get(), 1);
        assert_eq!(metrics.responses_5xx.get(), 0);
        // The named field and the registry series are the same handle.
        assert_eq!(metrics.registry().counter("http_requests_total").get(), 2);
    }

    #[test]
    fn endpoint_observation_classifies_statuses() {
        let metrics = Metrics::new();
        let simulate = metrics.endpoint("simulate");
        simulate.observe(200, Duration::from_micros(150));
        simulate.observe(400, Duration::from_micros(50));
        simulate.observe(500, Duration::from_micros(50));
        assert_eq!(simulate.requests.get(), 3);
        assert_eq!(simulate.responses_4xx.get(), 1);
        assert_eq!(simulate.responses_5xx.get(), 1);
        assert_eq!(simulate.latency_us.snapshot().count, 3);
        // The registry series the JSON `http.simulate_requests` reads sees
        // the wrapper's counts: same series.
        assert_eq!(
            metrics
                .registry()
                .counter("http_requests_total{endpoint=\"simulate\"}")
                .get(),
            3
        );
    }

    #[test]
    fn profiles_sum_per_stepper() {
        let metrics = Metrics::new();
        let profile = SimProfile {
            steps: 10,
            propensity_evals: 25,
            ..SimProfile::default()
        };
        metrics.record_profile("direct", &profile);
        metrics.record_profile("direct", &profile);
        let text = metrics.registry().render_text(&[]);
        assert!(
            text.contains("sim_steps_total{stepper=\"direct\"} 20\n"),
            "{text}"
        );
        assert!(
            text.contains("sim_propensity_evals_total{stepper=\"direct\"} 50\n"),
            "{text}"
        );
        // Zero-valued series are not registered at all.
        assert!(!text.contains("sim_rk45_accepted_total"), "{text}");
    }
}
