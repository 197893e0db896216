//! Request parsing, canonical request documents and response rendering.
//!
//! Every endpoint's request is parsed into a typed struct up front
//! (validation errors become `400`s before any work is scheduled), rendered
//! back into one *canonical request document*, and executed against the
//! workspace crates. The document goes through the parsed form — the
//! comment-free network text of `crn::Crn::to_text`, nonzero initial counts
//! in species order, fields in a fixed order — so two requests that differ
//! only in whitespace, key order or comments share it. The endpoint tag
//! plus the document is the result-cache key, and the document plus
//! `wait: true` (and, for a simulate shard, the resolved method and a
//! `range`) is the body a fabric coordinator posts to a worker.

use cme::{Checker, FirstPassage, PopulationBounds, StateSpace};
use crn::{Crn, State};
use gillespie::{
    ClassifierReport, EnsembleOptions, EnsemblePartial, EnsemblePartialParts, EnsembleReport,
    SimulationOptions, SpeciesThresholdClassifier, StepperKind, StopCondition,
};
use numerics::LogLinearFit;
use synthesis::{LogLinearSynthesizer, SynthesizedResponse};

use crate::error::ServiceError;
use crate::json::Json;

/// Default hard event limit per trajectory; a safety net against networks
/// that never satisfy their stop condition.
pub const DEFAULT_MAX_EVENTS: u64 = 10_000_000;

/// Default priority of submitted jobs (mid-scale).
pub const DEFAULT_PRIORITY: u8 = 4;

fn bad(message: impl Into<String>) -> ServiceError {
    ServiceError::bad_request(message)
}

/// A parsed `POST /simulate` request.
#[derive(Debug, Clone)]
pub struct SimulateRequest {
    /// The parsed network.
    pub crn: Crn,
    /// The initial state.
    pub initial: State,
    /// Which stepper the request asked for (possibly [`StepperKind::Auto`]).
    pub method: StepperKind,
    /// The concrete stepper the trials actually run with. Equal to `method`
    /// unless `method` is `auto`, in which case the portfolio classifier
    /// resolved it at parse time — once per request, so every scheduled
    /// chunk runs the same kind and the cache key is stable.
    pub resolved: StepperKind,
    /// The classifier's feature report; present only for `auto` requests.
    pub classifier_report: Option<ClassifierReport>,
    /// Number of Monte-Carlo trials.
    pub trials: u64,
    /// Master seed (trial `i` uses `seed + i`). Defaults to 0 so every
    /// request is deterministic — and therefore cacheable.
    pub seed: u64,
    /// Per-trajectory stop condition.
    pub stop: StopCondition,
    /// Hard per-trajectory event limit.
    pub max_events: u64,
    /// Outcome classification rules `(species, threshold, outcome)`.
    pub rules: Vec<(String, u64, String)>,
    /// Scheduling priority (transport-level; not part of the cache key).
    pub priority: u8,
    /// Whether the response should block until the job finishes.
    pub wait: bool,
    /// When present, run only trials `range.0..range.1` and answer with an
    /// [`EnsemblePartial`](gillespie::EnsemblePartial) wire document instead
    /// of a full report. This is how a fabric coordinator shards an
    /// ensemble across workers.
    pub range: Option<(u64, u64)>,
}

impl SimulateRequest {
    /// Parses and validates the request body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] naming the offending field; network
    /// parse errors include the line *and column* from [`crn::parse_network`].
    pub fn parse(body: &Json) -> Result<SimulateRequest, ServiceError> {
        let crn = parse_network_field(body)?;
        let initial = parse_initial(body, &crn)?;
        let method = match body.get("method") {
            None => StepperKind::Direct,
            Some(value) => parse_method(value.as_str("method").map_err(bad)?)?,
        };
        let trials = body
            .get("trials")
            .ok_or_else(|| bad("missing `trials`"))?
            .as_u64("trials")
            .map_err(bad)?;
        if trials == 0 {
            return Err(bad("`trials` must be positive"));
        }
        let seed = opt_u64(body, "seed")?.unwrap_or(0);
        let max_events = opt_u64(body, "max_events")?.unwrap_or(DEFAULT_MAX_EVENTS);
        let stop = match body.get("stop") {
            None => StopCondition::Exhaustion,
            Some(value) => parse_stop(value, &crn)?,
        };
        let mut rules = Vec::new();
        if let Some(value) = body.get("classifier") {
            for (i, rule) in value
                .as_array("classifier")
                .map_err(bad)?
                .iter()
                .enumerate()
            {
                let what = format!("classifier[{i}]");
                let target = CheckTarget::parse(rule, &what, &crn)?;
                let outcome = text_field(rule, "outcome", &what)?;
                rules.push((target.species, target.at_least, outcome));
            }
        }
        let priority = parse_priority(body)?;
        let wait = opt_bool(body, "wait")?.unwrap_or(false);
        let range = match body.get("range") {
            None => None,
            Some(value) => {
                let (start, end) = parse_pair_u64(value, "range")?;
                if start >= end {
                    return Err(bad(format!("`range` [{start}, {end}) is empty")));
                }
                if end > trials {
                    return Err(bad(format!(
                        "`range` [{start}, {end}) exceeds trials={trials}"
                    )));
                }
                Some((start, end))
            }
        };
        let (resolved, classifier_report) = if method == StepperKind::Auto {
            let report = gillespie::classify(&crn, &initial);
            (report.resolved, Some(report))
        } else {
            (method, None)
        };
        Ok(SimulateRequest {
            crn,
            initial,
            method,
            resolved,
            classifier_report,
            trials,
            seed,
            stop,
            max_events,
            rules,
            priority,
            wait,
            range,
        })
    }

    /// The request's canonical document: every field that determines the
    /// result, in a fixed order, with the network as its label-free text and
    /// the initial state as its nonzero counts. It is itself a valid request
    /// body, and `method` and `range` are supplied by the caller: the cache
    /// key renders the requested method, the shard body the resolved one.
    fn document(&self, method: StepperKind, range: Option<(u64, u64)>) -> Json {
        let classifier = self
            .rules
            .iter()
            .map(|(species, threshold, outcome)| {
                Json::object([
                    ("species", Json::str(species.clone())),
                    ("at_least", Json::count(*threshold)),
                    ("outcome", Json::str(outcome.clone())),
                ])
            })
            .collect();
        let mut members = vec![
            ("network", Json::str(self.crn.to_text())),
            ("initial", render_state(&self.crn, &self.initial)),
            ("method", Json::str(method.name())),
            ("trials", Json::count(self.trials)),
            ("seed", Json::count(self.seed)),
            ("stop", render_stop(&self.crn, &self.stop)),
            ("max_events", Json::count(self.max_events)),
            ("classifier", Json::Array(classifier)),
        ];
        if let Some((start, end)) = range {
            members.push((
                "range",
                Json::Array(vec![Json::count(start), Json::count(end)]),
            ));
        }
        Json::object(members)
    }

    /// The cache key: the endpoint tag plus the canonical document.
    ///
    /// An `auto` request keys on `method: auto`. The resolved kind is a pure
    /// function of the network and initial state, which the key already
    /// holds, so replays are byte-identical. The key stays distinct from an
    /// explicit request for the same concrete kind, whose response body
    /// differs (no `classifier_report`). A shard request keys on its
    /// `range`, so workers cache shards at shard granularity.
    pub fn cache_key(&self) -> String {
        format!(
            "simulate{}",
            self.document(self.method, self.range).render()
        )
    }

    /// Builds the classifier from the parsed rules.
    ///
    /// # Errors
    ///
    /// Species were validated at parse time; this only fails if the network
    /// changed underneath, which cannot happen for an owned request.
    pub fn classifier(&self) -> Result<SpeciesThresholdClassifier, ServiceError> {
        let mut classifier = SpeciesThresholdClassifier::new();
        for (species, threshold, outcome) in &self.rules {
            classifier = classifier
                .rule_named(&self.crn, species, *threshold, outcome.as_str())
                .map_err(|e| bad(e.to_string()))?;
        }
        Ok(classifier)
    }

    /// The ensemble options equivalent to this request. Always carries the
    /// *resolved* concrete kind: resolution happened once at parse time, so
    /// chunked scheduling never re-runs the classifier.
    pub fn ensemble_options(&self) -> EnsembleOptions {
        EnsembleOptions::new()
            .trials(self.trials)
            .master_seed(self.seed)
            .method(self.resolved)
            .simulation(
                SimulationOptions::new()
                    .stop(self.stop.clone())
                    .max_events(self.max_events),
            )
    }

    /// Renders the result body for a finished ensemble. `method` echoes the
    /// request; `resolved_stepper` reports the concrete kind the trials ran
    /// with (they differ only for `auto` requests, which additionally get
    /// the classifier's feature report).
    pub fn render_report(&self, report: &EnsembleReport) -> String {
        let counts: Vec<(String, Json)> = report
            .counts
            .iter()
            .map(|c| (c.outcome.as_str().to_string(), Json::count(c.count)))
            .collect();
        let mut members = vec![
            ("kind", Json::str("simulate")),
            ("method", Json::str(self.method.name())),
            ("resolved_stepper", Json::str(report.method.name())),
        ];
        if let Some(classifier) = &self.classifier_report {
            members.push(("classifier_report", render_classifier(classifier)));
        }
        members.extend([
            ("trials", Json::count(report.trials)),
            ("seed", Json::count(report.master_seed)),
            (
                "report",
                Json::Object(vec![
                    ("counts".to_string(), Json::Object(counts)),
                    ("undecided".to_string(), Json::count(report.undecided)),
                    ("mean_events".to_string(), Json::num(report.mean_events)),
                    (
                        "events_variance".to_string(),
                        Json::num(report.events_variance),
                    ),
                    (
                        "mean_final_time".to_string(),
                        Json::num(report.mean_final_time),
                    ),
                    (
                        "final_time_variance".to_string(),
                        Json::num(report.final_time_variance),
                    ),
                ]),
            ),
        ]);
        Json::object(members).render()
    }

    /// The body a coordinator posts to a worker for one shard: the canonical
    /// document with the *resolved* method, `range` and `wait: true`.
    /// Classification happened once, on the coordinator, so every worker
    /// runs the same stepper without re-measuring the network, and the
    /// worker's parse of this body re-renders to the same bytes.
    pub fn to_wire(&self, range: (u64, u64)) -> String {
        with_wait(self.document(self.resolved, Some(range)))
    }

    /// Renders a shard's partial as its wire document. Exact accumulators
    /// travel as canonical hex integers and `u128` squares as decimal
    /// strings, so [`parse_partial`](Self::parse_partial) reconstructs the
    /// partial bit-for-bit and the merged report cannot depend on which
    /// worker ran which shard.
    pub fn render_partial(partial: &EnsemblePartial) -> String {
        let parts = partial.to_parts();
        let counts: Vec<(String, Json)> = parts
            .counts
            .iter()
            .map(|(outcome, count)| (outcome.clone(), Json::count(*count)))
            .collect();
        Json::object([
            ("kind", Json::str("partial")),
            ("start", Json::count(parts.start)),
            ("end", Json::count(parts.end)),
            ("done", Json::count(parts.done)),
            ("counts", Json::Object(counts)),
            ("undecided", Json::count(parts.undecided)),
            ("total_events", Json::count(parts.total_events)),
            ("events_squared", Json::str(parts.events_squared)),
            ("time_sum", Json::str(parts.time_sum)),
            ("time_squared_sum", Json::str(parts.time_squared_sum)),
            (
                "time_moments",
                Json::Array(vec![
                    Json::count(parts.time_moments.0),
                    Json::num(parts.time_moments.1),
                    Json::num(parts.time_moments.2),
                ]),
            ),
        ])
        .render()
    }

    /// Parses a worker's partial document back into an
    /// [`EnsemblePartial`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] naming the offending field; range and
    /// encoding validation happens in
    /// [`EnsemblePartial::from_parts`].
    pub fn parse_partial(body: &Json) -> Result<EnsemblePartial, ServiceError> {
        if body.get("kind").and_then(|k| k.as_str("kind").ok()) != Some("partial") {
            return Err(bad("not a partial document (missing `kind: partial`)"));
        }
        let field = |key: &'static str| -> Result<&Json, ServiceError> {
            body.get(key)
                .ok_or_else(|| bad(format!("partial missing `{key}`")))
        };
        let num = |key: &'static str| -> Result<u64, ServiceError> {
            field(key)?.as_u64(key).map_err(bad)
        };
        let text = |key: &'static str| -> Result<String, ServiceError> {
            Ok(field(key)?.as_str(key).map_err(bad)?.to_string())
        };
        let mut counts = Vec::new();
        for (outcome, count) in field("counts")?.as_object("counts").map_err(bad)? {
            counts.push((outcome.clone(), count.as_u64("counts").map_err(bad)?));
        }
        let moments = field("time_moments")?
            .as_array("time_moments")
            .map_err(bad)?;
        if moments.len() != 3 {
            return Err(bad("`time_moments` must be a [count, mean, m2] triple"));
        }
        let parts = EnsemblePartialParts {
            start: num("start")?,
            end: num("end")?,
            done: num("done")?,
            counts,
            undecided: num("undecided")?,
            total_events: num("total_events")?,
            events_squared: text("events_squared")?,
            time_sum: text("time_sum")?,
            time_squared_sum: text("time_squared_sum")?,
            time_moments: (
                moments[0].as_u64("time_moments[0]").map_err(bad)?,
                moments[1].as_f64("time_moments[1]").map_err(bad)?,
                moments[2].as_f64("time_moments[2]").map_err(bad)?,
            ),
        };
        EnsemblePartial::from_parts(parts).map_err(|e| bad(e.to_string()))
    }
}

/// The analysis a `POST /exact` request asks for.
#[derive(Debug, Clone)]
pub enum ExactAnalysis {
    /// Exact absorption probabilities into outcome classes.
    FirstPassage {
        /// `(outcome name, species, threshold)` triples.
        outcomes: Vec<(String, String, u64)>,
    },
    /// The transient distribution at time `t`.
    Transient {
        /// The solution time.
        t: f64,
        /// Poisson-tail tolerance of the uniformization series.
        tolerance: f64,
        /// Species whose marginals/expectations the response reports.
        species: Vec<String>,
    },
}

impl ExactAnalysis {
    /// The analysis as the request JSON [`ExactRequest::parse`] accepts.
    fn document(&self) -> Json {
        match self {
            ExactAnalysis::FirstPassage { outcomes } => Json::object([
                ("type", Json::str("first_passage")),
                (
                    "outcomes",
                    Json::Array(
                        outcomes
                            .iter()
                            .map(|(name, species, at_least)| {
                                Json::object([
                                    ("name", Json::str(name.clone())),
                                    ("species", Json::str(species.clone())),
                                    ("at_least", Json::count(*at_least)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            ExactAnalysis::Transient {
                t,
                tolerance,
                species,
            } => Json::object([
                ("type", Json::str("transient")),
                ("t", Json::num(*t)),
                ("tolerance", Json::num(*tolerance)),
                (
                    "species",
                    Json::Array(species.iter().map(|s| Json::str(s.clone())).collect()),
                ),
            ]),
        }
    }
}

/// A parsed `POST /exact` request.
#[derive(Debug, Clone)]
pub struct ExactRequest {
    /// The parsed network.
    pub crn: Crn,
    /// The initial state.
    pub initial: State,
    /// Population bounds for the state-space enumeration.
    pub bounds: PopulationBounds,
    /// The requested analysis.
    pub analysis: ExactAnalysis,
    /// Scheduling priority.
    pub priority: u8,
    /// Whether to block until done.
    pub wait: bool,
    /// The canonical request document, built at parse time: the only time
    /// the bounds' settings are visible ([`PopulationBounds`] is opaque).
    document: Json,
}

impl ExactRequest {
    /// Parses and validates the request body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] naming the offending field.
    pub fn parse(body: &Json) -> Result<ExactRequest, ServiceError> {
        let crn = parse_network_field(body)?;
        let initial = parse_initial(body, &crn)?;
        let (bounds, bounds_document) =
            parse_bounds(body.get("bounds").ok_or_else(|| bad("missing `bounds`"))?)?;
        let analysis_value = body
            .get("analysis")
            .ok_or_else(|| bad("missing `analysis`"))?;
        let kind = analysis_value
            .get("type")
            .ok_or_else(|| bad("`analysis` missing `type`"))?
            .as_str("analysis.type")
            .map_err(bad)?;
        let analysis = match kind {
            "first_passage" => {
                let mut outcomes = Vec::new();
                for (i, outcome) in analysis_value
                    .get("outcomes")
                    .ok_or_else(|| bad("first_passage analysis missing `outcomes`"))?
                    .as_array("analysis.outcomes")
                    .map_err(bad)?
                    .iter()
                    .enumerate()
                {
                    let what = format!("analysis.outcomes[{i}]");
                    let name = text_field(outcome, "name", &what)?;
                    let target = CheckTarget::parse(outcome, &what, &crn)?;
                    outcomes.push((name, target.species, target.at_least));
                }
                if outcomes.is_empty() {
                    return Err(bad("first_passage analysis needs at least one outcome"));
                }
                ExactAnalysis::FirstPassage { outcomes }
            }
            "transient" => {
                let t = finite(
                    analysis_value
                        .get("t")
                        .ok_or_else(|| bad("transient analysis missing `t`"))?,
                    "analysis.t",
                )?;
                let tolerance = match analysis_value.get("tolerance") {
                    None => 1e-12,
                    Some(value) => finite(value, "analysis.tolerance")?,
                };
                let mut species = Vec::new();
                if let Some(value) = analysis_value.get("species") {
                    for item in value.as_array("analysis.species").map_err(bad)? {
                        let name = item.as_str("analysis.species[]").map_err(bad)?;
                        if crn.species_id(name).is_none() {
                            return Err(bad(format!("analysis.species: unknown species `{name}`")));
                        }
                        species.push(name.to_string());
                    }
                }
                ExactAnalysis::Transient {
                    t,
                    tolerance,
                    species,
                }
            }
            other => {
                return Err(bad(format!(
                    "unknown analysis type `{other}` (expected `first_passage` or `transient`)"
                )))
            }
        };
        let document = model_document(
            &crn,
            &initial,
            bounds_document,
            ("analysis", analysis.document()),
        );
        Ok(ExactRequest {
            crn,
            initial,
            bounds,
            analysis,
            priority: parse_priority(body)?,
            wait: opt_bool(body, "wait")?.unwrap_or(false),
            document,
        })
    }

    /// The cache key: the endpoint tag plus the canonical document.
    pub fn cache_key(&self) -> String {
        format!("exact{}", self.document.render())
    }

    /// Runs the analysis and renders the result body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::JobFailed`] wrapping the CME error.
    pub fn execute(&self) -> Result<String, ServiceError> {
        let failed = |e: cme::CmeError| ServiceError::JobFailed {
            message: e.to_string(),
        };
        match &self.analysis {
            ExactAnalysis::FirstPassage { outcomes } => {
                let mut passage = FirstPassage::new(&self.crn);
                for (name, species, at_least) in outcomes {
                    passage = passage
                        .outcome_species_at_least(name.as_str(), species, *at_least)
                        .map_err(failed)?;
                }
                let distribution = passage.solve(&self.initial, &self.bounds).map_err(failed)?;
                let probabilities: Vec<(String, Json)> = distribution
                    .names()
                    .iter()
                    .zip(distribution.probabilities())
                    .map(|(name, &p)| (name.clone(), Json::num(p)))
                    .collect();
                Ok(Json::object([
                    ("kind", Json::str("exact")),
                    ("analysis", Json::str("first_passage")),
                    ("states", Json::count(distribution.states() as u64)),
                    ("probabilities", Json::Object(probabilities)),
                    ("undecided", Json::num(distribution.undecided())),
                    ("escaped", Json::num(distribution.escaped())),
                ])
                .render())
            }
            ExactAnalysis::Transient {
                t,
                tolerance,
                species,
            } => {
                let space = StateSpace::enumerate(&self.crn, &self.initial, &self.bounds)
                    .map_err(failed)?;
                let solution = space.transient(*t, *tolerance).map_err(failed)?;
                let mut expectations = Vec::new();
                let mut marginals = Vec::new();
                for name in species {
                    let id = self
                        .crn
                        .species_id(name)
                        .expect("species validated at parse time");
                    expectations.push((
                        name.clone(),
                        Json::num(space.expectation(&solution.probabilities, id)),
                    ));
                    marginals.push((
                        name.clone(),
                        Json::Array(
                            space
                                .marginal(&solution.probabilities, id)
                                .into_iter()
                                .map(Json::num)
                                .collect(),
                        ),
                    ));
                }
                Ok(Json::object([
                    ("kind", Json::str("exact")),
                    ("analysis", Json::str("transient")),
                    ("t", Json::num(*t)),
                    ("states", Json::count(space.len() as u64)),
                    ("truncation_error", Json::num(solution.truncation_error)),
                    ("leaked", Json::num(solution.leaked)),
                    ("expectations", Json::Object(expectations)),
                    ("marginals", Json::Object(marginals)),
                ])
                .render())
            }
        }
    }
}

/// A threshold predicate — `species` holding at least `at_least` copies —
/// the uniform target language of every `/check` property kind, of
/// `/simulate` classifier rules and of `/exact` first-passage outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckTarget {
    /// The species the predicate counts.
    pub species: String,
    /// The threshold count.
    pub at_least: u64,
}

impl CheckTarget {
    fn parse(value: &Json, what: &str, crn: &Crn) -> Result<CheckTarget, ServiceError> {
        let species = text_field(value, "species", what)?;
        if crn.species_id(&species).is_none() {
            return Err(bad(format!("{what}: unknown species `{species}`")));
        }
        let at_least = value
            .get("at_least")
            .ok_or_else(|| bad(format!("{what} missing `at_least`")))?
            .as_u64(what)
            .map_err(bad)?;
        Ok(CheckTarget { species, at_least })
    }

    fn document(&self) -> Json {
        Json::object([
            ("species", Json::str(self.species.clone())),
            ("at_least", Json::count(self.at_least)),
        ])
    }
}

/// The property of a `POST /check` request, mapped one-to-one onto the
/// [`Checker`] query family.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckProperty {
    /// `P(reach target before competitor)`.
    ReachBefore {
        /// The set the probability is for.
        target: CheckTarget,
        /// The competing absorbing set.
        competitor: CheckTarget,
    },
    /// `P(target within [t₁, t₂])`.
    ReachWithin {
        /// The set to visit.
        target: CheckTarget,
        /// The time window.
        window: (f64, f64),
    },
    /// Expected first-passage time into the target set.
    HittingTime {
        /// The set to hit.
        target: CheckTarget,
    },
    /// Stationary mass of the target set (and the target species' mean).
    Stationary {
        /// The set to weigh.
        target: CheckTarget,
    },
}

impl CheckProperty {
    fn parse(value: &Json, crn: &Crn) -> Result<CheckProperty, ServiceError> {
        let kind = value
            .get("type")
            .ok_or_else(|| bad("`property` missing `type`"))?
            .as_str("property.type")
            .map_err(bad)?;
        let target = CheckTarget::parse(
            value
                .get("target")
                .ok_or_else(|| bad("`property` missing `target`"))?,
            "property.target",
            crn,
        )?;
        match kind {
            "reach_before" => {
                let competitor = CheckTarget::parse(
                    value
                        .get("competitor")
                        .ok_or_else(|| bad("reach_before property missing `competitor`"))?,
                    "property.competitor",
                    crn,
                )?;
                Ok(CheckProperty::ReachBefore { target, competitor })
            }
            "reach_within" => {
                let items = value
                    .get("window")
                    .ok_or_else(|| bad("reach_within property missing `window`"))?
                    .as_array("property.window")
                    .map_err(bad)?;
                if items.len() != 2 {
                    return Err(bad("`property.window` must be a two-element array"));
                }
                let window = (
                    finite(&items[0], "property.window[0]")?,
                    finite(&items[1], "property.window[1]")?,
                );
                Ok(CheckProperty::ReachWithin { target, window })
            }
            "hitting_time" => Ok(CheckProperty::HittingTime { target }),
            "stationary" => Ok(CheckProperty::Stationary { target }),
            other => Err(bad(format!(
                "unknown property type `{other}` (expected `reach_before`, `reach_within`, \
                 `hitting_time` or `stationary`)"
            ))),
        }
    }

    /// The wire name of the property kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            CheckProperty::ReachBefore { .. } => "reach_before",
            CheckProperty::ReachWithin { .. } => "reach_within",
            CheckProperty::HittingTime { .. } => "hitting_time",
            CheckProperty::Stationary { .. } => "stationary",
        }
    }

    /// The property as the request JSON [`Self::parse`] accepts.
    fn document(&self) -> Json {
        let mut members = vec![("type", Json::str(self.kind_name()))];
        match self {
            CheckProperty::ReachBefore { target, competitor } => {
                members.push(("target", target.document()));
                members.push(("competitor", competitor.document()));
            }
            CheckProperty::ReachWithin { target, window } => {
                members.push(("target", target.document()));
                members.push((
                    "window",
                    Json::Array(vec![Json::num(window.0), Json::num(window.1)]),
                ));
            }
            CheckProperty::HittingTime { target } | CheckProperty::Stationary { target } => {
                members.push(("target", target.document()));
            }
        }
        Json::object(members)
    }
}

/// One fully-resolved `/check` solve: a concrete network (sweep
/// placeholder substituted), initial state, bounds and property. Grid
/// points are independent — each carries everything a worker needs.
#[derive(Debug, Clone)]
pub struct CheckPoint {
    /// The parsed network.
    pub crn: Crn,
    /// The initial state.
    pub initial: State,
    /// Population bounds for the state-space enumeration.
    pub bounds: PopulationBounds,
    /// The property to check.
    pub property: CheckProperty,
    /// The point's canonical document (a sweepless `/check` body), built at
    /// parse time like [`ExactRequest`]'s.
    document: Json,
}

impl CheckPoint {
    fn parse(network_text: &str, body: &Json) -> Result<CheckPoint, ServiceError> {
        let crn = parse_network(network_text)?;
        let initial = parse_initial(body, &crn)?;
        let (bounds, bounds_document) =
            parse_bounds(body.get("bounds").ok_or_else(|| bad("missing `bounds`"))?)?;
        let property = CheckProperty::parse(
            body.get("property")
                .ok_or_else(|| bad("missing `property`"))?,
            &crn,
        )?;
        let document = model_document(
            &crn,
            &initial,
            bounds_document,
            ("property", property.document()),
        );
        Ok(CheckPoint {
            crn,
            initial,
            bounds,
            property,
            document,
        })
    }

    /// The cache key: the endpoint tag plus the canonical document. A
    /// worker parsing [`to_wire`](Self::to_wire) derives the identical key,
    /// which is what makes the per-point cache federate across the fabric.
    pub fn cache_key(&self) -> String {
        format!("check{}", self.document.render())
    }

    /// The body a coordinator posts to a worker: the canonical document
    /// plus `wait: true`.
    pub fn to_wire(&self) -> String {
        with_wait(self.document.clone())
    }

    /// Evaluates the property and renders the verdict document. Every kind
    /// carries a headline `value` field (the number a sweep plots) plus its
    /// full verdict breakdown.
    ///
    /// # Errors
    ///
    /// [`ServiceError::JobFailed`] wrapping the CME error.
    pub fn execute(&self) -> Result<String, ServiceError> {
        let failed = |e: cme::CmeError| ServiceError::JobFailed {
            message: e.to_string(),
        };
        let checker = Checker::new(&self.crn, self.initial.clone(), self.bounds.clone());
        let mut members = vec![
            ("kind", Json::str("check")),
            ("property", Json::str(self.property.kind_name())),
        ];
        match &self.property {
            CheckProperty::ReachBefore { target, competitor } => {
                let verdict = checker
                    .reach_before_species(
                        (&target.species, target.at_least),
                        (&competitor.species, competitor.at_least),
                    )
                    .map_err(failed)?;
                members.extend([
                    ("states", Json::count(verdict.states as u64)),
                    ("value", Json::num(verdict.target)),
                    ("target", Json::num(verdict.target)),
                    ("competitor", Json::num(verdict.competitor)),
                    ("never", Json::num(verdict.never)),
                    ("escaped", Json::num(verdict.escaped)),
                ]);
            }
            CheckProperty::ReachWithin { target, window } => {
                let verdict = checker
                    .species_within(&target.species, target.at_least, *window)
                    .map_err(failed)?;
                members.extend([
                    ("states", Json::count(verdict.states as u64)),
                    ("value", Json::num(verdict.probability)),
                    ("probability", Json::num(verdict.probability)),
                    ("error_bound", Json::num(verdict.error_bound)),
                    ("terms", Json::count(verdict.terms as u64)),
                ]);
            }
            CheckProperty::HittingTime { target } => {
                let verdict = checker
                    .hitting_time_species(&target.species, target.at_least)
                    .map_err(failed)?;
                let mean = verdict.conditional_mean.map_or(Json::Null, Json::num);
                members.extend([
                    ("states", Json::count(verdict.states as u64)),
                    ("value", mean.clone()),
                    ("probability", Json::num(verdict.probability)),
                    ("conditional_mean", mean),
                ]);
            }
            CheckProperty::Stationary { target } => {
                let stationary = checker.stationary().map_err(failed)?;
                let id = self
                    .crn
                    .species_id(&target.species)
                    .expect("species validated at parse time");
                let mass = stationary.mass(|s| s.count(id) >= target.at_least);
                members.extend([
                    ("states", Json::count(stationary.space().len() as u64)),
                    ("value", Json::num(mass)),
                    ("mass", Json::num(mass)),
                    ("expectation", Json::num(stationary.expectation(id))),
                    (
                        "recurrent_states",
                        Json::count(stationary.recurrent_states() as u64),
                    ),
                    ("boundary_mass", Json::num(stationary.boundary_mass())),
                ]);
            }
        }
        Ok(Json::object(members).render())
    }
}

/// A parsed `POST /check` request: one property check, or a parameter
/// sweep of the same check — `sweep.parameter` names a `{placeholder}` in
/// the network text that each grid value substitutes, and every resulting
/// point is validated up front and solved independently.
#[derive(Debug, Clone)]
pub struct CheckRequest {
    /// The fully-resolved grid points (exactly one when there is no sweep).
    pub points: Vec<CheckPoint>,
    /// The sweep parameter name and grid, in request order.
    pub sweep: Option<(String, Vec<f64>)>,
    /// Scheduling priority.
    pub priority: u8,
    /// Whether to block until done.
    pub wait: bool,
}

impl CheckRequest {
    /// Parses and validates the request body, substituting the sweep
    /// placeholder and fully validating every grid point.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] naming the offending field (or grid
    /// point, when one substitution fails to parse).
    pub fn parse(body: &Json) -> Result<CheckRequest, ServiceError> {
        let text = body
            .get("network")
            .ok_or_else(|| bad("missing `network`"))?
            .as_str("network")
            .map_err(bad)?;
        let sweep = match body.get("sweep") {
            None => None,
            Some(value) => {
                let parameter = value
                    .get("parameter")
                    .ok_or_else(|| bad("`sweep` missing `parameter`"))?
                    .as_str("sweep.parameter")
                    .map_err(bad)?
                    .to_string();
                let mut values = Vec::new();
                for (i, item) in value
                    .get("values")
                    .ok_or_else(|| bad("`sweep` missing `values`"))?
                    .as_array("sweep.values")
                    .map_err(bad)?
                    .iter()
                    .enumerate()
                {
                    values.push(finite(item, &format!("sweep.values[{i}]"))?);
                }
                if values.is_empty() {
                    return Err(bad("`sweep.values` must not be empty"));
                }
                Some((parameter, values))
            }
        };
        let points = match &sweep {
            None => {
                if text.contains('{') {
                    return Err(bad(
                        "network contains a `{placeholder}` but no `sweep` was given",
                    ));
                }
                vec![CheckPoint::parse(text, body)?]
            }
            Some((parameter, values)) => {
                let placeholder = format!("{{{parameter}}}");
                if !text.contains(&placeholder) {
                    return Err(bad(format!(
                        "network does not contain the sweep placeholder `{placeholder}`"
                    )));
                }
                values
                    .iter()
                    .map(|v| CheckPoint::parse(&text.replace(&placeholder, &v.to_string()), body))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        Ok(CheckRequest {
            points,
            sweep,
            priority: parse_priority(body)?,
            wait: opt_bool(body, "wait")?.unwrap_or(false),
        })
    }

    /// The cache key of the whole request. A sweep keys on the parameter,
    /// the grid and every point's document, so any change to the grid, the
    /// template or the property re-keys the sweep document.
    pub fn cache_key(&self) -> String {
        let Some((parameter, values)) = &self.sweep else {
            return self.points[0].cache_key();
        };
        let document = Json::object([
            ("parameter", Json::str(parameter.clone())),
            ("values", grid(values)),
            (
                "points",
                Json::Array(self.points.iter().map(|p| p.document.clone()).collect()),
            ),
        ]);
        format!("check_sweep{}", document.render())
    }

    /// Assembles the sweep document from the rendered per-point bodies, in
    /// grid order. Bodies are parsed and re-embedded (never string-spliced);
    /// `Json` rendering is canonical and float formatting round-trips, so
    /// the document is byte-identical however the points were computed.
    ///
    /// # Errors
    ///
    /// [`ServiceError::JobFailed`] when a point body is not valid JSON.
    pub fn render_sweep(&self, bodies: &[String]) -> Result<String, ServiceError> {
        let (parameter, values) = self.sweep.as_ref().expect("render_sweep needs a sweep");
        let mut points = Vec::with_capacity(bodies.len());
        for (v, body) in values.iter().zip(bodies) {
            let result = crate::json::parse(body).map_err(|e| ServiceError::JobFailed {
                message: format!("check point returned invalid JSON: {e}"),
            })?;
            points.push(Json::object([
                ("parameter", Json::num(*v)),
                ("result", result),
            ]));
        }
        Ok(Json::object([
            ("kind", Json::str("check_sweep")),
            ("parameter", Json::str(parameter.clone())),
            ("values", grid(values)),
            ("points", Json::Array(points)),
        ])
        .render())
    }
}

/// A sweep grid as its JSON array, in request order.
fn grid(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::num(v)).collect())
}

/// A parsed `POST /synthesize` request.
#[derive(Debug, Clone)]
pub struct SynthesizeRequest {
    /// The input species name.
    pub input: String,
    /// Response coefficients `(constant, log2, linear)`, in percent of the
    /// probability pool.
    pub coefficients: (f64, f64, f64),
    /// Outcome names `(tracked, complement)`.
    pub outcomes: (String, String),
    /// Output species names `(tracked, complement)`.
    pub outputs: (String, String),
    /// Output thresholds declaring each outcome.
    pub thresholds: (u64, u64),
    /// Food quantities feeding the working reactions.
    pub food: (u64, u64),
    /// Size of the probability-carrying pool.
    pub input_total: u64,
    /// Expected input range, guiding stoichiometry selection.
    pub input_range: (u64, u64),
    /// Optional γ override of the embedded stochastic module.
    pub gamma: Option<f64>,
    /// Input quantities to analyse exactly through the CME.
    pub evaluate: Vec<u64>,
    /// Scheduling priority.
    pub priority: u8,
    /// Whether to block until done.
    pub wait: bool,
}

impl SynthesizeRequest {
    /// Parses and validates the request body.
    ///
    /// The paper's lambda-phage response is available as
    /// `{"preset": "lambda"}` (Equation 14 with the `lambda` crate's
    /// thresholds); explicit fields override preset values.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] naming the offending field.
    pub fn parse(body: &Json) -> Result<SynthesizeRequest, ServiceError> {
        let preset = match body.get("preset") {
            None => None,
            Some(value) => Some(value.as_str("preset").map_err(bad)?),
        };
        let mut request = match preset {
            None => SynthesizeRequest {
                input: String::new(),
                coefficients: (0.0, 0.0, 0.0),
                outcomes: ("T1".to_string(), "T2".to_string()),
                outputs: ("out1".to_string(), "out2".to_string()),
                thresholds: (10, 10),
                food: (100, 100),
                input_total: 100,
                input_range: (1, 10),
                gamma: None,
                evaluate: Vec::new(),
                priority: DEFAULT_PRIORITY,
                wait: false,
            },
            Some("lambda") => {
                let eq14 = lambda::equation_14();
                SynthesizeRequest {
                    input: "moi".to_string(),
                    coefficients: (
                        eq14.constant(),
                        eq14.log_coefficient(),
                        eq14.linear_coefficient(),
                    ),
                    outcomes: (lambda::LYSIS.to_string(), lambda::LYSOGENY.to_string()),
                    outputs: ("cro2".to_string(), "ci2".to_string()),
                    thresholds: (lambda::CRO2_THRESHOLD, lambda::CI2_THRESHOLD),
                    food: (200, 300),
                    input_total: 100,
                    input_range: (1, 10),
                    gamma: None,
                    evaluate: Vec::new(),
                    priority: DEFAULT_PRIORITY,
                    wait: false,
                }
            }
            Some(other) => {
                return Err(bad(format!("unknown preset `{other}` (expected `lambda`)")))
            }
        };

        if let Some(value) = body.get("input") {
            request.input = value.as_str("input").map_err(bad)?.to_string();
        }
        if let Some(value) = body.get("response") {
            let field = |key: &str| -> Result<f64, ServiceError> {
                let member = value
                    .get(key)
                    .ok_or_else(|| bad(format!("`response` missing `{key}`")))?;
                finite(member, &format!("response.{key}"))
            };
            request.coefficients = (field("constant")?, field("log2")?, field("linear")?);
        } else if preset.is_none() {
            return Err(bad("missing `response` (or a `preset`)"));
        }
        if request.input.is_empty() {
            return Err(bad("missing `input`"));
        }
        if let Some(value) = body.get("outcomes") {
            request.outcomes = parse_pair_str(value, "outcomes")?;
        }
        if let Some(value) = body.get("outputs") {
            request.outputs = parse_pair_str(value, "outputs")?;
        }
        if let Some(value) = body.get("thresholds") {
            request.thresholds = parse_pair_u64(value, "thresholds")?;
        }
        if let Some(value) = body.get("food") {
            request.food = parse_pair_u64(value, "food")?;
        }
        if let Some(value) = body.get("input_total") {
            request.input_total = value.as_u64("input_total").map_err(bad)?;
        }
        if let Some(value) = body.get("input_range") {
            request.input_range = parse_pair_u64(value, "input_range")?;
        }
        if let Some(value) = body.get("gamma") {
            request.gamma = Some(finite(value, "gamma")?);
        }
        if let Some(value) = body.get("evaluate") {
            for item in value.as_array("evaluate").map_err(bad)? {
                request
                    .evaluate
                    .push(item.as_u64("evaluate[]").map_err(bad)?);
            }
        }
        request.priority = parse_priority(body)?;
        request.wait = opt_bool(body, "wait")?.unwrap_or(false);
        Ok(request)
    }

    /// The cache key: the endpoint tag plus the canonical document, which
    /// holds every field with the preset applied.
    pub fn cache_key(&self) -> String {
        let pair = |(a, b): (u64, u64)| Json::Array(vec![Json::count(a), Json::count(b)]);
        let names = |(a, b): &(String, String)| {
            Json::Array(vec![Json::str(a.clone()), Json::str(b.clone())])
        };
        let (constant, log2, linear) = self.coefficients;
        let document = Json::object([
            ("input", Json::str(self.input.clone())),
            (
                "response",
                Json::object([
                    ("constant", Json::num(constant)),
                    ("log2", Json::num(log2)),
                    ("linear", Json::num(linear)),
                ]),
            ),
            ("outcomes", names(&self.outcomes)),
            ("outputs", names(&self.outputs)),
            ("thresholds", pair(self.thresholds)),
            ("food", pair(self.food)),
            ("input_total", Json::count(self.input_total)),
            ("input_range", pair(self.input_range)),
            ("gamma", self.gamma.map_or(Json::Null, Json::num)),
            (
                "evaluate",
                Json::Array(self.evaluate.iter().map(|&x| Json::count(x)).collect()),
            ),
        ]);
        format!("synthesize{}", document.render())
    }

    /// Runs the synthesis pipeline (and the exact evaluations) and renders
    /// the result body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::JobFailed`] wrapping the synthesis/CME error.
    pub fn execute(&self) -> Result<String, ServiceError> {
        let failed = |e: synthesis::SynthesisError| ServiceError::JobFailed {
            message: e.to_string(),
        };
        let fit = LogLinearFit::from_coefficients(
            self.coefficients.0,
            self.coefficients.1,
            self.coefficients.2,
        );
        let mut synthesizer = LogLinearSynthesizer::new(self.input.clone(), fit)
            .outcomes(self.outcomes.0.clone(), self.outcomes.1.clone())
            .outputs(self.outputs.0.clone(), self.outputs.1.clone())
            .thresholds(self.thresholds.0, self.thresholds.1)
            .food(self.food.0, self.food.1)
            .input_total(self.input_total)
            .input_range(self.input_range.0, self.input_range.1);
        if let Some(gamma) = self.gamma {
            synthesizer = synthesizer.stochastic_gamma(gamma);
        }
        let synthesized: SynthesizedResponse = synthesizer.synthesize().map_err(failed)?;

        let mut evaluations = Vec::new();
        for &x in &self.evaluate {
            let analysis = synthesized
                .exact_outcome_analysis(x, &synthesized.exact_bounds(x))
                .map_err(failed)?;
            let probabilities: Vec<(String, Json)> = analysis
                .names()
                .iter()
                .zip(analysis.probabilities())
                .map(|(name, &p)| (name.clone(), Json::num(p)))
                .collect();
            evaluations.push(Json::object([
                ("x", Json::count(x)),
                ("predicted", Json::num(synthesized.predicted_probability(x))),
                ("exact", Json::Object(probabilities)),
                ("undecided", Json::num(analysis.undecided())),
                ("escaped", Json::num(analysis.escaped())),
            ]));
        }

        let crn = synthesized.crn();
        Ok(Json::object([
            ("kind", Json::str("synthesize")),
            ("network", Json::str(crn.to_text())),
            ("species", Json::count(crn.species_len() as u64)),
            ("reactions", Json::count(crn.reactions().len() as u64)),
            ("tracked_outcome", Json::str(self.outcomes.0.clone())),
            ("evaluations", Json::Array(evaluations)),
        ])
        .render())
    }
}

// ---------------------------------------------------------------------------
// Shared field parsers and canonical renderers.
// ---------------------------------------------------------------------------

fn parse_network_field(body: &Json) -> Result<Crn, ServiceError> {
    parse_network(
        body.get("network")
            .ok_or_else(|| bad("missing `network`"))?
            .as_str("network")
            .map_err(bad)?,
    )
}

/// Parses network text with its `#` comments cut off first. Comments would
/// become reaction labels, which are documentation, not dynamics: without
/// them `Crn::to_text` is the canonical network text, and requests that
/// differ only in comments share one document. Lines and columns of parse
/// errors are unchanged.
fn parse_network(text: &str) -> Result<Crn, ServiceError> {
    let dynamics: Vec<&str> = text
        .lines()
        .map(|line| line.split('#').next().unwrap_or(line))
        .collect();
    crn::parse_network(&dynamics.join("\n")).map_err(|e| bad(e.to_string()))
}

/// A finite number; anything else is a 400 naming `what`. A number that
/// overflowed `f64` while parsing renders as `null` in a request document,
/// so letting it through would give `1e999` and `-1e999` one cache key.
fn finite(value: &Json, what: &str) -> Result<f64, ServiceError> {
    let number = value.as_f64(what).map_err(bad)?;
    if !number.is_finite() {
        return Err(bad(format!("{what}: {number} is not finite")));
    }
    Ok(number)
}

/// The string member `key` of `value`; a missing or mistyped member is a
/// 400 naming `what`.
fn text_field(value: &Json, key: &str, what: &str) -> Result<String, ServiceError> {
    let member = value
        .get(key)
        .ok_or_else(|| bad(format!("{what} missing `{key}`")))?;
    Ok(member.as_str(what).map_err(bad)?.to_string())
}

fn parse_initial(body: &Json, crn: &Crn) -> Result<State, ServiceError> {
    let mut state = crn.zero_state();
    if let Some(value) = body.get("initial") {
        for (name, count) in value.as_object("initial").map_err(bad)? {
            let id = crn
                .species_id(name)
                .ok_or_else(|| bad(format!("initial: unknown species `{name}`")))?;
            state.set(id, count.as_u64(&format!("initial.{name}")).map_err(bad)?);
        }
    }
    Ok(state)
}

fn parse_method(name: &str) -> Result<StepperKind, ServiceError> {
    if name == StepperKind::Auto.name() {
        return Ok(StepperKind::Auto);
    }
    StepperKind::ALL
        .into_iter()
        .find(|kind| kind.name() == name)
        .ok_or_else(|| {
            bad(format!(
                "unknown method `{name}` (expected one of {}, auto)",
                StepperKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

/// Renders the portfolio classifier's feature report for `auto` responses
/// (and the debug surface of `/metrics` consumers).
fn render_classifier(report: &ClassifierReport) -> Json {
    Json::object([
        ("reactions", Json::count(report.reactions as u64)),
        ("species", Json::count(report.species as u64)),
        (
            "active_channels",
            Json::count(report.active_channels as u64),
        ),
        ("binade_spread", Json::num(report.binade_spread)),
        (
            "leap_occupancy",
            report.leap_occupancy.map_or(Json::Null, Json::num),
        ),
        (
            "pilot_active_channels",
            report
                .pilot_active_channels
                .map_or(Json::Null, |n| Json::count(n as u64)),
        ),
        (
            "timescale_separation",
            report.timescale_separation.map_or(Json::Null, Json::num),
        ),
        ("resolved", Json::str(report.resolved.name())),
        ("reason", Json::str(report.reason)),
    ])
}

fn parse_stop(value: &Json, crn: &Crn) -> Result<StopCondition, ServiceError> {
    let kind = value
        .get("type")
        .ok_or_else(|| bad("`stop` missing `type`"))?
        .as_str("stop.type")
        .map_err(bad)?;
    match kind {
        "exhaustion" => Ok(StopCondition::Exhaustion),
        "time" => Ok(StopCondition::Time(finite(
            value.get("t").ok_or_else(|| bad("time stop missing `t`"))?,
            "stop.t",
        )?)),
        "events" => Ok(StopCondition::Events(
            value
                .get("n")
                .ok_or_else(|| bad("events stop missing `n`"))?
                .as_u64("stop.n")
                .map_err(bad)?,
        )),
        "species_at_least" | "species_at_most" => {
            let species = value
                .get("species")
                .ok_or_else(|| bad(format!("{kind} stop missing `species`")))?
                .as_str("stop.species")
                .map_err(bad)?;
            let id = crn
                .species_id(species)
                .ok_or_else(|| bad(format!("stop: unknown species `{species}`")))?;
            let count = value
                .get("count")
                .ok_or_else(|| bad(format!("{kind} stop missing `count`")))?
                .as_u64("stop.count")
                .map_err(bad)?;
            Ok(if kind == "species_at_least" {
                StopCondition::species_at_least(id, count)
            } else {
                StopCondition::species_at_most(id, count)
            })
        }
        "any_of" | "all_of" => {
            let nested = value
                .get("conditions")
                .ok_or_else(|| bad(format!("{kind} stop missing `conditions`")))?
                .as_array("stop.conditions")
                .map_err(bad)?
                .iter()
                .map(|v| parse_stop(v, crn))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(if kind == "any_of" {
                StopCondition::any_of(nested)
            } else {
                StopCondition::all_of(nested)
            })
        }
        other => Err(bad(format!("unknown stop type `{other}`"))),
    }
}

fn parse_priority(body: &Json) -> Result<u8, ServiceError> {
    match opt_u64(body, "priority")? {
        None => Ok(DEFAULT_PRIORITY),
        Some(p) if p <= 9 => Ok(p as u8),
        Some(p) => Err(bad(format!("priority {p} out of range 0..=9"))),
    }
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, ServiceError> {
    match body.get(key) {
        None => Ok(None),
        Some(value) => value.as_u64(key).map(Some).map_err(bad),
    }
}

fn opt_bool(body: &Json, key: &str) -> Result<Option<bool>, ServiceError> {
    match body.get(key) {
        None => Ok(None),
        Some(value) => value.as_bool(key).map(Some).map_err(bad),
    }
}

fn parse_pair_str(value: &Json, what: &str) -> Result<(String, String), ServiceError> {
    let items = value.as_array(what).map_err(bad)?;
    if items.len() != 2 {
        return Err(bad(format!("`{what}` must be a two-element array")));
    }
    Ok((
        items[0].as_str(what).map_err(bad)?.to_string(),
        items[1].as_str(what).map_err(bad)?.to_string(),
    ))
}

fn parse_pair_u64(value: &Json, what: &str) -> Result<(u64, u64), ServiceError> {
    let items = value.as_array(what).map_err(bad)?;
    if items.len() != 2 {
        return Err(bad(format!("`{what}` must be a two-element array")));
    }
    Ok((
        items[0].as_u64(what).map_err(bad)?,
        items[1].as_u64(what).map_err(bad)?,
    ))
}

/// Parses the `bounds` field into the bounds and their canonical document
/// (caps sorted by species).
fn parse_bounds(value: &Json) -> Result<(PopulationBounds, Json), ServiceError> {
    let policy = match value.get("policy") {
        None => "strict",
        Some(v) => v.as_str("bounds.policy").map_err(bad)?,
    };
    let default_cap = value
        .get("default_cap")
        .ok_or_else(|| bad("`bounds` missing `default_cap`"))?
        .as_u64("bounds.default_cap")
        .map_err(bad)?;
    let mut bounds = match policy {
        "strict" => PopulationBounds::strict(default_cap),
        "truncating" => PopulationBounds::truncating(default_cap),
        other => {
            return Err(bad(format!(
                "unknown bounds policy `{other}` (expected `strict` or `truncating`)"
            )))
        }
    };
    let mut caps: Vec<(String, u64)> = Vec::new();
    if let Some(value) = value.get("caps") {
        for (name, cap) in value.as_object("bounds.caps").map_err(bad)? {
            caps.push((
                name.clone(),
                cap.as_u64(&format!("bounds.caps.{name}")).map_err(bad)?,
            ));
        }
    }
    caps.sort();
    for (name, cap) in &caps {
        bounds = bounds.cap(name.clone(), *cap);
    }
    let mut document = vec![
        ("policy", Json::str(policy)),
        ("default_cap", Json::count(default_cap)),
        (
            "caps",
            Json::Object(caps.into_iter().map(|(n, c)| (n, Json::count(c))).collect()),
        ),
    ];
    if let Some(max_states) = opt_u64(value, "max_states")? {
        bounds = bounds.max_states(max_states as usize);
        document.push(("max_states", Json::count(max_states)));
    }
    Ok((bounds, Json::object(document)))
}

/// The canonical document of an exact model (`/exact`, `/check`): network,
/// initial state and bounds, plus the request's `query` member.
fn model_document(crn: &Crn, initial: &State, bounds: Json, query: (&'static str, Json)) -> Json {
    Json::object([
        ("network", Json::str(crn.to_text())),
        ("initial", render_state(crn, initial)),
        ("bounds", bounds),
        query,
    ])
}

/// Renders a state as its nonzero `name: count` members in species order.
fn render_state(crn: &Crn, state: &State) -> Json {
    Json::Object(
        crn.species()
            .iter()
            .filter_map(|species| {
                let count = state.count(species.id());
                (count > 0).then(|| (species.name().to_string(), Json::count(count)))
            })
            .collect(),
    )
}

/// Renders a wire body: `document` plus `wait: true`, so the worker answers
/// in-band.
fn with_wait(mut document: Json) -> String {
    if let Json::Object(members) = &mut document {
        members.push(("wait".to_string(), Json::Bool(true)));
    }
    document.render()
}

/// Renders a stop condition as the request JSON [`parse_stop`] accepts.
fn render_stop(crn: &Crn, stop: &StopCondition) -> Json {
    let species_name = |id: &crn::SpeciesId| crn.species()[id.index()].name().to_string();
    match stop {
        StopCondition::Exhaustion => Json::object([("type", Json::str("exhaustion"))]),
        StopCondition::Time(t) => Json::object([("type", Json::str("time")), ("t", Json::num(*t))]),
        StopCondition::Events(n) => {
            Json::object([("type", Json::str("events")), ("n", Json::count(*n))])
        }
        StopCondition::SpeciesAtLeast { species, count } => Json::object([
            ("type", Json::str("species_at_least")),
            ("species", Json::str(species_name(species))),
            ("count", Json::count(*count)),
        ]),
        StopCondition::SpeciesAtMost { species, count } => Json::object([
            ("type", Json::str("species_at_most")),
            ("species", Json::str(species_name(species))),
            ("count", Json::count(*count)),
        ]),
        StopCondition::AnyOf(conditions) => Json::object([
            ("type", Json::str("any_of")),
            (
                "conditions",
                Json::Array(conditions.iter().map(|c| render_stop(crn, c)).collect()),
            ),
        ]),
        StopCondition::AllOf(conditions) => Json::object([
            ("type", Json::str("all_of")),
            (
                "conditions",
                Json::Array(conditions.iter().map(|c| render_stop(crn, c)).collect()),
            ),
        ]),
        // `StopCondition` is non-exhaustive, but a `SimulateRequest` only
        // ever holds conditions `parse_stop` produced, all covered above.
        other => unreachable!("stop condition {other:?} cannot come from a parsed request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn simulate_body(network: &str, extra: &str) -> Json {
        parse(&format!(
            "{{\"network\":\"{}\",\"trials\":100{extra}}}",
            network.replace('\n', "\\n")
        ))
        .expect("test body parses")
    }

    #[test]
    fn simulate_requests_parse_with_defaults() {
        let body = simulate_body("x -> h @ 3\nx -> t @ 1", ",\"initial\":{\"x\":1}");
        let request = SimulateRequest::parse(&body).unwrap();
        assert_eq!(request.trials, 100);
        assert_eq!(request.seed, 0);
        assert_eq!(request.method, StepperKind::Direct);
        assert_eq!(request.max_events, DEFAULT_MAX_EVENTS);
        assert_eq!(request.priority, DEFAULT_PRIORITY);
        assert!(!request.wait);
        assert_eq!(
            request.initial.count(request.crn.species_id("x").unwrap()),
            1
        );
    }

    #[test]
    fn equivalent_bodies_share_a_cache_key() {
        // Whitespace, comments and field order do not affect the key…
        let a = simulate_body(
            "x -> h @ 3\nx -> t @ 1",
            ",\"initial\":{\"x\":1},\"seed\":7",
        );
        let b = parse(
            "{\"seed\":7,\"trials\":100,\"initial\":{\"x\":1},\
             \"network\":\"x  ->  h @ 3   # fast\\nx -> t @ 1\"}",
        )
        .unwrap();
        let key_a = SimulateRequest::parse(&a).unwrap().cache_key();
        let key_b = SimulateRequest::parse(&b).unwrap().cache_key();
        assert_eq!(key_a, key_b);
        // …but the seed does.
        let c = simulate_body(
            "x -> h @ 3\nx -> t @ 1",
            ",\"initial\":{\"x\":1},\"seed\":8",
        );
        assert_ne!(key_a, SimulateRequest::parse(&c).unwrap().cache_key());
    }

    #[test]
    fn auto_requests_resolve_at_parse_time() {
        let body = simulate_body(
            "x -> h @ 3\nx -> t @ 1",
            ",\"initial\":{\"x\":1},\"method\":\"auto\"",
        );
        let request = SimulateRequest::parse(&body).unwrap();
        assert_eq!(request.method, StepperKind::Auto);
        // A two-reaction network is squarely in the direct method's regime.
        assert_eq!(request.resolved, StepperKind::Direct);
        let classifier = request.classifier_report.as_ref().unwrap();
        assert_eq!(classifier.resolved, StepperKind::Direct);
        assert_eq!(classifier.reactions, 2);
        // The ensemble runs the resolved kind, never `Auto` itself.
        assert_eq!(request.ensemble_options().method, StepperKind::Direct);

        // The cache key keys on `auto` — replayable, but distinct from an
        // explicit request for the same concrete kind (the bodies differ:
        // only `auto` carries a classifier report).
        let key = request.cache_key();
        assert!(key.contains("\"method\":\"auto\""), "key: {key}");
        let explicit = simulate_body(
            "x -> h @ 3\nx -> t @ 1",
            ",\"initial\":{\"x\":1},\"method\":\"direct\"",
        );
        let explicit_key = SimulateRequest::parse(&explicit).unwrap().cache_key();
        assert_ne!(key, explicit_key);
        assert!(
            explicit_key.contains("\"method\":\"direct\""),
            "key: {explicit_key}"
        );
    }

    #[test]
    fn auto_reports_carry_the_resolved_stepper() {
        let body = simulate_body(
            "x -> h @ 3\nx -> t @ 1",
            ",\"initial\":{\"x\":1},\"method\":\"auto\",\"seed\":3",
        );
        let request = SimulateRequest::parse(&body).unwrap();
        let classifier = request.classifier().unwrap();
        let report = gillespie::Ensemble::new(&request.crn, request.initial.clone(), classifier)
            .options(request.ensemble_options())
            .run()
            .unwrap();
        assert_eq!(report.method, StepperKind::Direct);
        let rendered = parse(&request.render_report(&report)).unwrap();
        let field = |k: &str| rendered.get(k).unwrap().as_str(k).unwrap().to_string();
        assert_eq!(field("method"), "auto");
        assert_eq!(field("resolved_stepper"), "direct");
        let classifier_json = rendered.get("classifier_report").unwrap();
        assert_eq!(
            classifier_json
                .get("resolved")
                .unwrap()
                .as_str("resolved")
                .unwrap(),
            "direct"
        );
        assert!(classifier_json.get("reason").is_some());

        // Explicit requests still render, with `resolved_stepper` matching
        // the method and no classifier report.
        let explicit = simulate_body(
            "x -> h @ 3\nx -> t @ 1",
            ",\"initial\":{\"x\":1},\"method\":\"next-reaction\",\"seed\":3",
        );
        let explicit = SimulateRequest::parse(&explicit).unwrap();
        let report = gillespie::Ensemble::new(
            &explicit.crn,
            explicit.initial.clone(),
            explicit.classifier().unwrap(),
        )
        .options(explicit.ensemble_options())
        .run()
        .unwrap();
        let rendered = parse(&explicit.render_report(&report)).unwrap();
        assert_eq!(
            rendered.get("method").unwrap().as_str("method").unwrap(),
            "next-reaction"
        );
        assert_eq!(
            rendered
                .get("resolved_stepper")
                .unwrap()
                .as_str("resolved_stepper")
                .unwrap(),
            "next-reaction"
        );
        assert!(rendered.get("classifier_report").is_none());
    }

    #[test]
    fn network_errors_surface_line_and_column() {
        let body = simulate_body("x -> h @ fast", "");
        let err = SimulateRequest::parse(&body).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("line 1, column 10"),
            "expected a line+column parse error, got: {message}"
        );
    }

    #[test]
    fn stop_conditions_parse_recursively() {
        let body = parse(
            "{\"network\":\"a -> b @ 1\",\"trials\":5,\"stop\":{\
             \"type\":\"any_of\",\"conditions\":[\
             {\"type\":\"time\",\"t\":4.5},\
             {\"type\":\"species_at_least\",\"species\":\"b\",\"count\":3}]}}",
        )
        .unwrap();
        let request = SimulateRequest::parse(&body).unwrap();
        assert_eq!(
            render_stop(&request.crn, &request.stop).render(),
            "{\"type\":\"any_of\",\"conditions\":[{\"type\":\"time\",\"t\":4.5},\
             {\"type\":\"species_at_least\",\"species\":\"b\",\"count\":3}]}"
        );
    }

    #[test]
    fn bad_fields_name_the_problem() {
        for (body, needle) in [
            ("{\"trials\":1}", "missing `network`"),
            ("{\"network\":\"a -> b @ 1\"}", "missing `trials`"),
            (
                "{\"network\":\"a -> b @ 1\",\"trials\":0}",
                "must be positive",
            ),
            (
                "{\"network\":\"a -> b @ 1\",\"trials\":1,\"method\":\"magic\"}",
                "unknown method",
            ),
            (
                "{\"network\":\"a -> b @ 1\",\"trials\":1,\"priority\":99}",
                "out of range",
            ),
            (
                "{\"network\":\"a -> b @ 1\",\"trials\":1,\"initial\":{\"zz\":1}}",
                "unknown species",
            ),
        ] {
            let err = SimulateRequest::parse(&parse(body).unwrap()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "body {body}: expected `{needle}` in `{err}`"
            );
        }
    }

    #[test]
    fn exact_request_round_trips_a_first_passage() {
        let body = parse(
            "{\"network\":\"x -> heads @ 3\\nx -> tails @ 1\",\
             \"initial\":{\"x\":1},\
             \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
             \"analysis\":{\"type\":\"first_passage\",\"outcomes\":[\
             {\"name\":\"heads\",\"species\":\"heads\",\"at_least\":1},\
             {\"name\":\"tails\",\"species\":\"tails\",\"at_least\":1}]}}",
        )
        .unwrap();
        let request = ExactRequest::parse(&body).unwrap();
        let rendered = request.execute().unwrap();
        let result = parse(&rendered).unwrap();
        let p = result
            .get("probabilities")
            .unwrap()
            .get("heads")
            .unwrap()
            .as_f64("heads")
            .unwrap();
        assert!((p - 0.75).abs() < 1e-12, "exact heads probability: {p}");
        assert!(request.cache_key().contains("first_passage"));
    }

    #[test]
    fn exact_transient_reports_expectations() {
        let body = parse(
            "{\"network\":\"a -> b @ 1\",\
             \"initial\":{\"a\":3},\
             \"bounds\":{\"default_cap\":3},\
             \"analysis\":{\"type\":\"transient\",\"t\":0.5,\"species\":[\"a\",\"b\"]}}",
        )
        .unwrap();
        let request = ExactRequest::parse(&body).unwrap();
        let result = parse(&request.execute().unwrap()).unwrap();
        let expect_a = result
            .get("expectations")
            .unwrap()
            .get("a")
            .unwrap()
            .as_f64("a")
            .unwrap();
        // E[a](t) = 3·e^{-t}.
        assert!((expect_a - 3.0 * (-0.5f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn synthesize_lambda_preset_fills_equation_14() {
        let body = parse("{\"preset\":\"lambda\",\"evaluate\":[]}").unwrap();
        let request = SynthesizeRequest::parse(&body).unwrap();
        assert_eq!(request.input, "moi");
        assert_eq!(request.coefficients.0, 15.0);
        assert_eq!(request.outcomes.0, "lysis");
        assert_eq!(request.thresholds, (55, 145));
        // Overrides apply on top of the preset.
        let body = parse("{\"preset\":\"lambda\",\"input_total\":8}").unwrap();
        assert_eq!(SynthesizeRequest::parse(&body).unwrap().input_total, 8);
    }
}
