//! The four workloads: their corpora and the seeded request streams.
//!
//! A request is a pure function of `(workload, seed, stream, index)`, so the
//! same seed replays the same bodies byte for byte and the service sees only
//! those bodies. Streams separate the set-up warm-up (0), the timed window
//! (1) and the traced phase (2); their simulation seeds and solve parameters
//! never coincide, so a cold workload never hits the cache by accident.
//!
//! Each stream is cut into blocks that hold every corpus entry a fixed
//! number of times in a seeded order, so the request mix inside any window
//! is the same for every seed and only the order and the parameters vary.

use service::json::Json;
use synthesis::StochasticModule;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["ssa_cold", "cache_replay", "exact_check", "fabric_sharded"];

/// Stream of the set-up warm-up requests.
pub const STREAM_WARMUP: u64 = 0;
/// Stream of the timed window.
pub const STREAM_TIMED: u64 = 1;
/// Stream of the traced phase.
pub const STREAM_TRACED: u64 = 2;

/// Result-cache capacity of the `cache_replay` service: just above the hot
/// set, so cold inserts evict.
pub const HOT_SET: usize = 48;
const CACHE_SLACK: usize = 4;
/// `cache_replay`: one request in this many is a unique tiny cold job.
const COLD_EVERY: u64 = 16;

/// Trials per `fabric_sharded` job and per shard: four shards a job.
pub const FABRIC_TRIALS: u64 = 500;
/// Trials per fabric shard.
pub const FABRIC_SHARD_TRIALS: u64 = 125;

/// SplitMix64: a tiny, stable generator, so request bytes never depend on a
/// dependency's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mixes two words into a seed.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32).wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// The endpoint a request goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Simulate,
    Exact,
    Check,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Simulate => "/simulate",
            Endpoint::Exact => "/exact",
            Endpoint::Check => "/check",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The corpus entry it was drawn from.
    pub entry: usize,
    pub endpoint: Endpoint,
    pub body: String,
    /// The hot-set slot of a `cache_replay` hot request.
    pub hot: Option<usize>,
}

/// A `/simulate` request minus its seed.
#[derive(Debug, Clone)]
struct SimTemplate {
    network: String,
    initial: Vec<(String, u64)>,
    method: &'static str,
    trials: u64,
    stop: Json,
    rules: Vec<(String, u64, String)>,
}

impl SimTemplate {
    fn new(crn: &crn::Crn, initial: &crn::State, method: &'static str, trials: u64) -> SimTemplate {
        SimTemplate {
            network: crn.to_text(),
            initial: nonzero_counts(crn, initial),
            method,
            trials,
            stop: Json::object([("type", Json::str("exhaustion"))]),
            rules: Vec::new(),
        }
    }

    fn stop(mut self, stop: Json) -> SimTemplate {
        self.stop = stop;
        self
    }

    fn rule(mut self, species: &str, at_least: u64, outcome: &str) -> SimTemplate {
        self.rules
            .push((species.to_string(), at_least, outcome.to_string()));
        self
    }

    fn body(&self, seed: u64) -> String {
        let classifier = self
            .rules
            .iter()
            .map(|(species, at_least, outcome)| {
                Json::object([
                    ("species", Json::str(species.clone())),
                    ("at_least", Json::count(*at_least)),
                    ("outcome", Json::str(outcome.clone())),
                ])
            })
            .collect();
        Json::object([
            ("network", Json::str(self.network.clone())),
            ("initial", counts_json(&self.initial)),
            ("method", Json::str(self.method)),
            ("trials", Json::count(self.trials)),
            ("seed", Json::count(seed)),
            ("stop", self.stop.clone()),
            ("classifier", Json::Array(classifier)),
            ("wait", Json::Bool(true)),
        ])
        .render()
    }
}

fn nonzero_counts(crn: &crn::Crn, state: &crn::State) -> Vec<(String, u64)> {
    crn.species()
        .iter()
        .filter_map(|s| {
            let count = state.count(s.id());
            (count > 0).then(|| (s.name().to_string(), count))
        })
        .collect()
}

fn counts_json(counts: &[(String, u64)]) -> Json {
    Json::Object(
        counts
            .iter()
            .map(|(name, count)| (name.clone(), Json::count(*count)))
            .collect(),
    )
}

fn time_stop(t: f64) -> Json {
    Json::object([("type", Json::str("time")), ("t", Json::num(t))])
}

/// The paper's Example 1: a three-outcome winner-take-all module programmed
/// for {0.3, 0.4, 0.3}.
fn example1(gamma: f64, input_total: u64, food: u64, threshold: u64) -> StochasticModule {
    StochasticModule::builder()
        .outcomes(["T1", "T2", "T3"])
        .gamma(gamma)
        .input_total(input_total)
        .food(food)
        .decision_threshold(threshold)
        .build()
        .expect("Example 1 module")
}

fn example1_simulation(method: &'static str, trials: u64) -> SimTemplate {
    let module = example1(1e3, 100, 100, 10);
    let initial = module
        .initial_state_from_counts(&[30, 40, 30])
        .expect("Example 1 state");
    let stop = Json::object([
        ("type", Json::str("any_of")),
        (
            "conditions",
            Json::Array(
                (0..3)
                    .map(|i| {
                        Json::object([
                            ("type", Json::str("species_at_least")),
                            ("species", Json::str(module.output_species(i))),
                            ("count", Json::count(10)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut template = SimTemplate::new(module.crn(), &initial, method, trials).stop(stop);
    for i in 0..3 {
        template = template.rule(&module.output_species(i), 10, &module.outcomes()[i]);
    }
    template
}

/// The `{0.3, 0.4, 0.3}` target of Example 1.
pub const EXAMPLE1_TARGET: [f64; 3] = [0.3, 0.4, 0.3];

/// A small race: `tokens` of `x` decay into `h` (rate `k`) or `t` (rate 1).
fn coin(tokens: u64, k: f64, method: &'static str, trials: u64) -> SimTemplate {
    let system = crn::generators::competitive_race(tokens, k, 1.0);
    let decide = tokens / 2 + 1;
    SimTemplate::new(&system.crn, &system.initial, method, trials)
        .rule("a", decide, "a")
        .rule("b", decide, "b")
}

/// What a corpus entry produces, given the per-request generator.
enum Entry {
    /// A `/simulate` request with a fresh seed.
    Simulate(SimTemplate),
    /// Birth–death transient on a truncation drawn from `caps`.
    BirthDeath { caps: &'static [u64] },
    /// The 1001-state dimerisation transient.
    Dimerisation,
    /// Example 1 first passage with γ jittered around 1000.
    Example1Passage,
    /// A four-point race sweep with fresh grid values.
    RaceSweep,
}

/// A workload's corpus and stream shape.
pub struct Workload {
    pub name: &'static str,
    seed: u64,
    entries: Vec<(&'static str, Entry)>,
    /// Entry indices of one block, each repeated by its weight.
    block: Vec<usize>,
    /// `cache_replay`: the hot set and the cumulative Zipf weights over it.
    hot: Vec<Request>,
    hot_cdf: Vec<f64>,
}

impl Workload {
    /// Builds the corpus of `name` for `seed`.
    ///
    /// # Errors
    ///
    /// Names that are not a workload.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let (name, entries, weights): (&'static str, Vec<(&'static str, Entry)>, Vec<usize>) =
            match name {
                "ssa_cold" => {
                    let lambda = crn::generators::lambda_switch_ensemble(25, 1.0, 0.1, 0.001, 30);
                    let multiscale =
                        crn::generators::multiscale_switch(4, 0.5, 20_000.0, 2_000, 60);
                    let tree = crn::generators::gene_regulatory_tree(4, 3, 1.0, 0.5, 10.0, 1.0);
                    (
                        "ssa_cold",
                        vec![
                            (
                                "example1_direct",
                                Entry::Simulate(example1_simulation("direct", 400)),
                            ),
                            (
                                "example1_auto",
                                Entry::Simulate(example1_simulation("auto", 400)),
                            ),
                            (
                                "lambda_next_reaction",
                                Entry::Simulate(
                                    SimTemplate::new(
                                        &lambda.crn,
                                        &lambda.initial,
                                        "next-reaction",
                                        16,
                                    )
                                    .stop(time_stop(0.75))
                                    .rule("cI0", 60, "lysogeny")
                                    .rule("cro0", 60, "lysis"),
                                ),
                            ),
                            (
                                "lambda_tau_leaping",
                                Entry::Simulate(
                                    SimTemplate::new(
                                        &lambda.crn,
                                        &lambda.initial,
                                        "tau-leaping",
                                        8,
                                    )
                                    .stop(time_stop(2.0))
                                    .rule("cI0", 60, "lysogeny")
                                    .rule("cro0", 60, "lysis"),
                                ),
                            ),
                            (
                                "multiscale_auto",
                                Entry::Simulate(
                                    SimTemplate::new(
                                        &multiscale.crn,
                                        &multiscale.initial,
                                        "auto",
                                        16,
                                    )
                                    .stop(time_stop(0.04))
                                    .rule("gOn_1", 1, "switched"),
                                ),
                            ),
                            (
                                "gene_tree_auto",
                                Entry::Simulate(
                                    SimTemplate::new(&tree.crn, &tree.initial, "auto", 16)
                                        .stop(time_stop(4.0))
                                        .rule("gOn1", 1, "on"),
                                ),
                            ),
                        ],
                        vec![2, 1, 1, 1, 2, 1],
                    )
                }
                "cache_replay" => (
                    "cache_replay",
                    vec![("cold_coin", Entry::Simulate(coin(3, 2.0, "direct", 16)))],
                    vec![1],
                ),
                "exact_check" => (
                    "exact_check",
                    vec![
                        (
                            "birth_death_transient",
                            Entry::BirthDeath {
                                caps: &[256, 384, 512, 768, 1024],
                            },
                        ),
                        ("dimerisation_transient", Entry::Dimerisation),
                        ("example1_first_passage", Entry::Example1Passage),
                        ("race_sweep", Entry::RaceSweep),
                    ],
                    vec![3, 2, 1, 2],
                ),
                "fabric_sharded" => (
                    "fabric_sharded",
                    vec![
                        (
                            "race_direct",
                            Entry::Simulate(coin(4, 2.0, "direct", FABRIC_TRIALS)),
                        ),
                        (
                            "race_auto",
                            Entry::Simulate(coin(4, 2.0, "auto", FABRIC_TRIALS)),
                        ),
                    ],
                    vec![3, 1],
                ),
                other => {
                    return Err(format!(
                        "unknown workload `{other}` (expected one of {})",
                        WORKLOADS.join(", ")
                    ))
                }
            };
        let block = weights
            .iter()
            .enumerate()
            .flat_map(|(entry, &weight)| std::iter::repeat_n(entry, weight))
            .collect();
        let mut workload = Workload {
            name,
            seed,
            entries,
            block,
            hot: Vec::new(),
            hot_cdf: Vec::new(),
        };
        if name == "cache_replay" {
            workload.build_hot_set();
        }
        Ok(workload)
    }

    /// The names of the corpus entries, indexed like [`Request::entry`].
    pub fn entry_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.entries.iter().map(|(name, _)| *name).collect();
        if self.name == "cache_replay" {
            names.extend(["hot_simulate", "hot_exact", "hot_check"]);
        }
        names
    }

    /// Result-cache capacity of the service under test.
    pub fn cache_capacity(&self) -> usize {
        if self.name == "cache_replay" {
            HOT_SET + CACHE_SLACK
        } else {
            256
        }
    }

    /// Whether every request of the timed stream should miss the cache.
    pub fn is_cold(&self) -> bool {
        self.name != "cache_replay"
    }

    /// The `cache_replay` hot set, in slot order (empty elsewhere).
    pub fn hot_set(&self) -> &[Request] {
        &self.hot
    }

    /// The warm-up requests sent during set-up: the hot set, or one request
    /// per corpus entry.
    pub fn warmup(&self) -> Vec<Request> {
        if !self.hot.is_empty() {
            return self.hot.clone();
        }
        (0..self.entries.len())
            .map(|entry| self.render(entry, STREAM_WARMUP, entry as u64))
            .collect()
    }

    /// Request `index` of `stream`.
    pub fn request(&self, stream: u64, index: u64) -> Request {
        if self.name == "cache_replay" {
            let mut rng = Rng::new(mix(mix(self.seed, stream), index));
            if index % COLD_EVERY == COLD_EVERY - 1 {
                return self.render(0, stream, index);
            }
            let u = rng.unit();
            let slot = self
                .hot_cdf
                .partition_point(|&c| c <= u)
                .min(self.hot.len() - 1);
            return self.hot[slot].clone();
        }
        let len = self.block.len() as u64;
        let mut order = self.block.clone();
        let mut rng = Rng::new(mix(mix(self.seed ^ 0xb10c, stream), index / len));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        self.render(order[(index % len) as usize], stream, index)
    }

    /// A seed unique to `(stream, index)` within a run, and different for
    /// different workload seeds. Trial `i` runs with `seed + i`, so seeds
    /// sit 4096 apart; the whole seed stays below 2^52, since JSON numbers
    /// are doubles.
    fn sim_seed(&self, stream: u64, index: u64) -> u64 {
        assert!(
            stream < 4 && index < 1 << 22,
            "request {index} of stream {stream} is out of range"
        );
        ((mix(self.seed, 0x5eed) & 0xffff) << 36) | (stream << 34) | (index << 12)
    }

    fn render(&self, entry: usize, stream: u64, index: u64) -> Request {
        // Warm-up requests take the middle of every parameter range, so
        // set-up does the same work whatever the seed.
        let mut rng = Rng::new(mix(mix(self.seed ^ 0xe7, stream), index));
        let mut unit = || {
            if stream == STREAM_WARMUP {
                0.5
            } else {
                rng.unit()
            }
        };
        let (endpoint, body) = match &self.entries[entry].1 {
            Entry::Simulate(template) => (
                Endpoint::Simulate,
                template.body(self.sim_seed(stream, index)),
            ),
            Entry::BirthDeath { caps } => {
                let cap = caps[((unit() * caps.len() as f64) as usize).min(caps.len() - 1)];
                let t = 0.25 + 0.75 * unit();
                (
                    Endpoint::Exact,
                    transient_body(
                        "0 -> a @ 128\na -> 0 @ 2",
                        &[("a", 64)],
                        "truncating",
                        cap,
                        t,
                    ),
                )
            }
            Entry::Dimerisation => {
                let t = 0.5 + 1.5 * unit();
                (
                    Endpoint::Exact,
                    transient_body(
                        "2 a -> b @ 0.0002\nb -> 2 a @ 1",
                        &[("a", 2000)],
                        "strict",
                        2000,
                        t,
                    ),
                )
            }
            Entry::Example1Passage => {
                let gamma = 1000.0 * (0.95 + 0.1 * unit());
                (Endpoint::Exact, example1_passage_body(gamma))
            }
            Entry::RaceSweep => {
                // One grid value in each quarter of [0.5, 8).
                let values: Vec<f64> = (0..4)
                    .map(|j| 0.5 + 7.5 * (j as f64 + unit()) / 4.0)
                    .collect();
                (Endpoint::Check, race_check_body(10, 6, Some(&values), None))
            }
        };
        Request {
            entry,
            endpoint,
            body,
            hot: None,
        }
    }

    /// The `cache_replay` hot set: small `/simulate` jobs (half `auto`), small
    /// `/exact` solves and single-point `/check` races, ranked under a
    /// Zipf(1) draw. The kind at each rank follows a fixed pattern and the
    /// seed only orders requests within a kind, so the mix of kinds — and
    /// with it the cost of a hit — is the same for every seed.
    fn build_hot_set(&mut self) {
        let mut rng = Rng::new(mix(self.seed, 0x407));
        let cold = self.entries.len();
        let simulate = |i: u64, method| Request {
            entry: cold,
            endpoint: Endpoint::Simulate,
            body: coin(3, 1.0 + i as f64 * 0.5, method, 64).body(mix(self.seed, i) >> 16),
            hot: None,
        };
        let exact = |body| Request {
            entry: cold + 1,
            endpoint: Endpoint::Exact,
            body,
            hot: None,
        };
        let mut kinds: Vec<Vec<Request>> = vec![
            (0..12).map(|i| simulate(i, "direct")).collect(),
            (0..12).map(|i| simulate(i, "auto")).collect(),
            (0..8)
                .map(|i| {
                    let k = 1.0 + i as f64 * 0.5;
                    exact(format!(
                        "{{\"network\":\"x -> heads @ {k}\\nx -> tails @ 1\",\"initial\":{{\"x\":1}},\
                         \"bounds\":{{\"policy\":\"strict\",\"default_cap\":1}},\
                         \"analysis\":{{\"type\":\"first_passage\",\"outcomes\":[\
                         {{\"name\":\"heads\",\"species\":\"heads\",\"at_least\":1}},\
                         {{\"name\":\"tails\",\"species\":\"tails\",\"at_least\":1}}]}},\"wait\":true}}"
                    ))
                })
                .collect(),
            (0..8)
                .map(|i| {
                    let t = 0.2 * (i + 1) as f64;
                    exact(transient_body("0 -> a @ 8\na -> 0 @ 1", &[("a", 4)], "truncating", 24, t))
                })
                .collect(),
            (0..8)
                .map(|i| Request {
                    entry: cold + 2,
                    endpoint: Endpoint::Check,
                    body: race_check_body(6, 4, None, Some(1.0 + i as f64 * 0.75)),
                    hot: None,
                })
                .collect(),
        ];
        for group in &mut kinds {
            for i in (1..group.len()).rev() {
                group.swap(i, rng.below(i + 1));
            }
        }
        // Kinds by rank, 12 at a time: 3 direct, 3 auto, 2 first passages,
        // 2 transients and 2 checks, in the proportions of the hot set.
        const PATTERN: [usize; 12] = [0, 1, 2, 3, 4, 0, 1, 2, 0, 1, 3, 4];
        let mut hot: Vec<Request> = (0..HOT_SET)
            .map(|rank| {
                kinds[PATTERN[rank % 12]]
                    .pop()
                    .expect("pattern matches the hot set")
            })
            .collect();
        for (slot, request) in hot.iter_mut().enumerate() {
            request.hot = Some(slot);
        }
        let weights: Vec<f64> = (0..HOT_SET).map(|rank| 1.0 / (rank + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        self.hot_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        self.hot = hot;
    }
}

fn transient_body(
    network: &str,
    initial: &[(&str, u64)],
    policy: &str,
    cap: u64,
    t: f64,
) -> String {
    Json::object([
        ("network", Json::str(network)),
        (
            "initial",
            Json::Object(
                initial
                    .iter()
                    .map(|(name, count)| (name.to_string(), Json::count(*count)))
                    .collect(),
            ),
        ),
        (
            "bounds",
            Json::object([
                ("policy", Json::str(policy)),
                ("default_cap", Json::count(cap)),
            ]),
        ),
        (
            "analysis",
            Json::object([
                ("type", Json::str("transient")),
                ("t", Json::num(t)),
                ("tolerance", Json::num(1e-10)),
                ("species", Json::Array(vec![Json::str(initial[0].0)])),
            ]),
        ),
        ("wait", Json::Bool(true)),
    ])
    .render()
}

/// Example 1 scaled to an exact first passage (10 input molecules, food and
/// threshold 2: about 20 000 states).
fn example1_passage_body(gamma: f64) -> String {
    let module = example1(gamma, 10, 2, 2);
    let initial = module
        .initial_state_from_counts(&[3, 4, 3])
        .expect("Example 1 state");
    let outcomes = (0..3)
        .map(|i| {
            Json::object([
                ("name", Json::str(module.outcomes()[i].clone())),
                ("species", Json::str(module.output_species(i))),
                ("at_least", Json::count(2)),
            ])
        })
        .collect();
    Json::object([
        ("network", Json::str(module.crn().to_text())),
        (
            "initial",
            counts_json(&nonzero_counts(module.crn(), &initial)),
        ),
        (
            "bounds",
            Json::object([
                ("policy", Json::str("strict")),
                ("default_cap", Json::count(10)),
            ]),
        ),
        (
            "analysis",
            Json::object([
                ("type", Json::str("first_passage")),
                ("outcomes", Json::Array(outcomes)),
            ]),
        ),
        ("wait", Json::Bool(true)),
    ])
    .render()
}

/// `P(h ≥ need before t ≥ need)` for `tokens` racing tokens: a sweep over
/// the heads rate when `values` is given, else one point at rate `k`.
fn race_check_body(tokens: u64, need: u64, values: Option<&[f64]>, k: Option<f64>) -> String {
    let network = match k {
        Some(k) => format!("x -> h @ {k}\nx -> t @ 1"),
        None => "x -> h @ {k}\nx -> t @ 1".to_string(),
    };
    let target = |species: &str| {
        Json::object([
            ("species", Json::str(species)),
            ("at_least", Json::count(need)),
        ])
    };
    let mut members = vec![
        ("network", Json::str(network)),
        ("initial", Json::object([("x", Json::count(tokens))])),
        (
            "bounds",
            Json::object([
                ("policy", Json::str("strict")),
                ("default_cap", Json::count(tokens)),
            ]),
        ),
        (
            "property",
            Json::object([
                ("type", Json::str("reach_before")),
                ("target", target("h")),
                ("competitor", target("t")),
            ]),
        ),
    ];
    if let Some(values) = values {
        members.push((
            "sweep",
            Json::object([
                ("parameter", Json::str("k")),
                (
                    "values",
                    Json::Array(values.iter().map(|&v| Json::num(v)).collect()),
                ),
            ]),
        ));
    }
    members.push(("wait", Json::Bool(true)));
    Json::object(members).render()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use service::api::{CheckRequest, ExactRequest, SimulateRequest};

    use super::*;

    /// Parses a body with the service's own request parser, returning its
    /// canonical cache key.
    fn service_key(request: &Request) -> String {
        let json = service::json::parse(&request.body).expect("body is JSON");
        match request.endpoint {
            Endpoint::Simulate => SimulateRequest::parse(&json).map(|r| r.cache_key()),
            Endpoint::Exact => ExactRequest::parse(&json).map(|r| r.cache_key()),
            Endpoint::Check => CheckRequest::parse(&json).map(|r| r.cache_key()),
        }
        .unwrap_or_else(|e| panic!("rejected body {}: {e}", request.body))
    }

    fn stream(workload: &Workload, stream: u64, n: u64) -> Vec<Request> {
        (0..n).map(|i| workload.request(stream, i)).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        for name in WORKLOADS {
            let a = Workload::new(name, 7).unwrap();
            let b = Workload::new(name, 7).unwrap();
            for s in [STREAM_TIMED, STREAM_TRACED] {
                assert_eq!(stream(&a, s, 64), stream(&b, s, 64), "{name}");
            }
            assert_eq!(a.warmup(), b.warmup(), "{name}");
        }
    }

    #[test]
    fn another_seed_gives_other_bytes() {
        for name in WORKLOADS {
            let a = Workload::new(name, 7).unwrap();
            let b = Workload::new(name, 8).unwrap();
            assert_ne!(
                stream(&a, STREAM_TIMED, 64),
                stream(&b, STREAM_TIMED, 64),
                "{name}"
            );
        }
    }

    #[test]
    fn every_body_is_accepted_by_the_service_parsers() {
        for name in WORKLOADS {
            let workload = Workload::new(name, 3).unwrap();
            for request in workload
                .warmup()
                .iter()
                .chain(&stream(&workload, STREAM_TIMED, 48))
                .chain(&stream(&workload, STREAM_TRACED, 48))
            {
                service_key(request);
            }
        }
    }

    #[test]
    fn cold_streams_never_repeat_a_cache_key() {
        for name in ["ssa_cold", "exact_check", "fabric_sharded"] {
            let workload = Workload::new(name, 11).unwrap();
            let mut keys = HashSet::new();
            for request in workload
                .warmup()
                .iter()
                .chain(&stream(&workload, STREAM_TIMED, 400))
                .chain(&stream(&workload, STREAM_TRACED, 400))
            {
                assert!(keys.insert(service_key(request)), "{name}: repeated key");
            }
        }
    }

    #[test]
    fn blocks_hold_the_fixed_mix() {
        let workload = Workload::new("exact_check", 5).unwrap();
        let mut counts = vec![0; 4];
        for request in stream(&workload, STREAM_TIMED, 8 * 10) {
            counts[request.entry] += 1;
        }
        assert_eq!(counts, vec![30, 20, 10, 20]);
    }

    #[test]
    fn cache_replay_draws_a_skewed_hot_set_and_a_cold_trickle() {
        let workload = Workload::new("cache_replay", 5).unwrap();
        assert_eq!(workload.hot_set().len(), HOT_SET);
        assert_eq!(workload.cache_capacity(), HOT_SET + CACHE_SLACK);
        let requests = stream(&workload, STREAM_TIMED, 1600);
        let cold = requests.iter().filter(|r| r.hot.is_none()).count();
        assert_eq!(cold, 100);
        let mut per_slot = vec![0usize; HOT_SET];
        for request in &requests {
            if let Some(slot) = request.hot {
                assert_eq!(request.body, workload.hot_set()[slot].body);
                per_slot[slot] += 1;
            }
        }
        assert!(
            per_slot[0] > 4 * per_slot[HOT_SET - 1].max(1),
            "{per_slot:?}"
        );
        let distinct: HashSet<String> = workload.hot_set().iter().map(service_key).collect();
        assert_eq!(distinct.len(), HOT_SET, "hot keys are distinct");
    }
}
