//! Exact-CME scaling benchmark: state-space size vs. solve time.
//!
//! Sweeps a truncated immigration–death process through growing retained
//! windows and times the three phases separately — reachable-state
//! enumeration, sparse generator assembly, and the uniformization transient
//! solve — plus the first-passage outcome analysis of a scaled
//! winner-take-all module. The numbers answer the practical question behind
//! the "Exact verification" README section: how large a system can the CME
//! oracle afford, and where does the time go as the window grows.

use cme::{Checker, FirstPassage, GeneratorMatrix, PopulationBounds, StateSpace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crn::Crn;
use synthesis::StochasticModule;

/// Immigration–death `∅ -> a`, `a -> ∅` with stationary mean 64, truncated
/// at `cap`: a 1-D chain of `cap + 1` states.
fn birth_death() -> (Crn, crn::State) {
    let crn: Crn = "0 -> a @ 128\na -> 0 @ 2".parse().expect("network");
    let initial = crn.state_from_counts([("a", 64)]).expect("state");
    (crn, initial)
}

fn bench_transient_scaling(c: &mut Criterion) {
    for &cap in &[128u64, 256, 512, 1024] {
        let (crn, initial) = birth_death();
        let bounds = PopulationBounds::truncating(cap);
        let mut group = c.benchmark_group(format!("cme_transient/states_{}", cap + 1));
        group.bench_function(BenchmarkId::from_parameter("enumerate"), |b| {
            b.iter(|| StateSpace::enumerate(&crn, &initial, &bounds).expect("state space"));
        });
        let space = StateSpace::enumerate(&crn, &initial, &bounds).expect("state space");
        group.bench_function(BenchmarkId::from_parameter("generator"), |b| {
            b.iter(|| GeneratorMatrix::from_space(&space));
        });
        group.bench_function(BenchmarkId::from_parameter("solve_t1"), |b| {
            b.iter(|| space.transient(1.0, 1e-10).expect("transient"));
        });
        group.finish();
    }
}

/// Reversible dimerisation over a 1001-state chain: second-order
/// propensities and a stiffer uniformization rate.
fn bench_dimerisation(c: &mut Criterion) {
    let crn: Crn = "2 a -> b @ 0.0002\nb -> 2 a @ 1".parse().expect("network");
    let initial = crn.state_from_counts([("a", 2000)]).expect("state");
    let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(2000))
        .expect("state space");
    let mut group = c.benchmark_group("cme_transient/dimerisation_1001");
    group.bench_function(BenchmarkId::from_parameter("solve_t4"), |b| {
        b.iter(|| space.transient(4.0, 1e-10).expect("transient"));
    });
    group.finish();
}

/// A drift from `a = 0` towards a mean past the cap over a 1201-state
/// chain: the mass crosses every state, so a mass-following rate cannot
/// stay below the fastest states and the solve retries up to `Λ`.
fn bench_drift(c: &mut Criterion) {
    let crn: Crn = "0 -> a @ 1000\na -> 0 @ 1".parse().expect("network");
    let space = StateSpace::enumerate(&crn, &crn.zero_state(), &PopulationBounds::truncating(1200))
        .expect("state space");
    let mut group = c.benchmark_group("cme_transient/drift_1201");
    group.bench_function(BenchmarkId::from_parameter("solve_t5"), |b| {
        b.iter(|| space.transient(5.0, 1e-10).expect("transient"));
    });
    group.finish();
}

/// The paper's Example 1 at separation `gamma`, scaled down to about 20k
/// first-passage states.
fn example1(gamma: f64) -> StochasticModule {
    StochasticModule::builder()
        .outcomes(["T1", "T2", "T3"])
        .gamma(gamma)
        .input_total(10)
        .food(2)
        .decision_threshold(2)
        .build()
        .expect("module")
}

/// First-passage outcome analysis of the paper's Example 1, scaled down:
/// enumeration + SCC condensation + exact elimination over ~20k states.
fn bench_first_passage(c: &mut Criterion) {
    let module = example1(1000.0);
    let initial = module
        .initial_state_from_counts(&[3, 4, 3])
        .expect("initial state");
    let bounds = module.exact_bounds(&[3, 4, 3]);
    let outputs: Vec<crn::SpeciesId> = ["o1", "o2", "o3"]
        .iter()
        .map(|name| module.crn().species_id(name).expect("output species"))
        .collect();
    let mut group = c.benchmark_group("cme_transient/first_passage_module");
    // Enumeration alone, on the space `exact_outcomes` solves: the three
    // outcome classes absorb.
    group.bench_function(BenchmarkId::from_parameter("enumerate"), |b| {
        b.iter(|| {
            StateSpace::enumerate_absorbing(module.crn(), &initial, &bounds, |s| {
                outputs.iter().any(|&o| s.count(o) >= 2)
            })
            .expect("state space")
        });
    });
    let passage = |crn| {
        FirstPassage::new(crn)
            .outcome_species_at_least("T1", "o1", 2)
            .expect("outcome")
            .outcome_species_at_least("T2", "o2", 2)
            .expect("outcome")
            .outcome_species_at_least("T3", "o3", 2)
            .expect("outcome")
    };
    group.bench_function(BenchmarkId::from_parameter("exact_outcomes"), |b| {
        b.iter(|| {
            passage(module.crn())
                .solve(&initial, &bounds)
                .expect("first passage")
        });
    });
    // The same solve on a structure enumerated once at another γ: re-weight
    // to this module's rates, then solve. This is what a service request
    // costs when its structure is cached.
    let other = example1(950.0);
    let structure = passage(other.crn())
        .enumerate(&initial, &bounds)
        .expect("state space");
    let solver = passage(module.crn());
    group.bench_function(BenchmarkId::from_parameter("reweighted"), |b| {
        b.iter(|| {
            let space = structure
                .reweight(module.crn())
                .expect("same stoichiometry");
            solver.solve_space(&space).expect("first passage")
        });
    });
    group.finish();
}

/// The `POST /check` sweep workload in miniature: a four-point robustness
/// landscape of race verdicts, each grid point an independent
/// enumerate + embedded-chain solve of a ten-token biased-coin tournament.
/// Prices what one cached grid point of a model-checking sweep costs the
/// service before any fabric dispatch.
fn bench_check_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("cme_transient/check_sweep");
    group.bench_function(BenchmarkId::from_parameter("race_landscape_4pt"), |b| {
        b.iter(|| {
            cme::sweep::landscape(&[1.0, 2.0, 4.0, 8.0], |k| {
                let crn: Crn = format!("x -> h @ {k}\nx -> t @ 1")
                    .parse()
                    .expect("network");
                let initial = crn.state_from_counts([("x", 10)]).expect("state");
                let checker = Checker::new(&crn, initial, PopulationBounds::strict(10));
                checker
                    .reach_before_species(("h", 6), ("t", 6))
                    .map(|race| race.target)
            })
            .expect("landscape")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_transient_scaling,
    bench_dimerisation,
    bench_drift,
    bench_first_passage,
    bench_check_sweep
);
criterion_main!(benches);
