//! CME oracle tests: every stepper against exact transient ground truth,
//! **mid-relaxation**.
//!
//! The stationary-law conformance suite (`statistical_validation.rs`) can
//! only catch biases that survive equilibration; a stepper with wrong
//! *dynamics* but the right fixed point would slip through. Here the
//! ensembles are stopped halfway through relaxation, where the distribution
//! is still far from stationary, and compared bin-for-bin against the exact
//! uniformized CME solution at that very horizon. The `cme` crate's
//! propensity convention is also pinned against `gillespie`'s, so the two
//! codebases cannot silently diverge on the meaning of a rate.

use cme::{GeneratorMatrix, PopulationBounds, StateSpace};
use crn::{Crn, State};
use gillespie::StepperKind;
use numerics::chi_square_goodness_of_fit;

mod common;
use common::{final_count_histogram, windowed};

/// Significance level of the seeded tolerance bands.
const ALPHA: f64 = 1e-3;

/// An immigration–death process caught **mid-relaxation**: starting from
/// zero molecules, at `t = 0.75/μ` the exact law (mean ≈ 31.7) is far from
/// the stationary Poisson(60) — any stepper with biased dynamics fails even
/// if its fixed point is right. All five steppers must conform to the CME
/// transient.
#[test]
fn birth_death_mid_relaxation_conforms_to_cme_for_every_method() {
    let lambda = 60.0;
    let mu = 1.0;
    let t_end = 0.75; // mean = 60·(1 − e^{−0.75}) ≈ 31.7, stationary is 60
    let crn: Crn = format!("0 -> a @ {lambda}\na -> 0 @ {mu}")
        .parse()
        .expect("network");
    let a = crn.species_id("a").expect("species");
    let initial = crn.zero_state();

    let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(140))
        .expect("state space");
    let solution = space.transient(t_end, 1e-10).expect("transient");
    assert!(
        solution.leaked + solution.truncation_error < 1e-9,
        "truncation must be negligible"
    );
    // The exact mean at t is λ/μ·(1 − e^{−μt}); the CME must agree to the
    // truncation error — this pins the oracle before it judges anyone else.
    let exact_mean = lambda / mu * (1.0 - (-mu * t_end).exp());
    let cme_mean = space.expectation(&solution.probabilities, a);
    assert!(
        (cme_mean - exact_mean).abs() < 1e-6,
        "CME mean {cme_mean} vs closed form {exact_mean}"
    );

    let (lo, hi) = (8u64, 60u64); // ±~4.2σ around the transient mean
    let expected = windowed(&space.marginal(&solution.probabilities, a), (lo, hi));
    for method in StepperKind::ALL {
        let hist =
            final_count_histogram(&crn, &initial, method, a, 40_000..41_200, t_end, (lo, hi));
        let gof = chi_square_goodness_of_fit(hist.counts(), &expected).expect("test");
        assert!(
            gof.passes(ALPHA),
            "{}: mid-relaxation goodness-of-fit failed: chi2 = {:.1}, dof = {}, p = {:.2e}",
            method.name(),
            gof.statistic,
            gof.dof,
            gof.p_value
        );
    }
}

/// Reversible isomerisation caught mid-relaxation: the binomial parameter
/// is still rising towards k₁/(k₁+k₂) when the ensembles stop. The CME
/// transient is the oracle for all five steppers.
#[test]
fn isomerisation_mid_relaxation_conforms_to_cme_for_every_method() {
    let k1 = 3.0;
    let k2 = 1.0;
    let n = 200u64;
    let t_end = 0.25; // p(t) = 0.75·(1 − e^{−4t}) ≈ 0.474, stationary 0.75
    let crn: Crn = format!("a -> b @ {k1}\nb -> a @ {k2}")
        .parse()
        .expect("network");
    let b = crn.species_id("b").expect("species");
    let initial = crn.state_from_counts([("a", n)]).expect("state");

    let space =
        StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(n)).expect("state space");
    assert_eq!(space.len() as u64, n + 1, "closed 1-D chain");
    let solution = space.transient(t_end, 1e-10).expect("transient");
    let marginal = space.marginal(&solution.probabilities, b);

    // Cross-check: each molecule is independently in `b` with probability
    // p(t) = k₁/(k₁+k₂)·(1 − e^{−(k₁+k₂)t}), so the law is Binomial(n, p).
    let p = k1 / (k1 + k2) * (1.0 - (-(k1 + k2) * t_end).exp());
    let mean = space.expectation(&solution.probabilities, b);
    assert!(
        (mean - n as f64 * p).abs() < 1e-6,
        "CME mean {mean} vs binomial mean {}",
        n as f64 * p
    );

    let sigma = (n as f64 * p * (1.0 - p)).sqrt();
    let lo = (n as f64 * p - 4.5 * sigma) as u64;
    let hi = (n as f64 * p + 4.5 * sigma) as u64;
    let expected = windowed(&marginal, (lo, hi));
    for method in StepperKind::ALL {
        let hist =
            final_count_histogram(&crn, &initial, method, b, 50_000..51_200, t_end, (lo, hi));
        let gof = chi_square_goodness_of_fit(hist.counts(), &expected).expect("test");
        assert!(
            gof.passes(ALPHA),
            "{}: mid-relaxation goodness-of-fit failed: chi2 = {:.1}, dof = {}, p = {:.2e}",
            method.name(),
            gof.statistic,
            gof.dof,
            gof.p_value
        );
    }
}

/// A **high-population** immigration–death process caught mid-relaxation —
/// the regime where the hybrid stepper actually partitions: the birth
/// channel (propensity 2000) runs fast while the death channel (≈ 190 at
/// the transient mean) stays below the fast threshold and fires through
/// the integrated-hazard budget. The low-copy tests above exercise
/// hybrid's exact-burst degradation; this one exercises its fast/slow
/// machinery against the exact CME transient. Tau-leaping rides along as
/// the approximate control.
#[test]
fn high_population_birth_death_conforms_to_cme_for_partitioned_steppers() {
    let lambda = 2000.0;
    let mu = 0.2;
    let t_end = 0.5; // mean = 10000·(1 − e^{−0.1}) ≈ 951.6, stationary 10000
    let crn: Crn = format!("0 -> a @ {lambda}\na -> 0 @ {mu}")
        .parse()
        .expect("network");
    let a = crn.species_id("a").expect("species");
    let initial = crn.zero_state();

    let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(1_400))
        .expect("state space");
    let solution = space.transient(t_end, 1e-10).expect("transient");
    assert!(
        solution.leaked + solution.truncation_error < 1e-9,
        "truncation must be negligible"
    );
    let exact_mean = lambda / mu * (1.0 - (-mu * t_end).exp());
    let cme_mean = space.expectation(&solution.probabilities, a);
    assert!(
        (cme_mean - exact_mean).abs() < 1e-6,
        "CME mean {cme_mean} vs closed form {exact_mean}"
    );

    // Poisson transient: σ = √mean ≈ 30.8; window ±~3.5σ.
    let (lo, hi) = (845u64, 1_060u64);
    let expected = windowed(&space.marginal(&solution.probabilities, a), (lo, hi));
    for method in [StepperKind::Hybrid, StepperKind::TauLeaping] {
        let hist =
            final_count_histogram(&crn, &initial, method, a, 60_000..63_000, t_end, (lo, hi));
        let gof = chi_square_goodness_of_fit(hist.counts(), &expected).expect("test");
        assert!(
            gof.passes(ALPHA),
            "{}: high-population goodness-of-fit failed: chi2 = {:.1}, dof = {}, p = {:.2e}",
            method.name(),
            gof.statistic,
            gof.dof,
            gof.p_value
        );
    }
}

/// The CME layer and the simulators must agree on what a propensity *is*:
/// for every enumerated state of a second-order network, the state-space
/// total outflow must equal `gillespie::total_propensity` bitwise.
#[test]
fn cme_outflows_match_gillespie_propensities_bitwise() {
    let crn: Crn = "2 a -> b @ 0.003\nb -> 2 a @ 1.5\na + b -> c @ 0.2\nc -> a + b @ 2"
        .parse()
        .expect("network");
    let initial = crn.state_from_counts([("a", 20), ("b", 5)]).expect("state");
    let space =
        StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(40)).expect("state space");
    assert!(
        space.len() > 50,
        "non-trivial space: {} states",
        space.len()
    );
    for i in 0..space.len() {
        let state = State::from_counts(space.state(i).to_vec());
        let expected = gillespie::total_propensity(&crn, &state);
        assert_eq!(
            space.total_outflow(i),
            expected,
            "state {state}: outflow disagrees with gillespie"
        );
    }
    // The generator diagonal must be the negated outflow, exactly.
    let generator = GeneratorMatrix::from_space(&space);
    for i in 0..space.len() {
        let diagonal = generator
            .row(i)
            .find(|&(j, _)| j == i)
            .map(|(_, v)| v)
            .expect("diagonal entry");
        assert_eq!(diagonal, -space.total_outflow(i));
    }
}
