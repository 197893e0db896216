//! Uniformization: the transient CME solution `p(t) = p(0)·e^{Qt}`.

use numerics::ln_gamma;

use crate::error::CmeError;
use crate::generator::GeneratorMatrix;
use crate::space::StateSpace;

/// Upper bound on the work of one uniformization series, in Poisson terms
/// times generator nonzeros. A series costs about `Λt` terms, so an
/// unbounded time horizon would pin a worker for hours; solves predicted to
/// exceed this are refused with [`CmeError::SeriesBudgetExceeded`] before
/// any work is done. The largest solve in the repository's tests, examples
/// and benchmarks predicts about 1.5e7.
const SERIES_WORK_BUDGET: f64 = 1e9;

/// The transient solution of the CME at one time point, with explicit error
/// accounting: `Σ probabilities = 1 − truncation_error − leaked` (for a
/// sub-stochastic initial vector, its mass in place of 1).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolution {
    /// Probability of each retained state at time `t`, in state-space index
    /// order.
    pub probabilities: Vec<f64>,
    /// Mass the truncated uniformization series did not accumulate: the
    /// Poisson right tail beyond the last term, the left-tail terms whose
    /// weight is below `f64::MIN_POSITIVE`, and the subnormal entries
    /// flushed from the jump vectors. Bounded by the requested tolerance
    /// (plus those underflow-sized parts) whenever the series ran to
    /// completion.
    pub truncation_error: f64,
    /// Probability mass that left the retained window through
    /// finite-state-projection truncation, taken from the leaking rows
    /// alone (exactly 0 when no state leaks, as under strict bounds).
    pub leaked: f64,
    /// Number of Poisson terms (uniformized jumps) accumulated.
    pub terms: usize,
    /// The uniformization rate `Λ` used.
    pub uniformization_rate: f64,
}

/// Solves `p(t) = p(0)·e^{Qt}` by uniformization: with `Λ = max_i |q_ii|`
/// and `P = I + Q/Λ`,
///
/// ```text
/// p(t) = Σ_k  e^{−Λt} (Λt)^k / k!  ·  p(0)·P^k
/// ```
///
/// truncated once the accumulated Poisson weight reaches `1 − epsilon`. The
/// neglected tail is a rigorous bound on the truncation error because every
/// `p(0)·P^k` is substochastic; the actual tail mass is reported as
/// [`TransientSolution::truncation_error`]. Poisson weights are evaluated in
/// log space (via [`ln_gamma`]), so large `Λt` cannot underflow the series.
///
/// `P` is built once per solve, transposed, with each row summing to
/// `1 − leak_i/Λ`, so a jump is one short dot product per reachable state and
/// the leak is read off the leaking rows alone. Terms whose Poisson weight is
/// below `f64::MIN_POSITIVE` (the far left tail) are skipped, and jump
/// entries that underflow below it are flushed to zero; both stay inside
/// `truncation_error`. Each jump only visits the index window that can still
/// hold representable mass.
///
/// # Errors
///
/// Returns [`CmeError::InvalidInput`] if `initial` is not a probability
/// vector of matching dimension, or `t`/`epsilon` are not finite and
/// non-negative (`epsilon` must also be positive), and
/// [`CmeError::SeriesBudgetExceeded`] if the series would need more than a
/// fixed budget of term × nonzero products.
pub fn transient(
    generator: &GeneratorMatrix,
    initial: &[f64],
    t: f64,
    epsilon: f64,
) -> Result<TransientSolution, CmeError> {
    let mass: f64 = initial.iter().sum();
    if (mass - 1.0).abs() > 1e-9 {
        return Err(CmeError::InvalidInput {
            message: format!("initial distribution sums to {mass}, expected 1"),
        });
    }
    transient_substochastic(generator, initial, t, epsilon)
}

/// [`transient`] without the unit-mass requirement: the initial vector may
/// be sub-stochastic (mass ≤ 1), as produced by a previous transient phase
/// whose truncation/leak already removed some mass. The model checker's
/// two-phase window evaluation feeds a free-evolution solution at `t₁` into
/// the absorbed generator for `[t₁, t₂]` through this entry point.
pub(crate) fn transient_substochastic(
    generator: &GeneratorMatrix,
    initial: &[f64],
    t: f64,
    epsilon: f64,
) -> Result<TransientSolution, CmeError> {
    let n = generator.dimension();
    if initial.len() != n {
        return Err(CmeError::InvalidInput {
            message: format!(
                "initial distribution has {} entries but the generator has {n} states",
                initial.len()
            ),
        });
    }
    if initial.iter().any(|&p| !p.is_finite() || p < 0.0) {
        return Err(CmeError::InvalidInput {
            message: "initial distribution entries must be finite and non-negative".into(),
        });
    }
    let mass: f64 = initial.iter().sum();
    if mass > 1.0 + 1e-9 {
        return Err(CmeError::InvalidInput {
            message: format!("initial distribution sums to {mass}, expected at most 1"),
        });
    }
    if !(t.is_finite() && t >= 0.0) {
        return Err(CmeError::InvalidInput {
            message: format!("time {t} must be finite and non-negative"),
        });
    }
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(CmeError::InvalidInput {
            message: format!("tolerance {epsilon} must be finite and positive"),
        });
    }
    Ok(series(generator, initial, mass, t, epsilon)?.0)
}

/// Sums the uniformization series for validated inputs of total mass
/// `mass`. Returns the solution and the part of its truncation error that
/// flushed subnormal mass contributed.
fn series(
    generator: &GeneratorMatrix,
    initial: &[f64],
    mass: f64,
    t: f64,
    epsilon: f64,
) -> Result<(TransientSolution, f64), CmeError> {
    let n = generator.dimension();
    let lambda = generator.uniformization_rate();
    let rate_time = lambda * t;
    if rate_time == 0.0 {
        // No transitions can fire (or t = 0): the distribution is unchanged.
        let unchanged = TransientSolution {
            probabilities: initial.to_vec(),
            truncation_error: 0.0,
            leaked: 0.0,
            terms: 1,
            uniformization_rate: lambda,
        };
        return Ok((unchanged, 0.0));
    }

    // Enough terms to cover the Poisson(Λt) bulk plus a deep tail; the
    // weight test below is what actually terminates the series.
    let term_bound = rate_time + 12.0 * (rate_time + 1.0).sqrt() + 64.0;
    let work = term_bound * generator.nnz() as f64;
    if work > SERIES_WORK_BUDGET {
        return Err(CmeError::SeriesBudgetExceeded {
            rate_time,
            work,
            budget: SERIES_WORK_BUDGET,
        });
    }
    let k_max = term_bound as usize;
    let ln_rate_time = rate_time.ln();
    let poisson_weight =
        |k: usize| (k as f64 * ln_rate_time - rate_time - ln_gamma(k as f64 + 1.0)).exp();

    let matrix = generator.uniformized();
    // `jump` is p(0)·P^k and every nonzero of it lies in `window`; `next`
    // still holds the jump before it, whose nonzeros lie in `stale`.
    let mut jump = initial.to_vec();
    let nonzero = |p: &f64| *p > 0.0;
    let mut window = match (
        initial.iter().position(nonzero),
        initial.iter().rposition(nonzero),
    ) {
        (Some(first), Some(last)) => first..last + 1,
        _ => 0..0,
    };
    let mut stale = 0..0;
    let mut next = vec![0.0; n];
    let mut accumulated = vec![0.0; n];
    // Mass the jumps so far have lost through leak and through flushing.
    // With no leaking row `lost` stays exactly zero, so `leaked` does too.
    let (mut lost, mut flushed) = (0.0f64, 0.0f64);
    let (mut weight_sum, mut leaked, mut dropped) = (0.0f64, 0.0f64, 0.0f64);
    let mut terms = 0usize;
    for k in 0..=k_max {
        let w = poisson_weight(k);
        // Left-tail weights below the smallest normal number are skipped:
        // they stay in `1 − weight_sum`, hence in the truncation error.
        if w >= f64::MIN_POSITIVE {
            for (acc, &p) in accumulated[window.clone()]
                .iter_mut()
                .zip(&jump[window.clone()])
            {
                *acc += w * p;
            }
            leaked += w * lost;
            dropped += w * flushed;
            weight_sum += w;
        }
        terms = k + 1;
        if weight_sum >= 1.0 - epsilon {
            break;
        }
        lost += matrix.leak_loss(&jump);
        next[stale].fill(0.0);
        let (reached, underflow) = matrix.jump(&jump, window.clone(), &mut next);
        flushed += underflow;
        stale = std::mem::replace(&mut window, reached);
        std::mem::swap(&mut jump, &mut next);
    }

    // Every jump carries at most the initial mass, so the unsummed weight
    // times that mass bounds the tail; the flushed mass is already weighted.
    let solution = TransientSolution {
        probabilities: accumulated,
        truncation_error: (mass * (1.0 - weight_sum)).max(0.0) + dropped,
        leaked,
        terms,
        uniformization_rate: lambda,
    };
    Ok((solution, dropped))
}

impl StateSpace {
    /// Convenience wrapper: solves the transient CME from this space's
    /// initial state (point mass at index 0) at time `t` with Poisson-tail
    /// tolerance `epsilon`. Builds the generator internally; callers solving
    /// at many time points should build one [`GeneratorMatrix`] and call
    /// [`transient`] directly.
    ///
    /// # Errors
    ///
    /// See [`transient`].
    pub fn transient(&self, t: f64, epsilon: f64) -> Result<TransientSolution, CmeError> {
        let generator = GeneratorMatrix::from_space(self);
        let mut initial = vec![0.0; self.len()];
        initial[self.initial_index()] = 1.0;
        transient(&generator, &initial, t, epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::PopulationBounds;
    use crn::Crn;

    fn space_of(text: &str, counts: &[(&str, u64)], cap: u64) -> (Crn, StateSpace) {
        let crn: Crn = text.parse().unwrap();
        let initial = crn.state_from_counts(counts.iter().copied()).unwrap();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(cap)).unwrap();
        (crn, space)
    }

    #[test]
    fn single_molecule_decay_matches_the_exponential_law() {
        let (crn, space) = space_of("a -> 0 @ 2", &[("a", 1)], 1);
        let a = crn.species_id("a").unwrap();
        for t in [0.1, 0.5, 1.0, 2.0] {
            let solution = space.transient(t, 1e-12).unwrap();
            let survival = space.probability_where(&solution.probabilities, |s| s.count(a) == 1);
            let exact = (-2.0f64 * t).exp();
            assert!(
                (survival - exact).abs() < 1e-9,
                "t = {t}: {survival} vs {exact}"
            );
        }
    }

    #[test]
    fn two_state_isomerisation_matches_the_closed_form() {
        // One molecule hopping a <-> b with rates k1, k2: P(b at t) follows
        // the standard two-state relaxation law.
        let (k1, k2) = (1.5f64, 0.5f64);
        let crn: Crn = format!("a -> b @ {k1}\nb -> a @ {k2}").parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(1)).unwrap();
        let b = crn.species_id("b").unwrap();
        for t in [0.05, 0.3, 1.0, 4.0] {
            let solution = space.transient(t, 1e-13).unwrap();
            let p_b = space.probability_where(&solution.probabilities, |s| s.count(b) == 1);
            let total = k1 + k2;
            let exact = k1 / total * (1.0 - (-total * t).exp());
            assert!((p_b - exact).abs() < 1e-9, "t = {t}: {p_b} vs {exact}");
        }
    }

    #[test]
    fn probabilities_stay_normalised_on_closed_systems() {
        let (_, space) = space_of("a -> b @ 1\nb -> a @ 2", &[("a", 20)], 20);
        let solution = space.transient(3.0, 1e-10).unwrap();
        let sum: f64 = solution.probabilities.iter().sum();
        assert!(solution.probabilities.iter().all(|&p| p >= 0.0));
        assert!((sum - 1.0).abs() <= solution.truncation_error + 1e-12);
        assert!(solution.truncation_error <= 1e-10);
        assert_eq!(solution.leaked, 0.0);
        assert!(solution.terms > 1);
    }

    #[test]
    fn truncated_birth_death_reports_leak() {
        // Aggressive truncation of a birth process: a visible fraction of
        // the mass escapes the window, and it is reported, not hidden.
        let crn: Crn = "0 -> a @ 3".parse().unwrap();
        let space =
            StateSpace::enumerate(&crn, &crn.zero_state(), &PopulationBounds::truncating(4))
                .unwrap();
        let solution = space.transient(2.0, 1e-12).unwrap();
        let sum: f64 = solution.probabilities.iter().sum();
        // Poisson(6) mass beyond 4 is substantial.
        assert!(solution.leaked > 0.5, "leaked {}", solution.leaked);
        assert!(
            (sum + solution.leaked + solution.truncation_error - 1.0).abs() < 1e-9,
            "mass accounting: sum {sum}, leaked {}, tail {}",
            solution.leaked,
            solution.truncation_error
        );
    }

    #[test]
    fn time_zero_returns_the_initial_distribution() {
        let (_, space) = space_of("a -> b @ 1", &[("a", 3)], 3);
        let solution = space.transient(0.0, 1e-12).unwrap();
        assert_eq!(solution.probabilities[0], 1.0);
        assert_eq!(solution.truncation_error, 0.0);
    }

    #[test]
    fn absorbing_only_space_is_stationary() {
        // A single state with no reactions enabled: Λ = 0.
        let crn: Crn = "a + b -> 0 @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(1)).unwrap();
        let solution = space.transient(10.0, 1e-12).unwrap();
        assert_eq!(solution.probabilities, vec![1.0]);
        assert_eq!(solution.uniformization_rate, 0.0);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (_, space) = space_of("a -> b @ 1", &[("a", 1)], 1);
        let generator = GeneratorMatrix::from_space(&space);
        assert!(transient(&generator, &[1.0], 1.0, 1e-9).is_err()); // wrong length
        assert!(transient(&generator, &[0.5, 0.2], 1.0, 1e-9).is_err()); // not normalised
        assert!(transient(&generator, &[-0.5, 1.5], 1.0, 1e-9).is_err()); // negative
        assert!(transient(&generator, &[1.0, 0.0], -1.0, 1e-9).is_err()); // negative time
        assert!(transient(&generator, &[1.0, 0.0], 1.0, 0.0).is_err()); // zero tolerance
        assert!(transient(&generator, &[1.0, 0.0], f64::NAN, 1e-9).is_err());
    }

    #[test]
    fn large_rate_time_does_not_underflow() {
        // Λt ≈ 800 would underflow e^{−Λt} in naive linear-space weights.
        let (crn, space) = space_of("a -> b @ 1\nb -> a @ 1", &[("a", 400)], 400);
        let solution = space.transient(2.0, 1e-8).unwrap();
        let sum: f64 = solution.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-7, "sum {sum}");
        let b = crn.species_id("b").unwrap();
        // The mean relaxes as 200·(1 − e^{−2t}): 196.337 at t = 2.
        let mean = space.expectation(&solution.probabilities, b);
        let exact = 200.0 * (1.0 - (-4.0f64).exp());
        assert!((mean - exact).abs() < 1e-4, "mean {mean} vs {exact}");
    }

    #[test]
    fn unbounded_time_horizons_are_refused_before_any_work() {
        let (_, space) = space_of("a -> b @ 1\nb -> a @ 1", &[("a", 1)], 1);
        let started = std::time::Instant::now();
        let err = space.transient(1e12, 1e-12).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        match err {
            CmeError::SeriesBudgetExceeded {
                rate_time, budget, ..
            } => {
                assert_eq!(rate_time, 1e12);
                assert_eq!(budget, SERIES_WORK_BUDGET);
            }
            other => panic!("expected a series-budget error, got {other}"),
        }
    }

    /// The uniformization loop the kernel replaced, kept as its reference:
    /// a push-style `v·P` with one division per nonzero, every term
    /// accumulated, and the leak taken as `1 − Σ jump` over all states.
    fn reference(
        generator: &GeneratorMatrix,
        initial: &[f64],
        t: f64,
        epsilon: f64,
    ) -> TransientSolution {
        let n = generator.dimension();
        let lambda = generator.uniformization_rate();
        let rate_time = lambda * t;
        if rate_time == 0.0 {
            return TransientSolution {
                probabilities: initial.to_vec(),
                truncation_error: 0.0,
                leaked: 0.0,
                terms: 1,
                uniformization_rate: lambda,
            };
        }
        let k_max = (rate_time + 12.0 * (rate_time + 1.0).sqrt() + 64.0) as usize;
        let ln_rate_time = rate_time.ln();
        let lossless = (0..n).all(|i| generator.leak_rate(i) == 0.0);
        let mut jump = initial.to_vec();
        let mut next = vec![0.0; n];
        let mut accumulated = vec![0.0; n];
        let (mut weight_sum, mut leaked, mut terms) = (0.0f64, 0.0f64, 0usize);
        for k in 0..=k_max {
            let w = (k as f64 * ln_rate_time - rate_time - ln_gamma(k as f64 + 1.0)).exp();
            for (acc, &p) in accumulated.iter_mut().zip(&jump) {
                *acc += w * p;
            }
            leaked += w * (1.0 - jump.iter().sum::<f64>());
            weight_sum += w;
            terms = k + 1;
            if weight_sum >= 1.0 - epsilon {
                break;
            }
            next.copy_from_slice(&jump);
            for (i, &vi) in jump.iter().enumerate() {
                if vi == 0.0 {
                    continue;
                }
                for (j, q) in generator.row(i) {
                    next[j] += vi * q / lambda;
                }
            }
            std::mem::swap(&mut jump, &mut next);
        }
        TransientSolution {
            probabilities: accumulated,
            truncation_error: (1.0 - weight_sum).max(0.0),
            leaked: if lossless { 0.0 } else { leaked.max(0.0) },
            terms,
            uniformization_rate: lambda,
        }
    }

    /// Checks one solve against the reference: entries within 1e-12, the
    /// same term count, `Σp + leaked + truncation_error` equal to the
    /// initial mass, and the truncation error within the tolerance.
    fn assert_matches_reference(
        generator: &GeneratorMatrix,
        initial: &[f64],
        t: f64,
        epsilon: f64,
    ) -> (TransientSolution, f64) {
        let mass: f64 = initial.iter().sum();
        let (solution, flushed) = series(generator, initial, mass, t, epsilon).unwrap();
        let expected = reference(generator, initial, t, epsilon);
        assert_eq!(solution.terms, expected.terms, "t = {t}");
        for (i, (p, q)) in solution
            .probabilities
            .iter()
            .zip(&expected.probabilities)
            .enumerate()
        {
            assert!((p - q).abs() <= 1e-12, "state {i}: {p:e} vs {q:e}");
        }
        let sum: f64 = solution.probabilities.iter().sum();
        let books = sum + solution.leaked + solution.truncation_error;
        assert!(
            (books - mass).abs() <= 1e-12,
            "Σp {sum}, leaked {:e}, tail {:e}, initial mass {mass}",
            solution.leaked,
            solution.truncation_error
        );
        // The weight test stops the series at 1 − ε, unless rounding in the
        // ln_gamma weights keeps their sum short of it up to the term cap
        // (ε = 1e-12 at Λt ≈ 1500 does); the reference then reports the
        // same shortfall.
        let rate_time = solution.uniformization_rate * t;
        let cap = (rate_time + 12.0 * (rate_time + 1.0).sqrt() + 64.0) as usize + 1;
        let bound = if solution.terms < cap {
            epsilon
        } else {
            expected.truncation_error
        };
        assert!(
            solution.truncation_error <= bound + 1e-15,
            "tail {:e} above {bound:e} (ε = {epsilon:e}) after {} terms at Λt = {rate_time}",
            solution.truncation_error,
            solution.terms,
        );
        assert!(solution.probabilities.iter().all(|&p| p >= 0.0));
        (solution, flushed)
    }

    proptest::proptest! {
        /// The kernel reproduces the reference loop on reversible,
        /// dimerising and birth–death networks, under strict and truncating
        /// bounds, from point masses and sub-stochastic vectors alike.
        #[test]
        fn kernel_matches_the_reference_loop(
            network in 0u32..3,
            truncate in 0u32..2,
            k1 in 0.05f64..20.0,
            k2 in 0.05f64..20.0,
            n in 2u64..24,
            t in 0.0f64..5.0,
            sub_stochastic in 0u32..2,
            exponent in 6i32..13,
        ) {
            let (text, initial): (String, &[(&str, u64)]) = match network {
                0 => (format!("a -> b @ {k1}\nb -> a @ {k2}"), &[("a", n)]),
                1 => (format!("2 a -> b @ {}\nb -> 2 a @ {k2}", k1 / 10.0), &[("a", n)]),
                _ => (format!("0 -> a @ {}\na -> 0 @ {k2}", k1 * 2.0), &[]),
            };
            let crn: Crn = text.parse().unwrap();
            let start = crn.state_from_counts(initial.iter().copied()).unwrap();
            // Birth–death escapes any cap, so it only runs truncated; the
            // closed networks leak when `b` is capped below its reach.
            let bounds = match (network, truncate) {
                (2, _) => PopulationBounds::truncating(n),
                (_, 0) => PopulationBounds::strict(n),
                _ => PopulationBounds::truncating(n).cap("b", n / 3),
            };
            let space = StateSpace::enumerate(&crn, &start, &bounds).unwrap();
            let generator = GeneratorMatrix::from_space(&space);
            let mut p0 = vec![0.0; space.len()];
            if sub_stochastic == 1 {
                // Mass at both ends of the index range, 0.8 in total.
                let last = space.len() - 1;
                p0[0] += 0.5;
                p0[last] += 0.3;
            } else {
                p0[0] = 1.0;
            }
            assert_matches_reference(&generator, &p0, t, 10f64.powi(-exponent));
        }
    }

    #[test]
    fn underflowing_far_states_are_flushed_into_the_truncation_error() {
        // The benchmark's birth–death transient at its largest cap: the
        // mass sits near a = 64, so states far up the 1025-state window
        // underflow, and Λt = 2176 puts the first ~400 Poisson weights
        // below the smallest normal number.
        let crn: Crn = "0 -> a @ 128\na -> 0 @ 2".parse().unwrap();
        let initial = crn.state_from_counts([("a", 64)]).unwrap();
        let space =
            StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(1024)).unwrap();
        let generator = GeneratorMatrix::from_space(&space);
        let mut p0 = vec![0.0; space.len()];
        p0[space.initial_index()] = 1.0;
        let (solution, flushed) = assert_matches_reference(&generator, &p0, 1.0, 1e-10);
        // Mass was flushed, it is part of the reported truncation error, and
        // the states it came from are reported as exactly zero.
        assert!(flushed > 0.0 && flushed < 1e-300, "flushed {flushed:e}");
        assert!(solution.truncation_error >= flushed);
        let a = crn.species_id("a").unwrap();
        let far = space.index_of(&crn.state_from_counts([("a", 1024)]).unwrap());
        assert_eq!(solution.probabilities[far.unwrap()], 0.0);
        assert!(space.marginal(&solution.probabilities, a)[64] > 0.0);
    }
}
