//! Uniformization: the transient CME solution `p(t) = p(0)·e^{Qt}`.

use std::ops::Range;

use crate::error::CmeError;
use crate::generator::{GeneratorMatrix, JumpStructure};
use crate::space::StateSpace;

/// Upper bound on the work of one uniformization series, in Poisson terms
/// times generator nonzeros. A series costs about `Λt` terms, so an
/// unbounded time horizon would pin a worker for hours; solves predicted to
/// exceed this at the generator's own rate `Λ` are refused with
/// [`CmeError::SeriesBudgetExceeded`] before any work is done. The largest
/// solve in the repository's tests, examples and benchmarks predicts about
/// 1.5e7.
const SERIES_WORK_BUDGET: f64 = 1e9;

/// Each retry of a mass-following solve raises its rate by this factor, and
/// a rate within this factor of `Λ` is replaced by `Λ` itself.
const RATE_STEP: f64 = 1.5;

/// The share of the tolerance that the floor may flush over a whole
/// series: 2⁻³⁰.
const FLOOR_SHARE: f64 = 1.0 / (1u64 << 30) as f64;

/// The transient solution of the CME at one time point, with explicit error
/// accounting: `Σ probabilities = 1 − truncation_error − leaked` (for a
/// sub-stochastic initial vector, its mass in place of 1).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolution {
    /// Probability of each retained state at time `t`, in state-space index
    /// order. Each entry is a lower bound on the exact one, up to rounding.
    pub probabilities: Vec<f64>,
    /// Mass the solve did not accumulate: the Poisson right tail beyond the
    /// last term and the far left-tail weights below `f64::MIN_POSITIVE`,
    /// the jump entries flushed below the floor, and the mass the series
    /// sent to states faster than its rate (each weighted by the terms that
    /// would have carried it). At most the requested tolerance, unless that
    /// is below about 1e-290, where the floor stops at `f64::MIN_POSITIVE`.
    pub truncation_error: f64,
    /// Probability mass that left the retained window through
    /// finite-state-projection truncation, taken from the leaking rows
    /// alone (exactly 0 when no state leaks, as under strict bounds).
    pub leaked: f64,
    /// Number of Poisson terms (uniformized jumps) accumulated.
    pub terms: usize,
    /// The uniformization rate the solve used: the mass-following rate
    /// `Λ'` it accepted, which is at most the generator's
    /// [`uniformization_rate`](GeneratorMatrix::uniformization_rate) `Λ`.
    pub uniformization_rate: f64,
}

/// Solves `p(t) = p(0)·e^{Qt}` by uniformization: with a rate `Λ'` and
/// `P' = I + Q_A/Λ'`, where `Q_A` keeps the states `A` whose exit rate is at
/// most `Λ'`,
///
/// ```text
/// p(t) = Σ_k  e^{−Λ't} (Λ't)^k / k!  ·  p(0)·P'^k
/// ```
///
/// truncated once the Poisson weight beyond the last term is within the
/// tolerance. The rate follows the mass:
///
/// - The series first runs at `Λ'`, the largest exit rate on the initial
///   support. Mass a jump would send to a state outside `A` is dropped and
///   booked in the truncation error, so the result stays a componentwise
///   lower bound on the exact solution (a finite-state projection). The
///   Poisson tail gets half the tolerance and the dropped mass the other
///   half; once the dropped mass passes its half, the solve starts over at
///   `1.5·Λ'`.
/// - A rate within 1.5× of `Λ = max_i |q_ii|` is replaced by `Λ` itself,
///   where no state is excluded and the whole tolerance goes to the tail.
///   So every solve terminates.
///
/// Jump entries below a floor, `ε·2⁻³⁰` shared over every entry of every
/// jump (and never below `f64::MIN_POSITIVE`), are flushed to zero and
/// booked in the truncation error too, so each jump only visits the index
/// window that holds mass. The Poisson weights come from the ratio
/// recurrence outward from the mode, normalised over the term range, and
/// the tail beyond the last term is summed directly, so the reported
/// truncation error stays within the tolerance at any `Λ't`. The
/// solution's [`TransientSolution::truncation_error`] reports everything
/// the solve did not accumulate, and `Σp + leaked + truncation_error`
/// equals the initial mass.
///
/// # Errors
///
/// Returns [`CmeError::InvalidInput`] if `initial` is not a probability
/// vector of matching dimension, or `t`/`epsilon` are not finite and
/// non-negative (`epsilon` must also be positive), and
/// [`CmeError::SeriesBudgetExceeded`] if the series at `Λ` would need more
/// than a fixed budget of term × nonzero products.
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
    let lambda = generator.uniformization_rate();
    if lambda * t == 0.0 {
        // No transitions can fire (or t = 0): the distribution is unchanged.
        return Ok(unchanged(initial.to_vec(), 0.0, lambda));
    }
    let series = Series::new(generator, initial, mass, t, epsilon)?;
    let mut rate = series.starting_rate();
    loop {
        if rate * RATE_STEP >= lambda {
            let (solution, _) = series.run(lambda).expect("no state is excluded at Λ");
            return Ok(solution);
        }
        if let Some((solution, _)) = series.run(rate) {
            return Ok(solution);
        }
        rate *= RATE_STEP;
    }
}

/// The solution that keeps `probabilities`: nothing fired.
fn unchanged(probabilities: Vec<f64>, truncation_error: f64, rate: f64) -> TransientSolution {
    TransientSolution {
        probabilities,
        truncation_error,
        leaked: 0.0,
        terms: 1,
        uniformization_rate: rate,
    }
}

/// Enough terms to cover the Poisson(`rate_time`) bulk plus a deep tail;
/// the mass beyond is far below any tolerance.
fn term_bound(rate_time: f64) -> f64 {
    rate_time + 12.0 * (rate_time + 1.0).sqrt() + 64.0
}

/// One validated transient solve, ready to run at any rate: the jump
/// structure, the start vector with its entries below the floor flushed,
/// and the tolerance.
struct Series {
    structure: JumpStructure,
    /// The initial vector, zero below the floor.
    start: Vec<f64>,
    /// The index range holding every nonzero of `start`.
    window: Range<usize>,
    /// The initial vector's mass, flushed entries included.
    mass: f64,
    /// The mass flushed from the initial vector.
    flushed: f64,
    t: f64,
    epsilon: f64,
    floor: f64,
    /// The generator's uniformization rate `Λ`.
    lambda: f64,
}

impl Series {
    /// Prepares the solve, refusing it if its series at `Λ` would exceed
    /// the work budget. `Λt` must be positive.
    fn new(
        generator: &GeneratorMatrix,
        initial: &[f64],
        mass: f64,
        t: f64,
        epsilon: f64,
    ) -> Result<Series, CmeError> {
        let lambda = generator.uniformization_rate();
        let rate_time = lambda * t;
        let term_bound = term_bound(rate_time);
        let work = term_bound * generator.nnz() as f64;
        if work > SERIES_WORK_BUDGET {
            return Err(CmeError::SeriesBudgetExceeded {
                rate_time,
                work,
                budget: SERIES_WORK_BUDGET,
            });
        }
        // A series flushes the start and at most `term_bound` jumps, each
        // of at most `n` entries below the floor: less than ε·2⁻³⁰ in all,
        // at any rate up to `Λ`.
        let n = generator.dimension() as f64;
        let floor =
            (epsilon * FLOOR_SHARE / (n * (term_bound.floor() + 1.0))).max(f64::MIN_POSITIVE);
        let mut start = initial.to_vec();
        let mut flushed = 0.0f64;
        for p in &mut start {
            if *p < floor {
                flushed += *p;
                *p = 0.0;
            }
        }
        let nonzero = |p: &f64| *p > 0.0;
        let window = match (
            start.iter().position(nonzero),
            start.iter().rposition(nonzero),
        ) {
            (Some(first), Some(last)) => first..last + 1,
            _ => 0..0,
        };
        Ok(Series {
            structure: generator.jump_structure(),
            start,
            window,
            mass,
            flushed,
            t,
            epsilon,
            floor,
            lambda,
        })
    }

    /// The largest exit rate among the states the start vector holds.
    fn starting_rate(&self) -> f64 {
        self.window
            .clone()
            .filter(|&i| self.start[i] > 0.0)
            .map(|i| self.structure.exit_rate(i))
            .fold(0.0, f64::max)
    }

    /// Sums the series at `rate` on the generator restricted to the states
    /// whose exit rate is at most `rate`. Returns the solution and the part
    /// of its truncation error that flushed and excluded mass contributed,
    /// or `None` once the mass sent outside the accepted states passes its
    /// share of the tolerance. At `rate = Λ` every state is accepted, so
    /// that series always completes.
    fn run(&self, rate: f64) -> Option<(TransientSolution, f64)> {
        let rate_time = rate * self.t;
        if rate_time == 0.0 {
            // Every state holding mass is absorbing.
            return Some((
                unchanged(self.start.clone(), self.flushed, rate),
                self.flushed,
            ));
        }
        // The floor may flush ε·2⁻³⁰; reserving twice that keeps the sum
        // of the three parts, rounding included, within ε.
        let reserve = 2.0 * self.epsilon * FLOOR_SHARE;
        let (tail, exclusion) = if rate < self.lambda {
            (self.epsilon / 2.0, self.epsilon / 2.0 - reserve)
        } else {
            (self.epsilon - reserve, f64::INFINITY)
        };
        let weights = PoissonWeights::new(rate_time, term_bound(rate_time) as usize);
        let (last, outside) = weights.stop(tail);
        let matrix = self.structure.uniformized(rate);

        let n = self.start.len();
        // `jump` is p(0)·P'^k and every nonzero of it lies in `window`;
        // `next` still holds the jump before it, whose nonzeros lie in
        // `stale`.
        let mut jump = self.start.clone();
        let mut window = self.window.clone();
        let mut stale = 0..0;
        let mut next = vec![0.0; n];
        let mut accumulated = vec![0.0; n];
        // Mass the jumps so far lost through leak, and through the floor
        // and exclusion. With no leaking row `lost` stays exactly zero, so
        // `leaked` does too.
        let (mut lost, mut gone, mut excluded) = (0.0f64, self.flushed, 0.0f64);
        let (mut leaked, mut dropped) = (0.0f64, 0.0f64);
        for k in 0..=last {
            let w = weights.weight(k);
            if w > 0.0 {
                for (acc, &p) in accumulated[window.clone()]
                    .iter_mut()
                    .zip(&jump[window.clone()])
                {
                    *acc += w * p;
                }
                leaked += w * lost;
                dropped += w * gone;
            }
            if k == last {
                break;
            }
            lost += matrix.leak_loss(&jump);
            let sent = matrix.excluded(&jump);
            excluded += sent;
            if excluded > exclusion {
                return None;
            }
            next[stale].fill(0.0);
            let (reached, flushed) = matrix.jump(&jump, window.clone(), self.floor, &mut next);
            gone += flushed + sent;
            stale = std::mem::replace(&mut window, reached);
            std::mem::swap(&mut jump, &mut next);
        }

        // Every jump carries at most the initial mass, so the unsummed
        // weight times that mass bounds the tail; the flushed and excluded
        // mass is already weighted.
        let solution = TransientSolution {
            probabilities: accumulated,
            truncation_error: self.mass * outside + dropped,
            leaked,
            terms: last + 1,
            uniformization_rate: rate,
        };
        Some((solution, dropped))
    }
}

/// The Poisson(`λt`) weights of series terms `0..=k_max`, normalised over
/// that range (what lies beyond it is far below any tolerance).
///
/// They come from the ratio recurrence `w_{k+1}/w_k = λt/(k + 1)`, outward
/// from the mode until they underflow, so each carries a relative error of
/// about one rounding per step from the mode, and their sum is 1 to within
/// rounding. Weights that normalise below `f64::MIN_POSITIVE` (the far left
/// tail when `λt` is large) are skipped.
struct PoissonWeights {
    /// The first term whose weight is kept.
    first: usize,
    /// The weights of terms `first..`.
    weights: Vec<f64>,
    /// The total weight of the skipped terms before `first`.
    skipped: f64,
}

impl PoissonWeights {
    fn new(rate_time: f64, k_max: usize) -> PoissonWeights {
        let mode = (rate_time as usize).min(k_max);
        // Weights relative to the mode's, left of it first, nearest last.
        let mut weights = Vec::new();
        let mut w = 1.0f64;
        for k in (1..=mode).rev() {
            w *= k as f64 / rate_time;
            if w < f64::MIN_POSITIVE {
                break;
            }
            weights.push(w);
        }
        let first = mode - weights.len();
        weights.reverse();
        weights.push(1.0);
        w = 1.0;
        for k in mode + 1..=k_max {
            w *= rate_time / k as f64;
            if w < f64::MIN_POSITIVE {
                break;
            }
            weights.push(w);
        }
        // Summed from the right: the tail adds up smallest first.
        let total: f64 = weights.iter().rev().sum();
        for w in &mut weights {
            *w /= total;
        }
        let skip = weights
            .iter()
            .take_while(|&&w| w < f64::MIN_POSITIVE)
            .count();
        let skipped = weights.drain(..skip).sum();
        PoissonWeights {
            first: first + skip,
            weights,
            skipped,
        }
    }

    /// The weight of term `k`.
    fn weight(&self, k: usize) -> f64 {
        k.checked_sub(self.first).map_or(0.0, |i| self.weights[i])
    }

    /// The last term a series with Poisson tail `tail` must sum, and the
    /// weight of every term it leaves out: the skipped left tail and the
    /// terms after it, summed smallest first.
    fn stop(&self, tail: f64) -> (usize, f64) {
        let mut beyond = 0.0f64;
        for (i, &w) in self.weights.iter().enumerate().skip(1).rev() {
            if beyond + w > tail {
                return (self.first + i, beyond + self.skipped);
            }
            beyond += w;
        }
        (self.first, beyond + self.skipped)
    }
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
    fn poisson_weights_match_the_closed_form() {
        // Log-space weights, e^{k·ln λt − λt − lnΓ(k+1)}: accurate to about
        // 1e-12 relative each, and tail sums of them just as accurate.
        let closed = |rate_time: f64, k: usize| {
            let k = k as f64;
            (k * rate_time.ln() - rate_time - numerics::ln_gamma(k + 1.0)).exp()
        };
        for rate_time in [1e-3, 0.5, 3.0, 100.0, 2400.0] {
            let k_max = term_bound(rate_time) as usize;
            let weights = PoissonWeights::new(rate_time, k_max);
            let total: f64 = weights.skipped + weights.weights.iter().sum::<f64>();
            assert!(
                (total - 1.0).abs() < 1e-14,
                "λt = {rate_time}: Σw = {total}"
            );
            for (k, &w) in (weights.first..).zip(&weights.weights) {
                let exact = closed(rate_time, k);
                assert!(
                    (w - exact).abs() <= 1e-11 * exact,
                    "λt = {rate_time}, k = {k}"
                );
            }
            for tail in [1e-6, 1e-10, 1e-15] {
                let (last, outside) = weights.stop(tail);
                let exact: f64 = (last + 1..=k_max).map(|k| closed(rate_time, k)).sum();
                assert!(outside <= tail && outside + weights.weight(last) > tail);
                assert!(
                    (outside - exact).abs() <= 1e-9 * exact + 1e-300,
                    "λt = {rate_time}, tail {tail:e}: {outside:e} vs {exact:e}"
                );
            }
        }
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
    /// a push-style `v·P` at the generator's rate `Λ` with one division per
    /// nonzero, every term accumulated, and the leak taken as `1 − Σ jump`
    /// over all states. It takes its Poisson weights and its last term
    /// from the kernel's [`PoissonWeights`].
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
            return unchanged(initial.to_vec(), 0.0, lambda);
        }
        let weights = PoissonWeights::new(rate_time, term_bound(rate_time) as usize);
        let (last, outside) = weights.stop(epsilon);
        let lossless = (0..n).all(|i| generator.leak_rate(i) == 0.0);
        let mut jump = initial.to_vec();
        let mut next = vec![0.0; n];
        let mut accumulated = vec![0.0; n];
        let mut leaked = 0.0f64;
        for k in 0..=last {
            let w = weights.weight(k);
            for (acc, &p) in accumulated.iter_mut().zip(&jump) {
                *acc += w * p;
            }
            leaked += w * (1.0 - jump.iter().sum::<f64>());
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
            truncation_error: outside,
            leaked: if lossless { 0.0 } else { leaked.max(0.0) },
            terms: last + 1,
            uniformization_rate: lambda,
        }
    }

    /// The kernel pinned to the generator's rate `Λ`: the floor, but no
    /// mass-following rate. Returns the solution and the part of its
    /// truncation error that flushed mass contributed.
    fn pinned(
        generator: &GeneratorMatrix,
        initial: &[f64],
        t: f64,
        epsilon: f64,
    ) -> (TransientSolution, f64) {
        let lambda = generator.uniformization_rate();
        if lambda * t == 0.0 {
            return (unchanged(initial.to_vec(), 0.0, lambda), 0.0);
        }
        let mass: f64 = initial.iter().sum();
        Series::new(generator, initial, mass, t, epsilon)
            .unwrap()
            .run(lambda)
            .unwrap()
    }

    /// Checks that `Σp + leaked + truncation_error` equals the initial
    /// mass, that the truncation error is within the tolerance and that no
    /// entry is negative.
    fn assert_books_close(solution: &TransientSolution, mass: f64, epsilon: f64) {
        let sum: f64 = solution.probabilities.iter().sum();
        let books = sum + solution.leaked + solution.truncation_error;
        assert!(
            (books - mass).abs() <= 1e-12,
            "Σp {sum}, leaked {:e}, tail {:e}, initial mass {mass}",
            solution.leaked,
            solution.truncation_error
        );
        assert!(
            solution.truncation_error <= epsilon,
            "tail {:e} above ε = {epsilon:e} after {} terms at Λ' = {}",
            solution.truncation_error,
            solution.terms,
            solution.uniformization_rate
        );
        assert!(solution.probabilities.iter().all(|&p| p >= 0.0));
    }

    /// Checks the pinned kernel against the reference: entries within
    /// 1e-12, the same term count, closed books and the truncation error
    /// within the tolerance.
    fn assert_matches_reference(
        generator: &GeneratorMatrix,
        initial: &[f64],
        t: f64,
        epsilon: f64,
    ) -> (TransientSolution, f64) {
        let mass: f64 = initial.iter().sum();
        let (solution, flushed) = pinned(generator, initial, t, epsilon);
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
        assert_books_close(&solution, mass, epsilon);
        (solution, flushed)
    }

    /// The generated networks of both properties: reversible, dimerising
    /// and birth–death, under strict and truncating bounds, from a point
    /// mass or a sub-stochastic vector (0.8 in total, at both ends of the
    /// index range).
    fn generated(
        network: u32,
        truncate: u32,
        k1: f64,
        k2: f64,
        n: u64,
        sub_stochastic: u32,
    ) -> (GeneratorMatrix, Vec<f64>) {
        let (text, initial): (String, &[(&str, u64)]) = match network {
            0 => (format!("a -> b @ {k1}\nb -> a @ {k2}"), &[("a", n)]),
            1 => (
                format!("2 a -> b @ {}\nb -> 2 a @ {k2}", k1 / 10.0),
                &[("a", n)],
            ),
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
        let mut p0 = vec![0.0; space.len()];
        if sub_stochastic == 1 {
            let last = space.len() - 1;
            p0[0] += 0.5;
            p0[last] += 0.3;
        } else {
            p0[0] = 1.0;
        }
        (GeneratorMatrix::from_space(&space), p0)
    }

    proptest::proptest! {
        /// The kernel at the generator's rate reproduces the reference loop
        /// on reversible, dimerising and birth–death networks, under strict
        /// and truncating bounds, from point masses and sub-stochastic
        /// vectors alike.
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
            let (generator, p0) = generated(network, truncate, k1, k2, n, sub_stochastic);
            assert_matches_reference(&generator, &p0, t, 10f64.powi(-exponent));
        }

        /// The mass-following kernel agrees with the reference loop at
        /// ε = 1e-15 to within its own reported truncation error, on the
        /// networks above, on birth–death chains up to cap 256 (where the
        /// mass stays far below the fastest states) and on a drift network
        /// whose mass crosses the whole space (where restricted attempts
        /// fail and the rate is raised).
        #[test]
        fn mass_following_kernel_stays_within_its_truncation_error(
            network in 0u32..5,
            truncate in 0u32..2,
            k1 in 0.05f64..20.0,
            k2 in 0.05f64..20.0,
            n in 2u64..24,
            cap in 16u64..257,
            t in 0.0f64..5.0,
            sub_stochastic in 0u32..2,
        ) {
            let epsilon = 1e-15;
            let (generator, p0) = match network {
                0..=2 => generated(network, truncate, k1, k2, n, sub_stochastic),
                _ => {
                    // Birth–death from its stationary mean, or a drift from
                    // zero towards a mean beyond the cap.
                    let (text, start) = if network == 3 {
                        let mean = (cap / 16).max(1);
                        (format!("0 -> a @ {}\na -> 0 @ {k2}", mean as f64 * k2), mean)
                    } else {
                        (format!("0 -> a @ {}\na -> 0 @ {k1}", 1.25 * cap as f64 * k1), 0)
                    };
                    let crn: Crn = text.parse().unwrap();
                    let initial = crn.state_from_counts([("a", start)]).unwrap();
                    let space = StateSpace::enumerate(
                        &crn,
                        &initial,
                        &PopulationBounds::truncating(cap),
                    )
                    .unwrap();
                    let mut p0 = vec![0.0; space.len()];
                    if sub_stochastic == 1 {
                        p0[0] = 0.6;
                        p0[space.len() / 2] += 0.2;
                    } else {
                        p0[0] = 1.0;
                    }
                    (GeneratorMatrix::from_space(&space), p0)
                }
            };
            let mass: f64 = p0.iter().sum();
            let solution = transient_substochastic(&generator, &p0, t, epsilon).unwrap();
            let expected = reference(&generator, &p0, t, epsilon);
            let distance: f64 = solution
                .probabilities
                .iter()
                .zip(&expected.probabilities)
                .map(|(p, q)| (p - q).abs())
                .sum();
            assert!(
                distance <= solution.truncation_error + 1e-12,
                "L1 {distance:e} beyond the truncation error {:e} at Λ' = {} (Λ = {})",
                solution.truncation_error,
                solution.uniformization_rate,
                generator.uniformization_rate()
            );
            assert_books_close(&solution, mass, epsilon);
            assert!(solution.uniformization_rate <= generator.uniformization_rate());
        }
    }

    #[test]
    fn the_rate_follows_the_mass_and_retries_when_it_moves_away() {
        // The benchmark's birth–death chain: the mass stays near a = 64,
        // where the exit rate is 256, far below Λ = 2176 at the cap.
        let crn: Crn = "0 -> a @ 128\na -> 0 @ 2".parse().unwrap();
        let initial = crn.state_from_counts([("a", 64)]).unwrap();
        let space =
            StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(1024)).unwrap();
        let generator = GeneratorMatrix::from_space(&space);
        let mut p0 = vec![0.0; space.len()];
        p0[space.initial_index()] = 1.0;
        let followed = transient(&generator, &p0, 1.0, 1e-10).unwrap();
        let (full, _) = pinned(&generator, &p0, 1.0, 1e-10);
        assert_eq!(generator.uniformization_rate(), 2176.0);
        assert!(followed.uniformization_rate < 1000.0);
        assert!(followed.terms < full.terms / 2);
        assert_books_close(&followed, 1.0, 1e-10);
        let distance: f64 = followed
            .probabilities
            .iter()
            .zip(&full.probabilities)
            .map(|(p, q)| (p - q).abs())
            .sum();
        assert!(distance <= followed.truncation_error + full.truncation_error + 1e-12);

        // A drift from a = 0 towards a mean past the cap: the mass crosses
        // every state, so the restricted attempt fails and the solve runs
        // at Λ.
        let crn: Crn = "0 -> a @ 1000\na -> 0 @ 1".parse().unwrap();
        let space =
            StateSpace::enumerate(&crn, &crn.zero_state(), &PopulationBounds::truncating(1200))
                .unwrap();
        let generator = GeneratorMatrix::from_space(&space);
        let drift = space.transient(5.0, 1e-10).unwrap();
        assert_eq!(drift.uniformization_rate, generator.uniformization_rate());
        assert_books_close(&drift, 1.0, 1e-10);
    }

    #[test]
    fn underflowing_far_states_are_flushed_into_the_truncation_error() {
        // The benchmark's birth–death transient at its largest cap: the
        // mass sits near a = 64, so states far up the 1025-state window
        // fall below the floor, and Λt = 2176 puts the first ~400 Poisson
        // weights below the smallest normal number.
        let crn: Crn = "0 -> a @ 128\na -> 0 @ 2".parse().unwrap();
        let initial = crn.state_from_counts([("a", 64)]).unwrap();
        let space =
            StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(1024)).unwrap();
        let generator = GeneratorMatrix::from_space(&space);
        let mut p0 = vec![0.0; space.len()];
        p0[space.initial_index()] = 1.0;
        let (solution, flushed) = assert_matches_reference(&generator, &p0, 1.0, 1e-10);
        // Mass was flushed, within the floor's share of the tolerance, it
        // is part of the reported truncation error, and the states it came
        // from are reported as exactly zero.
        let series = Series::new(&generator, &p0, 1.0, 1.0, 1e-10).unwrap();
        let bound = series.floor * space.len() as f64 * solution.terms as f64;
        assert!(flushed > 0.0 && flushed <= bound, "flushed {flushed:e}");
        assert!(solution.truncation_error >= flushed);
        let a = crn.species_id("a").unwrap();
        let far = (0..space.len()).find(|&i| space.state(i)[a.index()] == 1024);
        assert_eq!(solution.probabilities[far.unwrap()], 0.0);
        assert!(space.marginal(&solution.probabilities, a)[64] > 0.0);
    }
}
