//! Time-bounded probabilistic model checking over the chemical master
//! equation.
//!
//! [`Checker`] evaluates a small property language against the CTMC induced
//! by a CRN and a finite-state-projection window:
//!
//! * `P(reach A before B)` — [`Checker::reach_before`], a race between two
//!   target sets resolved by GTH elimination (via [`FirstPassage`]).
//! * `P(X_s ≥ k within [t₁, t₂])` — [`Checker::reach_within`], time-bounded
//!   reachability by uniformization with target-set absorption.
//! * Expected first-passage time — [`Checker::hitting_time`], a dense
//!   two-solve over the embedded jump chain.
//! * Stationary mass — [`Checker::stationary`], GTH stationary solve on the
//!   unique closed recurrent class.
//!
//! Every verdict is a pure function of the CRN, the initial state, and the
//! bounds, so verdicts are reproducible bit-for-bit and can be pinned as
//! goldens or cross-validated against SSA ensembles.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), cme::CmeError> {
//! use cme::{Checker, PopulationBounds};
//!
//! // A coin flip: x decays into heads at rate 3 or tails at rate 1.
//! let crn: crn::Crn = "x -> h @ 3\nx -> t @ 1".parse().expect("network");
//! let initial = crn.state_from_counts([("x", 1)]).expect("state");
//! let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
//!
//! let race = checker.reach_before_species(("h", 1), ("t", 1))?;
//! assert!((race.target - 0.75).abs() < 1e-12);
//!
//! // P(h ≥ 1 within [0, t]) = 0.75·(1 − e^{−4t}).
//! let window = checker.species_within("h", 1, (0.0, 0.5))?;
//! let exact = 0.75 * (1.0 - (-2.0f64).exp());
//! assert!((window.probability - exact).abs() < 1e-9);
//!
//! // The decision fires at rate 4, so E[T | heads] = 1/4.
//! let passage = checker.hitting_time_species("h", 1)?;
//! assert!((passage.probability - 0.75).abs() < 1e-12);
//! assert!((passage.conditional_mean.unwrap() - 0.25).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use crn::{Crn, SpeciesId, State};

use crate::bounds::PopulationBounds;
use crate::error::CmeError;
use crate::generator::GeneratorMatrix;
use crate::outcome::{strongly_connected_components, FirstPassage};
use crate::space::StateSpace;
use crate::transient::{transient, transient_substochastic};

/// Default Poisson-tail tolerance for uniformization phases.
const DEFAULT_EPSILON: f64 = 1e-12;
/// Default cap on the dense linear systems (hitting times, stationary GTH).
const DEFAULT_DENSE_LIMIT: usize = 2048;
/// Hit probabilities below this are reported as "never hits" (no mean).
const NEVER_HITS: f64 = 1e-12;

/// A probabilistic model checker bound to one CRN, initial state and
/// finite-state-projection window. See the [module docs](self) for the
/// property language and an end-to-end example.
#[derive(Debug, Clone)]
pub struct Checker<'a> {
    crn: &'a Crn,
    initial: State,
    bounds: PopulationBounds,
    epsilon: f64,
    dense_limit: usize,
}

/// Verdict of a race property `P(reach target before competitor)`.
///
/// The four fields partition the unit of probability:
/// `target + competitor + never + escaped = 1` (to solver tolerance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceVerdict {
    /// Probability the target set is reached strictly before the competitor.
    pub target: f64,
    /// Probability the competitor set is reached first.
    pub competitor: f64,
    /// Probability neither set is ever reached (the chain is trapped in a
    /// closed class that intersects neither).
    pub never: f64,
    /// Probability mass lost through finite-state-projection truncation.
    pub escaped: f64,
    /// Number of states in the enumerated space.
    pub states: usize,
}

/// Verdict of a time-window property `P(reach target within [t₁, t₂])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowVerdict {
    /// Lower bound on the probability of visiting the target set at some
    /// time in the window (exact up to `error_bound`).
    pub probability: f64,
    /// Mass unaccounted for by truncation of the uniformization series and
    /// finite-state-projection leak; the true probability lies in
    /// `[probability, probability + error_bound]`.
    pub error_bound: f64,
    /// Number of states in the enumerated space.
    pub states: usize,
    /// Total uniformization terms summed across both phases.
    pub terms: usize,
}

/// Verdict of an expected first-passage-time query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HittingTime {
    /// Probability the target set is ever reached.
    pub probability: f64,
    /// Expected hitting time conditioned on reaching the target, or `None`
    /// when the hit probability is (numerically) zero.
    pub conditional_mean: Option<f64>,
    /// Number of states in the enumerated space.
    pub states: usize,
}

/// The stationary law of the chain, supported on its unique closed
/// recurrent class.
///
/// Under [`crate::BoundaryPolicy::Truncate`] the law is that of the
/// truncation-reflected chain (the standard finite-state-projection
/// approximation); [`StationaryDistribution::boundary_mass`] reports how
/// much stationary mass sits on leaking boundary states, which bounds the
/// quality of that approximation.
#[derive(Debug, Clone)]
pub struct StationaryDistribution {
    space: StateSpace,
    probabilities: Vec<f64>,
    recurrent_states: usize,
    boundary_mass: f64,
}

impl<'a> Checker<'a> {
    /// Creates a checker for `crn` started from `initial` and explored
    /// within `bounds`.
    pub fn new(crn: &'a Crn, initial: State, bounds: PopulationBounds) -> Self {
        Checker {
            crn,
            initial,
            bounds,
            epsilon: DEFAULT_EPSILON,
            dense_limit: DEFAULT_DENSE_LIMIT,
        }
    }

    /// Overrides the Poisson-tail tolerance used by uniformization phases
    /// (default `1e-12`).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the cap on dense linear systems solved by
    /// [`hitting_time`](Self::hitting_time) and
    /// [`stationary`](Self::stationary) (default 2048 states).
    #[must_use]
    pub fn dense_limit(mut self, dense_limit: usize) -> Self {
        self.dense_limit = dense_limit;
        self
    }

    fn species(&self, name: &str) -> Result<SpeciesId, CmeError> {
        self.crn
            .species_id(name)
            .ok_or_else(|| CmeError::InvalidInput {
                message: format!("unknown species '{name}'"),
            })
    }

    /// Evaluates `P(reach target before competitor)` by exact first-passage
    /// analysis. States matching both predicates count as `target` (the
    /// first-registered outcome wins, as in [`FirstPassage`]).
    pub fn reach_before<F, G>(&self, target: F, competitor: G) -> Result<RaceVerdict, CmeError>
    where
        F: Fn(&State) -> bool,
        G: Fn(&State) -> bool,
    {
        let distribution = FirstPassage::new(self.crn)
            .outcome("target", target)
            .outcome("competitor", competitor)
            .solve(&self.initial, &self.bounds)?;
        Ok(RaceVerdict {
            target: distribution.probability("target"),
            competitor: distribution.probability("competitor"),
            never: distribution.undecided(),
            escaped: distribution.escaped(),
            states: distribution.states(),
        })
    }

    /// [`reach_before`](Self::reach_before) with threshold targets: each
    /// side is `(species, count)` and fires once the species reaches the
    /// count.
    pub fn reach_before_species(
        &self,
        target: (&str, u64),
        competitor: (&str, u64),
    ) -> Result<RaceVerdict, CmeError> {
        let a = self.species(target.0)?;
        let b = self.species(competitor.0)?;
        let (ka, kb) = (target.1, competitor.1);
        self.reach_before(|s| s.count(a) >= ka, |s| s.count(b) >= kb)
    }

    /// Evaluates `P(∃ t ∈ [t₁, t₂]: X(t) ∈ target)` by two-phase
    /// uniformization: the free chain is run to `t₁`, then the same
    /// probability vector evolves under the target-absorbed generator
    /// ([`GeneratorMatrix::from_space_absorbing`]) for `t₂ − t₁`; the mass
    /// on target states at the end is the answer. The verdict is monotone
    /// non-decreasing in `t₂` because absorbed mass never leaves.
    pub fn reach_within<F>(&self, target: F, window: (f64, f64)) -> Result<WindowVerdict, CmeError>
    where
        F: Fn(&State) -> bool,
    {
        let (t1, t2) = window;
        if !t1.is_finite() || !t2.is_finite() || t1 < 0.0 || t2 < t1 {
            return Err(CmeError::InvalidInput {
                message: format!("window [{t1}, {t2}] must be finite with 0 ≤ t1 ≤ t2"),
            });
        }
        let space = StateSpace::enumerate(self.crn, &self.initial, &self.bounds)?;
        let mut p = vec![0.0; space.len()];
        p[space.initial_index()] = 1.0;
        let mut terms = 0;
        if t1 > 0.0 {
            let free = GeneratorMatrix::from_space(&space);
            let warm = transient(&free, &p, t1, self.epsilon)?;
            terms += warm.terms;
            p = warm.probabilities;
        }
        let absorbed = GeneratorMatrix::from_space_absorbing(&space, &target);
        let solution = transient_substochastic(&absorbed, &p, t2 - t1, self.epsilon)?;
        terms += solution.terms;
        let probability = space
            .probability_where(&solution.probabilities, &target)
            .clamp(0.0, 1.0);
        let retained: f64 = solution.probabilities.iter().sum();
        Ok(WindowVerdict {
            probability,
            error_bound: (1.0 - retained).max(0.0),
            states: space.len(),
            terms,
        })
    }

    /// [`reach_within`](Self::reach_within) for the deadline window
    /// `[0, t]`.
    pub fn reach_by<F>(&self, target: F, t: f64) -> Result<WindowVerdict, CmeError>
    where
        F: Fn(&State) -> bool,
    {
        self.reach_within(target, (0.0, t))
    }

    /// Evaluates `P(X_species ≥ at_least within [t₁, t₂])`.
    pub fn species_within(
        &self,
        species: &str,
        at_least: u64,
        window: (f64, f64),
    ) -> Result<WindowVerdict, CmeError> {
        let id = self.species(species)?;
        self.reach_within(|s| s.count(id) >= at_least, window)
    }

    /// Computes the hit probability and the expected first-passage time
    /// into the target set, conditioned on hitting it.
    ///
    /// The space is enumerated with the target absorbing; over its
    /// transient states the embedded jump chain gives two dense linear
    /// systems, `(I − T)·p = hit` and `(I − T)·g = p/q`, solved by one LU
    /// factorization. Closed recurrent classes disjoint from the target are
    /// detected up front and fixed at hit probability zero. Under
    /// truncating bounds, leaked trajectories count as never hitting, so
    /// the probability is a lower bound.
    pub fn hitting_time<F>(&self, target: F) -> Result<HittingTime, CmeError>
    where
        F: Fn(&State) -> bool,
    {
        let space =
            StateSpace::enumerate_absorbing(self.crn, &self.initial, &self.bounds, &target)?;
        let n = space.len();
        if space.is_absorbing(space.initial_index()) {
            return Ok(HittingTime {
                probability: 1.0,
                conditional_mean: Some(0.0),
                states: n,
            });
        }
        let transient_idx: Vec<usize> = (0..n).filter(|&i| !space.is_absorbing(i)).collect();
        let m = transient_idx.len();
        if m > self.dense_limit {
            return Err(CmeError::InvalidInput {
                message: format!(
                    "hitting-time system has {m} transient states, above the dense limit {}",
                    self.dense_limit
                ),
            });
        }
        let mut local = vec![usize::MAX; n];
        for (row, &i) in transient_idx.iter().enumerate() {
            local[i] = row;
        }
        // States inside a closed class (or dead ends) never reach the
        // target; pin them to identity rows so `I − T` stays nonsingular.
        let locked = locked_states(&space);
        let mut a = vec![0.0; m * m];
        let mut b_hit = vec![0.0; m];
        let mut outflow = vec![0.0; m];
        for (row, &i) in transient_idx.iter().enumerate() {
            a[row * m + row] = 1.0;
            if locked[i] {
                continue;
            }
            let q = space.total_outflow(i);
            outflow[row] = q;
            if q <= 0.0 {
                continue;
            }
            for (j, rate) in space.transitions(i) {
                let jump = rate / q;
                if space.is_absorbing(j) {
                    b_hit[row] += jump;
                } else {
                    a[row * m + local[j]] -= jump;
                }
            }
        }
        let lu = DenseLu::factor(a, m)?;
        let p_hit = lu.solve(&b_hit);
        let b_time: Vec<f64> = p_hit
            .iter()
            .zip(&outflow)
            .map(|(&p, &q)| if q > 0.0 { p / q } else { 0.0 })
            .collect();
        let holding = lu.solve(&b_time);
        let row0 = local[space.initial_index()];
        let probability = p_hit[row0].clamp(0.0, 1.0);
        let conditional_mean = if probability > NEVER_HITS {
            Some((holding[row0] / p_hit[row0]).max(0.0))
        } else {
            None
        };
        Ok(HittingTime {
            probability,
            conditional_mean,
            states: n,
        })
    }

    /// [`hitting_time`](Self::hitting_time) with a threshold target:
    /// the first time `species` reaches `at_least` copies.
    pub fn hitting_time_species(
        &self,
        species: &str,
        at_least: u64,
    ) -> Result<HittingTime, CmeError> {
        let id = self.species(species)?;
        self.hitting_time(|s| s.count(id) >= at_least)
    }

    /// Computes the stationary distribution of the chain by GTH elimination
    /// over its unique closed recurrent class.
    ///
    /// Errors if the reachable space has no closed recurrent class (every
    /// class leaks out of the window) or more than one (the stationary law
    /// would depend on which class captures the chain). The GTH solve uses
    /// additions and divisions of non-negative numbers only, so the result
    /// carries no subtractive cancellation.
    pub fn stationary(&self) -> Result<StationaryDistribution, CmeError> {
        let space = StateSpace::enumerate(self.crn, &self.initial, &self.bounds)?;
        let n = space.len();
        let components = strongly_connected_components(&space);
        let mut comp_of = vec![0usize; n];
        for (c, members) in components.iter().enumerate() {
            for &i in members {
                comp_of[i] = c;
            }
        }
        let closed: Vec<usize> = components
            .iter()
            .enumerate()
            .filter(|(c, members)| {
                members
                    .iter()
                    .all(|&i| space.transitions(i).all(|(j, _)| comp_of[j] == *c))
            })
            .map(|(c, _)| c)
            .collect();
        match closed.len() {
            1 => {}
            0 => {
                return Err(CmeError::InvalidInput {
                    message: "no closed recurrent class inside the bounds window".into(),
                })
            }
            k => {
                return Err(CmeError::InvalidInput {
                    message: format!(
                        "{k} closed recurrent classes: the stationary law is not unique"
                    ),
                })
            }
        }
        let mut class = components.get(closed[0]).to_vec();
        class.sort_unstable();
        let m = class.len();
        if m > self.dense_limit {
            return Err(CmeError::InvalidInput {
                message: format!(
                    "recurrent class has {m} states, above the dense limit {}",
                    self.dense_limit
                ),
            });
        }
        let mut local = vec![usize::MAX; n];
        for (k, &i) in class.iter().enumerate() {
            local[i] = k;
        }
        let mut w = vec![0.0; m * m];
        for (row, &i) in class.iter().enumerate() {
            for (j, rate) in space.transitions(i) {
                w[row * m + local[j]] += rate;
            }
        }
        // GTH elimination: censor states m−1 … 1 out of the chain, then
        // back-substitute. Only additions and divisions touch `w`.
        let mut strength = vec![0.0; m];
        for k in (1..m).rev() {
            let sk: f64 = w[k * m..k * m + k].iter().sum();
            if sk <= 0.0 {
                return Err(CmeError::InvalidInput {
                    message: "recurrent class is not irreducible".into(),
                });
            }
            strength[k] = sk;
            for i in 0..k {
                let f = w[i * m + k] / sk;
                if f == 0.0 {
                    continue;
                }
                for j in 0..k {
                    w[i * m + j] += f * w[k * m + j];
                }
            }
        }
        let mut pi = vec![0.0; m];
        pi[0] = 1.0;
        for k in 1..m {
            pi[k] = (0..k).map(|i| pi[i] * w[i * m + k]).sum::<f64>() / strength[k];
        }
        let total: f64 = pi.iter().sum();
        let mut probabilities = vec![0.0; n];
        for (k, &i) in class.iter().enumerate() {
            probabilities[i] = pi[k] / total;
        }
        let boundary_mass = (0..n)
            .filter(|&i| space.leak_rate(i) > 0.0)
            .map(|i| probabilities[i])
            .sum();
        Ok(StationaryDistribution {
            space,
            probabilities,
            recurrent_states: m,
            boundary_mass,
        })
    }

    /// Convenience: the stationary probability mass of the states matching
    /// `predicate`.
    pub fn stationary_mass<F>(&self, predicate: F) -> Result<f64, CmeError>
    where
        F: Fn(&State) -> bool,
    {
        let stationary = self.stationary()?;
        Ok(stationary.mass(predicate))
    }

    /// Convenience: the stationary mean copy number of `species`.
    pub fn stationary_expectation(&self, species: &str) -> Result<f64, CmeError> {
        let id = self.species(species)?;
        let stationary = self.stationary()?;
        Ok(stationary.expectation(id))
    }
}

impl StationaryDistribution {
    /// Returns the stationary probability of each state, aligned with
    /// [`space`](Self::space) indices; states outside the recurrent class
    /// carry exactly zero.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Returns the enumerated state space the law lives on.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// Returns the number of states in the closed recurrent class.
    pub fn recurrent_states(&self) -> usize {
        self.recurrent_states
    }

    /// Returns the stationary mass sitting on states that leak out of the
    /// truncation window — a quality bound on the finite-state-projection
    /// approximation (exactly zero for strict bounds).
    pub fn boundary_mass(&self) -> f64 {
        self.boundary_mass
    }

    /// Returns the stationary mass of states matching `predicate`.
    pub fn mass<F>(&self, predicate: F) -> f64
    where
        F: Fn(&State) -> bool,
    {
        self.space.probability_where(&self.probabilities, predicate)
    }

    /// Returns the stationary mean copy number of `species`.
    pub fn expectation(&self, species: SpeciesId) -> f64 {
        self.space.expectation(&self.probabilities, species)
    }

    /// Returns the stationary marginal distribution of `species`.
    pub fn marginal(&self, species: SpeciesId) -> Vec<f64> {
        self.space.marginal(&self.probabilities, species)
    }
}

/// Marks every state inside a closed strongly-connected class (no exits,
/// no leak, not absorbing) plus outflow-free dead ends: states from which
/// the absorbing set is unreachable.
fn locked_states(space: &StateSpace) -> Vec<bool> {
    let n = space.len();
    let components = strongly_connected_components(space);
    let mut comp_of = vec![0usize; n];
    for (c, members) in components.iter().enumerate() {
        for &i in members {
            comp_of[i] = c;
        }
    }
    let mut locked = vec![false; n];
    for (c, members) in components.iter().enumerate() {
        let closed = members.iter().all(|&i| {
            !space.is_absorbing(i)
                && space.leak_rate(i) == 0.0
                && space.transitions(i).all(|(j, _)| comp_of[j] == c)
        });
        if closed {
            for &i in members {
                locked[i] = true;
            }
        }
    }
    locked
}

/// Dense LU factorization with partial pivoting, sized for the checker's
/// diagonally-dominant `I − T` systems.
struct DenseLu {
    m: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl DenseLu {
    fn factor(mut a: Vec<f64>, m: usize) -> Result<Self, CmeError> {
        debug_assert_eq!(a.len(), m * m);
        let mut pivots = vec![0usize; m];
        for k in 0..m {
            let mut best = k;
            let mut best_abs = a[k * m + k].abs();
            for r in k + 1..m {
                let v = a[r * m + k].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
            if best_abs < 1e-12 {
                return Err(CmeError::InvalidInput {
                    message: "singular linear system in first-passage solve".into(),
                });
            }
            pivots[k] = best;
            if best != k {
                for c in 0..m {
                    a.swap(k * m + c, best * m + c);
                }
            }
            let pivot = a[k * m + k];
            for r in k + 1..m {
                let f = a[r * m + k] / pivot;
                a[r * m + k] = f;
                if f == 0.0 {
                    continue;
                }
                for c in k + 1..m {
                    a[r * m + c] -= f * a[k * m + c];
                }
            }
        }
        Ok(DenseLu { m, lu: a, pivots })
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let m = self.m;
        debug_assert_eq!(b.len(), m);
        let mut x = b.to_vec();
        for k in 0..m {
            x.swap(k, self.pivots[k]);
            let xk = x[k];
            if xk == 0.0 {
                continue;
            }
            for (r, xr) in x.iter_mut().enumerate().skip(k + 1) {
                *xr -= self.lu[r * m + k] * xk;
            }
        }
        for k in (0..m).rev() {
            let tail: f64 = (k + 1..m).map(|c| self.lu[k * m + c] * x[c]).sum();
            x[k] = (x[k] - tail) / self.lu[k * m + k];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin() -> (Crn, State) {
        let crn: Crn = "x -> h @ 3\nx -> t @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        (crn, initial)
    }

    #[test]
    fn race_matches_rate_ratio() {
        let (crn, initial) = coin();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        let race = checker.reach_before_species(("h", 1), ("t", 1)).unwrap();
        assert!((race.target - 0.75).abs() < 1e-12);
        assert!((race.competitor - 0.25).abs() < 1e-12);
        assert!(race.never.abs() < 1e-12);
        assert!((race.target + race.competitor + race.never + race.escaped - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_probability_matches_exponential_law() {
        let (crn, initial) = coin();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        // Decision at rate 4, heads with probability 3/4:
        // P(h within [0, t]) = 0.75 (1 − e^{−4t}).
        for t in [0.05, 0.2, 1.0, 3.0] {
            let verdict = checker.species_within("h", 1, (0.0, t)).unwrap();
            let exact = 0.75 * (1.0 - (-4.0 * t).exp());
            assert!(
                (verdict.probability - exact).abs() < 1e-9,
                "t={t}: got {} want {exact}",
                verdict.probability
            );
        }
    }

    #[test]
    fn deferred_window_excludes_early_decisions() {
        let (crn, initial) = coin();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        // Heads is a trap state, so P(h in [t1, t2]) = P(h by t2): mass that
        // arrived before t1 is still there at t1.
        let early = checker.species_within("h", 1, (0.0, 2.0)).unwrap();
        let late = checker.species_within("h", 1, (1.0, 2.0)).unwrap();
        assert!((early.probability - late.probability).abs() < 1e-9);
        // A window of zero width reports the transient law at t1.
        let slice = checker.species_within("h", 1, (0.5, 0.5)).unwrap();
        let exact = 0.75 * (1.0 - (-2.0f64).exp());
        assert!((slice.probability - exact).abs() < 1e-9);
    }

    #[test]
    fn window_probability_is_monotone_in_deadline() {
        let crn: Crn = "a -> b @ 1\nb -> a @ 2".parse().unwrap();
        let initial = crn.state_from_counts([("a", 3)]).unwrap();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(3));
        let mut last = 0.0;
        for t in [0.1, 0.3, 0.7, 1.5, 3.0] {
            let verdict = checker.species_within("b", 3, (0.0, t)).unwrap();
            assert!(verdict.probability + 1e-12 >= last, "not monotone at t={t}");
            last = verdict.probability;
        }
    }

    #[test]
    fn hitting_time_matches_exponential_race() {
        let (crn, initial) = coin();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        let hit = checker.hitting_time_species("h", 1).unwrap();
        assert!((hit.probability - 0.75).abs() < 1e-12);
        assert!((hit.conditional_mean.unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hitting_time_of_pure_death_chain() {
        // a -> 0 @ 1 from a=3: absorption at a=0 is a sum of exponentials
        // with rates 3, 2, 1 → mean 1/3 + 1/2 + 1 = 11/6.
        let crn: Crn = "a -> 0 @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 3)]).unwrap();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(3));
        let hit = checker.hitting_time(|s| s.counts()[0] == 0).unwrap();
        assert!((hit.probability - 1.0).abs() < 1e-12);
        assert!((hit.conditional_mean.unwrap() - 11.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn unreachable_target_reports_never() {
        // b is never produced.
        let crn: Crn = "a -> c @ 1\nb -> c @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        let hit = checker.hitting_time_species("b", 1).unwrap();
        assert_eq!(hit.probability, 0.0);
        assert!(hit.conditional_mean.is_none());
    }

    #[test]
    fn hitting_time_with_trapped_class() {
        // From x the chain either commits to the a <-> b loop (never hits
        // g) or decays to g. P(hit) = 1/2, E[T | hit] = 1/2 (the Exp(2)
        // holding time of x, independent of the direction taken).
        let crn: Crn = "x -> a @ 1\nx -> g @ 1\na -> b @ 5\nb -> a @ 5"
            .parse()
            .unwrap();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        let hit = checker.hitting_time_species("g", 1).unwrap();
        assert!((hit.probability - 0.5).abs() < 1e-12);
        assert!((hit.conditional_mean.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stationary_of_two_state_switch() {
        let crn: Crn = "a -> b @ 3\nb -> a @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        let stationary = checker.stationary().unwrap();
        let b = crn.species_id("b").unwrap();
        assert_eq!(stationary.recurrent_states(), 2);
        assert!((stationary.expectation(b) - 0.75).abs() < 1e-12);
        assert_eq!(stationary.boundary_mass(), 0.0);
    }

    #[test]
    fn stationary_of_truncated_birth_death() {
        // Birth-death with birth λ=2, death μ=1 per copy, truncated at 8:
        // π_k ∝ 2^k / k! (Poisson(2) restricted to 0..=8).
        let crn: Crn = "0 -> a @ 2\na -> 0 @ 1".parse().unwrap();
        let checker = Checker::new(&crn, crn.zero_state(), PopulationBounds::truncating(8));
        let stationary = checker.stationary().unwrap();
        let weights: Vec<f64> = (0..=8)
            .scan(1.0f64, |w, k| {
                if k > 0 {
                    *w *= 2.0 / k as f64;
                }
                Some(*w)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let a = crn.species_id("a").unwrap();
        let marginal = stationary.marginal(a);
        for (k, (&got, &want)) in marginal.iter().zip(&weights).enumerate() {
            assert!(
                (got - want / total).abs() < 1e-12,
                "π_{k}: got {got} want {}",
                want / total
            );
        }
        assert!(stationary.boundary_mass() > 0.0);
    }

    #[test]
    fn stationary_rejects_competing_traps() {
        let crn: Crn = "x -> a @ 1\nx -> b @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        let err = checker.stationary().unwrap_err();
        assert!(matches!(err, CmeError::InvalidInput { .. }));
    }

    #[test]
    fn invalid_windows_are_rejected() {
        let (crn, initial) = coin();
        let checker = Checker::new(&crn, initial, PopulationBounds::strict(1));
        for window in [
            (1.0, 0.5),
            (-0.1, 1.0),
            (0.0, f64::NAN),
            (0.0, f64::INFINITY),
        ] {
            assert!(checker.species_within("h", 1, window).is_err());
        }
        assert!(checker.species_within("nope", 1, (0.0, 1.0)).is_err());
    }

    #[test]
    fn dense_lu_solves_reference_system() {
        // A = [[2, 1], [1, 3]], b = [3, 5] → x = [4/5, 7/5].
        let lu = DenseLu::factor(vec![2.0, 1.0, 1.0, 3.0], 2).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }
}
