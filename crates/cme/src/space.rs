//! Breadth-first enumeration of the reachable state space.

use std::collections::HashMap;

use crn::{Crn, Reaction, SpeciesId, State};

use crate::bounds::{BoundaryPolicy, PopulationBounds};
use crate::error::CmeError;

/// Mass-action propensity of `reaction` in `state` — `k · Π_s C(X_s, ν_s)`,
/// Gillespie's combination-counting formulation. Zero whenever a reactant is
/// short. Kept local so `cme` depends only on the `crn` data model; the
/// oracle tests pin it bitwise against `gillespie::propensity`.
pub(crate) fn propensity(reaction: &Reaction, state: &State) -> f64 {
    let mut combinations = 1.0f64;
    for term in reaction.reactants() {
        let count = match state.try_count(term.species) {
            Some(c) => c,
            None => return 0.0,
        };
        if count < u64::from(term.coefficient) {
            return 0.0;
        }
        let mut falling = 1.0f64;
        let mut factorial = 1.0f64;
        for i in 0..u64::from(term.coefficient) {
            falling *= (count - i) as f64;
            factorial *= (i + 1) as f64;
        }
        combinations *= falling / factorial;
    }
    reaction.rate() * combinations
}

/// The reachable state space of a [`Crn`] from one initial state, within
/// [`PopulationBounds`], together with its transition structure in CSR form.
///
/// States are indexed in breadth-first discovery order; index 0 is the
/// initial state. Self-loop transitions (reactions with identical reactant
/// and product multisets) are dropped — they cancel in the generator and
/// only delay the embedded jump chain.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cme::CmeError> {
/// use cme::{PopulationBounds, StateSpace};
///
/// let crn: crn::Crn = "a -> b @ 1\nb -> a @ 2".parse().expect("network");
/// let initial = crn.state_from_counts([("a", 3)]).expect("state");
/// let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(3))?;
/// // The 3 molecules distribute as (3,0), (2,1), (1,2), (0,3).
/// assert_eq!(space.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StateSpace {
    states: Vec<State>,
    index: HashMap<State, usize>,
    edge_ptr: Vec<usize>,
    edge_target: Vec<usize>,
    edge_rate: Vec<f64>,
    leak: Vec<f64>,
    absorbing: Vec<bool>,
    truncated: bool,
}

impl StateSpace {
    /// Enumerates every state reachable from `initial` within `bounds`.
    ///
    /// # Errors
    ///
    /// Returns [`CmeError::BoundExceeded`] under
    /// [strict](PopulationBounds::strict) bounds when a reachable state
    /// exceeds a species cap (the error names the offending species), and
    /// [`CmeError::StateBudgetExceeded`] when the reachable set outgrows the
    /// state budget.
    pub fn enumerate(
        crn: &Crn,
        initial: &State,
        bounds: &PopulationBounds,
    ) -> Result<Self, CmeError> {
        Self::enumerate_absorbing(crn, initial, bounds, |_| false)
    }

    /// Enumerates the reachable state space, treating every state matching
    /// `absorbing` as absorbing: its outgoing transitions are removed and it
    /// is not expanded further. This is how first-passage problems are posed
    /// — the chain is stopped at the first visit to a target class.
    ///
    /// # Errors
    ///
    /// Same as [`StateSpace::enumerate`].
    pub fn enumerate_absorbing<F>(
        crn: &Crn,
        initial: &State,
        bounds: &PopulationBounds,
        absorbing: F,
    ) -> Result<Self, CmeError>
    where
        F: Fn(&State) -> bool,
    {
        if initial.species_len() != crn.species_len() {
            return Err(CmeError::InvalidInput {
                message: format!(
                    "initial state tracks {} species but the network has {}",
                    initial.species_len(),
                    crn.species_len()
                ),
            });
        }
        let caps = bounds.resolve(crn);
        let budget = bounds.state_budget();
        let over_cap = |state: &State| -> Option<usize> {
            state
                .counts()
                .iter()
                .zip(&caps)
                .position(|(&count, &cap)| count > cap)
        };
        if let Some(s) = over_cap(initial) {
            return Err(CmeError::BoundExceeded {
                species: crn.species()[s].name().to_string(),
                cap: caps[s],
            });
        }

        let mut space = StateSpace {
            states: vec![initial.clone()],
            index: HashMap::from([(initial.clone(), 0usize)]),
            edge_ptr: vec![0],
            edge_target: Vec::new(),
            edge_rate: Vec::new(),
            leak: Vec::new(),
            absorbing: Vec::new(),
            truncated: bounds.policy() == BoundaryPolicy::Truncate,
        };

        // Classic BFS worklist: states are expanded in discovery order, so
        // the CSR rows fill in index order.
        let mut next = 0usize;
        while next < space.states.len() {
            let state = space.states[next].clone();
            let is_absorbing = absorbing(&state);
            space.absorbing.push(is_absorbing);
            let mut leak = 0.0f64;
            if !is_absorbing {
                for reaction in crn.reactions() {
                    let rate = propensity(reaction, &state);
                    if rate <= 0.0 {
                        continue;
                    }
                    let successor = state
                        .after(reaction)
                        .expect("positive propensity implies the reaction can fire");
                    if successor == state {
                        continue; // self-loop: cancels in the generator
                    }
                    if let Some(s) = over_cap(&successor) {
                        match bounds.policy() {
                            BoundaryPolicy::Strict => {
                                return Err(CmeError::BoundExceeded {
                                    species: crn.species()[s].name().to_string(),
                                    cap: caps[s],
                                });
                            }
                            BoundaryPolicy::Truncate => {
                                leak += rate;
                                continue;
                            }
                        }
                    }
                    let target = match space.index.get(&successor) {
                        Some(&i) => i,
                        None => {
                            let i = space.states.len();
                            if i >= budget {
                                return Err(CmeError::StateBudgetExceeded { budget });
                            }
                            space.states.push(successor.clone());
                            space.index.insert(successor, i);
                            i
                        }
                    };
                    space.edge_target.push(target);
                    space.edge_rate.push(rate);
                }
            }
            space.edge_ptr.push(space.edge_target.len());
            space.leak.push(leak);
            next += 1;
        }
        Ok(space)
    }

    /// Returns the number of retained states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the space has no states (never true for an
    /// enumerated space — the initial state is always retained).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Returns the states in index (breadth-first discovery) order.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Returns the state at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn state(&self, index: usize) -> &State {
        &self.states[index]
    }

    /// Returns the index of the initial state (always 0).
    pub fn initial_index(&self) -> usize {
        0
    }

    /// Looks up the index of a state, if it was retained.
    pub fn index_of(&self, state: &State) -> Option<usize> {
        self.index.get(state).copied()
    }

    /// Returns `true` if the state at `index` was made absorbing by the
    /// enumeration predicate.
    pub fn is_absorbing(&self, index: usize) -> bool {
        self.absorbing[index]
    }

    /// Returns the outgoing transitions of the state at `index` as
    /// `(target index, rate)` pairs.
    pub fn transitions(&self, index: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.edge_ptr[index]..self.edge_ptr[index + 1];
        self.edge_target[range.clone()]
            .iter()
            .copied()
            .zip(self.edge_rate[range].iter().copied())
    }

    /// Returns the target indices of the outgoing transitions of the state
    /// at `index`, in the order of [`transitions`](Self::transitions).
    pub(crate) fn successors(&self, index: usize) -> &[usize] {
        &self.edge_target[self.edge_ptr[index]..self.edge_ptr[index + 1]]
    }

    /// Returns the total rate flowing from the state at `index` out of the
    /// retained window (always 0 under strict bounds).
    pub fn leak_rate(&self, index: usize) -> f64 {
        self.leak[index]
    }

    /// Returns the total outflow rate of the state at `index`, including any
    /// truncation leak.
    pub fn total_outflow(&self, index: usize) -> f64 {
        self.transitions(index).map(|(_, rate)| rate).sum::<f64>() + self.leak[index]
    }

    /// Returns `true` if the space was enumerated with truncating bounds.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Returns the number of stored transitions.
    pub fn transition_count(&self) -> usize {
        self.edge_target.len()
    }

    /// Projects a probability vector over states down to the marginal
    /// distribution of one species' molecule count: entry `k` is the
    /// probability that the species has exactly `k` molecules.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` does not have one entry per state or the
    /// species is out of range for the network.
    pub fn marginal(&self, probabilities: &[f64], species: SpeciesId) -> Vec<f64> {
        assert_eq!(
            probabilities.len(),
            self.states.len(),
            "need one probability per state"
        );
        let max_count = self
            .states
            .iter()
            .map(|s| s.count(species))
            .max()
            .unwrap_or(0);
        let mut marginal = vec![0.0; max_count as usize + 1];
        for (state, &p) in self.states.iter().zip(probabilities) {
            marginal[state.count(species) as usize] += p;
        }
        marginal
    }

    /// Returns the probability mass carried by states satisfying `predicate`.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` does not have one entry per state.
    pub fn probability_where<F>(&self, probabilities: &[f64], predicate: F) -> f64
    where
        F: Fn(&State) -> bool,
    {
        assert_eq!(
            probabilities.len(),
            self.states.len(),
            "need one probability per state"
        );
        self.states
            .iter()
            .zip(probabilities)
            .filter(|(state, _)| predicate(state))
            .map(|(_, &p)| p)
            .sum()
    }

    /// Returns the expected molecule count of one species under a
    /// probability vector over states.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` does not have one entry per state or the
    /// species is out of range.
    pub fn expectation(&self, probabilities: &[f64], species: SpeciesId) -> f64 {
        assert_eq!(
            probabilities.len(),
            self.states.len(),
            "need one probability per state"
        );
        self.states
            .iter()
            .zip(probabilities)
            .map(|(state, &p)| state.count(species) as f64 * p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isomerisation() -> (Crn, State) {
        let crn: Crn = "a -> b @ 1\nb -> a @ 2".parse().unwrap();
        let initial = crn.state_from_counts([("a", 3)]).unwrap();
        (crn, initial)
    }

    #[test]
    fn enumerates_the_closed_isomerisation_chain() {
        let (crn, initial) = isomerisation();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(3)).unwrap();
        assert_eq!(space.len(), 4);
        assert!(!space.is_empty());
        assert!(!space.is_truncated());
        assert_eq!(space.initial_index(), 0);
        assert_eq!(space.index_of(&initial), Some(0));
        assert_eq!(space.state(0), &initial);
        // Interior states have two transitions, the two ends have one.
        let degree: Vec<usize> = (0..4).map(|i| space.transitions(i).count()).collect();
        assert_eq!(degree.iter().sum::<usize>(), space.transition_count());
        assert_eq!(degree.iter().filter(|&&d| d == 1).count(), 2);
        assert_eq!(degree.iter().filter(|&&d| d == 2).count(), 2);
        for i in 0..4 {
            assert_eq!(space.leak_rate(i), 0.0);
            assert!(!space.is_absorbing(i));
        }
    }

    #[test]
    fn strict_bounds_fail_with_the_offending_species() {
        let crn: Crn = "0 -> a @ 5".parse().unwrap();
        let initial = crn.zero_state();
        let err = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(4)).unwrap_err();
        assert_eq!(
            err,
            CmeError::BoundExceeded {
                species: "a".into(),
                cap: 4
            }
        );
        // The initial state itself can violate the caps.
        let crn2: Crn = "a -> 0 @ 1".parse().unwrap();
        let big = crn2.state_from_counts([("a", 10)]).unwrap();
        let err = StateSpace::enumerate(&crn2, &big, &PopulationBounds::strict(4)).unwrap_err();
        assert!(matches!(err, CmeError::BoundExceeded { .. }));
    }

    #[test]
    fn truncating_bounds_track_the_leak() {
        let crn: Crn = "0 -> a @ 5\na -> 0 @ 1".parse().unwrap();
        let initial = crn.zero_state();
        let space =
            StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(4)).unwrap();
        assert_eq!(space.len(), 5); // a = 0..=4
        assert!(space.is_truncated());
        let a = crn.species_id("a").unwrap();
        // Only the boundary state a = 4 leaks, at the birth rate.
        for i in 0..space.len() {
            let expected = if space.state(i).count(a) == 4 {
                5.0
            } else {
                0.0
            };
            assert_eq!(space.leak_rate(i), expected);
        }
        let boundary = space
            .index_of(&crn.state_from_counts([("a", 4)]).unwrap())
            .unwrap();
        // Outflow at the boundary: death (4·1) plus the leaked birth.
        assert!((space.total_outflow(boundary) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn state_budget_is_enforced() {
        let (crn, initial) = isomerisation();
        let bounds = PopulationBounds::strict(3).max_states(3);
        let err = StateSpace::enumerate(&crn, &initial, &bounds).unwrap_err();
        assert_eq!(err, CmeError::StateBudgetExceeded { budget: 3 });
    }

    #[test]
    fn absorbing_predicate_stops_expansion() {
        let crn: Crn = "a -> b @ 1\nb -> c @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 2)]).unwrap();
        let b = crn.species_id("b").unwrap();
        let space = StateSpace::enumerate_absorbing(
            &crn,
            &initial,
            &PopulationBounds::strict(2),
            |state| state.count(b) >= 1,
        )
        .unwrap();
        // (2,0,0) -> (1,1,0) and stop: b ≥ 1 is absorbing, so no state with
        // c > 0 or b = 2 is ever reached.
        assert_eq!(space.len(), 2);
        assert!(space.is_absorbing(1));
        assert_eq!(space.transitions(1).count(), 0);
        assert_eq!(space.total_outflow(1), 0.0);
    }

    #[test]
    fn mismatched_initial_state_is_rejected() {
        let (crn, _) = isomerisation();
        let err =
            StateSpace::enumerate(&crn, &State::zero(5), &PopulationBounds::strict(3)).unwrap_err();
        assert!(matches!(err, CmeError::InvalidInput { .. }));
    }

    #[test]
    fn self_loops_are_dropped() {
        // `a -> a` is a no-op: the only state has no outgoing transitions.
        let crn: Crn = "a -> a @ 3".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(1)).unwrap();
        assert_eq!(space.len(), 1);
        assert_eq!(space.transition_count(), 0);
    }

    #[test]
    fn marginal_and_expectation_project_probability_vectors() {
        let (crn, initial) = isomerisation();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(3)).unwrap();
        let b = crn.species_id("b").unwrap();
        // Uniform over the four states: b is uniform on {0, 1, 2, 3}.
        let probs = vec![0.25; 4];
        let marginal = space.marginal(&probs, b);
        assert_eq!(marginal.len(), 4);
        assert!(marginal.iter().all(|&p| (p - 0.25).abs() < 1e-12));
        assert!((space.expectation(&probs, b) - 1.5).abs() < 1e-12);
        let mass = space.probability_where(&probs, |s| s.count(b) >= 2);
        assert!((mass - 0.5).abs() < 1e-12);
    }

    #[test]
    fn local_propensity_matches_the_combination_formula() {
        let crn: Crn = "2 a -> b @ 3".parse().unwrap();
        let state = crn.state_from_counts([("a", 4)]).unwrap();
        // C(4, 2) = 6 pairs at rate 3.
        assert_eq!(propensity(&crn.reactions()[0], &state), 18.0);
        let short = crn.state_from_counts([("a", 1)]).unwrap();
        assert_eq!(propensity(&crn.reactions()[0], &short), 0.0);
    }
}
