//! First-passage outcome analysis: exact absorption probabilities.

use crn::{Crn, State};

use crate::bounds::PopulationBounds;
use crate::error::CmeError;
use crate::space::StateSpace;

/// Default transient-mass tolerance for [`FirstPassage::solve`].
const DEFAULT_TOLERANCE: f64 = 1e-12;
/// Default sweep budget for the iterative large-component fallback.
const DEFAULT_MAX_SWEEPS: usize = 100_000;
/// Components up to this size are solved exactly by dense state
/// elimination; larger ones fall back to Gauss–Seidel sweeps.
const DENSE_COMPONENT_LIMIT: usize = 256;

/// One outcome class: a name plus its membership predicate.
type OutcomePredicate<'a> = Box<dyn Fn(&State) -> bool + 'a>;

/// Poses and solves a first-passage problem: starting from an initial
/// state, with what probability does the chain first hit each outcome
/// class?
///
/// Outcome classes are predicates over states; a state matching a predicate
/// is made absorbing (the chain is stopped there), so the computed numbers
/// are exactly the probabilities a perfect classifier would estimate from
/// infinitely many SSA trials. Because jump *probabilities* — not rates —
/// drive the analysis, rate hierarchies spanning many orders of magnitude
/// (the paper's γ separations) cost nothing in conditioning.
///
/// The solver condenses the embedded jump chain into its strongly connected
/// components (iterative Tarjan) and pushes probability mass through the
/// condensation DAG in topological order. Mass entering a cyclic component
/// is distributed to its exits by a dense linear solve
/// (`u = m·(I − T)⁻¹`, the expected-visits equation), so tight cycles that
/// the chain traverses millions of times — the synthesized networks' clock
/// loops — cost one small LU factorisation instead of millions of power
/// iterations. Components larger than a few hundred states fall back to
/// Gauss–Seidel sweeps under a configurable budget.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cme::CmeError> {
/// use cme::{FirstPassage, PopulationBounds};
///
/// // Competing channels from one molecule: x -> a at 3, x -> b at 1.
/// let crn: crn::Crn = "x -> a @ 3\nx -> b @ 1".parse().expect("network");
/// let initial = crn.state_from_counts([("x", 1)]).expect("state");
/// let distribution = FirstPassage::new(&crn)
///     .outcome_species_at_least("first", "a", 1)?
///     .outcome_species_at_least("second", "b", 1)?
///     .solve(&initial, &PopulationBounds::strict(1))?;
/// assert!((distribution.probability("first") - 0.75).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub struct FirstPassage<'a> {
    crn: &'a Crn,
    outcomes: Vec<(String, OutcomePredicate<'a>)>,
    tolerance: f64,
    max_sweeps: usize,
}

impl<'a> FirstPassage<'a> {
    /// Starts a first-passage problem over `crn`.
    pub fn new(crn: &'a Crn) -> Self {
        FirstPassage {
            crn,
            outcomes: Vec::new(),
            tolerance: DEFAULT_TOLERANCE,
            max_sweeps: DEFAULT_MAX_SWEEPS,
        }
    }

    /// Adds an outcome class defined by a predicate. A state matching
    /// several predicates counts for the first one registered.
    pub fn outcome<F>(mut self, name: impl Into<String>, predicate: F) -> Self
    where
        F: Fn(&State) -> bool + 'a,
    {
        self.outcomes.push((name.into(), Box::new(predicate)));
        self
    }

    /// Adds the common threshold outcome "`species` count ≥ `threshold`",
    /// mirroring the ensemble classifier's rules.
    ///
    /// # Errors
    ///
    /// Returns [`CmeError::InvalidInput`] if the species does not exist.
    pub fn outcome_species_at_least(
        self,
        name: impl Into<String>,
        species: &str,
        threshold: u64,
    ) -> Result<Self, CmeError> {
        let id = self
            .crn
            .species_id(species)
            .ok_or_else(|| CmeError::InvalidInput {
                message: format!("unknown species `{species}` in outcome definition"),
            })?;
        Ok(self.outcome(name, move |state: &State| state.count(id) >= threshold))
    }

    /// Sets the Gauss–Seidel tolerance for large components (default
    /// `1e-12`); dense-solved components are exact regardless.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the Gauss–Seidel sweep budget per large component (default
    /// 100 000).
    pub fn max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Enumerates the reachable space (stopping at outcome states) and
    /// computes the exact outcome distribution from `initial`.
    ///
    /// # Errors
    ///
    /// Propagates enumeration errors ([`CmeError::BoundExceeded`],
    /// [`CmeError::StateBudgetExceeded`]); returns [`CmeError::InvalidInput`]
    /// for an empty outcome list and [`CmeError::NotConverged`] if a large
    /// cyclic component exhausts its sweep budget.
    pub fn solve(
        &self,
        initial: &State,
        bounds: &PopulationBounds,
    ) -> Result<OutcomeDistribution, CmeError> {
        if self.outcomes.is_empty() {
            return Err(CmeError::InvalidInput {
                message: "first-passage analysis needs at least one outcome".into(),
            });
        }
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(CmeError::InvalidInput {
                message: format!("tolerance {} must be finite and positive", self.tolerance),
            });
        }
        let matches_any = |state: &State| self.outcomes.iter().any(|(_, pred)| pred(state));
        let space = StateSpace::enumerate_absorbing(self.crn, initial, bounds, matches_any)?;

        // Classify each state once: Some(outcome index) for absorbing
        // outcome states, None otherwise.
        let mut buffer = space.buffer();
        let class: Vec<Option<usize>> = (0..space.len())
            .map(|i| {
                if space.is_absorbing(i) {
                    let state = space.load(i, &mut buffer);
                    self.outcomes.iter().position(|(_, pred)| pred(state))
                } else {
                    None
                }
            })
            .collect();

        let n = space.len();
        let components = strongly_connected_components(&space);
        let mut mass = vec![0.0f64; n];
        mass[space.initial_index()] = 1.0;
        let mut absorbed = vec![0.0f64; self.outcomes.len()];
        let mut undecided = 0.0f64;
        let mut escaped = 0.0f64;
        let mut sweeps_used = 0usize;
        let mut scratch = Elimination::new(n);

        // Tarjan emits components sinks-first, so the reverse order is
        // topological: every component is processed after all mass bound for
        // it has arrived.
        for component in components.iter().rev() {
            let incoming: f64 = component.iter().map(|&i| mass[i]).sum();
            if incoming == 0.0 {
                continue;
            }
            if component.len() == 1 {
                // Absorbing states never cycle, so they always land here.
                let i = component[0];
                if let Some(outcome) = class[i] {
                    absorbed[outcome] += mass[i];
                    mass[i] = 0.0;
                    continue;
                }
            }
            scratch.enter(component);
            if component.len() > DENSE_COMPONENT_LIMIT {
                self.sweep_component(
                    &space,
                    component,
                    &scratch.local,
                    &mut mass,
                    &mut undecided,
                    &mut escaped,
                    &mut sweeps_used,
                )?;
            } else {
                eliminate_component(
                    &mut scratch,
                    &space,
                    component,
                    &mut mass,
                    &mut undecided,
                    &mut escaped,
                );
            }
            scratch.leave(component);
        }

        Ok(OutcomeDistribution {
            names: self.outcomes.iter().map(|(name, _)| name.clone()).collect(),
            probabilities: absorbed,
            undecided,
            escaped,
            sweeps: sweeps_used,
            states: n,
        })
    }

    /// Iterative fallback for components too large to eliminate densely:
    /// Gauss–Seidel on the expected-visits equation `u = m + u·T`, then one
    /// pass pushing `u`-weighted exit mass to the component's successors.
    ///
    /// Termination is by geometric extrapolation, not by raw per-sweep
    /// change: with contraction ratio `ρ` estimated from successive sweep
    /// deltas, the remaining error is bounded by `δ·ρ/(1−ρ)`, so a
    /// slowly-mixing component (ρ → 1) keeps sweeping until the *true*
    /// error — not just the increment — is below the tolerance.
    ///
    /// `local` maps each member of `component` to its position in it and
    /// every other state to `NOT_LOCAL`.
    #[allow(clippy::too_many_arguments)]
    fn sweep_component(
        &self,
        space: &StateSpace,
        component: &[usize],
        local: &[usize],
        mass: &mut [f64],
        undecided: &mut f64,
        escaped: &mut f64,
        sweeps_used: &mut usize,
    ) -> Result<(), CmeError> {
        let k = component.len();
        // A closed recurrent component traps its mass forever: the
        // expected-visits equation has no finite solution there, so detect
        // it up front (the dense path does the same through zero-outflow
        // eliminations) instead of diverging against the sweep budget.
        let exit_rate: f64 = component
            .iter()
            .map(|&i| {
                space
                    .transitions(i)
                    .filter(|&(j, _)| local[j] == NOT_LOCAL)
                    .map(|(_, rate)| rate)
                    .sum::<f64>()
                    + space.leak_rate(i)
            })
            .sum();
        if exit_rate == 0.0 {
            for &i in component {
                *undecided += mass[i];
                mass[i] = 0.0;
            }
            return Ok(());
        }
        // incoming[col] lists (row, probability) of internal jumps into col.
        let mut incoming: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        for (row, &i) in component.iter().enumerate() {
            let outflow = space.total_outflow(i);
            for (j, rate) in space.transitions(i) {
                if local[j] != NOT_LOCAL {
                    incoming[local[j]].push((row, rate / outflow));
                }
            }
        }
        let m: Vec<f64> = component.iter().map(|&i| mass[i]).collect();
        let mut u = m.clone();
        let mut sweeps = 0usize;
        let mut previous_delta = f64::INFINITY;
        loop {
            let mut delta = 0.0f64;
            for row in 0..k {
                let mut value = m[row];
                for &(src, p) in &incoming[row] {
                    value += u[src] * p;
                }
                delta = delta.max((value - u[row]).abs());
                u[row] = value;
            }
            sweeps += 1;
            if delta <= self.tolerance {
                // Geometric tail bound: err ≤ δ·ρ/(1−ρ). A ratio estimate
                // at or above 1 means no contraction is visible yet — keep
                // sweeping rather than trust the small increment.
                let ratio = delta / previous_delta;
                if ratio < 1.0 && delta * ratio / (1.0 - ratio) <= self.tolerance {
                    break;
                }
            }
            if sweeps >= self.max_sweeps {
                return Err(CmeError::NotConverged {
                    residual: delta,
                    sweeps,
                });
            }
            previous_delta = delta.max(f64::MIN_POSITIVE);
        }
        *sweeps_used += sweeps;
        for (row, &i) in component.iter().enumerate() {
            mass[i] = 0.0;
            if u[row] == 0.0 {
                continue;
            }
            let outflow = space.total_outflow(i);
            for (j, rate) in space.transitions(i) {
                if local[j] == NOT_LOCAL {
                    mass[j] += u[row] * rate / outflow;
                }
            }
            *escaped += u[row] * space.leak_rate(i) / outflow;
        }
        Ok(())
    }
}

/// Marks a state outside the component being solved.
const NOT_LOCAL: usize = usize::MAX;

/// Scratch space for the component loop of one solve, reused across
/// components: most spaces condense into thousands of tiny components
/// (Example 1's into ~20 000 singletons), so per-component maps and
/// buffers would cost more than the elimination itself.
struct Elimination {
    /// Position of each state within the current component, `NOT_LOCAL`
    /// for every state outside it.
    local: Vec<usize>,
    /// Internal rates (dense, k × k with k ≤ `DENSE_COMPONENT_LIMIT`).
    internal: Vec<f64>,
    /// External edge lists per member, sorted by target for determinism.
    external: Vec<Vec<(usize, f64)>>,
    /// Leak rate per member.
    leak: Vec<f64>,
    /// Mass sitting on each member.
    local_mass: Vec<f64>,
    /// Members already folded out.
    eliminated: Vec<bool>,
}

impl Elimination {
    fn new(states: usize) -> Self {
        Elimination {
            local: vec![NOT_LOCAL; states],
            internal: Vec::new(),
            external: Vec::new(),
            leak: Vec::new(),
            local_mass: Vec::new(),
            eliminated: Vec::new(),
        }
    }

    /// Makes `component` the current component.
    fn enter(&mut self, component: &[usize]) {
        for (row, &i) in component.iter().enumerate() {
            self.local[i] = row;
        }
    }

    /// Returns `component`'s members to `NOT_LOCAL`.
    fn leave(&mut self, component: &[usize]) {
        for &i in component {
            self.local[i] = NOT_LOCAL;
        }
    }
}

/// Pushes the probability mass sitting on one strongly connected component
/// out to its successors by exact state elimination, working in the
/// buffers of `scratch`, whose `local` map must hold `component`.
///
/// This is Gaussian elimination in Grassmann–Taksar–Heyman form: every
/// update is an addition of non-negative rates or a division by a positive
/// total, never a subtraction — so the exit split keeps full relative
/// accuracy even when the chain loops through the component ~1/γ² times
/// before escaping (probability-space `I − T` solves lose the exit to
/// rounding at γ separations like the paper's 10⁹).
///
/// Eliminating state `k` with total outflow `Σ_j w_kj + e_k` first sends
/// `k`'s mass along its current edges, then folds `k` out of the component:
/// every edge `i → k` is replaced by `i`'s share of `k`'s edges. A state
/// whose total outflow is zero (a dead end, or the last state of a closed
/// recurrent class) keeps its mass forever: it is added to `undecided`.
fn eliminate_component(
    scratch: &mut Elimination,
    space: &StateSpace,
    component: &[usize],
    mass: &mut [f64],
    undecided: &mut f64,
    escaped: &mut f64,
) {
    let k = component.len();
    let Elimination {
        local,
        internal,
        external,
        leak,
        local_mass,
        eliminated,
    } = scratch;
    internal.clear();
    internal.resize(k * k, 0.0);
    if external.len() < k {
        external.resize_with(k, Vec::new);
    }
    for edges in &mut external[..k] {
        edges.clear();
    }
    leak.clear();
    local_mass.clear();
    eliminated.clear();
    eliminated.resize(k, false);
    for (row, &i) in component.iter().enumerate() {
        for (j, rate) in space.transitions(i) {
            match local[j] {
                NOT_LOCAL => add_edge(&mut external[row], j, rate),
                col => internal[row * k + col] += rate,
            }
        }
        leak.push(space.leak_rate(i));
        local_mass.push(mass[i]);
        mass[i] = 0.0;
    }

    for step in 0..k {
        eliminated[step] = true;
        let internal_out: f64 = (0..k)
            .filter(|&j| !eliminated[j])
            .map(|j| internal[step * k + j])
            .sum();
        let external_out: f64 = external[step].iter().map(|&(_, r)| r).sum();
        let total = internal_out + external_out + leak[step];
        if total == 0.0 {
            // Dead end or closed recurrent class: this mass never decides.
            *undecided += local_mass[step];
            local_mass[step] = 0.0;
            continue;
        }
        // Send the state's mass along its current (partially folded) edges.
        let m = local_mass[step];
        local_mass[step] = 0.0;
        if m > 0.0 {
            for j in (0..k).filter(|&j| !eliminated[j]) {
                local_mass[j] += m * internal[step * k + j] / total;
            }
            for &(target, rate) in &external[step] {
                mass[target] += m * rate / total;
            }
            *escaped += m * leak[step] / total;
        }
        // Fold the state out: redirect every remaining i → step edge.
        // Move the eliminated state's edge list out instead of borrowing
        // `external` at two indices in the loop, then put it back so its
        // allocation serves the next component.
        let step_edges = std::mem::take(&mut external[step]);
        let step_leak = leak[step];
        for i in (0..k).filter(|&i| !eliminated[i]) {
            let w = internal[i * k + step];
            if w == 0.0 {
                continue;
            }
            internal[i * k + step] = 0.0;
            let f = w / total;
            for j in (0..k).filter(|&j| !eliminated[j]) {
                internal[i * k + j] += f * internal[step * k + j];
            }
            for &(target, rate) in &step_edges {
                add_edge(&mut external[i], target, f * rate);
            }
            leak[i] += f * step_leak;
        }
        external[step] = step_edges;
    }
}

/// Accumulates `rate` onto the edge towards `target`, keeping the list
/// sorted by target for deterministic iteration.
fn add_edge(edges: &mut Vec<(usize, f64)>, target: usize, rate: f64) {
    match edges.binary_search_by_key(&target, |&(t, _)| t) {
        Ok(pos) => edges[pos].1 += rate,
        Err(pos) => edges.insert(pos, (target, rate)),
    }
}

/// The strongly connected components of a state space, in Tarjan emission
/// order: every component appears *before* the components that can reach
/// it (sinks first). They are stored flat, one list of members cut at
/// `starts`, because most spaces condense into thousands of singletons.
pub(crate) struct Components {
    members: Vec<usize>,
    /// Component `c` is `members[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl Components {
    /// Returns component `c`'s members, in the order Tarjan popped them.
    pub(crate) fn get(&self, c: usize) -> &[usize] {
        &self.members[self.starts[c]..self.starts[c + 1]]
    }

    /// Returns the components in emission order.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &[usize]> + '_ {
        self.starts
            .windows(2)
            .map(|bounds| &self.members[bounds[0]..bounds[1]])
    }
}

/// Iterative Tarjan over the state-space transition graph.
pub(crate) fn strongly_connected_components(space: &StateSpace) -> Components {
    let n = space.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Components {
        members: Vec::with_capacity(n),
        starts: vec![0],
    };
    // Explicit DFS frames: (state, iterator position over its successors).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&(v, edge)) = frames.last() {
            let successor = space.successors(v).get(edge).copied();
            match successor {
                Some(w) => {
                    frames.last_mut().expect("frame exists").1 += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            components.members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        components.starts.push(components.members.len());
                    }
                }
            }
        }
    }
    components
}

/// The exact first-passage outcome distribution of a reaction network.
///
/// Probabilities are exact up to the reported [`escaped`] mass (truncation
/// leak only, under strict bounds it is zero): each true outcome
/// probability lies within `escaped` of the reported value.
///
/// [`escaped`]: OutcomeDistribution::escaped
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeDistribution {
    names: Vec<String>,
    probabilities: Vec<f64>,
    undecided: f64,
    escaped: f64,
    sweeps: usize,
    states: usize,
}

impl OutcomeDistribution {
    /// Returns the outcome names, in registration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Returns the absorption probabilities, aligned with [`names`].
    ///
    /// [`names`]: OutcomeDistribution::names
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Returns the probability of the named outcome (0 if unknown).
    pub fn probability(&self, name: &str) -> f64 {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.probabilities[i])
            .unwrap_or(0.0)
    }

    /// Returns the probability mass that can never reach any outcome: dead
    /// transient states plus closed recurrent classes.
    pub fn undecided(&self) -> f64 {
        self.undecided
    }

    /// Returns the probability mass lost through finite-state-projection
    /// truncation: the rigorous error bound on every reported probability
    /// (zero under strict bounds).
    pub fn escaped(&self) -> f64 {
        self.escaped
    }

    /// Returns the Gauss–Seidel sweeps spent in large cyclic components
    /// (0 when every component was solved densely).
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Returns the number of states in the enumerated first-passage space.
    pub fn states(&self) -> usize {
        self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn competing_channels_split_by_rate_ratio() {
        for &(ka, kb) in &[(1.0f64, 1.0f64), (2.0, 6.0), (9.0, 1.0)] {
            let crn: Crn = format!("x -> a @ {ka}\nx -> b @ {kb}").parse().unwrap();
            let initial = crn.state_from_counts([("x", 1)]).unwrap();
            let distribution = FirstPassage::new(&crn)
                .outcome_species_at_least("first", "a", 1)
                .unwrap()
                .outcome_species_at_least("second", "b", 1)
                .unwrap()
                .solve(&initial, &PopulationBounds::strict(1))
                .unwrap();
            let expected = ka / (ka + kb);
            assert!(
                (distribution.probability("first") - expected).abs() < 1e-12,
                "ka={ka}, kb={kb}: {}",
                distribution.probability("first")
            );
            assert!(
                (distribution.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12,
                "outcomes are exhaustive"
            );
            assert_eq!(distribution.undecided(), 0.0);
            assert_eq!(distribution.escaped(), 0.0);
            assert_eq!(distribution.names(), &["first", "second"]);
            assert_eq!(distribution.probability("unknown"), 0.0);
        }
    }

    #[test]
    fn gamblers_ruin_matches_the_closed_form() {
        // The count of `a` performs a birth–death walk with constant birth
        // rate λ and mass-action death rate μ_j = j·death (counts 0 and N
        // made absorbing). The hitting probability of N before 0 has the
        // standard closed form P(win from i) = Σ_{j<i} ρ_j / Σ_{j<N} ρ_j
        // with ρ_0 = 1 and ρ_j = Π_{m=1..j} μ_m/λ.
        let (birth, death) = (2.0f64, 1.0f64);
        let n = 6u64;
        let start = 2u64;
        let crn: Crn = format!("w -> a + w @ {birth}\na + w -> w @ {death}")
            .parse()
            .unwrap();
        let initial = crn.state_from_counts([("a", start), ("w", 1)]).unwrap();
        let a = crn.species_id("a").unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome("ruin", move |s: &State| s.count(a) == 0)
            .outcome_species_at_least("win", "a", n)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(n))
            .unwrap();
        let rho: Vec<f64> = (0..n)
            .scan(1.0f64, |acc, j| {
                if j > 0 {
                    *acc *= j as f64 * death / birth;
                }
                Some(*acc)
            })
            .collect();
        let exact = rho[..start as usize].iter().sum::<f64>() / rho.iter().sum::<f64>();
        assert!(
            (distribution.probability("win") - exact).abs() < 1e-12,
            "{} vs {exact}",
            distribution.probability("win")
        );
        assert!(
            (distribution.probability("ruin") + distribution.probability("win") - 1.0).abs()
                < 1e-12
        );
        // The whole interior is one strongly connected component, solved by
        // one dense LU rather than iterative sweeps.
        assert_eq!(distribution.sweeps(), 0);
    }

    #[test]
    fn tight_cycles_are_solved_exactly() {
        // A clock loop (w <-> a) that the chain traverses ~10⁶ times per
        // productive event: power iteration would need millions of sweeps,
        // the SCC condensation one 2×2 dense solve. The two slow channels
        // still split the mass evenly.
        let crn: Crn = "w -> a @ 1000000\na -> w @ 1000000\nw -> win @ 0.5\nw -> lose @ 0.5"
            .parse()
            .unwrap();
        let initial = crn.state_from_counts([("w", 1)]).unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("win", "win", 1)
            .unwrap()
            .outcome_species_at_least("lose", "lose", 1)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(1))
            .unwrap();
        assert!((distribution.probability("win") - 0.5).abs() < 1e-12);
        assert_eq!(distribution.sweeps(), 0, "dense path handles the cycle");
    }

    #[test]
    fn closed_recurrent_classes_count_as_undecided() {
        // `a <-> b` cycles forever and the outcome species is unreachable.
        let crn: Crn = "a -> b @ 1\nb -> a @ 1\nc -> win @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("decided", "win", 1)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(1))
            .unwrap();
        assert_eq!(distribution.probability("decided"), 0.0);
        assert!((distribution.undecided() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_closed_recurrent_classes_count_as_undecided_too() {
        // The same trap above the dense-component limit (301 states): the
        // iterative path must detect the closed class up front rather than
        // diverge against the sweep budget.
        let crn: Crn = "a -> b @ 1\nb -> a @ 1\nc -> win @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 300)]).unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("decided", "win", 1)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(300))
            .unwrap();
        assert_eq!(distribution.probability("decided"), 0.0);
        assert!((distribution.undecided() - 1.0).abs() < 1e-12);
        assert_eq!(distribution.sweeps(), 0, "no sweeps wasted on a trap");
    }

    #[test]
    fn large_components_fall_back_to_sweeps() {
        // A reflecting random walk with strong upward drift on ~400 interior
        // states — one strongly connected component beyond the dense limit —
        // must still reach the absorbing top with probability one.
        let crn: Crn = "w -> a + w @ 100\na + w -> w @ 0.01".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1), ("w", 1)]).unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("full", "a", 400)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(400))
            .unwrap();
        assert!(
            (distribution.probability("full") - 1.0).abs() < 1e-9,
            "p = {}",
            distribution.probability("full")
        );
        assert!(distribution.sweeps() > 0, "iterative fallback used");
    }

    #[test]
    fn cyclic_components_of_every_size_share_one_solve() {
        // One molecule walking rings of 7, 3, 2 and 300 states, each ring a
        // strongly connected component and each exit leading downstream, so
        // one solve eliminates a large component before smaller ones and
        // sweeps one above the dense limit. Buffers left dirty by an earlier
        // component would misroute mass in a later one.
        let mut text = String::from("s -> a0 @ 1\ns -> b0 @ 2\n");
        for (ring, size, forward, backward) in [
            ("a", 7, 3.0, 1.0),
            ("b", 3, 1.0, 2.0),
            ("c", 2, 4.0, 4.0),
            ("d", 300, 1.0, 1.2),
        ] {
            for i in 0..size {
                let j = (i + 1) % size;
                text += &format!("{ring}{i} -> {ring}{j} @ {forward}\n");
                text += &format!("{ring}{j} -> {ring}{i} @ {backward}\n");
            }
        }
        text += "a3 -> c0 @ 0.5\na5 -> d0 @ 0.25\nb1 -> c0 @ 1\nb2 -> lose @ 0.1\n";
        text += "c1 -> d0 @ 1\nc0 -> win @ 0.3\n";
        for i in (0..300).step_by(5) {
            let outcome = if i % 10 == 0 { "win" } else { "lose" };
            text += &format!("d{i} -> {outcome} @ 0.05\n");
        }
        let crn: Crn = text.parse().unwrap();
        let initial = crn.state_from_counts([("s", 1)]).unwrap();
        let bounds = PopulationBounds::strict(1);
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("win", "win", 1)
            .unwrap()
            .outcome_species_at_least("lose", "lose", 1)
            .unwrap()
            .solve(&initial, &bounds)
            .unwrap();
        assert_eq!(distribution.states(), 1 + 7 + 3 + 2 + 300 + 2);
        assert!(distribution.sweeps() > 0, "the 300-state ring is swept");
        assert_eq!(
            (distribution.undecided(), distribution.escaped()),
            (0.0, 0.0)
        );
        let total: f64 = distribution.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
        // An independent oracle: the dense `I − T` solve of the checker.
        let oracle = crate::Checker::new(&crn, initial, bounds)
            .hitting_time_species("win", 1)
            .unwrap();
        assert!(
            (distribution.probability("win") - oracle.probability).abs() < 1e-10,
            "{} vs {}",
            distribution.probability("win"),
            oracle.probability
        );
    }

    #[test]
    fn sweep_budget_failure_is_typed() {
        let crn: Crn = "w -> a + w @ 100\na + w -> w @ 0.01".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1), ("w", 1)]).unwrap();
        let err = FirstPassage::new(&crn)
            .outcome_species_at_least("full", "a", 400)
            .unwrap()
            .max_sweeps(1)
            .solve(&initial, &PopulationBounds::strict(400))
            .unwrap_err();
        assert!(matches!(err, CmeError::NotConverged { .. }));
    }

    #[test]
    fn dead_states_count_as_undecided() {
        // Both molecules can pair off into nothing (dead end) or convert.
        let crn: Crn = "a + b -> 0 @ 1\na -> win @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1), ("b", 1)]).unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("decided", "win", 1)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(1))
            .unwrap();
        assert!((distribution.probability("decided") - 0.5).abs() < 1e-12);
        assert!((distribution.undecided() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn first_matching_outcome_wins_classification() {
        let crn: Crn = "x -> a @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("one", "a", 1)
            .unwrap()
            .outcome_species_at_least("also-one", "a", 1)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(1))
            .unwrap();
        assert_eq!(distribution.probability("one"), 1.0);
        assert_eq!(distribution.probability("also-one"), 0.0);
    }

    #[test]
    fn initial_state_already_in_an_outcome_class() {
        let crn: Crn = "a -> b @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("start", "a", 1)
            .unwrap()
            .solve(&initial, &PopulationBounds::strict(1))
            .unwrap();
        assert_eq!(distribution.probability("start"), 1.0);
        assert_eq!(distribution.states(), 1);
    }

    #[test]
    fn truncation_leak_is_reported_as_escaped() {
        // A birth race that can run past the retained window: the escaped
        // mass bounds the error on the reported outcome probability.
        let crn: Crn = "0 -> a @ 1\na -> win @ 1".parse().unwrap();
        let initial = crn.zero_state();
        let distribution = FirstPassage::new(&crn)
            .outcome_species_at_least("decided", "win", 1)
            .unwrap()
            .solve(&initial, &PopulationBounds::truncating(3))
            .unwrap();
        assert!(distribution.escaped() > 0.0);
        assert!((distribution.probability("decided") + distribution.escaped() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let crn: Crn = "a -> b @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 1)]).unwrap();
        assert!(matches!(
            FirstPassage::new(&crn).solve(&initial, &PopulationBounds::strict(1)),
            Err(CmeError::InvalidInput { .. })
        ));
        assert!(FirstPassage::new(&crn)
            .outcome_species_at_least("x", "missing", 1)
            .is_err());
        assert!(matches!(
            FirstPassage::new(&crn)
                .outcome_species_at_least("x", "b", 1)
                .unwrap()
                .tolerance(0.0)
                .solve(&initial, &PopulationBounds::strict(1)),
            Err(CmeError::InvalidInput { .. })
        ));
    }
}
