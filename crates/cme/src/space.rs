//! Breadth-first enumeration of the reachable state space.
//!
//! Expanding a state allocates nothing:
//!
//! - **Arena.** Each state is stored once, as a row of one flat `u64`
//!   arena, in breadth-first discovery order.
//! - **Keys.** A state's key is `Σ count·weight` (wrapping), with one fixed
//!   odd pseudo-random weight per species. One firing of a reaction moves
//!   the key by the constant `Σ δ·weight`, so a successor's key follows
//!   from its parent's without reading the successor.
//! - **Lookup.** A `HashMap` from key to index, with a multiply-fold
//!   hasher, finds the state a key names; the find is confirmed by
//!   comparing rows. States whose keys coincide are told apart by probing
//!   the next keys in turn, so the map holds no copy of a state and no
//!   product of the caps has to fit a word.
//! - **Overflow.** A count that would pass `u64::MAX` is over its cap, so a
//!   birth at `u64::MAX` is a bound violation (or leak), never a wrap to 0.
//!
//! State indices follow breadth-first discovery, and every downstream
//! vector (generator rows, probabilities, marginals) follows the indices,
//! so keeping that order keeps every solution bit-identical.
//!
//! # Structure and weights
//!
//! Rate constants are finite and positive, so they never decide whether a
//! reaction can fire: the reachable set, the edges, the leak set and the
//! absorbing flags depend only on the stoichiometry, the initial state, the
//! bounds and the absorbing predicate. A space is therefore split in two:
//!
//! - a rate-free [`SpaceStructure`], shared behind an [`Arc`]: the arena,
//!   the CSR targets, the absorbing flags, the resolved caps, and the
//!   strongly connected components, built on first use;
//! - its weights: each edge's rate and each state's leak.
//!
//! Enumeration weighs each edge as it finds it, with [`propensity`].
//! [Weighing](SpaceStructure::weigh) a held structure at other rates runs
//! the same loop over each row's reactions without the lookups: the same
//! products, in the same order, so the result is bit-identical to a space
//! enumerated at those rates. The structure stores nothing per edge beyond
//! its target, so enumeration writes no more than it did before the split.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

use crn::{Crn, Reaction, ReactionTerm, SpeciesId, State};

use crate::bounds::{BoundaryPolicy, PopulationBounds};
use crate::error::CmeError;

/// Mass-action propensity of `reaction` in the state with `counts` —
/// `k · Π_s C(X_s, ν_s)`, Gillespie's combination-counting formulation.
/// Zero whenever a reactant is short. Kept local so `cme` depends only on
/// the `crn` data model; the oracle tests pin it bitwise against
/// `gillespie::propensity`.
///
/// Whether it is positive does not depend on `k`: a positive combination
/// count is at least about 1, and `k` is finite and positive.
pub(crate) fn propensity(reaction: &Reaction, counts: &[u64]) -> f64 {
    let mut combinations = 1.0f64;
    for term in reaction.reactants() {
        let count = match counts.get(term.species.index()) {
            Some(&c) => c,
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
/// The rate-free structure is shared: [`clone`](Clone::clone) and
/// [`reweight`](Self::reweight) copy only the weights.
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
/// assert_eq!(space.state(0), &[3, 0]);
///
/// // The same structure at other rates, without enumerating again.
/// let faster: crn::Crn = "a -> b @ 10\nb -> a @ 2".parse().expect("network");
/// let reweighted = space.reweight(&faster)?;
/// assert_eq!(reweighted.total_outflow(0), 30.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StateSpace {
    structure: Arc<Structure>,
    /// The propensity of each edge, aligned with the structure's.
    edge_rate: Vec<f64>,
    /// Each state's leaking propensities, summed in step order.
    leak: Vec<f64>,
}

/// The rate-free structure of a [`StateSpace`]: everything but its
/// weights, shared by every space [weighed](Self::weigh) from it. It costs
/// one reference count to take from a space, and it is what a cache of
/// spaces holds.
#[derive(Debug, Clone)]
pub struct SpaceStructure(Arc<Structure>);

/// The rate-free part of a [`StateSpace`].
#[derive(Debug)]
struct Structure {
    /// The stoichiometry the space was enumerated from, which
    /// [`SpaceStructure::weigh`] requires of a network.
    network: Stoichiometry,
    /// Each species' resolved cap: a firing past one leaks.
    caps: Vec<u64>,
    /// Species per state: the row width of `counts`.
    width: usize,
    /// Row `i` is the counts of state `i`.
    counts: Vec<u64>,
    edge_ptr: Vec<usize>,
    edge_target: Vec<usize>,
    absorbing: Vec<bool>,
    truncated: bool,
    /// The strongly connected components, built on first use.
    components: OnceLock<Components>,
}

/// A network's species names and each reaction's reactant and product
/// terms: everything enumeration reads of a network but its rates. It
/// takes two allocations, the names and one index of words.
#[derive(Debug, PartialEq)]
struct Stoichiometry {
    species: usize,
    reactions: usize,
    /// Every species name, concatenated.
    names: String,
    /// The end of each species name in `names`; then the end of each
    /// reaction's reactant and product term lists, counted in terms; then
    /// every term as its species index and coefficient.
    words: Vec<usize>,
}

impl Stoichiometry {
    fn of(crn: &Crn) -> Self {
        let species = crn.species();
        let reactions = crn.reactions();
        let lists = || reactions.iter().flat_map(|r| [r.reactants(), r.products()]);
        let terms: usize = lists().map(<[ReactionTerm]>::len).sum();
        let mut names = String::with_capacity(species.iter().map(|s| s.name().len()).sum());
        let mut words = Vec::with_capacity(species.len() + 2 * reactions.len() + 2 * terms);
        for s in species {
            names.push_str(s.name());
            words.push(names.len());
        }
        let mut end = 0;
        for list in lists() {
            end += list.len();
            words.push(end);
        }
        for term in lists().flatten() {
            words.extend([term.species.index(), term.coefficient as usize]);
        }
        Stoichiometry {
            species: species.len(),
            reactions: reactions.len(),
            names,
            words,
        }
    }

    /// Whether `crn` has these species, in this order, and these reactions'
    /// terms; rates and labels are not compared.
    fn matches(&self, crn: &Crn) -> bool {
        if self.species != crn.species_len() || self.reactions != crn.reactions().len() {
            return false;
        }
        let (name_ends, rest) = self.words.split_at(self.species);
        let (list_ends, terms) = rest.split_at(2 * self.reactions);
        let mut start = 0;
        let names = crn.species().iter().zip(name_ends).all(|(s, &end)| {
            let name = &self.names[std::mem::replace(&mut start, end)..end];
            name == s.name()
        });
        start = 0;
        names
            && crn
                .reactions()
                .iter()
                .flat_map(|r| [r.reactants(), r.products()])
                .zip(list_ends)
                .all(|(list, &end)| {
                    let held = &terms[2 * std::mem::replace(&mut start, end)..2 * end];
                    held.len() == 2 * list.len()
                        && held.chunks(2).zip(list).all(|(word, term)| {
                            word == [term.species.index(), term.coefficient as usize]
                        })
                })
    }
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
    /// This is the one enumeration path: it builds the rate-free structure
    /// and weighs each edge with `crn`'s rates as it finds it.
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
        Self::explore(crn, initial, bounds, absorbing, &species_weights(crn))
    }

    /// The enumerator behind [`enumerate_absorbing`](Self::enumerate_absorbing),
    /// keying states with one `weights` entry per species.
    fn explore<F>(
        crn: &Crn,
        initial: &State,
        bounds: &PopulationBounds,
        absorbing: F,
        weights: &[u64],
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
        let bound_exceeded = |s: usize| CmeError::BoundExceeded {
            species: crn.species()[s].name().to_string(),
            cap: caps[s],
        };
        if let Some(s) = initial
            .counts()
            .iter()
            .zip(&caps)
            .position(|(&count, &cap)| count > cap)
        {
            return Err(bound_exceeded(s));
        }
        let steps = steps(crn, weights);

        let width = initial.species_len();
        let mut space = Structure {
            network: Stoichiometry::of(crn),
            caps: Vec::new(),
            width,
            counts: initial.counts().to_vec(),
            edge_ptr: vec![0],
            edge_target: Vec::new(),
            absorbing: Vec::new(),
            truncated: bounds.policy() == BoundaryPolicy::Truncate,
            components: OnceLock::new(),
        };
        let mut edge_rate = Vec::new();
        let mut leak = Vec::new();
        let mut seen = Seen::new(key(weights, initial.counts()));
        // The absorbing predicate sees each state through this one buffer,
        // and each successor is built in the other before it is looked up.
        let mut buffer = initial.clone();
        let mut successor = Vec::with_capacity(width);

        // Classic BFS worklist: states are expanded in discovery order, so
        // the CSR rows fill in index order.
        let mut next = 0usize;
        while next < seen.len() {
            let row = next * width..(next + 1) * width;
            let is_absorbing = absorbing(load(&mut buffer, &space.counts[row.clone()]));
            space.absorbing.push(is_absorbing);
            let mut leaked = 0.0f64;
            if !is_absorbing {
                let parent_key = key(weights, &space.counts[row.clone()]);
                for step in &steps {
                    let parent = &space.counts[row.clone()];
                    let rate = propensity(step.reaction, parent);
                    if rate <= 0.0 {
                        continue;
                    }
                    if let Some(s) = step.over_cap(parent, &caps) {
                        match bounds.policy() {
                            BoundaryPolicy::Strict => return Err(bound_exceeded(s)),
                            BoundaryPolicy::Truncate => {
                                leaked += rate;
                                continue;
                            }
                        }
                    }
                    successor.clear();
                    successor.extend_from_slice(parent);
                    step.apply(&mut successor);
                    let successor_key = parent_key.wrapping_add(step.key_delta);
                    let Some(target) =
                        seen.index_or_insert(&mut space.counts, successor_key, &successor, budget)
                    else {
                        return Err(CmeError::StateBudgetExceeded { budget });
                    };
                    space.edge_target.push(target);
                    edge_rate.push(rate);
                }
            }
            space.edge_ptr.push(space.edge_target.len());
            leak.push(leaked);
            next += 1;
        }
        space.caps = caps;
        Ok(StateSpace {
            structure: Arc::new(space),
            edge_rate,
            leak,
        })
    }

    /// This space's structure weighed with `crn`'s rates: see
    /// [`SpaceStructure::weigh`].
    ///
    /// # Errors
    ///
    /// Same as [`SpaceStructure::weigh`].
    pub fn reweight(&self, crn: &Crn) -> Result<Self, CmeError> {
        self.structure().weigh(crn)
    }

    /// This space's rate-free structure, shared.
    pub fn structure(&self) -> SpaceStructure {
        SpaceStructure(Arc::clone(&self.structure))
    }

    /// Returns the number of retained states.
    pub fn len(&self) -> usize {
        self.structure.absorbing.len()
    }

    /// Returns `true` if the space has no states (never true for an
    /// enumerated space — the initial state is always retained).
    pub fn is_empty(&self) -> bool {
        self.structure.absorbing.is_empty()
    }

    /// Returns the molecule counts of the state at `index`, one per
    /// species in species order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn state(&self, index: usize) -> &[u64] {
        assert!(index < self.len(), "state {index} out of range");
        let width = self.structure.width;
        &self.structure.counts[index * width..(index + 1) * width]
    }

    /// Returns the index of the initial state (always 0).
    pub fn initial_index(&self) -> usize {
        0
    }

    /// Returns `true` if the state at `index` was made absorbing by the
    /// enumeration predicate.
    pub fn is_absorbing(&self, index: usize) -> bool {
        self.structure.absorbing[index]
    }

    /// Returns the outgoing transitions of the state at `index` as
    /// `(target index, rate)` pairs.
    pub fn transitions(&self, index: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.structure.edge_ptr[index]..self.structure.edge_ptr[index + 1];
        self.structure.edge_target[range.clone()]
            .iter()
            .copied()
            .zip(self.edge_rate[range].iter().copied())
    }

    /// Returns the target indices of the outgoing transitions of the state
    /// at `index`, in the order of [`transitions`](Self::transitions).
    pub(crate) fn successors(&self, index: usize) -> &[usize] {
        let structure = &*self.structure;
        &structure.edge_target[structure.edge_ptr[index]..structure.edge_ptr[index + 1]]
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
        self.structure.truncated
    }

    /// Returns the number of stored transitions.
    pub fn transition_count(&self) -> usize {
        self.structure.edge_target.len()
    }

    /// The strongly connected components of the transition graph, found by
    /// Tarjan's algorithm on first use and shared by every space with this
    /// structure.
    pub(crate) fn components(&self) -> &Components {
        self.structure
            .components
            .get_or_init(|| strongly_connected_components(self))
    }

    /// Returns a `State` buffer of this space's width, for
    /// [`load`](Self::load).
    pub(crate) fn buffer(&self) -> State {
        State::zero(self.structure.width)
    }

    /// Copies the state at `index` into `buffer` and returns it: how the
    /// `Fn(&State)` predicates see the arena's rows without a `State` per
    /// row.
    pub(crate) fn load<'b>(&self, index: usize, buffer: &'b mut State) -> &'b State {
        load(buffer, self.state(index))
    }

    /// The rows in index order.
    fn rows(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.len()).map(|i| self.state(i))
    }

    /// Projects a probability vector over states down to the marginal
    /// distribution of one species' molecule count: entry `k` is the
    /// probability that the species has exactly `k` molecules. The
    /// marginal is dense, one entry per count up to the largest retained.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` does not have one entry per state, the
    /// species is out of range for the network, or the largest retained
    /// count plus one does not fit in a `usize` (a state at `u64::MAX`).
    pub fn marginal(&self, probabilities: &[f64], species: SpeciesId) -> Vec<f64> {
        assert_eq!(
            probabilities.len(),
            self.len(),
            "need one probability per state"
        );
        let s = species.index();
        let max_count = self.rows().map(|row| row[s]).max().unwrap_or(0);
        let len = usize::try_from(max_count)
            .ok()
            .and_then(|count| count.checked_add(1))
            .unwrap_or_else(|| panic!("a dense marginal cannot reach count {max_count}"));
        let mut marginal = vec![0.0; len];
        for (row, &p) in self.rows().zip(probabilities) {
            marginal[row[s] as usize] += p;
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
            self.len(),
            "need one probability per state"
        );
        let mut buffer = self.buffer();
        probabilities
            .iter()
            .enumerate()
            .filter(|&(i, _)| predicate(self.load(i, &mut buffer)))
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
            self.len(),
            "need one probability per state"
        );
        let s = species.index();
        self.rows()
            .zip(probabilities)
            .map(|(row, &p)| row[s] as f64 * p)
            .sum()
    }
}

impl SpaceStructure {
    /// This structure weighed with `crn`'s rates, without enumerating: bit
    /// for bit the space
    /// [`enumerate_absorbing`](StateSpace::enumerate_absorbing) builds from
    /// `crn` with the same initial state, bounds and absorbing predicate.
    /// Each expanded row runs enumeration's loop over the reactions without
    /// the lookups, in O(states · reactions): a firing within the caps
    /// weighs the row's next edge and one past them adds to its leak. The
    /// structure, its strongly connected components included, is shared
    /// with the result.
    ///
    /// # Errors
    ///
    /// Returns [`CmeError::StoichiometryMismatch`] unless `crn` has the
    /// species, in the same order, and the reactions, with the same terms,
    /// of the network this structure was enumerated from. Rates and labels
    /// may differ.
    pub fn weigh(&self, crn: &Crn) -> Result<StateSpace, CmeError> {
        let s = &*self.0;
        if !s.network.matches(crn) {
            return Err(CmeError::StoichiometryMismatch {
                message: format!(
                    "the space was enumerated from {} species and {} reactions with \
                     other terms than the network's {} species and {} reactions",
                    s.network.species,
                    s.network.reactions,
                    crn.species_len(),
                    crn.reactions().len()
                ),
            });
        }
        let steps = steps(crn, &species_weights(crn));
        let mut edge_rate = Vec::with_capacity(s.edge_target.len());
        let mut leak = Vec::with_capacity(s.absorbing.len());
        for (state, &is_absorbing) in s.absorbing.iter().enumerate() {
            let row = &s.counts[state * s.width..(state + 1) * s.width];
            let mut leaked = 0.0f64;
            if !is_absorbing {
                for step in &steps {
                    let rate = propensity(step.reaction, row);
                    if rate <= 0.0 {
                        continue;
                    }
                    // Only truncating bounds keep a space with such a firing.
                    if step.over_cap(row, &s.caps).is_some() {
                        leaked += rate;
                    } else {
                        edge_rate.push(rate);
                    }
                }
            }
            debug_assert_eq!(edge_rate.len(), s.edge_ptr[state + 1]);
            leak.push(leaked);
        }
        Ok(StateSpace {
            structure: Arc::clone(&self.0),
            edge_rate,
            leak,
        })
    }

    /// Returns the bytes holding this structure takes: the structure
    /// itself, every vector it owns, and room for its strongly connected
    /// components whether or not they are built yet. Each allocation is
    /// charged 32 bytes past its size, more than glibc's malloc adds.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(len: usize) -> usize {
            match len * std::mem::size_of::<T>() {
                0 => 0,
                n => n + ALLOCATION_SLACK,
            }
        }
        fn vec<T>(v: &Vec<T>) -> usize {
            bytes::<T>(v.capacity())
        }
        let s = &*self.0;
        let network = bytes::<u8>(s.network.names.capacity()) + vec(&s.network.words);
        // One member per state, and at most one start per state plus one.
        let components = bytes::<usize>(s.absorbing.len()) + bytes::<usize>(s.absorbing.len() + 1);
        // The `Arc`'s allocation: two counts and the structure.
        bytes::<Structure>(1)
            + 2 * std::mem::size_of::<usize>()
            + network
            + vec(&s.caps)
            + vec(&s.counts)
            + vec(&s.edge_ptr)
            + vec(&s.edge_target)
            + vec(&s.absorbing)
            + components
    }
}

/// What one heap allocation is charged past its size in
/// [`SpaceStructure::heap_bytes`]: glibc's malloc, for one, adds an 8-byte
/// header and rounds up to a multiple of 16 bytes, 32 at least, so it never
/// takes 32 bytes more than was asked.
const ALLOCATION_SLACK: usize = 32;

/// The strongly connected components of a state space, in Tarjan emission
/// order: every component appears *before* the components that can reach
/// it (sinks first). They are stored flat, one list of members cut at
/// `starts`, because most spaces condense into thousands of singletons.
#[derive(Debug, PartialEq)]
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
fn strongly_connected_components(space: &StateSpace) -> Components {
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
    // Held as long as the structure: give back the doubling's slack, so
    // `heap_bytes`' allowance of one start per state covers it.
    components.starts.shrink_to_fit();
    components
}

/// Copies `counts` into `buffer`, which has one slot per count.
fn load<'b>(buffer: &'b mut State, counts: &[u64]) -> &'b State {
    for (s, &count) in counts.iter().enumerate() {
        buffer.set(SpeciesId::from_index(s), count);
    }
    buffer
}

/// The key weight of each of `crn`'s species.
fn species_weights(crn: &Crn) -> Vec<u64> {
    (0..crn.species_len()).map(species_weight).collect()
}

/// The steps of `crn`'s reactions that are not self-loops, in reaction
/// order: the order in which a state's edges are found and weighed.
fn steps<'a>(crn: &'a Crn, weights: &[u64]) -> Vec<Step<'a>> {
    crn.reactions()
        .iter()
        .filter_map(|reaction| Step::new(reaction, weights))
        .collect()
}

/// The key weight of species `s`: an odd pseudo-random word (SplitMix64's
/// output for `s + 1`), so the keys of distinct states rarely coincide.
fn species_weight(s: usize) -> u64 {
    let mut z = (s as u64 + 1).wrapping_mul(FOLD_MULTIPLIER);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// The key of `counts`: `Σ count·weight`, wrapping.
fn key(weights: &[u64], counts: &[u64]) -> u64 {
    counts
        .iter()
        .zip(weights)
        .fold(0, |key, (&count, &weight)| {
            key.wrapping_add(count.wrapping_mul(weight))
        })
}

/// One reaction's effect on a state, precomputed once per enumeration.
struct Step<'a> {
    reaction: &'a Reaction,
    /// The non-zero net changes `(species index, δ)`, in species order.
    deltas: Vec<(usize, i64)>,
    /// `Σ δ·weight`, wrapping: a parent's key plus this is the successor's
    /// key.
    key_delta: u64,
}

impl<'a> Step<'a> {
    /// The step of `reaction`, or `None` for a self-loop (every net change
    /// zero), which never yields a transition.
    fn new(reaction: &'a Reaction, weights: &[u64]) -> Option<Self> {
        let deltas: Vec<(usize, i64)> = reaction
            .species()
            .map(|id| (id.index(), reaction.net_change(id)))
            .filter(|&(_, delta)| delta != 0)
            .collect();
        if deltas.is_empty() {
            return None;
        }
        let key_delta = deltas.iter().fold(0u64, |key, &(s, delta)| {
            key.wrapping_add((delta as u64).wrapping_mul(weights[s]))
        });
        Some(Step {
            reaction,
            deltas,
            key_delta,
        })
    }

    /// The first species, in species order, that one firing from `counts`
    /// pushes past its cap. Only increases can: every retained state is
    /// within its caps. A count that would pass `u64::MAX` is past any cap.
    fn over_cap(&self, counts: &[u64], caps: &[u64]) -> Option<usize> {
        self.deltas
            .iter()
            .find(|&&(s, delta)| {
                delta > 0
                    && match counts[s].checked_add(delta as u64) {
                        Some(count) => count > caps[s],
                        None => true,
                    }
            })
            .map(|&(s, _)| s)
    }

    /// Applies one firing to `counts`, which the caller has checked it
    /// keeps within `0..=cap` for every species.
    fn apply(&self, counts: &mut [u64]) {
        for &(s, delta) in &self.deltas {
            counts[s] = counts[s].wrapping_add_signed(delta);
        }
    }
}

/// The enumeration's lookup table from a state's key to its index. A key
/// that is taken by a different state is passed over for the next key up,
/// the same probe on every lookup, so each state has one slot.
struct Seen {
    index: HashMap<u64, usize, BuildHasherDefault<FoldHasher>>,
}

impl Seen {
    /// A table holding the initial state, whose key is `key`, as index 0.
    fn new(key: u64) -> Self {
        let mut index = HashMap::default();
        index.insert(key, 0);
        Seen { index }
    }

    /// The number of states seen so far.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns the index of `state`, whose key is `key`, among the rows of
    /// `counts`. A new state is appended to `counts` as the next index,
    /// unless that would pass `budget`: then `None`.
    #[inline]
    fn index_or_insert(
        &mut self,
        counts: &mut Vec<u64>,
        mut key: u64,
        state: &[u64],
        budget: usize,
    ) -> Option<usize> {
        let width = state.len();
        let next = self.index.len();
        loop {
            match self.index.entry(key) {
                Entry::Occupied(entry) => {
                    let i = *entry.get();
                    if counts[i * width..(i + 1) * width] == *state {
                        return Some(i);
                    }
                }
                Entry::Vacant(entry) => {
                    if next >= budget {
                        return None;
                    }
                    entry.insert(next);
                    counts.extend_from_slice(state);
                    return Some(next);
                }
            }
            key = key.wrapping_add(1);
        }
    }
}

/// A hasher for state keys that applies [`fold`] to each word.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = fold(self.0 ^ word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// ⌊2⁶⁴/φ⌋, the odd multiplier of Fibonacci hashing.
const FOLD_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Spreads a word over the low bits: the word is multiplied into a 128-bit
/// product by an odd constant and the product's two halves are folded
/// together. std's `HashMap` takes bucket bits from the low end of the hash,
/// and a plain 64-bit multiply would leave those bits equal for keys that
/// differ only above them.
fn fold(key: u64) -> u64 {
    let product = u128::from(key) * u128::from(FOLD_MULTIPLIER);
    (product as u64) ^ ((product >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn::CrnBuilder;
    use proptest::prelude::*;

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
        assert_eq!(space.state(0), initial.counts());
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
            let expected = if space.state(i)[a.index()] == 4 {
                5.0
            } else {
                0.0
            };
            assert_eq!(space.leak_rate(i), expected);
        }
        let boundary = (0..space.len())
            .find(|&i| space.state(i)[a.index()] == 4)
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
        assert_eq!(propensity(&crn.reactions()[0], state.counts()), 18.0);
        let short = crn.state_from_counts([("a", 1)]).unwrap();
        assert_eq!(propensity(&crn.reactions()[0], short.counts()), 0.0);
    }

    #[test]
    fn a_birth_at_u64_max_is_over_its_cap_under_strict_bounds() {
        // From the top of the range, a birth of one or of two molecules
        // would wrap past u64::MAX: that count is over the cap.
        for (birth, cap) in [("0 -> a @ 1", u64::MAX), ("0 -> 2 a @ 1", u64::MAX - 1)] {
            let crn: Crn = birth.parse().unwrap();
            let initial = State::from_counts(vec![cap]);
            let err =
                StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(cap)).unwrap_err();
            assert_eq!(
                err,
                CmeError::BoundExceeded {
                    species: "a".into(),
                    cap
                },
                "{birth}"
            );
        }
    }

    #[test]
    fn a_birth_at_u64_max_leaks_under_truncating_bounds() {
        for (birth, cap) in [("0 -> a @ 1", u64::MAX), ("0 -> 2 a @ 1", u64::MAX - 1)] {
            let crn: Crn = birth.parse().unwrap();
            let initial = State::from_counts(vec![cap]);
            let space =
                StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(cap)).unwrap();
            assert_eq!(space.len(), 1, "{birth}");
            assert_eq!(space.transition_count(), 0, "{birth}");
            assert_eq!(space.leak_rate(0), 1.0, "{birth}");
        }
    }

    #[test]
    #[should_panic(expected = "a dense marginal cannot reach count 18446744073709551615")]
    fn a_marginal_up_to_u64_max_is_refused_by_name() {
        let crn: Crn = "0 -> a @ 1".parse().unwrap();
        let initial = State::from_counts(vec![u64::MAX]);
        let space =
            StateSpace::enumerate(&crn, &initial, &PopulationBounds::truncating(u64::MAX)).unwrap();
        let a = crn.species_id("a").unwrap();
        space.marginal(&[1.0], a);
    }

    #[test]
    fn fold_spreads_power_of_two_strides_over_low_bits() {
        // Keys that differ only above bit 9 must still differ in the low
        // bits the table indexes by.
        let low_bits: std::collections::HashSet<u64> =
            (0..1024u64).map(|i| fold(i << 10) & 0x3ff).collect();
        assert!(low_bits.len() > 512, "{} distinct", low_bits.len());
    }

    #[test]
    fn states_sharing_a_key_are_told_apart_by_their_rows() {
        // Unit weights make a state's key its molecule total, so all four
        // states of the closed isomerisation chain share one key.
        let (crn, initial) = isomerisation();
        compare(
            &crn,
            &initial,
            &PopulationBounds::strict(3),
            |_| false,
            &[1, 1],
        )
        .unwrap();
    }

    /// A space as plain vectors, rates and leaks as their bits.
    #[derive(Debug, Default, PartialEq)]
    struct Flat {
        width: usize,
        counts: Vec<u64>,
        absorbing: Vec<bool>,
        edge_ptr: Vec<usize>,
        edge_target: Vec<usize>,
        rate_bits: Vec<u64>,
        leak_bits: Vec<u64>,
        truncated: bool,
    }

    impl Flat {
        fn of(space: &StateSpace) -> Flat {
            let s = &*space.structure;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
            Flat {
                width: s.width,
                counts: s.counts.clone(),
                absorbing: s.absorbing.clone(),
                edge_ptr: s.edge_ptr.clone(),
                edge_target: s.edge_target.clone(),
                rate_bits: bits(&space.edge_rate),
                leak_bits: bits(&space.leak),
                truncated: s.truncated,
            }
        }

        /// The first field in which `self` and `other` differ.
        fn difference(&self, other: &Flat) -> Option<&'static str> {
            [
                ("width", self.width == other.width),
                ("states", self.counts == other.counts),
                ("absorbing flags", self.absorbing == other.absorbing),
                ("edge rows", self.edge_ptr == other.edge_ptr),
                ("edge targets", self.edge_target == other.edge_target),
                ("rate bits", self.rate_bits == other.rate_bits),
                ("leak bits", self.leak_bits == other.leak_bits),
                ("truncation", self.truncated == other.truncated),
            ]
            .into_iter()
            .find(|(_, same)| !same)
            .map(|(what, _)| what)
        }
    }

    /// The enumerator the arena rewrite replaced, kept as its reference: a
    /// heap `State` cloned per expansion and built per successor, every
    /// state stored twice, once as a SipHash key, and each edge weighed by
    /// the propensity as it is found.
    fn reference<F>(
        crn: &Crn,
        initial: &State,
        bounds: &PopulationBounds,
        absorbing: F,
    ) -> Result<Flat, CmeError>
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
        let mut states = vec![initial.clone()];
        let mut index = HashMap::from([(initial.clone(), 0usize)]);
        let mut space = Flat {
            width: initial.species_len(),
            edge_ptr: vec![0],
            truncated: bounds.policy() == BoundaryPolicy::Truncate,
            ..Flat::default()
        };
        let mut next = 0usize;
        while next < states.len() {
            let state = states[next].clone();
            let is_absorbing = absorbing(&state);
            space.absorbing.push(is_absorbing);
            let mut leak = 0.0f64;
            if !is_absorbing {
                for reaction in crn.reactions() {
                    let rate = propensity(reaction, state.counts());
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
                    let target = match index.get(&successor) {
                        Some(&i) => i,
                        None => {
                            let i = states.len();
                            if i >= budget {
                                return Err(CmeError::StateBudgetExceeded { budget });
                            }
                            states.push(successor.clone());
                            index.insert(successor, i);
                            i
                        }
                    };
                    space.edge_target.push(target);
                    space.rate_bits.push(rate.to_bits());
                }
            }
            space.edge_ptr.push(space.edge_target.len());
            space.leak_bits.push(leak.to_bits());
            next += 1;
        }
        space.counts = states.iter().flat_map(|s| s.counts()).copied().collect();
        Ok(space)
    }

    /// Runs the enumerator, keying states with `weights`, and the
    /// reference, and describes the first difference: states and their
    /// order, edge targets, the bits of every rate and leak, absorbing
    /// flags, or the error.
    fn compare<F>(
        crn: &Crn,
        initial: &State,
        bounds: &PopulationBounds,
        absorbing: F,
        weights: &[u64],
    ) -> Result<(), String>
    where
        F: Fn(&State) -> bool,
    {
        let expected = reference(crn, initial, bounds, &absorbing);
        let actual =
            StateSpace::explore(crn, initial, bounds, &absorbing, weights).map(|s| Flat::of(&s));
        match (expected, actual) {
            (Ok(e), Ok(a)) => match e.difference(&a) {
                Some(what) => Err(format!(
                    "{what} differ over {} reference states",
                    e.absorbing.len()
                )),
                None => Ok(()),
            },
            (Err(e), Err(a)) if e == a => Ok(()),
            (e, a) => Err(format!(
                "results differ: reference {:?}, enumerator {:?}",
                e.map(|s| s.absorbing.len()),
                a.map(|s| s.absorbing.len())
            )),
        }
    }

    /// One generated reaction: reactant and product draws for six species,
    /// and a rate.
    type ReactionSpec = (Vec<u32>, Vec<u32>, f64);

    /// The coefficient of a draw: draws 0–2 are themselves and larger ones
    /// are 0, so the width of a side's draw range sets how sparse it is.
    fn coefficient(draw: u32) -> u32 {
        if draw <= 2 {
            draw
        } else {
            0
        }
    }

    /// Builds a network over `species` species from `specs`, truncating
    /// each draw list to the species in play and skipping reactions left
    /// with no terms. With `self_loop`, the first reaction with reactants
    /// is repeated as a pure self-loop.
    fn network(species: usize, specs: &[ReactionSpec], self_loop: bool) -> Crn {
        let mut b = CrnBuilder::new();
        let ids: Vec<SpeciesId> = (0..species).map(|s| b.species(format!("s{s}"))).collect();
        let mut add = |reactants: &[u32], products: &[u32], rate: f64| {
            if reactants.iter().chain(products).all(|&c| c == 0) {
                return;
            }
            let mut reaction = b.reaction().rate(rate);
            for (s, (&r, &p)) in reactants.iter().zip(products).enumerate() {
                if r > 0 {
                    reaction = reaction.reactant(ids[s], r);
                }
                if p > 0 {
                    reaction = reaction.product(ids[s], p);
                }
            }
            reaction.add().expect("reaction");
        };
        let coefficients = |draws: &[u32]| -> Vec<u32> {
            draws[..species].iter().map(|&d| coefficient(d)).collect()
        };
        for (reactants, products, rate) in specs {
            add(&coefficients(reactants), &coefficients(products), *rate);
        }
        if self_loop {
            if let Some(reactants) = specs
                .iter()
                .map(|(r, _, _)| coefficients(r))
                .find(|r| r.iter().any(|&c| c > 0))
            {
                add(&reactants, &reactants, 1.0);
            }
        }
        b.build().expect("network")
    }

    proptest! {
        /// The enumerator reproduces its reference on generated networks:
        /// 1–6 species, coefficients 0–2 (so catalysts occur), optional
        /// pure self-loops, strict or truncating bounds with per-species
        /// caps, absorbing predicates and small state budgets — with the
        /// enumerator's own key weights, and with unit weights, under which
        /// every state with the same molecule total shares a key.
        #[test]
        fn enumeration_matches_the_reference_enumerator(
            species in 1usize..7,
            specs in prop::collection::vec(
                (
                    // Sparse reactants, so that most reactions can fire.
                    prop::collection::vec(0u32..10, 6),
                    prop::collection::vec(0u32..6, 6),
                    0.1f64..10.0,
                ),
                2..8,
            ),
            shape in (0u32..2, 0u32..2, 2u64..8, 0usize..60),
            caps in prop::collection::vec(0u64..16, 6),
            initial in (prop::collection::vec(0u64..8, 6), 0u32..8),
            target in (0u32..4, 0usize..6, 1u64..6),
        ) {
            let (self_loop, truncating, default_cap, budget) = shape;
            let crn = network(species, &specs, self_loop == 1);
            let mut bounds = if truncating == 1 {
                PopulationBounds::truncating(default_cap)
            } else {
                PopulationBounds::strict(default_cap)
            };
            // Caps from 8 up leave the default in place.
            for (s, &cap) in caps[..species].iter().enumerate() {
                if cap < 8 {
                    bounds = bounds.cap(format!("s{s}"), cap);
                }
            }
            // One case in five gets a budget of at most 44 states.
            if budget < 12 {
                bounds = bounds.max_states(budget * 4);
            }
            // One initial state in eight may start over its caps.
            let (counts, may_exceed) = initial;
            let caps = bounds.resolve(&crn);
            let initial: State = counts[..species]
                .iter()
                .zip(&caps)
                .map(|(&count, &cap)| if may_exceed == 0 { count } else { count % (cap + 1) })
                .collect();
            let (kind, s, threshold) = target;
            let s = SpeciesId::from_index(s % species);
            // Half the cases have no absorbing states.
            let absorbing = |state: &State| match kind {
                0 | 1 => false,
                2 => state.count(s) >= threshold,
                _ => state.count(s) == threshold,
            };
            let weights: Vec<u64> = (0..species).map(species_weight).collect();
            for weights in [weights, vec![1; species]] {
                let verdict = compare(&crn, &initial, &bounds, absorbing, &weights);
                prop_assert!(
                    verdict.is_ok(),
                    "weights {:?}: {}",
                    weights,
                    verdict.unwrap_err()
                );
            }
        }
    }

    #[test]
    fn reweighting_refuses_other_stoichiometry() {
        let (crn, initial) = isomerisation();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(3)).unwrap();
        for other in [
            "a -> 2 b @ 1\nb -> a @ 2",
            "a -> b @ 1",
            "a -> b @ 1\nb -> a @ 2\na -> a @ 1",
            "b -> a @ 1\na -> b @ 2",
            "a -> c @ 1\nc -> a @ 2",
        ] {
            let other: Crn = other.parse().unwrap();
            assert!(
                matches!(
                    space.reweight(&other),
                    Err(CmeError::StoichiometryMismatch { .. })
                ),
                "{}",
                other.to_text()
            );
        }
        // Rates and labels may differ.
        let relabelled: Crn = "a -> b @ 5 # forward\nb -> a @ 0.5".parse().unwrap();
        let reweighted = space.reweight(&relabelled).unwrap();
        assert!(Arc::ptr_eq(&space.structure, &reweighted.structure));
        assert_eq!(reweighted.total_outflow(0), 15.0);
    }

    #[test]
    fn stoichiometry_is_two_allocations_that_keep_each_term_list_apart() {
        let crn: Crn = "a -> b @ 1\n2 b -> a + b @ 2".parse().unwrap();
        let network = Stoichiometry::of(&crn);
        assert_eq!(network.names, "ab");
        // Name ends; term-list ends; (species, coefficient) per term.
        assert_eq!(
            network.words,
            [1, 2, 1, 2, 3, 5, 0, 1, 1, 1, 1, 2, 0, 1, 1, 1]
        );
        assert_eq!(network.words.capacity(), network.words.len());
        assert_eq!(network.names.capacity(), network.names.len());
        assert!(network.matches(&crn));
        // The same terms in the same order, cut into other lists.
        let (swap, _) = isomerisation();
        let recut: Crn = "a + b -> 0 @ 1\nb -> a @ 2".parse().unwrap();
        assert!(Stoichiometry::of(&swap).matches(&swap));
        assert!(!Stoichiometry::of(&swap).matches(&recut));
        // Names cut at other places.
        let renamed: Crn = "ab -> c @ 1".parse().unwrap();
        let recut: Crn = "a -> bc @ 1".parse().unwrap();
        assert!(!Stoichiometry::of(&renamed).matches(&recut));
    }

    #[test]
    fn reweighting_shares_the_components() {
        let (crn, initial) = isomerisation();
        let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(3)).unwrap();
        let components: *const Components = space.components();
        let faster: Crn = "a -> b @ 7\nb -> a @ 9".parse().unwrap();
        let reweighted = space.reweight(&faster).unwrap();
        assert!(std::ptr::eq(components, reweighted.components()));
        assert!(space.structure().heap_bytes() > 4 * 2 * std::mem::size_of::<u64>());
    }

    /// Renders a query's outcome with every float in full (Debug prints
    /// the shortest string that round-trips), so equal strings mean equal
    /// bits.
    fn exact<T: std::fmt::Debug>(result: &Result<T, CmeError>) -> String {
        format!("{result:?}")
    }

    /// The stationary verdict's numbers, in full.
    fn stationary_bits(result: &Result<crate::StationaryDistribution, CmeError>) -> String {
        match result {
            Ok(s) => format!(
                "{:?} {} {:?}",
                s.probabilities(),
                s.recurrent_states(),
                s.boundary_mass()
            ),
            Err(e) => format!("{e:?}"),
        }
    }

    proptest! {
        /// A space enumerated at one set of rates and re-weighted to
        /// another is, bit for bit, the space enumerated at the other:
        /// rows, targets, rates, leak, absorbing flags and component order.
        /// First passages and the four checker queries solved on it match
        /// their fresh entry points bit for bit, errors included.
        #[test]
        fn reweighted_spaces_match_fresh_enumerations(
            species in 1usize..4,
            specs in prop::collection::vec(
                (
                    // Dense reactants and populated initial states, so
                    // that most reactions fire.
                    prop::collection::vec(0u32..4, 6),
                    prop::collection::vec(0u32..5, 6),
                    0.1f64..10.0,
                ),
                2..7,
            ),
            rates in prop::collection::vec(0.01f64..100.0, 7),
            truncating in 0u32..4,
            cap in 2u64..7,
            counts in prop::collection::vec(1u64..6, 6),
            targets in (0usize..6, 1u64..4, 0usize..6, 1u64..4),
            window in (0.0f64..0.5, -0.05f64..1.0),
        ) {
            let crn_a = network(species, &specs, false);
            let respecified: Vec<ReactionSpec> = specs
                .iter()
                .zip(&rates)
                .map(|((r, p, _), &k)| (r.clone(), p.clone(), k))
                .collect();
            let crn_b = network(species, &respecified, false);
            // Strict bounds in one case in four: births often exceed them.
            let bounds = if truncating == 0 {
                PopulationBounds::strict(cap)
            } else {
                PopulationBounds::truncating(cap)
            };
            let initial: State = counts[..species].iter().map(|&c| c % (cap + 1)).collect();
            // Thresholds above the initial counts, so the start decides
            // nothing.
            let (t, kt, c, kc) = targets;
            let (t, c) = (SpeciesId::from_index(t % species), SpeciesId::from_index(c % species));
            let (kt, kc) = (initial.count(t) + kt, initial.count(c) + kc);
            let target = move |s: &State| s.count(t) >= kt;
            let competitor = move |s: &State| s.count(c) >= kc;
            let window = (window.0, window.0 + window.1);

            // The spaces themselves, free and with absorbing targets.
            for absorbing in [&(|_: &State| false) as &dyn Fn(&State) -> bool, &target] {
                let a = StateSpace::enumerate_absorbing(&crn_a, &initial, &bounds, absorbing);
                let b = StateSpace::enumerate_absorbing(&crn_b, &initial, &bounds, absorbing);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        let reweighted = a.reweight(&crn_b).unwrap();
                        let verdict = Flat::of(&b).difference(&Flat::of(&reweighted));
                        prop_assert!(verdict.is_none(), "{}", verdict.unwrap_or_default());
                        prop_assert_eq!(reweighted.components(), b.components());
                    }
                    (a, b) => prop_assert_eq!(a.err(), b.err()),
                }
            }

            // Each query: its enumerate half at crn_a's rates, re-weighted to
            // crn_b's, then its solve half, against the fresh entry point.
            let checker_a = crate::Checker::new(&crn_a, initial.clone(), bounds.clone());
            let checker_b = crate::Checker::new(&crn_b, initial.clone(), bounds.clone());
            let passage = |crn| {
                crate::FirstPassage::new(crn)
                    .outcome("target", target)
                    .outcome("competitor", competitor)
            };
            let (passage_a, passage_b) = (passage(&crn_a), passage(&crn_b));
            let fresh = passage_b.solve(&initial, &bounds);
            let split = passage_a
                .enumerate(&initial, &bounds)
                .and_then(|space| space.reweight(&crn_b))
                .and_then(|space| passage_b.solve_space(&space));
            prop_assert_eq!(exact(&fresh), exact(&split), "first passage");

            let fresh = checker_b.reach_before(target, competitor);
            let split = checker_a
                .reach_before_space(target, competitor)
                .and_then(|space| space.reweight(&crn_b))
                .and_then(|space| checker_b.reach_before_on(&space, target, competitor));
            prop_assert_eq!(exact(&fresh), exact(&split), "reach_before");

            let fresh = checker_b.reach_within(target, window);
            let split = checker_a
                .reach_within_space(window)
                .and_then(|space| space.reweight(&crn_b))
                .and_then(|space| checker_b.reach_within_on(&space, target, window));
            prop_assert_eq!(exact(&fresh), exact(&split), "reach_within");

            let fresh = checker_b.hitting_time(target);
            let split = checker_a
                .hitting_time_space(target)
                .and_then(|space| space.reweight(&crn_b))
                .and_then(|space| checker_b.hitting_time_on(&space));
            prop_assert_eq!(exact(&fresh), exact(&split), "hitting_time");

            let fresh = checker_b.stationary();
            let split = checker_a
                .stationary_space()
                .and_then(|space| space.reweight(&crn_b))
                .and_then(|space| checker_b.stationary_on(space));
            prop_assert_eq!(stationary_bits(&fresh), stationary_bits(&split), "stationary");
        }
    }

    #[test]
    fn twenty_species_at_cap_ten_match_the_reference() {
        // 11²⁰ > 2⁶⁴, so no mixed-radix code over the caps would fit a
        // word; the keys do not need one. Two molecules hop along a ring of
        // 20 species, and x0 may split into two x1.
        let mut text = String::new();
        for s in 0..20 {
            text.push_str(&format!("x{s} -> x{} @ {}\n", (s + 1) % 20, s + 1));
        }
        text.push_str("x0 -> 2 x1 @ 0.5\n");
        let crn: Crn = text.parse().unwrap();
        let initial = crn.state_from_counts([("x0", 2)]).unwrap();
        let absorbing = |state: &State| state.total() >= 4;
        let weights: Vec<u64> = (0..20).map(species_weight).collect();
        for bounds in [
            PopulationBounds::strict(10),
            PopulationBounds::truncating(10).cap("x1", 1),
        ] {
            compare(&crn, &initial, &bounds, absorbing, &weights).unwrap();
            let space =
                StateSpace::enumerate_absorbing(&crn, &initial, &bounds, absorbing).unwrap();
            assert!(space.len() > 200, "{} states", space.len());
        }
    }
}
