//! The sparse infinitesimal-generator matrix of a state space.

use std::ops::Range;

use crate::space::StateSpace;

/// The infinitesimal generator `Q` of the CME restricted to a
/// [`StateSpace`], in compressed-sparse-row form with explicit diagonal.
///
/// Row `i` holds the transition rates out of state `i`: off-diagonal entry
/// `q_ij` is the total rate of reactions taking state `i` to state `j`, and
/// the diagonal is `q_ii = −(Σ_{j≠i} q_ij + leak_i)` where `leak_i` is the
/// finite-state-projection leak out of the retained window. The probability
/// row vector then evolves as `dp/dt = p·Q`, and for a closed (strict)
/// space every row sums to exactly zero.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cme::CmeError> {
/// use cme::{GeneratorMatrix, PopulationBounds, StateSpace};
///
/// let crn: crn::Crn = "a -> b @ 1\nb -> a @ 2".parse().expect("network");
/// let initial = crn.state_from_counts([("a", 2)]).expect("state");
/// let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(2))?;
/// let generator = GeneratorMatrix::from_space(&space);
/// assert_eq!(generator.dimension(), 3);
/// assert!(generator.row_sums().iter().all(|s| s.abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeneratorMatrix {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    leak: Vec<f64>,
    uniformization_rate: f64,
}

impl GeneratorMatrix {
    /// Builds the generator from an enumerated state space, merging parallel
    /// transitions (several reactions connecting the same pair of states)
    /// into a single entry.
    pub fn from_space(space: &StateSpace) -> Self {
        Self::build(space, |_| false)
    }

    /// Builds the generator with the rows of every state matching `absorbing`
    /// zeroed out: those states keep their index but lose all outflow (and
    /// leak), so probability mass entering them stays put.
    ///
    /// This is the *target-set absorption* construction used by time-bounded
    /// reachability: run the free chain to `t₁`, then evolve the same
    /// probability vector under the absorbed generator to `t₂` — the mass
    /// sitting on target states at `t₂` is exactly the probability of having
    /// visited the target during `[t₁, t₂]`. Because the absorbed generator
    /// shares the free space's state indexing, the two phases compose without
    /// re-enumeration.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), cme::CmeError> {
    /// use cme::{GeneratorMatrix, PopulationBounds, StateSpace};
    ///
    /// let crn: crn::Crn = "a -> b @ 1\nb -> a @ 2".parse().expect("network");
    /// let b = crn.species_id("b").expect("species");
    /// let initial = crn.state_from_counts([("a", 2)]).expect("state");
    /// let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(2))?;
    /// let absorbed = GeneratorMatrix::from_space_absorbing(&space, |s| s.count(b) >= 2);
    /// // The b=2 state has been made absorbing: zero outflow.
    /// assert!(absorbed.uniformization_rate() < GeneratorMatrix::from_space(&space).uniformization_rate() + 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_space_absorbing<F>(space: &StateSpace, absorbing: F) -> Self
    where
        F: Fn(&crn::State) -> bool,
    {
        let mut buffer = space.buffer();
        Self::build(space, |i| absorbing(space.load(i, &mut buffer)))
    }

    /// Builds the generator with the rows of every state index matching
    /// `absorbing` zeroed out.
    fn build(space: &StateSpace, mut absorbing: impl FnMut(usize) -> bool) -> Self {
        let n = space.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(space.transition_count() + n);
        let mut vals = Vec::with_capacity(space.transition_count() + n);
        let mut leak = Vec::with_capacity(n);
        let mut uniformization_rate = 0.0f64;
        row_ptr.push(0);
        let mut row: Vec<(usize, f64)> = Vec::new();
        for i in 0..n {
            if absorbing(i) {
                cols.push(i);
                vals.push(0.0);
                row_ptr.push(cols.len());
                leak.push(0.0);
                continue;
            }
            row.clear();
            row.extend(space.transitions(i));
            row.sort_unstable_by_key(|&(j, _)| j);
            let outflow = space.total_outflow(i);
            uniformization_rate = uniformization_rate.max(outflow);
            let row_start = cols.len();
            let mut diagonal_written = false;
            let push = |cols: &mut Vec<usize>, vals: &mut Vec<f64>, j: usize, q: f64| {
                if cols.len() > row_start && *cols.last().expect("non-empty row") == j {
                    *vals.last_mut().expect("non-empty row") += q;
                    return;
                }
                cols.push(j);
                vals.push(q);
            };
            for &(j, rate) in &row {
                if !diagonal_written && j >= i {
                    push(&mut cols, &mut vals, i, -outflow);
                    diagonal_written = true;
                }
                push(&mut cols, &mut vals, j, rate);
            }
            if !diagonal_written {
                push(&mut cols, &mut vals, i, -outflow);
            }
            row_ptr.push(cols.len());
            leak.push(space.leak_rate(i));
        }
        GeneratorMatrix {
            row_ptr,
            cols,
            vals,
            leak,
            uniformization_rate,
        }
    }

    /// Returns the number of states (rows).
    pub fn dimension(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Returns the number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Returns the entries of row `i` as `(column, value)` pairs, sorted by
    /// column and including the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.cols[range.clone()]
            .iter()
            .copied()
            .zip(self.vals[range].iter().copied())
    }

    /// Returns the sum of every row's stored entries. For a closed (strict)
    /// space this is exactly zero per row; under finite-state-projection
    /// truncation row `i` sums to `−leak_i` — the rate at which probability
    /// escapes the retained window from state `i`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.dimension())
            .map(|i| self.row(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Returns the finite-state-projection leak rate of row `i`.
    pub fn leak_rate(&self, i: usize) -> f64 {
        self.leak[i]
    }

    /// Returns the uniformization rate `Λ = max_i |q_ii|`, the smallest rate
    /// that makes `P = I + Q/Λ` a (sub)stochastic matrix.
    pub fn uniformization_rate(&self) -> f64 {
        self.uniformization_rate
    }

    /// Builds the uniformized matrix `P = I + Q/Λ`, once per solve.
    ///
    /// # Panics
    ///
    /// Panics if the uniformization rate is zero (no transition can fire,
    /// so there is nothing to uniformize).
    pub(crate) fn uniformized(&self) -> UniformizedMatrix {
        let n = self.dimension();
        let lambda = self.uniformization_rate;
        assert!(lambda > 0.0, "uniformization rate must be positive");
        // Transposed CSR: count the entries of each column, then fill rows
        // in ascending order so every column lists its sources sorted.
        let mut col_ptr = vec![0usize; n + 1];
        for &j in &self.cols {
            col_ptr[j + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next_slot = col_ptr[..n].to_vec();
        let mut sources = vec![0usize; self.nnz()];
        let mut probabilities = vec![0.0f64; self.nnz()];
        let mut reach_start = Vec::with_capacity(n);
        let mut reach_end = Vec::with_capacity(n + 1);
        reach_end.push(0);
        let mut leaks = Vec::new();
        for i in 0..n {
            let leak = self.leak[i] / lambda;
            let off_diagonal: f64 = self
                .row(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| q / lambda)
                .sum();
            // The diagonal closes the row at exactly `1 − leak_i/Λ`, so the
            // mass a jump loses is the leak alone. Rounding can push the
            // fastest row's self-loop a hair below zero; clamp it there.
            let diagonal = (1.0 - leak - off_diagonal).max(0.0);
            for (j, q) in self.row(i) {
                let slot = next_slot[j];
                next_slot[j] += 1;
                sources[slot] = i;
                probabilities[slot] = if j == i { diagonal } else { q / lambda };
            }
            // Every row stores its diagonal, so the range is never empty.
            let (first, last) = (self.row_ptr[i], self.row_ptr[i + 1] - 1);
            reach_start.push(self.cols[first]);
            reach_end.push(reach_end[i].max(self.cols[last] + 1));
            if leak > 0.0 {
                leaks.push((i, leak));
            }
        }
        for i in (1..n).rev() {
            reach_start[i - 1] = reach_start[i - 1].min(reach_start[i]);
        }
        UniformizedMatrix {
            col_ptr,
            sources,
            probabilities,
            reach_start,
            reach_end,
            leaks,
        }
    }
}

/// The uniformized matrix `P = I + Q/Λ` of a [`GeneratorMatrix`], stored
/// transposed so that each entry of a jump `v·P` is one short dot product
/// over the states feeding it, with no division.
///
/// Row `i` of `P` sums to `1 − leak_i/Λ`, so one jump loses exactly
/// [`leak_loss`](Self::leak_loss) of the vector's mass and nothing else.
#[derive(Debug)]
pub(crate) struct UniformizedMatrix {
    /// `col_ptr[j]..col_ptr[j + 1]` indexes the entries of column `j`.
    col_ptr: Vec<usize>,
    /// Source state (row) of each entry.
    sources: Vec<usize>,
    /// Jump probability `p_ij` of each entry.
    probabilities: Vec<f64>,
    /// `reach_start[lo]..reach_end[hi]` covers every column that rows
    /// `lo..hi` have an entry in: the states mass sitting on those rows can
    /// reach in one jump. `reach_start` is the suffix minimum of each row's
    /// first column, `reach_end` the prefix maximum of its last column + 1
    /// (exact for breadth-first state orders, a superset otherwise).
    reach_start: Vec<usize>,
    reach_end: Vec<usize>,
    /// `(i, leak_i/Λ)` for every row that leaks out of the window.
    leaks: Vec<(usize, f64)>,
}

impl UniformizedMatrix {
    /// Returns the mass one jump from `v` loses through
    /// finite-state-projection leak: `Σ_i v_i·leak_i/Λ` over the leaking
    /// rows only. Exactly zero when no row leaks.
    pub(crate) fn leak_loss(&self, v: &[f64]) -> f64 {
        self.leaks.iter().map(|&(i, leak)| v[i] * leak).sum()
    }

    /// Computes one jump `out = v·P` where `v` is zero outside `window`,
    /// writing only the entries that mass in `window` can reach.
    ///
    /// Entries below `f64::MIN_POSITIVE` (subnormal or zero) are flushed to
    /// zero. Returns the index range that holds every nonzero of `out`
    /// (empty when nothing is left) and the mass flushed. Entries of `out`
    /// outside the reachable range are not touched; the caller keeps them
    /// zero.
    pub(crate) fn jump(
        &self,
        v: &[f64],
        window: Range<usize>,
        out: &mut [f64],
    ) -> (Range<usize>, f64) {
        let (lo, hi) = if window.is_empty() {
            (0, 0)
        } else {
            (self.reach_start[window.start], self.reach_end[window.end])
        };
        let mut flushed = 0.0f64;
        let (mut first, mut end) = (hi, lo);
        let columns = self.col_ptr[lo..=hi].windows(2);
        for (j, (slot, column)) in (lo..).zip(out[lo..hi].iter_mut().zip(columns)) {
            let range = column[0]..column[1];
            let mut sum = 0.0f64;
            for (&i, &p) in self.sources[range.clone()]
                .iter()
                .zip(&self.probabilities[range])
            {
                sum += v[i] * p;
            }
            if sum < f64::MIN_POSITIVE {
                flushed += sum;
                sum = 0.0;
            } else {
                first = first.min(j);
                end = j + 1;
            }
            *slot = sum;
        }
        let nonzero = if first < end { first..end } else { 0..0 };
        (nonzero, flushed)
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
    fn closed_system_rows_sum_to_zero() {
        let (_, space) = space_of("a -> b @ 1\nb -> a @ 2", &[("a", 5)], 5);
        let generator = GeneratorMatrix::from_space(&space);
        assert_eq!(generator.dimension(), 6);
        for sum in generator.row_sums() {
            assert!(sum.abs() < 1e-12, "row sum {sum}");
        }
    }

    #[test]
    fn diagonal_is_negative_total_outflow() {
        let (_, space) = space_of("a -> b @ 3", &[("a", 2)], 2);
        let generator = GeneratorMatrix::from_space(&space);
        // Initial state (a=2): outflow 6, diagonal −6.
        let diag: f64 = generator
            .row(0)
            .find(|&(j, _)| j == 0)
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(diag, -6.0);
        assert_eq!(generator.uniformization_rate(), 6.0);
    }

    #[test]
    fn parallel_transitions_merge() {
        // Two distinct reactions with the same net effect a -> b.
        let (_, space) = space_of("a -> b @ 1\na -> b @ 2", &[("a", 1)], 1);
        let generator = GeneratorMatrix::from_space(&space);
        let entries: Vec<(usize, f64)> = generator.row(0).collect();
        // Diagonal plus one merged off-diagonal entry.
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&(0, -3.0)));
        assert!(entries.contains(&(1, 3.0)));
        assert_eq!(generator.nnz(), 3); // row 0: two entries; row 1: diagonal 0
    }

    #[test]
    fn truncated_rows_sum_to_minus_leak() {
        let crn: Crn = "0 -> a @ 5\na -> 0 @ 1".parse().unwrap();
        let space =
            StateSpace::enumerate(&crn, &crn.zero_state(), &PopulationBounds::truncating(3))
                .unwrap();
        let generator = GeneratorMatrix::from_space(&space);
        for (i, sum) in generator.row_sums().iter().enumerate() {
            assert!(
                (sum + generator.leak_rate(i)).abs() < 1e-12,
                "row {i}: sum {sum}, leak {}",
                generator.leak_rate(i)
            );
        }
        // Exactly one row (the boundary a = 3) leaks.
        let leaking = (0..generator.dimension())
            .filter(|&i| generator.leak_rate(i) > 0.0)
            .count();
        assert_eq!(leaking, 1);
    }

    #[test]
    fn uniformized_matrix_preserves_mass_on_closed_systems() {
        let (_, space) = space_of("a -> b @ 1\nb -> a @ 2", &[("a", 4)], 4);
        let matrix = GeneratorMatrix::from_space(&space).uniformized();
        let mut v = vec![0.0; space.len()];
        v[0] = 1.0;
        let mut out = vec![0.0; space.len()];
        let (window, flushed) = matrix.jump(&v, 0..1, &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out.iter().all(|&p| p >= 0.0));
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &p)| p == 0.0 || window.contains(&i)));
        assert_eq!(flushed, 0.0);
        assert_eq!(matrix.leak_loss(&v), 0.0);
    }

    #[test]
    fn uniformized_rows_lose_exactly_their_leak() {
        let crn: Crn = "0 -> a @ 5\na -> 0 @ 1".parse().unwrap();
        let space =
            StateSpace::enumerate(&crn, &crn.zero_state(), &PopulationBounds::truncating(3))
                .unwrap();
        let matrix = GeneratorMatrix::from_space(&space).uniformized();
        let n = space.len();
        // Spread mass over every state, the leaking boundary included.
        let v = vec![1.0 / n as f64; n];
        let mut out = vec![0.0; n];
        let (window, _) = matrix.jump(&v, 0..n, &mut out);
        assert_eq!(window, 0..n);
        let lost = 1.0 - out.iter().sum::<f64>();
        assert!(matrix.leak_loss(&v) > 0.0);
        assert!(
            (lost - matrix.leak_loss(&v)).abs() < 1e-15,
            "lost {lost:.3e}, leak {:.3e}",
            matrix.leak_loss(&v)
        );
    }

    #[test]
    fn jumps_flush_subnormal_mass_and_shrink_the_window() {
        let (_, space) = space_of("a -> b @ 1\nb -> a @ 1", &[("a", 2)], 2);
        let matrix = GeneratorMatrix::from_space(&space).uniformized();
        let mut v = vec![0.0; space.len()];
        v[0] = 1e-300;
        let mut out = vec![0.0; space.len()];
        // Λ = 2 is the outflow of (2, 0) itself, so one jump moves all of
        // its mass to (1, 1); 1e-300 is still a normal number.
        let (window, flushed) = matrix.jump(&v, 0..1, &mut out);
        assert_eq!((window, flushed), (1..2, 0.0));
        assert_eq!(out[1], 1e-300);
        // A subnormal source yields only a subnormal target: flushed.
        v[0] = 1e-310;
        let (window, flushed) = matrix.jump(&v, 0..1, &mut out);
        assert!(window.is_empty());
        assert_eq!(flushed, 1e-310);
        assert!(out.iter().all(|&p| p == 0.0));
    }
}
