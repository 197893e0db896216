//! Exact chemical-master-equation (CME) verification for the
//! stochastic-synthesis workspace.
//!
//! Every other correctness check in this repository samples: ensembles of
//! SSA trajectories are compared against laws with chi-square/KS tolerance
//! bands. A solver whose distribution is *subtly* wrong — a γ-separation
//! slightly too small, a biased sampler — can hide under that noise floor.
//! This crate removes the noise floor for finite (or finitely truncated)
//! networks by computing distributions exactly from the CME:
//!
//! 1. [`StateSpace`] — breadth-first enumeration of the reachable states
//!    within [`PopulationBounds`], either *strict* (exceeding a cap is the
//!    typed error [`CmeError::BoundExceeded`]) or *truncating*
//!    (finite-state projection: escaping rate becomes tracked leak). Its
//!    rate-free [`SpaceStructure`] is shared, and [`StateSpace::reweight`]
//!    carries it to the same network at other rates without enumerating
//!    again;
//! 2. [`GeneratorMatrix`] — the sparse (CSR) infinitesimal generator `Q`
//!    restricted to the retained states;
//! 3. [`transient`] — uniformization: `p(t) = p(0)·e^{Qt}` as a
//!    Poisson-weighted power series at a rate that follows the mass, with
//!    a rigorous truncation bound;
//! 4. [`FirstPassage`] — exact absorption probabilities into outcome
//!    classes (the winner-take-all module's outcome distribution is a
//!    first-passage problem, so its programmed probabilities can be
//!    verified to machine precision rather than Monte-Carlo precision);
//! 5. [`Checker`] — a time-bounded probabilistic model checker layered on
//!    1–4: `P(reach A before B)`, `P(X_s ≥ k within [t₁, t₂])`, expected
//!    first-passage times and stationary mass, with [`sweep`] computing
//!    robustness landscapes and satisfaction boundaries over parameter
//!    grids.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), cme::CmeError> {
//! use cme::{FirstPassage, PopulationBounds, StateSpace};
//!
//! // A biased two-outcome race: 3:1 odds.
//! let crn: crn::Crn = "x -> heads @ 3\nx -> tails @ 1".parse().expect("network");
//! let initial = crn.state_from_counts([("x", 1)]).expect("state");
//! let outcome = FirstPassage::new(&crn)
//!     .outcome_species_at_least("heads", "heads", 1)?
//!     .outcome_species_at_least("tails", "tails", 1)?
//!     .solve(&initial, &PopulationBounds::strict(1))?;
//! assert!((outcome.probability("heads") - 0.75).abs() < 1e-12);
//!
//! // The same network's transient law: P(undecided at t) = e^{-4t}.
//! let space = StateSpace::enumerate(&crn, &initial, &PopulationBounds::strict(1))?;
//! let x = crn.species_id("x").expect("species");
//! let solution = space.transient(0.5, 1e-12)?;
//! let undecided = space.probability_where(&solution.probabilities, |s| s.count(x) == 1);
//! assert!((undecided - (-2.0f64).exp()).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
pub mod check;
mod error;
mod generator;
mod outcome;
mod space;
pub mod sweep;
mod transient;

pub use bounds::{BoundaryPolicy, PopulationBounds};
pub use check::{Checker, HittingTime, RaceVerdict, StationaryDistribution, WindowVerdict};
pub use error::CmeError;
pub use generator::GeneratorMatrix;
pub use outcome::{FirstPassage, OutcomeDistribution};
pub use space::{SpaceStructure, StateSpace};
pub use sweep::{Landscape, LandscapePoint};
pub use transient::{transient, TransientSolution};
