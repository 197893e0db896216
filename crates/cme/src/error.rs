//! Error type for exact CME computations.

use std::error::Error;
use std::fmt;

/// Errors produced while enumerating state spaces or solving the CME.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CmeError {
    /// A reachable state pushed some species past its population cap while
    /// the bounds were [`strict`](crate::PopulationBounds::strict).
    ///
    /// This is a *typed* refusal, not a silent clamp: the caller either
    /// raises the cap (the system genuinely visits larger populations) or
    /// opts into finite-state-projection truncation with
    /// [`truncating`](crate::PopulationBounds::truncating) bounds, which
    /// tracks the leaked probability mass instead of hiding it.
    BoundExceeded {
        /// Name of the species whose population cap was exceeded.
        species: String,
        /// The cap that was exceeded.
        cap: u64,
    },
    /// Enumeration found more reachable states than the configured budget.
    StateBudgetExceeded {
        /// The configured maximum number of states.
        budget: usize,
    },
    /// An input was inconsistent (empty outcome list, mismatched initial
    /// state length, non-finite tolerance, …).
    InvalidInput {
        /// Description of the problem.
        message: String,
    },
    /// First-passage power iteration did not drain the transient probability
    /// mass to the requested tolerance within the sweep budget.
    NotConverged {
        /// Probability mass still in transient states after the last sweep.
        residual: f64,
        /// Number of sweeps performed.
        sweeps: usize,
    },
    /// A transient solve would need more uniformization work than the
    /// fixed series budget allows: its Poisson series runs for about `Λt`
    /// terms, and each term is one sparse product over the generator's
    /// nonzeros.
    SeriesBudgetExceeded {
        /// The uniformization rate times the time horizon, `Λt`.
        rate_time: f64,
        /// The predicted work, in terms × generator nonzeros.
        work: f64,
        /// The budget the prediction exceeded, in the same unit.
        budget: f64,
    },
    /// A network asked to re-weight a state space has other species or
    /// reactions than the network the space was enumerated from: only the
    /// rates may differ.
    StoichiometryMismatch {
        /// Description of the mismatch.
        message: String,
    },
}

impl fmt::Display for CmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmeError::BoundExceeded { species, cap } => write!(
                f,
                "reachable state space leaves the population bounds: \
                 species `{species}` exceeds its cap of {cap} \
                 (raise the cap or use truncating bounds)"
            ),
            CmeError::StateBudgetExceeded { budget } => write!(
                f,
                "reachable state space exceeds the budget of {budget} states"
            ),
            CmeError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            CmeError::NotConverged { residual, sweeps } => write!(
                f,
                "first-passage iteration left {residual:.3e} transient mass after {sweeps} sweeps"
            ),
            CmeError::SeriesBudgetExceeded {
                rate_time,
                work,
                budget,
            } => write!(
                f,
                "uniformization series too long: Λt = {rate_time:.3e} predicts \
                 {work:.3e} term×nonzero products, above the budget of {budget:.0e} \
                 (shorten the time horizon or shrink the state space)"
            ),
            CmeError::StoichiometryMismatch { message } => {
                write!(f, "cannot re-weight the state space: {message}")
            }
        }
    }
}

impl Error for CmeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases = vec![
            CmeError::BoundExceeded {
                species: "a".into(),
                cap: 64,
            },
            CmeError::StateBudgetExceeded { budget: 1000 },
            CmeError::InvalidInput {
                message: "empty".into(),
            },
            CmeError::NotConverged {
                residual: 1e-3,
                sweeps: 100,
            },
            CmeError::SeriesBudgetExceeded {
                rate_time: 2e12,
                work: 8e12,
                budget: 1e9,
            },
            CmeError::StoichiometryMismatch {
                message: "other reactions".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
        let bound = CmeError::BoundExceeded {
            species: "x1".into(),
            cap: 7,
        };
        assert!(bound.to_string().contains("x1"));
        assert!(bound.to_string().contains('7'));
        let series = CmeError::SeriesBudgetExceeded {
            rate_time: 2e12,
            work: 8e12,
            budget: 1e9,
        };
        assert!(series.to_string().contains("Λt = 2.000e12"));
        assert!(series.to_string().contains("budget of 1e9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CmeError>();
    }
}
