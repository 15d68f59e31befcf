//! Validated, non-panicking strategy construction.
//!
//! [`StrategyKind`] is the single source of truth for strategy naming:
//! every spelling the repo ever used ("UCB-struc" vs "UCB-struct",
//! "GP-discontin" vs "GP-discontinuous") parses to one canonical variant,
//! and [`StrategyKind::build`] replaces the old panicking by-name factory
//! with a `Result`.

use std::fmt;
use std::str::FromStr;

use crate::{
    ActionSpace, AllNodes, BrentSearch, DivideConquer, GpDiscontinuous, NelderMead1d, Oracle,
    RandomSearch, RightLeft, SimulatedAnnealing, StochasticApproximation, Strategy, Ucb, UcbStruct,
};

/// Every strategy the evaluation can construct, by canonical identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Dichotomic search (paper "DC").
    DivideConquer,
    /// Right-to-left descent.
    RightLeft,
    /// Brent's method.
    Brent,
    /// UCB1 over every node count.
    Ucb,
    /// UCB over complete homogeneous groups.
    UcbStruct,
    /// Plain GP-UCB.
    GpUcb,
    /// GP-discontinuous (the paper's contribution).
    GpDiscontinuous,
    /// Always all nodes (application default baseline).
    AllNodes,
    /// Clairvoyant best-action baseline.
    Oracle,
    /// Uniform random search floor.
    Random,
    /// Simulated annealing.
    SimulatedAnnealing,
    /// SPSA-style stochastic approximation.
    StochasticApproximation,
    /// 1-d Nelder-Mead.
    NelderMead,
}

/// The seven strategies of the paper's comparison, in figure order.
pub const PAPER_STRATEGIES: [StrategyKind; 7] = [
    StrategyKind::DivideConquer,
    StrategyKind::RightLeft,
    StrategyKind::Brent,
    StrategyKind::Ucb,
    StrategyKind::UcbStruct,
    StrategyKind::GpUcb,
    StrategyKind::GpDiscontinuous,
];

/// Canonical name plus the historical alias spellings, one row per kind.
/// This table is the only place names live; `Display`, `FromStr` and the
/// docs all derive from it.
const NAME_TABLE: &[(StrategyKind, &str, &[&str])] = &[
    (StrategyKind::DivideConquer, "DC", &[]),
    (StrategyKind::RightLeft, "Right-Left", &[]),
    (StrategyKind::Brent, "Brent", &[]),
    (StrategyKind::Ucb, "UCB", &[]),
    (StrategyKind::UcbStruct, "UCB-struct", &["UCB-struc"]),
    (StrategyKind::GpUcb, "GP-UCB", &[]),
    (StrategyKind::GpDiscontinuous, "GP-discontinuous", &["GP-discontin"]),
    (StrategyKind::AllNodes, "all-nodes", &[]),
    (StrategyKind::Oracle, "oracle", &[]),
    (StrategyKind::Random, "Random", &[]),
    (StrategyKind::SimulatedAnnealing, "SANN", &[]),
    (StrategyKind::StochasticApproximation, "SPSA", &[]),
    (StrategyKind::NelderMead, "Nelder-Mead", &[]),
];

/// Why a [`StrategyKind`] could not be resolved or built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnknownStrategyError {
    /// The name matches no canonical name or alias.
    UnknownName(String),
    /// [`StrategyKind::Oracle`] was built without its best action.
    MissingOracleBest,
}

impl fmt::Display for UnknownStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownStrategyError::UnknownName(name) => {
                write!(f, "unknown strategy {name:?}; known: ")?;
                for (i, (_, canonical, _)) in NAME_TABLE.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{canonical}")?;
                }
                Ok(())
            }
            UnknownStrategyError::MissingOracleBest => {
                write!(f, "the oracle strategy needs the best action (oracle_best)")
            }
        }
    }
}

impl std::error::Error for UnknownStrategyError {}

impl StrategyKind {
    /// Every kind, in [`NAME_TABLE`] order.
    pub fn all() -> impl Iterator<Item = StrategyKind> {
        NAME_TABLE.iter().map(|&(k, _, _)| k)
    }

    /// The canonical display name.
    pub fn name(self) -> &'static str {
        NAME_TABLE
            .iter()
            .find(|&&(k, _, _)| k == self)
            .map(|&(_, n, _)| n)
            .expect("every kind is in the name table")
    }

    /// Construct the strategy. `seed` feeds the stochastic kinds;
    /// `oracle_best` is required only by [`StrategyKind::Oracle`].
    pub fn build(
        self,
        space: &ActionSpace,
        seed: u64,
        oracle_best: Option<usize>,
    ) -> Result<Box<dyn Strategy>, UnknownStrategyError> {
        Ok(match self {
            StrategyKind::DivideConquer => Box::new(DivideConquer::new(space)),
            StrategyKind::RightLeft => Box::new(RightLeft::new(space)),
            StrategyKind::Brent => Box::new(BrentSearch::new(space)),
            StrategyKind::Ucb => Box::new(Ucb::new(space)),
            StrategyKind::UcbStruct => Box::new(UcbStruct::new(space)),
            StrategyKind::GpUcb => Box::new(GpDiscontinuous::gp_ucb(space)),
            StrategyKind::GpDiscontinuous => Box::new(GpDiscontinuous::new(space)),
            StrategyKind::AllNodes => Box::new(AllNodes::new(space.max_nodes)),
            StrategyKind::Oracle => {
                Box::new(Oracle::new(oracle_best.ok_or(UnknownStrategyError::MissingOracleBest)?))
            }
            StrategyKind::Random => Box::new(RandomSearch::new(space, seed)),
            StrategyKind::SimulatedAnnealing => Box::new(SimulatedAnnealing::new(space, seed)),
            StrategyKind::StochasticApproximation => Box::new(StochasticApproximation::new(space)),
            StrategyKind::NelderMead => Box::new(NelderMead1d::new(space)),
        })
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StrategyKind {
    type Err = UnknownStrategyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        NAME_TABLE
            .iter()
            .find(|&&(_, canonical, aliases)| canonical == s || aliases.contains(&s))
            .map(|&(k, _, _)| k)
            .ok_or_else(|| UnknownStrategyError::UnknownName(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::History;

    #[test]
    fn every_kind_round_trips_through_display_and_parse() {
        for k in StrategyKind::all() {
            let parsed: StrategyKind = k.to_string().parse().unwrap();
            assert_eq!(parsed, k);
        }
    }

    #[test]
    fn aliases_collapse_to_canonical_variant() {
        assert_eq!("UCB-struc".parse::<StrategyKind>().unwrap(), StrategyKind::UcbStruct);
        assert_eq!("UCB-struct".parse::<StrategyKind>().unwrap(), StrategyKind::UcbStruct);
        assert_eq!("GP-discontin".parse::<StrategyKind>().unwrap(), StrategyKind::GpDiscontinuous);
        assert_eq!(
            "GP-discontinuous".parse::<StrategyKind>().unwrap(),
            StrategyKind::GpDiscontinuous
        );
    }

    #[test]
    fn unknown_name_is_an_error_not_a_panic() {
        let err = "nope".parse::<StrategyKind>().unwrap_err();
        assert_eq!(err, UnknownStrategyError::UnknownName("nope".into()));
        assert!(err.to_string().contains("GP-discontinuous"), "lists known names");
    }

    #[test]
    fn every_kind_builds_and_proposes_in_range() {
        let space = ActionSpace::new(10, vec![(1, 5), (6, 10)], Some(vec![1.0; 10]));
        for k in StrategyKind::all() {
            let mut s = k.build(&space, 1, Some(3)).unwrap();
            let a = s.propose(&space, &History::new());
            assert!((1..=10).contains(&a), "{k} proposed {a}");
        }
    }

    #[test]
    fn oracle_without_best_is_an_error() {
        let space = ActionSpace::unstructured(5);
        let err = match StrategyKind::Oracle.build(&space, 0, None) {
            Err(e) => e,
            Ok(_) => panic!("oracle without best must not build"),
        };
        assert_eq!(err, UnknownStrategyError::MissingOracleBest);
        let mut o = StrategyKind::Oracle.build(&space, 0, Some(3)).unwrap();
        assert_eq!(o.propose(&space, &History::new()), 3);
    }

    #[test]
    fn paper_strategies_are_the_figure_seven() {
        let names: Vec<&str> = PAPER_STRATEGIES.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["DC", "Right-Left", "Brent", "UCB", "UCB-struct", "GP-UCB", "GP-discontinuous"]
        );
    }

    #[test]
    fn built_strategy_names_match_canonical_names() {
        let space = ActionSpace::new(10, vec![(1, 5), (6, 10)], Some(vec![1.0; 10]));
        for k in StrategyKind::all() {
            let s = k.build(&space, 1, Some(3)).unwrap();
            // Baseline labels differ stylistically from kind names only
            // where the paper's figures do (none today).
            assert_eq!(s.name(), k.name(), "{k:?}");
        }
    }
}
