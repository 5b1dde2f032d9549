//! The reply oracle.  Expected answers come from the paper crates, never from
//! the engine: `implies` verdicts from `diffcon::implication::implies`
//! (Theorem 3.5's lattice check), `bound` intervals from
//! `diffcon_bounds::derive::derive`.  Everything is computed before a
//! measured window starts; cold-implies goals are sampled and checked after
//! it.

use crate::gen::{support, Check, Kind, Workload};
use diffcon::implication;
use diffcon::DiffConstraint;
use diffcon_bounds::derive::derive;
use diffcon_bounds::{BoundsConfig, BoundsProblem, Interval, SideConditions};
use setlat::AttrSet;

/// What a reply must say.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expected {
    /// `yes` or `no`.
    Verdict(bool),
    /// `bound lo=… hi=…`.
    Interval(f64, f64),
    /// Any `yes`/`no` (cold goals outside the sample).
    AnyVerdict,
    /// `ok …`.
    Ok,
}

/// A reply, reduced to what the oracle compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Got {
    /// `yes …` / `no …`.
    Verdict(bool),
    /// `bound lo=… hi=…`.
    Interval(f64, f64),
    /// `ok …`.
    Ok,
    /// `err …` or anything unparseable.
    Err,
}

/// Reduces one reply line.
pub fn parse_reply(text: &str) -> Got {
    let mut fields = text.split(' ');
    match fields.next() {
        Some("yes") => Got::Verdict(true),
        Some("no") => Got::Verdict(false),
        Some("ok") => Got::Ok,
        Some("bound") => {
            let mut lo = None;
            let mut hi = None;
            for field in fields {
                if let Some(v) = field.strip_prefix("lo=") {
                    lo = Interval::parse_endpoint(v).ok();
                } else if let Some(v) = field.strip_prefix("hi=") {
                    hi = Interval::parse_endpoint(v).ok();
                }
            }
            match (lo, hi) {
                (Some(lo), Some(hi)) => Got::Interval(lo, hi),
                _ => Got::Err,
            }
        }
        _ => Got::Err,
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Whether `got` answers `expected`.
pub fn agrees(expected: Expected, got: Got) -> bool {
    match (expected, got) {
        (Expected::Verdict(e), Got::Verdict(g)) => e == g,
        (Expected::AnyVerdict, Got::Verdict(_)) => true,
        (Expected::Interval(elo, ehi), Got::Interval(lo, hi)) => close(elo, lo) && close(ehi, hi),
        (Expected::Ok, Got::Ok) => true,
        _ => false,
    }
}

/// Reference answers for one workload.
#[derive(Debug)]
pub struct Oracle {
    /// Hot: the verdict of every pool goal.
    hot: Vec<bool>,
    /// Churn: verdicts indexed `[premise state][goal]`.
    churn_implies: Vec<Vec<bool>>,
    /// Churn: intervals indexed `[premise state][known state][set]`.
    churn_bounds: Vec<Vec<Vec<(f64, f64)>>>,
}

/// Churn: the premises asserted in toggle state `mask` (the whole cover
/// minus the toggle premises whose bit is clear).
pub fn churn_premises(w: &Workload, mask: u8) -> Vec<DiffConstraint> {
    let churn = w.churn.as_ref().expect("churn workload has a data plane");
    churn
        .cover
        .iter()
        .enumerate()
        .filter(
            |(i, _)| match churn.toggle_premises.iter().position(|t| t == i) {
                Some(bit) => mask & (1 << bit) != 0,
                None => true,
            },
        )
        .map(|(_, c)| c.clone())
        .collect()
}

/// Churn: the knowns recorded in toggle state `mask`.
pub fn churn_knowns(w: &Workload, mask: u8) -> Vec<(AttrSet, f64)> {
    let churn = w.churn.as_ref().expect("churn workload has a data plane");
    let toggled = churn
        .toggle_knowns
        .iter()
        .enumerate()
        .filter(|(bit, _)| mask & (1 << bit) != 0)
        .map(|(_, k)| k);
    churn
        .base_knowns
        .iter()
        .chain(toggled)
        .map(|&(s, v)| (s, v as f64))
        .collect()
}

/// The reference bound for `set` under the given premises and knowns, with
/// the engine's default side conditions (support interpretation) and
/// derivation settings.
pub fn reference_bound(
    w: &Workload,
    premises: &[DiffConstraint],
    knowns: &[(AttrSet, f64)],
    set: AttrSet,
) -> Option<(f64, f64)> {
    let problem = BoundsProblem {
        universe: &w.universe,
        constraints: premises,
        knowns,
        side: SideConditions::support(),
    };
    derive(&problem, set, &BoundsConfig::default())
        .ok()
        .map(|b| (b.interval.lo, b.interval.hi))
}

impl Oracle {
    /// Computes every reference answer the workload's checks can ask for.
    ///
    /// # Panics
    /// If the reference finds a churn state infeasible or a bound that
    /// excludes the data's true support: the workload itself would be
    /// broken.
    pub fn new(w: &Workload) -> Oracle {
        let mut oracle = Oracle {
            hot: Vec::new(),
            churn_implies: Vec::new(),
            churn_bounds: Vec::new(),
        };
        match w.kind {
            Kind::HotImplies => {
                oracle.hot = w
                    .pool
                    .iter()
                    .map(|g| implication::implies(&w.universe, &w.premises, g))
                    .collect();
            }
            Kind::ColdImplies => {}
            Kind::Churn => {
                let churn = w.churn.as_ref().expect("churn workload has a data plane");
                let premise_states = 1u8 << churn.toggle_premises.len();
                let known_states = 1u8 << churn.toggle_knowns.len();
                for p in 0..premise_states {
                    let premises = churn_premises(w, p);
                    oracle.churn_implies.push(
                        w.pool
                            .iter()
                            .map(|g| implication::implies(&w.universe, &premises, g))
                            .collect(),
                    );
                    let mut by_knowns = Vec::new();
                    for k in 0..known_states {
                        let knowns = churn_knowns(w, k);
                        let row = churn
                            .bound_sets
                            .iter()
                            .map(|&s| {
                                let (lo, hi) = reference_bound(w, &premises, &knowns, s)
                                    .expect("true supports are consistent with the mined cover");
                                let truth = support(&churn.baskets, s) as f64;
                                assert!(
                                    lo - 1e-6 <= truth && truth <= hi + 1e-6,
                                    "reference bound [{lo}, {hi}] excludes the true support {truth}"
                                );
                                (lo, hi)
                            })
                            .collect();
                        by_knowns.push(row);
                    }
                    oracle.churn_bounds.push(by_knowns);
                }
            }
        }
        oracle
    }

    /// The answer `check` expects.
    pub fn expected(&self, check: Check) -> Expected {
        match check {
            Check::Pool(i) => Expected::Verdict(self.hot[i as usize]),
            Check::Fresh => Expected::AnyVerdict,
            Check::ChurnImplies { premises, goal } => {
                Expected::Verdict(self.churn_implies[premises as usize][goal as usize])
            }
            Check::ChurnBound {
                premises,
                knowns,
                set,
            } => {
                let (lo, hi) = self.churn_bounds[premises as usize][knowns as usize][set as usize];
                Expected::Interval(lo, hi)
            }
            Check::Write => Expected::Ok,
        }
    }
}

/// A running tally of checked replies.
#[derive(Debug, Default)]
pub struct Checks {
    /// Replies checked.
    pub attempted: u64,
    /// Replies that failed their check: mismatches, `err` and unparseable
    /// replies.
    pub failed: u64,
    /// Cold-implies goals whose verdict is checked after the window.
    pub sample: Vec<(DiffConstraint, bool)>,
}

impl Checks {
    /// Checks one reply; `goal` marks it as part of the cold sample.
    /// Returns whether it agreed.
    pub fn settle(
        &mut self,
        oracle: &Oracle,
        check: Check,
        text: &str,
        goal: Option<&DiffConstraint>,
    ) -> bool {
        self.attempted += 1;
        let got = parse_reply(text);
        let ok = agrees(oracle.expected(check), got);
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("servebench: reply `{text}` fails check {check:?}");
            }
        }
        if let (Some(goal), Got::Verdict(v)) = (goal, got) {
            self.sample.push((goal.clone(), v));
        }
        ok
    }
}

/// Cold-implies: checks sampled `(goal, verdict)` pairs against the
/// reference decider; returns the number of mismatches.
pub fn check_cold_sample(w: &Workload, sample: &[(DiffConstraint, bool)]) -> u64 {
    sample
        .iter()
        .filter(|(goal, got)| implication::implies(&w.universe, &w.premises, goal) != *got)
        .count() as u64
}

/// Whether the `i`-th reply of a cold stream belongs to the checked sample:
/// a seeded one-in-`every` choice, independent of timing.
pub fn sampled(seed: u64, lane: u64, i: u64, every: u64) -> bool {
    let mut rng = crate::gen::Rng::new(seed ^ (lane << 56), i);
    rng.next_u64().is_multiple_of(every)
}
