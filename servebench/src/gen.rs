//! Seeded workloads.  Every request stream is a pure function of
//! (workload, seed, lane): the bulk and probe connections draw from lanes 0
//! and 1 of the same workload, and the in-process replays redraw lane 0.
//!
//! Premise families come from fixed templates whose attributes are renamed
//! by a seeded permutation.  Implication is invariant under renaming, so
//! every seed poses a problem of the same difficulty and the spread between
//! seeds measures the host, not the draw.  Goals, query sets, baskets and the
//! read/write interleaving are drawn fresh per seed.

use diffcon::DiffConstraint;
use diffcon_discover::{miner, Dataset, MinerConfig};
use diffcon_engine::protocol::{binary, format_wire};
use setlat::{AttrSet, Family, Universe};
use std::collections::HashSet;

/// Lane of the bulk (pipelined) connection's stream.
pub const LANE_BULK: u64 = 0;
/// Lane of the probe (strict request/response) connection's stream.
pub const LANE_PROBE: u64 = 1;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Text `implies` over a 4096-goal pool that fits the answer cache.
    HotImplies,
    /// Binary mask `implies` frames, every goal distinct.
    ColdImplies,
    /// Text reads (`implies`, `bound`) beside writes (`assert`/`retract`,
    /// `known`/`forget`) over a mined dataset.
    Churn,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::HotImplies, Kind::ColdImplies, Kind::Churn];

    /// The workload named on the command line.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotImplies => "hot-implies",
            Kind::ColdImplies => "cold-implies",
            Kind::Churn => "churn",
        }
    }

    /// Whether the workload's connections negotiate binary mask framing.
    pub fn binary(self) -> bool {
        self == Kind::ColdImplies
    }

    /// Requests the bulk connection keeps in flight: the smallest window
    /// (100–300 µs of server work) that keeps the server busy through the
    /// generator's turn-around and cross-CPU wake-ups, so the bulk stream
    /// measures the server while the probe queues behind as little as
    /// possible.
    pub fn bulk_window(self) -> usize {
        match self {
            Kind::HotImplies | Kind::Churn => 64,
            Kind::ColdImplies => 2,
        }
    }

    /// Bulk refills the generator writes at a time while it checks a burst
    /// of replies: half the window, so the server works on one half while
    /// the generator checks and refills the other.
    pub fn refill_batch(self) -> usize {
        self.bulk_window() / 2
    }

    fn tag(self) -> u64 {
        match self {
            Kind::HotImplies => 1,
            Kind::ColdImplies => 2,
            Kind::Churn => 3,
        }
    }
}

/// SplitMix64: small, fast, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one (seed, purpose) pair.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, self.below(i + 1));
        }
        perm
    }

    /// A random subset of `0..n` whose size is uniform in `lo..=hi`.
    pub fn subset(&mut self, n: usize, lo: usize, hi: usize) -> AttrSet {
        let size = self.between(lo, hi);
        let mut set = AttrSet::EMPTY;
        while set.len() < size {
            set.insert(self.below(n));
        }
        set
    }
}

/// One request of a stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `implies <goal>` (a mask frame on binary connections).
    Implies(DiffConstraint),
    /// `bound <set>`.
    Bound(AttrSet),
    /// `assert <constraint>`.
    Assert(DiffConstraint),
    /// `retract <constraint>`.
    Retract(DiffConstraint),
    /// `known <set> = <value>`.
    Known(AttrSet, u64),
    /// `forget <set>`.
    Forget(AttrSet),
}

/// What an op's reply is checked against (see [`crate::oracle::Oracle`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Hot: the verdict of implies-pool goal `i`.
    Pool(u32),
    /// Cold: a fresh goal; a seeded sample is checked after the window.
    Fresh,
    /// Churn: implies-pool goal `goal` under premise-toggle state `premises`.
    ChurnImplies {
        /// Bitmask of the toggle premises currently asserted.
        premises: u8,
        /// Index into the implies pool.
        goal: u16,
    },
    /// Churn: bound-pool set `set` under the given toggle states.
    ChurnBound {
        /// Bitmask of the toggle premises currently asserted.
        premises: u8,
        /// Bitmask of the toggle knowns currently recorded.
        knowns: u8,
        /// Index into the bound pool.
        set: u16,
    },
    /// A write: the reply must be `ok …`.
    Write,
}

/// Formats a set for the text protocol (`{}` for the empty set).
pub fn set_text(universe: &Universe, set: AttrSet) -> String {
    if set.is_empty() {
        "{}".into()
    } else {
        universe.format_set(set)
    }
}

impl Op {
    /// The op as one text-protocol request line (no newline).
    pub fn line(&self, universe: &Universe) -> String {
        match self {
            Op::Implies(c) => format!("implies {}", format_wire(c, universe)),
            Op::Bound(s) => format!("bound {}", set_text(universe, *s)),
            Op::Assert(c) => format!("assert {}", format_wire(c, universe)),
            Op::Retract(c) => format!("retract {}", format_wire(c, universe)),
            Op::Known(s, v) => format!("known {} = {v}", set_text(universe, *s)),
            Op::Forget(s) => format!("forget {}", set_text(universe, *s)),
        }
    }

    /// Appends the op's wire encoding: a text line plus `\n`, or on binary
    /// connections a mask frame for `implies` and a line frame otherwise.
    pub fn encode(&self, universe: &Universe, binary_framing: bool, out: &mut Vec<u8>) {
        match (binary_framing, self) {
            (true, Op::Implies(c)) => {
                let members: Vec<u64> = c.rhs.iter().map(|m| m.bits()).collect();
                binary::encode_implies(c.lhs.bits(), &members, out);
            }
            (_, op) => encode_line(&op.line(universe), binary_framing, out),
        }
    }
}

/// Appends one text request: a line frame on binary connections, the line
/// plus `\n` otherwise.
pub fn encode_line(line: &str, binary_framing: bool, out: &mut Vec<u8>) {
    if binary_framing {
        binary::encode_line(line, out);
    } else {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
}

/// A premise template: antecedent indices and member index lists.
type Template = &'static [(&'static [usize], &'static [&'static [usize]])];

const HOT_PREMISES: Template = &[
    (&[0], &[&[1]]),
    (&[1], &[&[2], &[3]]),
    (&[2, 3], &[&[4]]),
    (&[4], &[&[5, 6]]),
    (&[5], &[&[7], &[8]]),
    (&[6, 7], &[&[9]]),
    (&[8], &[&[10], &[0, 11]]),
    (&[9], &[&[11]]),
    (&[10, 11], &[&[2]]),
    (&[3, 4], &[&[6], &[9]]),
];

const COLD_PREMISES: Template = &[
    (&[0], &[&[1], &[2]]),
    (&[1, 2], &[&[3]]),
    (&[3], &[&[4, 5], &[6]]),
    (&[4], &[&[7]]),
    (&[5, 6], &[&[8], &[9]]),
    (&[7], &[&[10], &[11, 12]]),
    (&[8], &[&[13]]),
    (&[9, 10], &[&[14]]),
    (&[11], &[&[15], &[0]]),
    (&[12, 13], &[&[1, 4]]),
    (&[14], &[&[2], &[5], &[9]]),
    (&[15], &[&[6, 7]]),
];

/// Rules planted in the churn dataset: every basket holding the antecedent
/// also holds some member of the family.
const CHURN_RULES: Template = &[
    (&[0], &[&[1]]),
    (&[2], &[&[3]]),
    (&[4, 5], &[&[6]]),
    (&[7], &[&[8, 9]]),
    (&[10], &[&[3], &[11]]),
    (&[1, 3], &[&[5]]),
];

fn mapped(perm: &[usize], indices: &[usize]) -> AttrSet {
    let mut set = AttrSet::EMPTY;
    for &i in indices {
        set.insert(perm[i]);
    }
    set
}

fn instantiate(template: Template, perm: &[usize]) -> Vec<DiffConstraint> {
    template
        .iter()
        .map(|(lhs, members)| {
            DiffConstraint::new(
                mapped(perm, lhs),
                Family::from_sets(members.iter().map(|m| mapped(perm, m))),
            )
        })
        .collect()
}

/// A random non-trivial goal: `|X|` in `lhs`, `|𝒴|` in `members`, each
/// member's size in `member`.
fn random_goal(
    rng: &mut Rng,
    n: usize,
    lhs: (usize, usize),
    members: (usize, usize),
    member: (usize, usize),
) -> DiffConstraint {
    loop {
        let x = rng.subset(n, lhs.0, lhs.1);
        let count = rng.between(members.0, members.1);
        let family = Family::from_sets((0..count).map(|_| rng.subset(n, member.0, member.1)));
        let goal = DiffConstraint::new(x, family);
        if !goal.is_trivial() {
            return goal;
        }
    }
}

fn goal_pool(rng: &mut Rng, n: usize, size: usize) -> Vec<DiffConstraint> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let goal = random_goal(rng, n, (1, 3), (1, 2), (1, 2));
        if seen.insert(goal.clone()) {
            pool.push(goal);
        }
    }
    pool
}

/// Hot-implies: goals in the pool (fits the 65,536-entry answer cache).
pub const HOT_POOL: usize = 4096;
/// Cold-implies: goals each connection's setup sends before the window.
pub const COLD_WARM: usize = 4096;
/// Churn: baskets in the dataset.
pub const CHURN_BASKETS: usize = 400;
/// Churn: the miner budgets `adopt` runs with (`max |X|`, `max |𝒴|`).  One
/// member keeps mining in the tens of milliseconds at |S| = 12; two members
/// take seconds.
pub const CHURN_MINER: MinerConfig = MinerConfig {
    max_lhs: 2,
    max_rhs: 1,
};
/// Churn: baskets per `load` request.
const LOAD_CHUNK: usize = 200;
/// Churn: goals in the implies pool.
pub const CHURN_GOALS: usize = 256;
/// Churn: sets in the bound pool.
pub const CHURN_SETS: usize = 16;
/// Churn: premises (taken from the mined cover) and knowns that writes
/// toggle.
pub const CHURN_TOGGLES: usize = 3;

/// The churn workload's data plane.
#[derive(Clone, Debug)]
pub struct Churn {
    /// The basket dataset, with the planted rules repaired in.
    pub baskets: Vec<AttrSet>,
    /// The non-redundant cover `adopt` asserts, mined by the paper's miner.
    pub cover: Vec<DiffConstraint>,
    /// Indices into `cover` of the premises writes retract and re-assert.
    pub toggle_premises: Vec<usize>,
    /// Knowns recorded at setup: `f(∅)` and every singleton, at their true
    /// supports.
    pub base_knowns: Vec<(AttrSet, u64)>,
    /// Knowns writes record and forget, at their true supports.
    pub toggle_knowns: Vec<(AttrSet, u64)>,
    /// Sets the `bound` reads ask about.
    pub bound_sets: Vec<AttrSet>,
}

/// The support of `set` in `baskets`: how many baskets contain it.
pub fn support(baskets: &[AttrSet], set: AttrSet) -> u64 {
    baskets.iter().filter(|b| set.is_subset(**b)).count() as u64
}

impl Churn {
    fn new(rng: &mut Rng, universe: &Universe) -> Churn {
        let n = universe.len();
        let rules = instantiate(CHURN_RULES, &rng.permutation(n));
        let mut baskets = Vec::with_capacity(CHURN_BASKETS);
        while baskets.len() < CHURN_BASKETS {
            let mut basket = AttrSet::EMPTY;
            for i in 0..n {
                if rng.chance(0.3) {
                    basket.insert(i);
                }
            }
            // Repair until every planted rule holds (items are only added,
            // so this terminates).
            let mut changed = true;
            while changed {
                changed = false;
                for rule in &rules {
                    if rule.lhs.is_subset(basket) && !rule.rhs.iter().any(|m| m.is_subset(basket)) {
                        let members = rule.rhs.members();
                        basket = basket.union(members[rng.below(members.len())]);
                        changed = true;
                    }
                }
            }
            if !basket.is_empty() {
                baskets.push(basket);
            }
        }
        let mut dataset = Dataset::new(universe.clone());
        for &basket in &baskets {
            dataset.push(basket);
        }
        let cover = miner::mine(&dataset, &CHURN_MINER).cover;
        let mut picks = rng.permutation(cover.len());
        picks.truncate(CHURN_TOGGLES);
        let mut base_knowns = vec![(AttrSet::EMPTY, baskets.len() as u64)];
        for i in 0..n {
            let s = AttrSet::singleton(i);
            base_knowns.push((s, support(&baskets, s)));
        }
        let mut toggle_sets = HashSet::new();
        while toggle_sets.len() < CHURN_TOGGLES {
            toggle_sets.insert(rng.subset(n, 2, 2).bits());
        }
        let mut toggle_sets: Vec<u64> = toggle_sets.into_iter().collect();
        toggle_sets.sort_unstable();
        let toggle_knowns = toggle_sets
            .into_iter()
            .map(|bits| {
                let s = AttrSet::from_bits(bits);
                (s, support(&baskets, s))
            })
            .collect();
        let mut seen = HashSet::new();
        let mut bound_sets = Vec::with_capacity(CHURN_SETS);
        while bound_sets.len() < CHURN_SETS {
            let s = rng.subset(n, 2, 4);
            if seen.insert(s.bits()) {
                bound_sets.push(s);
            }
        }
        Churn {
            baskets,
            cover,
            toggle_premises: picks,
            base_knowns,
            toggle_knowns,
            bound_sets,
        }
    }
}

/// One workload instance: the state every connection builds at setup, the
/// pools its streams draw from, and the parameters of those streams.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// The session universe.
    pub universe: Universe,
    /// Premises asserted at setup (hot, cold; churn adopts its cover).
    pub premises: Vec<DiffConstraint>,
    /// The implies-goal pool (hot, churn).
    pub pool: Vec<DiffConstraint>,
    /// The churn data plane.
    pub churn: Option<Churn>,
}

impl Workload {
    /// Draws the workload for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed, kind.tag() << 8);
        let n = match kind {
            Kind::ColdImplies => 16,
            Kind::HotImplies | Kind::Churn => 12,
        };
        let universe = Universe::of_size(n);
        let (premises, pool, churn) = match kind {
            Kind::HotImplies => {
                let premises = instantiate(HOT_PREMISES, &rng.permutation(n));
                (premises, goal_pool(&mut rng, n, HOT_POOL), None)
            }
            Kind::ColdImplies => (
                instantiate(COLD_PREMISES, &rng.permutation(n)),
                Vec::new(),
                None,
            ),
            Kind::Churn => {
                let churn = Churn::new(&mut rng, &universe);
                (Vec::new(), goal_pool(&mut rng, n, CHURN_GOALS), Some(churn))
            }
        };
        Workload {
            kind,
            seed,
            universe,
            premises,
            pool,
            churn,
        }
    }

    /// The setup request lines every connection sends first, in order.
    pub fn setup_lines(&self) -> Vec<String> {
        let u = &self.universe;
        let mut lines = vec![format!("universe {}", u.len())];
        for p in &self.premises {
            lines.push(format!("assert {}", format_wire(p, u)));
        }
        if let Some(churn) = &self.churn {
            for chunk in churn.baskets.chunks(LOAD_CHUNK) {
                let records: Vec<String> = chunk.iter().map(|&b| u.format_set(b)).collect();
                lines.push(format!("load {}", records.join("; ")));
            }
            lines.push(format!(
                "adopt {} {}",
                CHURN_MINER.max_lhs, CHURN_MINER.max_rhs
            ));
            for &(s, v) in &churn.base_knowns {
                lines.push(format!("known {} = {v}", set_text(u, s)));
            }
        }
        lines
    }

    /// A fresh stream for `lane`.
    pub fn stream(&self, lane: u64) -> Stream<'_> {
        Stream {
            workload: self,
            rng: Rng::new(self.seed, (self.kind.tag() << 8) | (lane + 1)),
            seen: HashSet::new(),
            premises: (1u8 << self.churn.as_ref().map_or(0, |c| c.toggle_premises.len())) - 1,
            knowns: 0,
        }
    }

    /// The warm pass each connection makes after its setup lines: every
    /// pool goal once (hot); the first [`COLD_WARM`] goals of the
    /// connection's own stream (cold, so the measured goals still never
    /// repeat); for churn, every toggle state the stream can reach, one
    /// write apart in Gray-code order and back to the start, with every
    /// bound set asked in each state and every pool goal in each premise
    /// state — so no first-time bound derivation or decide falls inside the
    /// measured window.
    pub fn warm(&self, stream: &mut Stream<'_>) -> Vec<(Op, Check)> {
        match self.kind {
            Kind::HotImplies => self
                .pool
                .iter()
                .enumerate()
                .map(|(i, g)| (Op::Implies(g.clone()), Check::Pool(i as u32)))
                .collect(),
            Kind::ColdImplies => (0..COLD_WARM).map(|_| stream.next_op()).collect(),
            Kind::Churn => {
                let churn = self
                    .churn
                    .as_ref()
                    .expect("churn workload has a data plane");
                let premise_bits = churn.toggle_premises.len();
                let bits = premise_bits + churn.toggle_knowns.len();
                let toggle = |stream: &mut Stream<'_>, bit: usize| {
                    if bit < premise_bits {
                        stream.toggle_premise(bit)
                    } else {
                        stream.toggle_known(bit - premise_bits)
                    }
                };
                let mut ops = Vec::new();
                let mut premises_warmed = HashSet::new();
                for step in 0..1usize << bits {
                    if step > 0 {
                        // Gray code: step `i` flips bit `trailing_zeros(i)`.
                        ops.push((toggle(stream, step.trailing_zeros() as usize), Check::Write));
                    }
                    if premises_warmed.insert(stream.premises) {
                        ops.extend(self.pool.iter().enumerate().map(|(i, g)| {
                            (
                                Op::Implies(g.clone()),
                                Check::ChurnImplies {
                                    premises: stream.premises,
                                    goal: i as u16,
                                },
                            )
                        }));
                    }
                    ops.extend(churn.bound_sets.iter().enumerate().map(|(i, &s)| {
                        (
                            Op::Bound(s),
                            Check::ChurnBound {
                                premises: stream.premises,
                                knowns: stream.knowns,
                                set: i as u16,
                            },
                        )
                    }));
                }
                // The last Gray code word differs from the first in the top
                // bit only.
                ops.push((toggle(stream, bits - 1), Check::Write));
                ops
            }
        }
    }
}

/// An endless request stream of one lane.
#[derive(Clone, Debug)]
pub struct Stream<'w> {
    workload: &'w Workload,
    rng: Rng,
    /// Cold: every goal drawn so far (no goal repeats).
    seen: HashSet<DiffConstraint>,
    /// Churn: bitmask of the toggle premises currently asserted.
    premises: u8,
    /// Churn: bitmask of the toggle knowns currently recorded.
    knowns: u8,
}

impl Stream<'_> {
    /// Churn: retracts toggle premise `i` when asserted, asserts it
    /// otherwise.
    fn toggle_premise(&mut self, i: usize) -> Op {
        let churn = self.workload.churn.as_ref().expect("churn data plane");
        let premise = churn.cover[churn.toggle_premises[i]].clone();
        self.premises ^= 1 << i;
        if self.premises & (1 << i) != 0 {
            Op::Assert(premise)
        } else {
            Op::Retract(premise)
        }
    }

    /// Churn: forgets toggle known `i` when recorded, records it otherwise.
    fn toggle_known(&mut self, i: usize) -> Op {
        let churn = self.workload.churn.as_ref().expect("churn data plane");
        let (set, value) = churn.toggle_knowns[i];
        self.knowns ^= 1 << i;
        if self.knowns & (1 << i) != 0 {
            Op::Known(set, value)
        } else {
            Op::Forget(set)
        }
    }

    /// The next request and what its reply is checked against.
    pub fn next_op(&mut self) -> (Op, Check) {
        let w = self.workload;
        match w.kind {
            Kind::HotImplies => {
                let i = self.rng.below(w.pool.len());
                (Op::Implies(w.pool[i].clone()), Check::Pool(i as u32))
            }
            Kind::ColdImplies => loop {
                let goal = random_goal(&mut self.rng, w.universe.len(), (2, 2), (1, 3), (1, 3));
                if self.seen.insert(goal.clone()) {
                    return (Op::Implies(goal), Check::Fresh);
                }
            },
            Kind::Churn => {
                let churn = w.churn.as_ref().expect("churn workload has a data plane");
                let roll = self.rng.below(100);
                if roll < 5 && !churn.toggle_premises.is_empty() {
                    let i = self.rng.below(churn.toggle_premises.len());
                    (self.toggle_premise(i), Check::Write)
                } else if roll < 10 {
                    let i = self.rng.below(churn.toggle_knowns.len());
                    (self.toggle_known(i), Check::Write)
                } else if roll < 65 {
                    let i = self.rng.below(w.pool.len());
                    let check = Check::ChurnImplies {
                        premises: self.premises,
                        goal: i as u16,
                    };
                    (Op::Implies(w.pool[i].clone()), check)
                } else {
                    let i = self.rng.below(churn.bound_sets.len());
                    let check = Check::ChurnBound {
                        premises: self.premises,
                        knowns: self.knowns,
                        set: i as u16,
                    };
                    (Op::Bound(churn.bound_sets[i]), check)
                }
            }
        }
    }
}
