//! Generator and oracle tests: streams are pure functions of (workload,
//! seed), the churn data plane is sound, cold goals never repeat, and the
//! engine agrees with the paper-crate oracle on every setup and warm reply.

use diffcon_engine::protocol::Server;
use diffcon_engine::SessionConfig;
use servebench::gen::{Check, Kind, Op, Workload, LANE_BULK, LANE_PROBE};
use servebench::oracle::{churn_knowns, churn_premises, reference_bound, Checks, Oracle};
use std::collections::HashSet;

/// The bytes a connection of `lane` would send: setup lines, warm pass and
/// the first `ops` requests of the measured stream.
fn stream_bytes(w: &Workload, lane: u64, ops: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for line in w.setup_lines() {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    let mut stream = w.stream(lane);
    for (op, _) in w.warm(&mut stream) {
        op.encode(&w.universe, w.kind.binary(), &mut out);
    }
    for _ in 0..ops {
        let (op, _) = stream.next_op();
        op.encode(&w.universe, w.kind.binary(), &mut out);
    }
    out
}

#[test]
fn same_seed_gives_identical_streams_and_other_seeds_differ() {
    for kind in Kind::ALL {
        for lane in [LANE_BULK, LANE_PROBE] {
            let a = stream_bytes(&Workload::new(kind, 7), lane, 2000);
            let b = stream_bytes(&Workload::new(kind, 7), lane, 2000);
            let c = stream_bytes(&Workload::new(kind, 8), lane, 2000);
            assert_eq!(
                a,
                b,
                "{} lane {lane}: same seed, different bytes",
                kind.name()
            );
            assert_ne!(a, c, "{} lane {lane}: seeds 7 and 8 agree", kind.name());
        }
        let w = Workload::new(kind, 7);
        assert_ne!(
            stream_bytes(&w, LANE_BULK, 2000),
            stream_bytes(&w, LANE_PROBE, 2000),
            "{}: the two lanes send the same stream",
            kind.name()
        );
    }
}

#[test]
fn churn_cover_is_nonempty_and_knowns_are_consistent() {
    for seed in [1, 2, 3] {
        let w = Workload::new(Kind::Churn, seed);
        let churn = w.churn.as_ref().expect("churn has a data plane");
        assert!(!churn.cover.is_empty(), "seed {seed}: empty mined cover");
        assert!(!churn.toggle_premises.is_empty());
        // Every toggle state is feasible and brackets the data's support
        // (the oracle asserts both while it tabulates).
        Oracle::new(&w);
        let all = (1u8 << churn.toggle_premises.len()) - 1;
        let knowns = churn_knowns(&w, (1u8 << churn.toggle_knowns.len()) - 1);
        for &set in &churn.bound_sets {
            assert!(reference_bound(&w, &churn_premises(&w, all), &knowns, set).is_some());
        }
        // The engine agrees: no bound in the setup state answers infeasible.
        let mut server = Server::new(SessionConfig::default());
        for line in w.setup_lines() {
            let reply = server.handle_line(&line);
            assert!(reply.text.starts_with("ok"), "`{line}` -> {}", reply.text);
        }
        for &set in &churn.bound_sets {
            let reply = server.handle_line(&Op::Bound(set).line(&w.universe));
            assert!(reply.text.starts_with("bound "), "{}", reply.text);
        }
    }
}

#[test]
fn churn_warm_pass_asks_every_bound_in_every_toggle_state() {
    let w = Workload::new(Kind::Churn, 5);
    let churn = w.churn.as_ref().expect("churn has a data plane");
    let mut stream = w.stream(LANE_BULK);
    let start = stream.clone().next_op();
    let warm = w.warm(&mut stream);
    let states = 1usize << (churn.toggle_premises.len() + churn.toggle_knowns.len());
    let mut bounds = HashSet::new();
    let mut goals = HashSet::new();
    for (_, check) in &warm {
        match *check {
            Check::ChurnBound {
                premises,
                knowns,
                set,
            } => {
                bounds.insert((premises, knowns, set));
            }
            Check::ChurnImplies { premises, goal } => {
                goals.insert((premises, goal));
            }
            _ => {}
        }
    }
    assert_eq!(bounds.len(), states * churn.bound_sets.len());
    assert_eq!(
        goals.len(),
        (1 << churn.toggle_premises.len()) * w.pool.len()
    );
    // The walk ends where it began: the measured stream continues as if
    // there had been no warm pass.
    assert_eq!(stream.next_op(), start);
}

#[test]
fn cold_stream_repeats_no_goal() {
    for seed in [1, 2] {
        let w = Workload::new(Kind::ColdImplies, seed);
        for lane in [LANE_BULK, LANE_PROBE] {
            let mut stream = w.stream(lane);
            let mut goals: Vec<Op> = w.warm(&mut stream).into_iter().map(|(op, _)| op).collect();
            goals.extend((0..50_000).map(|_| stream.next_op().0));
            let mut seen = HashSet::new();
            for op in goals {
                let Op::Implies(goal) = op else {
                    panic!("cold streams hold only implies");
                };
                assert!(seen.insert(goal), "seed {seed} lane {lane}: a goal repeats");
            }
        }
    }
}

#[test]
fn engine_agrees_with_oracle_on_setup_warm_and_stream() {
    for kind in Kind::ALL {
        let w = Workload::new(kind, 3);
        let oracle = Oracle::new(&w);
        let mut server = Server::new(SessionConfig::default());
        let mut checks = Checks::default();
        for line in w.setup_lines() {
            let reply = server.handle_line(&line);
            assert!(reply.text.starts_with("ok"), "`{line}` -> {}", reply.text);
        }
        let mut stream = w.stream(LANE_BULK);
        let mut ops = w.warm(&mut stream);
        ops.extend((0..2000).map(|_| stream.next_op()));
        for (op, check) in &ops {
            let reply = server.handle_line(&op.line(&w.universe));
            let goal = match (op, check) {
                (Op::Implies(goal), Check::Fresh) => Some(goal),
                _ => None,
            };
            checks.settle(&oracle, *check, &reply.text, goal);
        }
        assert_eq!(checks.failed, 0, "{}: engine disagrees", kind.name());
        assert_eq!(
            servebench::oracle::check_cold_sample(&w, &checks.sample),
            0,
            "{}: engine verdicts disagree with the reference",
            kind.name()
        );
    }
}
