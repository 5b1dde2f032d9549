//! The traced run: replays the bulk lane's request stream in process through
//! the engine's public functions, with a span around each call.
//!
//! Three replays run over the same ops, each on its own server that made the
//! same setup and warm pass, interleaved burst by burst:
//!
//! * **untraced** — `Server::handle_line` (text) or decode + begin + run
//!   (binary) with no clock reads inside a burst: the reference cost;
//! * **traced** — the same calls split into `protocol.parse_request` (or
//!   `protocol.binary_decode`), `protocol.begin` and `server_state.run`
//!   spans under one `protocol.handle_line` span per request.  Layers that
//!   live inside those calls and are only reachable through other public
//!   functions (`DiffConstraint::parse`, `Snapshot::implies`/`bound`, the
//!   `Session` mutators) are timed on a **shadow** `Session` that receives
//!   the same requests in the same order, so its caches hit and miss exactly
//!   where the server's do.  Shadow spans carry the id of the request and
//!   the stage span they stand for, and run after the burst's stage spans;
//! * **pipelined** — the same lines through `Pipeline::push_line` /
//!   `finish` in bursts of the bulk window, as the reactor feeds them.
//!
//! Spans stay in memory and are written out, one per line, at the end.
//!
//! The ledger compares the direct child spans of `protocol.handle_line`,
//! each less the cost of an empty span, with the program's own whole-request
//! call timed untraced: `Server::handle_line` for text lines, the pipeline's
//! frame entry for mask frames.  Work that call does outside the stages the
//! spans time shows as unattributed.

use crate::gen::{Check, Op, Workload, CHURN_MINER, LANE_BULK};
use crate::oracle::{sampled, Checks, Oracle};
use crate::served::{median, COLD_SAMPLE_EVERY};
use diffcon::DiffConstraint;
use diffcon_engine::protocol::{binary, parse_request, Reply, Server, Step};
use diffcon_engine::{Pipeline, Session, SessionConfig};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Most requests one traced run replays (bounds the span store).
const MAX_REPLAY: usize = 100_000;
/// The ledger check fails when the direct child spans of
/// `protocol.handle_line` and the program's untraced whole-request cost
/// differ by more than this share of the latter, either way.
pub const LEDGER_TOLERANCE: f64 = 0.15;

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layer {
    /// One whole request (the root of each request's spans).
    HandleLine,
    /// `protocol::parse_request`.
    ParseRequest,
    /// `protocol::binary::decode_request`.
    BinaryDecode,
    /// `Server::begin` / `begin_implies_mask`.
    Begin,
    /// `DeferredQuery::run`, including the reply's flight-record commit.
    Run,
    /// Shadow `DiffConstraint::parse` of the request's constraint text.
    ConstraintParse,
    /// Shadow `Snapshot::implies` answered from the answer cache.
    ImpliesHit,
    /// Shadow `Snapshot::implies` that decided.
    ImpliesMiss,
    /// Shadow `Snapshot::bound` answered from the bound cache.
    BoundHit,
    /// Shadow `Snapshot::bound` that derived.
    BoundMiss,
    /// Shadow `Session::assert_constraint`.
    Assert,
    /// Shadow `Session::retract_constraint`.
    Retract,
    /// Shadow `Session::set_known`.
    Known,
    /// Shadow `Session::forget_known`.
    Forget,
}

impl Layer {
    /// The span name written out.
    fn name(self) -> &'static str {
        match self {
            Layer::HandleLine => "protocol.handle_line",
            Layer::ParseRequest => "protocol.parse_request",
            Layer::BinaryDecode => "protocol.binary_decode",
            Layer::Begin => "protocol.begin",
            Layer::Run => "server_state.run",
            Layer::ConstraintParse => "core.constraint_parse",
            Layer::ImpliesHit => "snapshot.implies_hit",
            Layer::ImpliesMiss => "snapshot.implies_miss",
            Layer::BoundHit => "snapshot.bound_hit",
            Layer::BoundMiss => "snapshot.bound_miss",
            Layer::Assert => "session.assert",
            Layer::Retract => "session.retract",
            Layer::Known => "session.known",
            Layer::Forget => "session.forget",
        }
    }
}

/// No parent: a root span.
const NO_PARENT: u32 = u32::MAX;

/// One span: a layer, the request it belongs to, the span that caused it,
/// and its interval in nanoseconds since the replay began.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// The layer timed.
    layer: Layer,
    /// Request index within the replay.
    req: u32,
    /// Index of the parent span, or [`NO_PARENT`].
    parent: u32,
    /// Start, ns.
    start: u64,
    /// End, ns.
    end: u64,
}

impl Span {
    /// Duration in ns.
    fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span store.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, req: u32, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            layer,
            req,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end = self.now();
    }
}

/// One replayed request, pre-encoded so encoding is never timed.
struct Prepared {
    op: Op,
    check: Check,
    /// Text line (text framing) or frame bytes (binary framing).
    wire: Vec<u8>,
    line: String,
}

fn prepare(w: &Workload) -> (Vec<(Op, Check)>, Vec<Prepared>) {
    let mut stream = w.stream(LANE_BULK);
    let warm = w.warm(&mut stream);
    let ops = (0..MAX_REPLAY)
        .map(|_| {
            let (op, check) = stream.next_op();
            let line = op.line(&w.universe);
            let mut wire = Vec::new();
            if w.kind.binary() {
                op.encode(&w.universe, true, &mut wire);
            }
            Prepared {
                op,
                check,
                wire,
                line,
            }
        })
        .collect();
    (warm, ops)
}

/// Builds a server's state: setup lines, then the warm pass (checked).
fn set_up_server(
    w: &Workload,
    oracle: &Oracle,
    warm: &[(Op, Check)],
    checks: &mut Checks,
) -> Server {
    let mut server = Server::new(SessionConfig::default());
    for line in w.setup_lines() {
        let reply = server.handle_line(&line);
        checks.settle(oracle, Check::Write, &reply.text, None);
    }
    for (op, check) in warm {
        let reply = server.handle_line(&op.line(&w.universe));
        checks.settle(oracle, *check, &reply.text, None);
    }
    server
}

/// Decodes one replayed mask frame (the `protocol.binary_decode` stage).
fn decode(frame: &[u8]) -> binary::Decoded<'_> {
    binary::decode_request(frame, usize::MAX)
}

/// Begins a decoded mask frame (the `protocol.begin` stage of binary
/// framing).
fn begin_decoded(server: &mut Server, decoded: binary::Decoded<'_>) -> Step {
    match decoded {
        binary::Decoded::Frame(binary::BinRequest::Implies { lhs, rhs }, _) => {
            server.begin_implies_mask(lhs, rhs.iter())
        }
        other => Step::Done(Reply::err(format!("unexpected frame {other:?}"))),
    }
}

/// Runs one request through the untraced path — `Server::handle_line` for a
/// text line, decode + begin + run for a mask frame — and returns the reply
/// text.
fn untraced_step(server: &mut Server, binary_framing: bool, p: &Prepared) -> String {
    if !binary_framing {
        return server.handle_line(&p.line).text;
    }
    match begin_decoded(server, decode(&p.wire)) {
        Step::Done(reply) => reply.text,
        Step::Deferred(query) => query.run().text,
    }
}

/// Feeds one request to the pipeline the way the reactor does.
fn pipelined_step(pipeline: &mut Pipeline, binary_framing: bool, p: &Prepared) -> io::Result<()> {
    if !binary_framing {
        std::hint::black_box(pipeline.push_line(&p.line).0);
        return Ok(());
    }
    match decode(&p.wire) {
        binary::Decoded::Frame(frame, used) => {
            std::hint::black_box(pipeline.push_binary_io(&frame, used as u64, 0).0);
            Ok(())
        }
        _ => Err(io::Error::other("replayed frame does not decode")),
    }
}

/// Everything a traced run measures (0 where the workload never exercises
/// the layer).
#[derive(Debug, Default)]
pub struct Traced {
    /// Requests replayed.
    pub replayed: usize,
    /// Mean ns per span name, over the spans of that name.
    pub means: Vec<(&'static str, f64)>,
    /// Untraced whole-request cost (`Server::handle_line`; decode + begin +
    /// run for mask frames), ns per request.
    pub handle_line_ns: f64,
    /// `protocol.begin` self time on `implies` requests, ns.
    pub begin_self_ns: f64,
    /// `server_state.run` minus its decide on `implies` requests, ns.
    pub reply_ns: f64,
    /// Per-request `Pipeline` cost beyond the untraced path, ns.
    pub pipeline_ns: f64,
    /// Shadow misses per planner route: (route, mean ns, share of misses).
    pub routes: Vec<(&'static str, f64, f64)>,
    /// Shadow `Session::adopt_discovered`, ms.
    pub adopt_ms: f64,
    /// What one span adds to the interval it times (an empty span's
    /// length), ns; subtracted from each child span in the ledger.
    pub span_cost_ns: f64,
    /// Share of the program's own whole-request cost that the child spans
    /// of `protocol.handle_line` do not account for (negative when they
    /// account for more).
    pub unattributed_share: f64,
    /// Traced over untraced per-request cost, minus one.
    pub overhead_share: f64,
    /// Reply checks.
    pub checks: Checks,
}

impl Traced {
    /// Mean ns of a span name (0 when the workload made none).
    pub fn mean(&self, name: &str) -> f64 {
        self.means
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The length of an empty span, ns: the median over batches of the mean of
/// back-to-back open/close pairs.
fn span_cost_ns() -> f64 {
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(1000),
    };
    let batches: Vec<f64> = (0..31)
        .map(|_| {
            tracer.spans.clear();
            for _ in 0..1000 {
                let span = tracer.open(Layer::HandleLine, 0, NO_PARENT);
                tracer.close(span);
            }
            tracer.spans.iter().map(Span::ns).sum::<u64>() as f64 / 1000.0
        })
        .collect();
    median(&batches)
}

/// A shadow `Session` in the state the replayed server reaches after its
/// setup lines and warm pass; returns it with its `adopt_discovered` time in
/// ms.
fn shadow_session(w: &Workload, warm: &[(Op, Check)]) -> io::Result<(Session, f64)> {
    let mut shadow = Session::with_config(w.universe.clone(), SessionConfig::default());
    for p in &w.premises {
        shadow.assert_constraint(p);
    }
    let mut adopt_ms = 0.0;
    if let Some(churn) = &w.churn {
        let records: Vec<String> = churn
            .baskets
            .iter()
            .map(|&b| w.universe.format_set(b))
            .collect();
        shadow
            .load_records(&records)
            .map_err(|e| io::Error::other(format!("shadow load: {e}")))?;
        let started = Instant::now();
        shadow.adopt_discovered(&CHURN_MINER);
        adopt_ms = started.elapsed().as_secs_f64() * 1e3;
        for &(set, value) in &churn.base_knowns {
            shadow.set_known(set, value as f64);
        }
    }
    for (op, _) in warm {
        shadow_call(&mut shadow, op, None, 0, NO_PARENT);
    }
    Ok((shadow, adopt_ms))
}

/// The traced replay: a server whose calls are split into stage spans, its
/// shadow session, and the sums the ledger and the layer metrics need.
struct TracedReplay {
    server: Server,
    shadow: Session,
    tracer: Tracer,
    /// Σ `protocol.handle_line` span lengths, ns.
    roots_ns: f64,
    /// Σ direct child span lengths, each minus the span cost, ns.
    children_ns: f64,
    begin_self: (f64, u64),
    reply: (f64, u64),
    /// Shadow miss spans with the planner route that decided them.
    routes: Vec<(u32, &'static str)>,
}

/// The stage spans of one replayed request that its shadow spans hang under.
#[derive(Clone, Copy)]
struct Stages {
    begin: u32,
    run: Option<u32>,
}

impl TracedReplay {
    /// Replays request `req` with its stage spans and checks the reply.
    fn stages(
        &mut self,
        w: &Workload,
        oracle: &Oracle,
        checks: &mut Checks,
        span_cost: f64,
        req: u32,
        p: &Prepared,
    ) -> Stages {
        let tracer = &mut self.tracer;
        let root = tracer.open(Layer::HandleLine, req, NO_PARENT);
        let (step, decode_or_parse, begin) = if w.kind.binary() {
            let d = tracer.open(Layer::BinaryDecode, req, root);
            let decoded = decode(&p.wire);
            tracer.close(d);
            let b = tracer.open(Layer::Begin, req, root);
            (begin_decoded(&mut self.server, decoded), d, b)
        } else {
            let r = tracer.open(Layer::ParseRequest, req, root);
            let request = parse_request(&p.line);
            tracer.close(r);
            let b = tracer.open(Layer::Begin, req, root);
            let step = match request {
                Ok(request) => self.server.begin(request),
                Err(e) => Step::Done(Reply::err(e)),
            };
            (step, r, b)
        };
        tracer.close(begin);
        let (text, run) = match step {
            Step::Done(mut done) => (std::mem::take(&mut done.text), None),
            Step::Deferred(query) => {
                let r = tracer.open(Layer::Run, req, root);
                let mut answered = query.run();
                let text = std::mem::take(&mut answered.text);
                drop(answered);
                tracer.close(r);
                (text, Some(r))
            }
        };
        tracer.close(root);
        let ns = |span: u32| tracer.spans[span as usize].ns() as f64;
        self.roots_ns += ns(root);
        self.children_ns += [Some(decode_or_parse), Some(begin), run]
            .into_iter()
            .flatten()
            .map(|span| (ns(span) - span_cost).max(0.0))
            .sum::<f64>();

        let goal = match (&p.op, p.check) {
            (Op::Implies(goal), Check::Fresh)
                if sampled(w.seed, LANE_BULK, req as u64, COLD_SAMPLE_EVERY) =>
            {
                Some(goal)
            }
            _ => None,
        };
        checks.settle(oracle, p.check, &text, goal);
        Stages { begin, run }
    }

    /// Times the shadow layers of request `req`, under its stage spans.
    fn shadow(&mut self, w: &Workload, req: u32, p: &Prepared, Stages { begin, run }: Stages) {
        let tracer = &mut self.tracer;
        let mut parse_ns = 0.0;
        if !w.kind.binary() && matches!(p.op, Op::Implies(_) | Op::Assert(_) | Op::Retract(_)) {
            let arg = p.line.split_once(' ').map_or("", |(_, rest)| rest);
            let c = tracer.open(Layer::ConstraintParse, req, begin);
            let parsed = DiffConstraint::parse(arg, &w.universe);
            tracer.close(c);
            std::hint::black_box(parsed.is_ok());
            parse_ns = tracer.spans[c as usize].ns() as f64;
        }
        let (decide, route) = shadow_call(
            &mut self.shadow,
            &p.op,
            Some(&mut *tracer),
            req,
            run.unwrap_or(begin),
        );
        if let Some(route) = route {
            self.routes.push((tracer.spans.len() as u32 - 1, route));
        }
        if let Op::Implies(_) = p.op {
            self.begin_self.0 += tracer.spans[begin as usize].ns() as f64 - parse_ns;
            self.begin_self.1 += 1;
            if let Some(r) = run {
                self.reply.0 += tracer.spans[r as usize].ns() as f64 - decide;
                self.reply.1 += 1;
            }
        }
    }
}

/// Runs the three replays interleaved burst by burst (bursts of the bulk
/// window), so host drift touches them alike.  Each stops at
/// [`MAX_REPLAY`] requests or once the untraced one has spent `budget_s`
/// seconds.
pub fn run(w: &Workload, oracle: &Oracle, budget_s: f64, spans_out: &Path) -> io::Result<Traced> {
    let binary_framing = w.kind.binary();
    let (warm, ops) = prepare(w);
    let mut out = Traced::default();

    let mut untraced = set_up_server(w, oracle, &warm, &mut out.checks);
    let mut pipeline = Pipeline::new(SessionConfig::default(), 1);
    for line in w.setup_lines() {
        pipeline.push_line(&line);
    }
    for (op, _) in &warm {
        pipeline.push_line(&op.line(&w.universe));
    }
    pipeline.finish();
    let (shadow, adopt_ms) = shadow_session(w, &warm)?;
    out.adopt_ms = adopt_ms;
    let mut traced = TracedReplay {
        server: set_up_server(w, oracle, &warm, &mut out.checks),
        shadow,
        tracer: Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(ops.len() * 6),
        },
        roots_ns: 0.0,
        children_ns: 0.0,
        begin_self: (0.0, 0),
        reply: (0.0, 0),
        routes: Vec::new(),
    };
    out.span_cost_ns = span_cost_ns();

    let (mut untraced_ns, mut pipelined_ns) = (0.0, 0.0);
    let mut replayed = 0;
    for burst in ops.chunks(w.kind.bulk_window()) {
        let started = Instant::now();
        for p in burst {
            std::hint::black_box(untraced_step(&mut untraced, binary_framing, p));
        }
        untraced_ns += started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        for p in burst {
            pipelined_step(&mut pipeline, binary_framing, p)?;
        }
        std::hint::black_box(pipeline.finish());
        pipelined_ns += started.elapsed().as_nanos() as f64;
        // The stage spans of a burst run back to back, as in the untraced
        // replay; the shadow layers follow, so the shadow session's memory
        // traffic never sits between two traced requests.
        let stages: Vec<Stages> = burst
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let req = (replayed + j) as u32;
                traced.stages(w, oracle, &mut out.checks, out.span_cost_ns, req, p)
            })
            .collect();
        for (j, (p, st)) in burst.iter().zip(stages).enumerate() {
            traced.shadow(w, (replayed + j) as u32, p, st);
        }
        replayed += burst.len();
        if untraced_ns >= budget_s * 1e9 {
            break;
        }
    }
    drop(untraced);
    drop(pipeline);
    out.replayed = replayed;
    let per_request = replayed.max(1) as f64;
    out.handle_line_ns = untraced_ns / per_request;
    out.pipeline_ns = (pipelined_ns - untraced_ns) / per_request;
    // The program's own whole-request call: `Server::handle_line` for text;
    // for a mask frame the pipeline's frame entry is the only one.
    let reference_ns = if binary_framing {
        pipelined_ns
    } else {
        untraced_ns
    };
    out.unattributed_share = 1.0 - traced.children_ns / reference_ns.max(1.0);
    out.overhead_share = traced.roots_ns / untraced_ns.max(1.0) - 1.0;
    out.begin_self_ns = traced.begin_self.0 / traced.begin_self.1.max(1) as f64;
    out.reply_ns = traced.reply.0 / traced.reply.1.max(1) as f64;

    let spans = &traced.tracer.spans;
    let mut sums: Vec<(&'static str, f64, u64)> = Vec::new();
    for s in spans {
        let name = s.layer.name();
        match sums.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => {
                entry.1 += s.ns() as f64;
                entry.2 += 1;
            }
            None => sums.push((name, s.ns() as f64, 1)),
        }
    }
    out.means = sums
        .into_iter()
        .map(|(n, total, count)| (n, total / count as f64))
        .collect();
    out.routes = route_means(spans, &traced.routes);
    write_spans(spans, spans_out)?;
    Ok(out)
}

/// Runs the shadow equivalent of `op` on the shadow session, recording a
/// span when traced; returns the call's ns and, for an `implies` miss, the
/// planner route that decided it.
fn shadow_call(
    shadow: &mut Session,
    op: &Op,
    tracer: Option<&mut Tracer>,
    req: u32,
    parent: u32,
) -> (f64, Option<&'static str>) {
    // The snapshot handle is taken outside the timed call.
    let snapshot = shadow.snapshot();
    let started = Instant::now();
    let (layer, route) = match op {
        Op::Implies(goal) => match snapshot.implies(goal) {
            o if o.cached => (Layer::ImpliesHit, None),
            o => (Layer::ImpliesMiss, Some(o.route_name())),
        },
        Op::Bound(set) => match snapshot.bound(*set) {
            Ok(b) if b.cached => (Layer::BoundHit, None),
            _ => (Layer::BoundMiss, None),
        },
        Op::Assert(c) => {
            shadow.assert_constraint(c);
            (Layer::Assert, None)
        }
        Op::Retract(c) => {
            shadow.retract_constraint(c);
            (Layer::Retract, None)
        }
        Op::Known(set, value) => {
            shadow.set_known(*set, *value as f64);
            (Layer::Known, None)
        }
        Op::Forget(set) => {
            shadow.forget_known(*set);
            (Layer::Forget, None)
        }
    };
    let ns = started.elapsed().as_nanos() as u64;
    if let Some(tracer) = tracer {
        let end = tracer.now();
        tracer.spans.push(Span {
            layer,
            req,
            parent,
            start: end.saturating_sub(ns),
            end,
        });
    }
    (ns as f64, route)
}

/// Planner routes a miss can take.
pub const ROUTES: [&str; 4] = ["trivial", "fd", "lattice", "sat"];

fn route_means(spans: &[Span], routes: &[(u32, &'static str)]) -> Vec<(&'static str, f64, f64)> {
    let misses = routes.len().max(1) as f64;
    ROUTES
        .iter()
        .map(|&route| {
            let ns: Vec<f64> = routes
                .iter()
                .filter(|(_, r)| *r == route)
                .map(|(i, _)| spans[*i as usize].ns() as f64)
                .collect();
            let mean = if ns.is_empty() {
                0.0
            } else {
                ns.iter().sum::<f64>() / ns.len() as f64
            };
            (route, mean, ns.len() as f64 / misses)
        })
        .collect()
}

fn write_spans(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "span\treq\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{parent}\t{}\t{}\t{}",
            s.req,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    out.flush()
}
