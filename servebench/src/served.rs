//! The served run: spawn the release `diffcond serve`, build each
//! connection's state, then drive the measured window from one thread over
//! two loopback connections — a **bulk** connection pipelining a fixed
//! window of requests in a closed loop, and a **probe** connection sending
//! one request at a time, each as a burst of bulk replies arrives.  The loop
//! blocks only in `epoll_wait`; it has no timers or sleeps.

use crate::gen::{encode_line, Check, Op, Stream, Workload, LANE_BULK, LANE_PROBE};
use crate::oracle::{sampled, Checks, Oracle};
use diffcon::DiffConstraint;
use diffcon_engine::protocol::binary;
use epoll::{Epoll, Events, Interest};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests per round trip while building state at setup.
const SETUP_BATCH: usize = 128;
/// Cold-implies: one reply in this many is checked against the reference.
pub(crate) const COLD_SAMPLE_EVERY: u64 = 16;
/// Longest the generator waits for any reply before declaring a stall.
const STALL_MS: i32 = 20_000;
/// Reply admission limit of the binary decoder (replies are short lines).
const MAX_REPLY: usize = 1 << 20;
/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLK_TCK: f64 = 100.0;

/// `exe`, run through `taskset -c <cpu>` when a CPU is given.
fn pinned_command(exe: &Path, cpu: Option<usize>) -> Command {
    match cpu {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c").arg(cpu.to_string()).arg(exe);
            cmd
        }
        None => Command::new(exe),
    }
}

/// The two CPUs of a pinned run.
#[derive(Clone, Copy, Debug)]
pub struct Cpus {
    /// Where the server (and the loopback-floor echo peer) runs.
    pub server: usize,
    /// Where this process, the load generator, runs.
    pub generator: usize,
}

/// `servebench --calibrate` run pinned to `cpu`: the reference decider's
/// ns per goal there, now.
fn calibrate(cpu: usize) -> io::Result<f64> {
    let out = pinned_command(&std::env::current_exe()?, Some(cpu))
        .arg("--calibrate")
        .stderr(Stdio::inherit())
        .output()?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| io::Error::other("`servebench --calibrate` printed no figure"))
}

/// Moves every thread of process `pid` to `cpu`.
pub fn repin(pid: u32, cpu: usize) -> io::Result<()> {
    let status = Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu.to_string(), &pid.to_string()])
        .stdout(Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "taskset could not move {pid} to CPU {cpu}"
        )))
    }
}

/// Right before the window, times the same fixed computation on both CPUs
/// and puts the server on the faster one and the generator on the other.
/// On a shared host either CPU can be slowed by its neighbours for minutes
/// at a time; this keeps a slow CPU from setting the server's speed when
/// the other one is free.  Returns the placement and each CPU's figure.
fn steer(cpus: Cpus, server_pid: u32) -> io::Result<(Cpus, [f64; 2])> {
    let ns = [calibrate(cpus.server)?, calibrate(cpus.generator)?];
    let placed = if ns[1] < ns[0] {
        Cpus {
            server: cpus.generator,
            generator: cpus.server,
        }
    } else {
        cpus
    };
    repin(server_pid, placed.server)?;
    repin(std::process::id(), placed.generator)?;
    Ok((placed, ns))
}

/// A running `diffcond serve` child.  Killed and reaped on drop.
struct ServerProc {
    child: Child,
    /// The address it announced.
    addr: SocketAddr,
    /// Kept open so the server's stderr never sees a closed pipe.
    _stderr: BufReader<ChildStderr>,
}

impl ServerProc {
    /// Spawns `diffcond serve` on an ephemeral loopback port with one
    /// reactor and default engine flags, and waits for its banner.
    fn spawn(exe: &Path, cpu: Option<usize>, binary_framing: bool) -> io::Result<ServerProc> {
        let mut cmd = pinned_command(exe, cpu);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--reactors", "1"]);
        if binary_framing {
            cmd.arg("--binary");
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("diffcond exited before announcing"));
            }
            if let Some(rest) = line.split("serving on ").nth(1) {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| io::Error::other(format!("unparseable banner: {line}")))?;
                return Ok(ServerProc {
                    child,
                    addr,
                    _stderr: stderr,
                });
            }
        }
    }

    /// The server's process id.
    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU seconds (user + system, all threads) of process `pid`, from
/// `/proc/<pid>/stat` ("self" for this process).
fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / CLK_TCK
}

/// Per-CPU time stolen by the hypervisor so far (the `steal` column of
/// `/proc/stat`), in seconds, for `cpu0`, `cpu1`, ….
fn steal_seconds() -> Vec<f64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .nth(8)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0) as f64
                / CLK_TCK
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One in-flight request.
struct Pending {
    check: Check,
    sent: Instant,
    /// Cold: the goal, when this reply belongs to the checked sample.
    sample: Option<DiffConstraint>,
}

/// One client connection with its framing state.
struct Conn {
    stream: TcpStream,
    binary: bool,
    input: Vec<u8>,
    start: usize,
    output: Vec<u8>,
    written: usize,
    inflight: VecDeque<Pending>,
    lane: u64,
    /// Requests of the measured stream issued so far (cold sampling index).
    issued: u64,
}

impl Conn {
    fn open(addr: SocketAddr, binary_framing: bool, lane: u64) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if binary_framing {
            stream.write_all(&binary::MAGIC)?;
            let mut ack = [0u8; 5];
            stream.read_exact(&mut ack)?;
            if ack != binary::ACK {
                return Err(io::Error::other("binary framing refused"));
            }
        }
        Ok(Conn {
            stream,
            binary: binary_framing,
            input: Vec::with_capacity(1 << 16),
            start: 0,
            output: Vec::with_capacity(1 << 14),
            written: 0,
            inflight: VecDeque::new(),
            lane,
            issued: 0,
        })
    }

    fn push_line(&mut self, line: &str, check: Check) {
        encode_line(line, self.binary, &mut self.output);
        self.inflight.push_back(Pending {
            check,
            sent: Instant::now(),
            sample: None,
        });
    }

    fn push_op(&mut self, w: &Workload, op: Op, check: Check) {
        op.encode(&w.universe, self.binary, &mut self.output);
        let sample = match (&op, check) {
            (Op::Implies(goal), Check::Fresh)
                if sampled(w.seed, self.lane, self.issued, COLD_SAMPLE_EVERY) =>
            {
                Some(goal.clone())
            }
            _ => None,
        };
        self.issued += 1;
        self.inflight.push_back(Pending {
            check,
            sent: Instant::now(),
            sample,
        });
    }

    /// Writes as much pending output as the socket takes; `true` when all
    /// of it went out.
    fn flush(&mut self) -> io::Result<bool> {
        while self.written < self.output.len() {
            match self.stream.write(&self.output[self.written..]) {
                Ok(0) => return Err(io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.output.clear();
        self.written = 0;
        Ok(true)
    }

    /// Reads what the socket holds (nonblocking) or at least one chunk
    /// (blocking).  `false` at end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        if self.start > 0 && self.start == self.input.len() {
            self.input.clear();
            self.start = 0;
        } else if self.start > 1 << 15 {
            self.input.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 1 << 15];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.input.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops the next complete reply line from the input buffer.
    fn next_reply(&mut self) -> io::Result<Option<String>> {
        let buf = &self.input[self.start..];
        if self.binary {
            match binary::decode_reply(buf, MAX_REPLY) {
                binary::DecodedReply::Frame(payload, used) => {
                    let text = String::from_utf8_lossy(payload).into_owned();
                    self.start += used;
                    Ok(Some(text))
                }
                binary::DecodedReply::Incomplete => Ok(None),
                binary::DecodedReply::Fatal(e) => Err(io::Error::other(e)),
            }
        } else {
            match buf.iter().position(|&b| b == b'\n') {
                Some(end) => {
                    let text = String::from_utf8_lossy(&buf[..end]).into_owned();
                    self.start += end + 1;
                    Ok(Some(text))
                }
                None => Ok(None),
            }
        }
    }
}

/// Sends `items` in batches over a blocking connection and checks every
/// reply.
fn run_batches(
    conn: &mut Conn,
    w: &Workload,
    oracle: &Oracle,
    lines: &[String],
    ops: Vec<(Op, Check)>,
    checks: &mut Checks,
) -> io::Result<()> {
    for chunk in lines.chunks(SETUP_BATCH) {
        for line in chunk {
            conn.push_line(line, Check::Write);
        }
        drain_blocking(conn, oracle, checks)?;
    }
    let mut ops = ops.into_iter().peekable();
    while ops.peek().is_some() {
        for (op, check) in ops.by_ref().take(SETUP_BATCH) {
            conn.push_op(w, op, check);
        }
        drain_blocking(conn, oracle, checks)?;
    }
    Ok(())
}

fn drain_blocking(conn: &mut Conn, oracle: &Oracle, checks: &mut Checks) -> io::Result<()> {
    conn.flush()?;
    while !conn.inflight.is_empty() {
        while let Some(text) = conn.next_reply()? {
            let pending = conn
                .inflight
                .pop_front()
                .ok_or_else(|| io::Error::other(format!("unsolicited reply `{text}`")))?;
            checks.settle(oracle, pending.check, &text, pending.sample.as_ref());
        }
        if !conn.inflight.is_empty() && !conn.fill()? {
            return Err(io::Error::other("server closed the connection"));
        }
    }
    Ok(())
}

/// Sends one text request on a blocking connection and returns its reply.
fn request(conn: &mut Conn, line: &str) -> io::Result<String> {
    conn.push_line(line, Check::Write);
    conn.flush()?;
    loop {
        if let Some(text) = conn.next_reply()? {
            conn.inflight.pop_front();
            return Ok(text);
        }
        if !conn.fill()? {
            return Err(io::Error::other("server closed the connection"));
        }
    }
}

/// Cache counters parsed from a `stats` reply.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    /// Answer cache hits and misses.
    pub answer: (u64, u64),
    /// Lattice cache hits and misses.
    pub lattice: (u64, u64),
    /// Bound cache hits and derivations (propagation + relaxed).
    pub bound: (u64, u64),
}

impl CacheCounters {
    fn parse(stats: &str) -> CacheCounters {
        let mut c = CacheCounters::default();
        let hm = |v: &str| -> (u64, u64) {
            let parts: Vec<&str> = v.split('/').collect();
            let num = |i: usize, p: char| {
                parts
                    .get(i)
                    .and_then(|s| s.strip_prefix(p))
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0)
            };
            (num(0, 'h'), num(1, 'm'))
        };
        for field in stats.split(' ') {
            if let Some(v) = field.strip_prefix("answer_cache=") {
                c.answer = hm(v);
            } else if let Some(v) = field.strip_prefix("lattice_cache=") {
                c.lattice = hm(v);
            } else if let Some(v) = field.strip_prefix("bound=") {
                // `<propagation>p/<relaxed>r/<cache hits>c/<µs>us`
                let n: Vec<u64> = v
                    .split('/')
                    .map(|s| s.trim_end_matches(|ch: char| ch.is_alphabetic()))
                    .map(|s| s.parse().unwrap_or(0))
                    .collect();
                if n.len() >= 3 {
                    c.bound = (n[2], n[0] + n[1]);
                }
            }
        }
        c
    }

    /// Counters accumulated between `earlier` and `self`.
    fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0.min(a.0), a.1 - b.1.min(a.1));
        CacheCounters {
            answer: d(self.answer, earlier.answer),
            lattice: d(self.lattice, earlier.lattice),
            bound: d(self.bound, earlier.bound),
        }
    }
}

/// Hits over attempts (0 when nothing was attempted).
pub fn ratio((hits, misses): (u64, u64)) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Equal slices the measured window is cut into for the per-slice
/// throughput diagnostic (the gated figures use the whole window).
const SLICES: usize = 30;
/// Strict probe round trips timed after the window, with the bulk
/// connection idle.
const IDLE_PROBES: usize = 2000;

/// Everything a served run measures.
#[derive(Debug, Default)]
pub struct Served {
    /// Bulk replies completed per second over the measured window.
    pub throughput_qps: f64,
    /// Bulk replies per second in each slice (diagnostic).
    pub slice_qps: Vec<f64>,
    /// Probe round trips in the window, µs (failed probes as infinity).
    pub probe_us: Vec<f64>,
    /// Median probe round trip in the window, µs.
    pub latency_p50_us: f64,
    /// 99th-percentile probe round trip in the window, µs.
    pub latency_p99_us: f64,
    /// Probe round trips sampled.
    pub samples: usize,
    /// Median strict probe round trip after the window, with the bulk
    /// connection idle, µs.
    pub idle_probe_p50_us: f64,
    /// Server peak RSS at the end of the run, MB.
    pub rss_mb: f64,
    /// Median spawn-to-window time over the set-ups of this run, s.
    pub setup_s: f64,
    /// Every set-up time measured, s.
    pub setups: Vec<f64>,
    /// Measured window, s.
    pub window_s: f64,
    /// Bulk and probe replies completed inside the window.
    pub requests: u64,
    /// Server CPU seconds inside the window.
    pub server_cpu_s: f64,
    /// Generator CPU seconds inside the window.
    pub loadgen_cpu_s: f64,
    /// Share of the window the hypervisor stole from each CPU.
    pub steal_share: Vec<f64>,
    /// Server cache counters accumulated inside the window (both sessions
    /// are separate; these are the bulk session's).
    pub caches: CacheCounters,
    /// Reply checks.
    pub checks: Checks,
    /// Where the window ran (after [`steer`]), when pinned.
    pub cpus: Option<Cpus>,
    /// The reference decider's ns per goal on the given server and
    /// generator CPUs right before the window, when pinned.
    pub calibration_ns: Option<[f64; 2]>,
}

struct Live<'w> {
    server: ServerProc,
    bulk: Conn,
    probe: Conn,
    bulk_stream: Stream<'w>,
    probe_stream: Stream<'w>,
}

/// Spawns a server and builds both connections' state: setup lines, then
/// the warm pass.
fn set_up<'w>(
    exe: &Path,
    cpu: Option<usize>,
    w: &'w Workload,
    oracle: &Oracle,
    checks: &mut Checks,
) -> io::Result<Live<'w>> {
    let server = ServerProc::spawn(exe, cpu, w.kind.binary())?;
    let lines = w.setup_lines();
    let mut bulk = Conn::open(server.addr, w.kind.binary(), LANE_BULK)?;
    let mut probe = Conn::open(server.addr, w.kind.binary(), LANE_PROBE)?;
    let mut bulk_stream = w.stream(LANE_BULK);
    let mut probe_stream = w.stream(LANE_PROBE);
    let warm = w.warm(&mut bulk_stream);
    run_batches(&mut bulk, w, oracle, &lines, warm, checks)?;
    let warm = w.warm(&mut probe_stream);
    run_batches(&mut probe, w, oracle, &lines, warm, checks)?;
    Ok(Live {
        server,
        bulk,
        probe,
        bulk_stream,
        probe_stream,
    })
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank percentile `p` (0–100) of a non-empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// One served run: [`SETUPS`] set-ups (the last one is kept), then the
/// measured window of `seconds`.  With `cpus`, the set-ups run the server
/// on `cpus.server`, and [`steer`] picks the window's placement.
pub fn run(
    exe: &Path,
    cpus: Option<Cpus>,
    w: &Workload,
    oracle: &Oracle,
    seconds: f64,
) -> io::Result<Served> {
    let mut out = Served::default();
    let mut session = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let s = set_up(exe, cpus.map(|c| c.server), w, oracle, &mut out.checks)?;
        out.setups.push(started.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            session = Some(s);
        }
    }
    out.setup_s = median(&out.setups);
    let mut s = session.expect("SETUPS > 0");
    if let Some(given) = cpus {
        let (placed, ns) = steer(given, s.server.pid())?;
        out.cpus = Some(placed);
        out.calibration_ns = Some(ns);
    }
    let before = CacheCounters::parse(&request(&mut s.bulk, "stats")?);
    measure(&mut s, w, oracle, seconds, &mut out)?;
    out.rss_mb = peak_rss_mb(s.server.pid());
    out.idle_probe_p50_us = idle_probe_p50_us(&mut s, w, oracle, &mut out.checks)?;
    let after = CacheCounters::parse(&request(&mut s.bulk, "stats")?);
    out.caches = after.since(&before);
    Ok(out)
}

/// Writes one probe request and stamps its send time once it is out.
fn send_probe(probe: &mut Conn, w: &Workload, op: Op, check: Check) -> io::Result<()> {
    probe.push_op(w, op, check);
    if !probe.flush()? {
        return Err(io::Error::other(
            "a single probe request did not fit the socket",
        ));
    }
    if let Some(p) = probe.inflight.back_mut() {
        p.sent = Instant::now();
    }
    Ok(())
}

/// The measured window: its start, its deadline, and the instant the
/// generator first noticed the deadline had passed.
struct Window {
    t0: Instant,
    deadline: Instant,
    slice_s: f64,
    stop: Option<Instant>,
}

impl Window {
    /// Notes a read at `at`, closing the window once the deadline passed.
    fn observe(&mut self, at: Instant) {
        if self.stop.is_none() && at >= self.deadline {
            self.stop = Some(at);
        }
    }

    fn open(&self) -> bool {
        self.stop.is_none()
    }

    fn slice(&self, at: Instant) -> usize {
        ((at.duration_since(self.t0).as_secs_f64() / self.slice_s) as usize).min(SLICES - 1)
    }
}

/// Checks every reply the probe connection holds and records each round
/// trip while the window is open.
fn service_probe(
    s: &mut Live<'_>,
    oracle: &Oracle,
    window: &mut Window,
    out: &mut Served,
    probe_done: &mut u64,
) -> io::Result<()> {
    if !s.probe.fill()? {
        return Err(io::Error::other("server closed the probe connection"));
    }
    let read_at = Instant::now();
    window.observe(read_at);
    while let Some(text) = s.probe.next_reply()? {
        let pending = s
            .probe
            .inflight
            .pop_front()
            .ok_or_else(|| io::Error::other(format!("unsolicited probe reply `{text}`")))?;
        let sent = pending.sent;
        let ok = out
            .checks
            .settle(oracle, pending.check, &text, pending.sample.as_ref());
        if window.open() {
            let rtt = read_at.duration_since(sent).as_secs_f64() * 1e6;
            out.probe_us.push(if ok { rtt } else { f64::INFINITY });
            *probe_done += 1;
        }
    }
    Ok(())
}

fn measure(
    s: &mut Live<'_>,
    w: &Workload,
    oracle: &Oracle,
    seconds: f64,
    out: &mut Served,
) -> io::Result<()> {
    const BULK: u64 = 0;
    const PROBE: u64 = 1;
    let ep = Epoll::new()?;
    s.bulk.stream.set_nonblocking(true)?;
    s.probe.stream.set_nonblocking(true)?;
    ep.add(s.bulk.stream.as_raw_fd(), BULK, Interest::READ)?;
    ep.add(s.probe.stream.as_raw_fd(), PROBE, Interest::READ)?;
    let mut events = Events::with_capacity(4);
    let server_pid = s.server.pid().to_string();
    let cpu_server0 = cpu_seconds(&server_pid);
    let cpu_self0 = cpu_seconds("self");
    let steal0 = steal_seconds();
    let t0 = Instant::now();
    let mut window = Window {
        t0,
        deadline: t0 + Duration::from_secs_f64(seconds),
        slice_s: seconds / SLICES as f64,
        stop: None,
    };
    let mut bulk_done = 0u64;
    let mut probe_done = 0u64;
    let mut slice_done = vec![0u64; SLICES];
    let refill_batch = w.kind.refill_batch() as u64;

    let (op, check) = s.probe_stream.next_op();
    send_probe(&mut s.probe, w, op, check)?;
    for _ in 0..w.kind.bulk_window() {
        let (op, check) = s.bulk_stream.next_op();
        s.bulk.push_op(w, op, check);
    }
    let mut bulk_blocked = !s.bulk.flush()?;
    if bulk_blocked {
        ep.modify(s.bulk.stream.as_raw_fd(), BULK, Interest::READ_WRITE)?;
    }

    while window.open() || !s.bulk.inflight.is_empty() || !s.probe.inflight.is_empty() {
        if ep.wait(&mut events, Some(STALL_MS))? == 0 {
            return Err(io::Error::other("no reply within the stall limit"));
        }
        let mut ready: Vec<(u64, bool)> = events.iter().map(|e| (e.token, e.writable())).collect();
        // Probe replies first, so a round trip is stamped as soon as it ends.
        ready.sort_by_key(|&(token, _)| token != PROBE);
        for (token, writable) in ready {
            if token == PROBE {
                service_probe(s, oracle, &mut window, out, &mut probe_done)?;
                continue;
            }
            if writable {
                bulk_blocked = !s.bulk.flush()?;
            }
            if !s.bulk.fill()? {
                return Err(io::Error::other("server closed the bulk connection"));
            }
            let read_at = Instant::now();
            window.observe(read_at);
            // The next probe leaves as a burst of bulk replies arrives, when
            // the server has just started its next wave: every probe joins
            // the queue at the same point of the bulk cycle, whichever of
            // the two CPUs is faster.
            if window.open() && s.probe.inflight.is_empty() {
                let (op, check) = s.probe_stream.next_op();
                send_probe(&mut s.probe, w, op, check)?;
            }
            let was_blocked = bulk_blocked;
            while let Some(text) = s.bulk.next_reply()? {
                let pending =
                    s.bulk.inflight.pop_front().ok_or_else(|| {
                        io::Error::other(format!("unsolicited bulk reply `{text}`"))
                    })?;
                out.checks
                    .settle(oracle, pending.check, &text, pending.sample.as_ref());
                if window.open() {
                    bulk_done += 1;
                    slice_done[window.slice(read_at)] += 1;
                    let (op, check) = s.bulk_stream.next_op();
                    s.bulk.push_op(w, op, check);
                    // Hand refills over as they are made, so the server keeps
                    // working while the generator checks the rest, and answer
                    // the probe without making it wait for the whole burst.
                    if bulk_done.is_multiple_of(refill_batch) && !bulk_blocked {
                        bulk_blocked = !s.bulk.flush()?;
                        service_probe(s, oracle, &mut window, out, &mut probe_done)?;
                    }
                }
            }
            bulk_blocked = !s.bulk.flush()?;
            if was_blocked != bulk_blocked {
                let interest = if bulk_blocked {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                ep.modify(s.bulk.stream.as_raw_fd(), BULK, interest)?;
            }
        }
    }
    let end = window.stop.expect("loop exits only after the deadline");
    out.window_s = end.duration_since(t0).as_secs_f64();
    out.server_cpu_s = cpu_seconds(&server_pid) - cpu_server0;
    out.loadgen_cpu_s = cpu_seconds("self") - cpu_self0;
    out.steal_share = steal_seconds()
        .iter()
        .zip(&steal0)
        .map(|(end, start)| (end - start) / out.window_s)
        .collect();
    out.slice_qps = slice_done
        .iter()
        .map(|&n| n as f64 / window.slice_s)
        .collect();
    out.throughput_qps = bulk_done as f64 / out.window_s;
    out.samples = out.probe_us.len();
    (out.latency_p50_us, out.latency_p99_us) = if out.probe_us.is_empty() {
        (f64::INFINITY, f64::INFINITY)
    } else {
        (
            percentile(&out.probe_us, 50.0),
            percentile(&out.probe_us, 99.0),
        )
    };
    out.requests = bulk_done + probe_done;
    ep.delete(s.bulk.stream.as_raw_fd())?;
    ep.delete(s.probe.stream.as_raw_fd())?;
    s.bulk.stream.set_nonblocking(false)?;
    s.probe.stream.set_nonblocking(false)?;
    Ok(())
}

/// Median of [`IDLE_PROBES`] strict probe round trips made after the window
/// while the bulk connection is idle: the request path without the queue
/// behind the bulk window.  Every reply is checked.
fn idle_probe_p50_us(
    s: &mut Live<'_>,
    w: &Workload,
    oracle: &Oracle,
    checks: &mut Checks,
) -> io::Result<f64> {
    let mut trips = Vec::with_capacity(IDLE_PROBES);
    for _ in 0..IDLE_PROBES {
        let (op, check) = s.probe_stream.next_op();
        send_probe(&mut s.probe, w, op, check)?;
        let text = loop {
            if let Some(text) = s.probe.next_reply()? {
                break text;
            }
            if !s.probe.fill()? {
                return Err(io::Error::other("server closed the probe connection"));
            }
        };
        let pending = s.probe.inflight.pop_front().expect("one probe in flight");
        trips.push(pending.sent.elapsed().as_secs_f64() * 1e6);
        checks.settle(oracle, pending.check, &text, pending.sample.as_ref());
    }
    Ok(median(&trips))
}

/// The loopback floor: median round trip of a 1-byte echo between the
/// generator's CPU and the server's CPU, in µs.  `exe` is this benchmark's
/// own binary, which serves the echo when run with `--echo`; `cpu` pins the
/// echo peer where the server runs.
pub fn loopback_floor_us(exe: &Path, cpu: Option<usize>) -> io::Result<f64> {
    const TRIPS: usize = 4000;
    let mut cmd = pinned_command(exe, cpu);
    cmd.arg("--echo")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let result = (|| {
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut banner)?;
        let addr: SocketAddr = banner
            .trim()
            .parse()
            .map_err(|_| io::Error::other(format!("bad echo banner `{banner}`")))?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        let mut trips = Vec::with_capacity(TRIPS);
        for i in 0..TRIPS + TRIPS / 10 {
            let t = Instant::now();
            stream.write_all(&[i as u8])?;
            stream.read_exact(&mut byte)?;
            if i >= TRIPS / 10 {
                trips.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(median(&trips))
    })();
    let _ = child.kill();
    let _ = child.wait();
    result
}

/// The echo peer of [`loopback_floor_us`]: prints its address, echoes one
/// connection until it closes.
pub fn serve_echo() -> io::Result<()> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    println!("{}", listener.local_addr()?);
    io::stdout().flush()?;
    let (mut stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    let mut buf = [0u8; 64];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        stream.write_all(&buf[..n])?;
    }
}
