//! `servebench` — runs one workload of the `diffcond serve` benchmark and
//! prints its metrics; the last line of standard output is one JSON object.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//!            --server PATH [--out DIR] [--server-cpu N --generator-cpu M]
//! servebench --echo          (the loopback-floor echo peer)
//! servebench --calibrate     (prints reference.core_implies_ns and exits)
//! ```
//!
//! `servebench/run.sh` builds both binaries and supplies `--server`,
//! `--out`, `--server-cpu` and `--generator-cpu` (the CPU it starts this
//! process on).

use diffcon::implication;
use servebench::gen::{Kind, Op, Workload, LANE_BULK};
use servebench::oracle::{check_cold_sample, Oracle};
use servebench::served::{self, median, ratio, Cpus};
use servebench::traced::{self, LEDGER_TOLERANCE, ROUTES};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    cpus: Option<Cpus>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut out = PathBuf::from(".bench_build/servebench");
    let mut server_cpu = None;
    let mut generator_cpu = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--server" => server = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            "--server-cpu" => server_cpu = Some(value()?.parse().map_err(|_| "bad --server-cpu")?),
            "--generator-cpu" => {
                generator_cpu = Some(value()?.parse().map_err(|_| "bad --generator-cpu")?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        out,
        cpus: match (server_cpu, generator_cpu) {
            (Some(server), Some(generator)) if server != generator => {
                Some(Cpus { server, generator })
            }
            (None, None) => None,
            _ => return Err("--server-cpu and --generator-cpu go together, on two CPUs".into()),
        },
    })
}

/// Mean ns of the paper's reference decider (`diffcon::implication::implies`)
/// over the first 256 goals of cold-implies seed 0: the same input on every
/// run, so it follows the host and no engine change can move it.  Median of
/// 15 passes.
fn reference_core_implies_ns() -> f64 {
    const GOALS: usize = 256;
    let cold = Workload::new(Kind::ColdImplies, 0);
    let mut stream = cold.stream(LANE_BULK);
    let goals: Vec<_> = (0..GOALS)
        .filter_map(|_| match stream.next_op().0 {
            Op::Implies(goal) => Some(goal),
            _ => None,
        })
        .collect();
    let passes: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for goal in &goals {
                std::hint::black_box(implication::implies(&cold.universe, &cold.premises, goal));
            }
            started.elapsed().as_nanos() as f64 / goals.len() as f64
        })
        .collect();
    median(&passes)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 1e12 },
        unit,
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        println!("{:.0}", reference_core_implies_ns());
        return ExitCode::SUCCESS;
    }
    if std::env::args().nth(1).as_deref() == Some("--echo") {
        return match served::serve_echo() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench --echo: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and prints the report; `Ok(false)` when a reply was
/// wrong or the ledger check failed.
fn run(args: &Args) -> std::io::Result<bool> {
    let w = Workload::new(args.kind, args.seed);
    let oracle = Oracle::new(&w);
    let reference_ns = reference_core_implies_ns();
    let s = served::run(&args.server, args.cpus, &w, &oracle, args.seconds)?;
    let server_cpu = s.cpus.map(|c| c.server);
    // Right after the idle probes, so `net.over_floor_p50_us` compares two
    // figures the host moved alike.
    let floor_us = served::loopback_floor_us(&std::env::current_exe()?, server_cpu)?;
    let sample_failed = check_cold_sample(&w, &s.checks.sample);
    let mut attempted = s.checks.attempted;
    let mut failed = s.checks.failed + sample_failed;

    let placement = match (args.cpus, s.cpus, s.calibration_ns) {
        (Some(given), Some(placed), Some([ns_server, ns_generator])) => format!(
            "server_cpu={} generator_cpu={} calibration_ns=cpu{}:{ns_server:.0},cpu{}:{ns_generator:.0}",
            placed.server, placed.generator, given.server, given.generator
        ),
        _ => "pinned=0".to_string(),
    };
    println!(
        "servebench workload={} seed={} seconds={} {placement} window_s={:.3} bulk_window={}",
        w.kind.name(),
        args.seed,
        args.seconds,
        s.window_s,
        w.kind.bulk_window()
    );
    println!(
        "  setups_s={:?} slice_qps={:?} latency.samples={} requests={} cold_sample_checked={}",
        s.setups,
        s.slice_qps.iter().map(|q| q.round()).collect::<Vec<_>>(),
        s.samples,
        s.requests,
        s.checks.sample.len()
    );
    let steal: Vec<String> = s.steal_share.iter().map(|v| format!("{v:.3}")).collect();
    println!(
        "  diagnostic (not gated): latency_p99_us={:.3} net.loopback_floor_p50_us={floor_us:.3} reference.core_implies_ns={reference_ns:.1} host.steal_share={} net.idle_probe_p50_us={:.3} throughput.slice_median_qps={:.1} server.busy_share={:.3}",
        s.latency_p99_us,
        steal.join("/"),
        s.idle_probe_p50_us,
        median(&s.slice_qps),
        s.server_cpu_s / s.window_s
    );

    let mut metrics = if !args.trace {
        vec![
            metric("throughput_qps", s.throughput_qps, "req/s"),
            metric("latency_p50_us", s.latency_p50_us, "us"),
            metric("server_rss_mb", s.rss_mb, "MB"),
            metric("setup_s", s.setup_s, "s"),
        ]
    } else {
        // The in-process replay runs where the server ran.
        if let Some(cpus) = s.cpus {
            served::repin(std::process::id(), cpus.server)?;
        }
        let spans = args
            .out
            .join(format!("spans-{}-{}.tsv", w.kind.name(), args.seed));
        let t = traced::run(&w, &oracle, args.seconds / 6.0, &spans)?;
        println!(
            "  traced: replayed={} spans={} span_cost_ns={:.1} ledger_tolerance={LEDGER_TOLERANCE}",
            t.replayed,
            spans.display(),
            t.span_cost_ns
        );
        attempted += t.checks.attempted;
        failed += t.checks.failed + check_cold_sample(&w, &t.checks.sample);
        if t.unattributed_share.abs() > LEDGER_TOLERANCE {
            eprintln!(
                "servebench: ledger check failed: child spans of protocol.handle_line miss the untraced whole-request cost by {:.3} of it (tolerance {LEDGER_TOLERANCE})",
                t.unattributed_share
            );
            failed += 1;
        }
        let requests = s.requests.max(1) as f64;
        let span_ns = |name: &str| metric(format!("{name}_ns"), t.mean(name), "ns");
        let mut m = vec![
            span_ns("protocol.parse_request"),
            span_ns("core.constraint_parse"),
            span_ns("protocol.binary_decode"),
            metric("protocol.begin_ns", t.begin_self_ns, "ns"),
            metric("protocol.handle_line_ns", t.handle_line_ns, "ns"),
            metric("server_state.reply_ns", t.reply_ns, "ns"),
            metric("server_state.pipeline_ns", t.pipeline_ns, "ns"),
            span_ns("snapshot.implies_hit"),
            span_ns("snapshot.implies_miss"),
        ];
        for (route, (_, ns, share)) in ROUTES.iter().zip(&t.routes) {
            m.push(metric(format!("planner.route_{route}_ns"), *ns, "ns"));
            m.push(metric(
                format!("planner.route_{route}_share"),
                *share,
                "ratio",
            ));
        }
        m.extend([
            span_ns("snapshot.bound_hit"),
            span_ns("snapshot.bound_miss"),
            span_ns("session.assert"),
            span_ns("session.retract"),
            span_ns("session.known"),
            span_ns("session.forget"),
            metric("discover.adopt_ms", t.adopt_ms, "ms"),
            metric("cache.answer_hit_ratio", ratio(s.caches.answer), "ratio"),
            metric("cache.lattice_hit_ratio", ratio(s.caches.lattice), "ratio"),
            metric("cache.bound_hit_ratio", ratio(s.caches.bound), "ratio"),
            metric(
                "server.cpu_us_per_req",
                s.server_cpu_s * 1e6 / requests,
                "us",
            ),
            metric("server.busy_share", s.server_cpu_s / s.window_s, "ratio"),
            metric(
                "loadgen.cpu_us_per_req",
                s.loadgen_cpu_s * 1e6 / requests,
                "us",
            ),
            metric("net.loopback_floor_p50_us", floor_us, "us"),
            metric("net.idle_probe_p50_us", s.idle_probe_p50_us, "us"),
            metric(
                "net.over_floor_p50_us",
                s.idle_probe_p50_us - floor_us,
                "us",
            ),
            metric("reference.core_implies_ns", reference_ns, "ns"),
            metric("ledger.unattributed_share", t.unattributed_share, "ratio"),
            metric("trace.overhead_share", t.overhead_share, "ratio"),
            metric("latency_p99_us", s.latency_p99_us, "us"),
            metric("latency.samples", s.samples as f64, "count"),
        ]);
        m
    };
    let correct = failed == 0;
    for m in &metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .drain(..)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
