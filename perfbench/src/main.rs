//! Full-stack v-Bundle benchmark.
//!
//! ```console
//! $ cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!       --workload rebalance --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs one seeded workload (`rebalance`, `boot_storm` or `churn`)
//! through the whole stack — Pastry, Scribe, aggregation and the
//! controllers — on one thread, repeating it until `--seconds` of host
//! time have passed (at least three times). Each repetition runs in a
//! child process of its own, checks its outputs and must reproduce the
//! first repetition's outcome digest.
//!
//! `--trace 0` reports the end-to-end metrics: median host times of
//! set-up and run, peak memory, and the simulated outcome. `--trace 1`
//! alternates untraced and traced repetitions and reports the per-layer
//! metrics: spans around each layer call plus the engine profiler, and
//! the tracing overhead. The spans of the last traced repetition are
//! written to `$CARGO_TARGET_DIR/perfbench/` (default `.bench_build`).
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A failed check prints the
//! problems to stderr, reports `"correct": false` with no metrics and
//! exits with code 1.

mod boot_storm;
mod churn;
mod measure;
mod meter;
mod rebalance;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use vbundle_dcn::Topology;

use measure::{median, Metrics, Rep};
use meter::Timing;
use trace::Tracer;

/// Fewest repetitions behind a reported median.
const MIN_REPS: usize = 3;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("served_pct", "%"),
    ("msgs_per_server_s", "1/s"),
    ("sd_after", "fraction"),
    ("satisfied_pct", "%"),
    ("same_rack_pct", "%"),
    ("restored_sat_pct", "%"),
];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue_peak", "count"),
    ("sim.queue_pop_ns_per_event", "ns"),
    ("sim.dispatch_ns_per_event", "ns"),
    ("sim.far_promote_ns", "ns"),
    ("pastry.build_states_s", "s"),
    ("pastry.build_states_exp", "ratio"),
    ("pastry.maintenance_msgs", "count"),
    ("pastry.maintenance_bytes", "B"),
    ("pastry.evictions", "count"),
    ("scribe.children_expired", "count"),
    ("aggregation.rejected", "count"),
    ("aggregation.conservative_intervals", "count"),
    ("core.cluster_build_s", "s"),
    ("core.seed_s", "s"),
    ("core.place_s", "s"),
    ("core.round_s_p50", "s"),
    ("core.round_s_max", "s"),
    ("core.walk_per_boot", "ratio"),
    ("core.payload_msgs", "count"),
    ("core.payload_bytes", "B"),
    ("core.queries_sent", "count"),
    ("core.anycast_failures", "count"),
    ("core.migrations", "count"),
    ("core.migrations_failed", "count"),
    ("core.fo_declared", "count"),
    ("core.fo_rematerialized", "count"),
    ("core.fo_fences_sent", "count"),
    ("core.satisfaction_s", "s"),
    ("core.utilizations_s", "s"),
    ("trade.requests", "count"),
    ("trade.grants", "count"),
    ("trade.grants_rejected", "count"),
    ("trade.grant_use_ratio", "ratio"),
    ("trade.leases_reverted", "count"),
    ("market.spot_asks", "count"),
    ("market.spot_trades", "count"),
    ("market.trade_ratio", "ratio"),
    ("market.billing_reversals", "count"),
    ("market.reconcile_s", "s"),
    ("chaos.check_s", "s"),
    ("chaos.violations", "count"),
    ("obs.export_s", "s"),
    ("obs.trace_overhead", "ratio"),
];

#[derive(Clone, Copy)]
enum Workload {
    Rebalance,
    BootStorm,
    Churn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "rebalance" => Some(Workload::Rebalance),
            "boot_storm" => Some(Workload::BootStorm),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Rebalance => "rebalance",
            Workload::BootStorm => "boot_storm",
            Workload::Churn => "churn",
        }
    }

    fn run(self, seed: u64, tr: &mut Tracer) -> Rep {
        match self {
            Workload::Rebalance => rebalance::run(seed, tr),
            Workload::BootStorm => boot_storm::run(seed, tr),
            Workload::Churn => churn::run(seed, tr),
        }
    }

    /// The workload's fabric and one of about half its size.
    fn fabrics(self) -> (Arc<Topology>, Arc<Topology>) {
        match self {
            Workload::Rebalance => rebalance::fabrics(),
            Workload::BootStorm => boot_storm::fabrics(),
            Workload::Churn => churn::fabrics(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one repetition and print it encoded (internal: the parent
    /// process runs each repetition in a child of its own).
    child: bool,
}

const USAGE: &str = "usage: perfbench --workload <rebalance|boot_storm|churn> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child) = (1u64, 10u64, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        let bit = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad(&"expected 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = bit(&value)?,
            "--child" => child = bit(&value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds as f64,
        trace,
        child,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-key median over the repetitions' metric maps.
fn median_metrics<'a>(maps: impl Iterator<Item = &'a Metrics>) -> Metrics {
    let mut samples: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for m in maps {
        for (&k, &v) in m {
            samples.entry(k).or_default().push(v);
        }
    }
    samples.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Encodes a repetition for the parent process, one field per line.
/// `f64` display round-trips exactly.
fn encode(rep: &Rep) -> String {
    let mut out = format!(
        "digest {:016x}\nattempted {}\nfailed {}\nsetup {} {}\nrun {} {}\n",
        rep.digest,
        rep.attempted,
        rep.failed,
        rep.setup.raw_s,
        rep.setup.norm_s,
        rep.run.raw_s,
        rep.run.norm_s
    );
    for (kind, map) in [("e2e", &rep.e2e), ("layer", &rep.layer)] {
        for (name, value) in map {
            let _ = writeln!(out, "{kind} {name} {value}");
        }
    }
    for p in &rep.problems {
        let _ = writeln!(out, "problem {}", p.replace('\n', " "));
    }
    out
}

/// Decodes what [`encode`] wrote.
fn decode(text: &str) -> Result<Rep, String> {
    let names: Vec<&'static str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(name, _)| name)
        .collect();
    let num = |v: Option<&str>| -> Result<f64, String> {
        let v = v.ok_or("missing value")?;
        v.parse().map_err(|e| format!("bad number {v}: {e}"))
    };
    let mut rep = Rep::default();
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut fields = rest.split(' ');
        match key {
            "digest" => {
                rep.digest = u64::from_str_radix(rest, 16).map_err(|e| format!("digest: {e}"))?
            }
            "attempted" => rep.attempted = num(Some(rest))? as u64,
            "failed" => rep.failed = num(Some(rest))? as u64,
            "setup" | "run" => {
                let t = Timing {
                    raw_s: num(fields.next())?,
                    norm_s: num(fields.next())?,
                };
                if key == "setup" {
                    rep.setup = t;
                } else {
                    rep.run = t;
                }
            }
            "e2e" | "layer" => {
                let name = fields.next().unwrap_or_default();
                let name = *names
                    .iter()
                    .find(|&&n| n == name)
                    .ok_or_else(|| format!("unknown metric {name}"))?;
                let map = if key == "e2e" {
                    &mut rep.e2e
                } else {
                    &mut rep.layer
                };
                map.insert(name, num(fields.next())?);
            }
            "problem" => rep.problems.push(rest.to_string()),
            _ => return Err(format!("unexpected line from repetition: {line}")),
        }
    }
    Ok(rep)
}

/// Runs one repetition in a fresh child process, so that every
/// repetition starts from the same process state (heap, page tables)
/// and its peak memory is its own.
fn spawn(args: &Args, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--child", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    decode(&String::from_utf8_lossy(&out.stdout))
}

/// The child's side: one repetition, spans written when traced, encoded
/// on stdout.
fn child(args: &Args) {
    let wl = args.workload;
    let mut tr = Tracer::new(args.trace);
    let mut rep = wl.run(args.seed, &mut tr);
    if args.trace {
        let (full, half) = wl.fabrics();
        measure::build_states_probe(&full, &half, &mut tr, &mut rep);
        write_spans(wl, args.seed, &tr);
    }
    match peak_rss_mb() {
        Ok(mb) => {
            rep.e2e.insert("peak_rss_mb", mb);
        }
        Err(e) => rep.problems.push(e),
    }
    print!("{}", encode(&rep));
}

/// Runs the repetitions and returns the result line's metrics, or the
/// problems that fail the run.
fn bench(
    args: &Args,
    reps: &mut Vec<Rep>,
) -> Result<Vec<(&'static str, &'static str, f64)>, Vec<String>> {
    let wl = args.workload;
    let started = Instant::now();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        let rep = spawn(args, false).map_err(|e| vec![e])?;
        eprintln!(
            "{} seed {}: setup {:.4} s ({:.4} raw), run {:.4} s ({:.4} raw), digest {:016x}",
            wl.name(),
            args.seed,
            rep.setup.norm_s,
            rep.setup.raw_s,
            rep.run.norm_s,
            rep.run.raw_s,
            rep.digest
        );
        let problems = rep.problems.clone();
        reps.push(rep);
        if !problems.is_empty() {
            return Err(problems);
        }
        if args.trace {
            let rep = spawn(args, true).map_err(|e| vec![e])?;
            eprintln!(
                "{} seed {} traced: run {:.4} s, digest {:016x}",
                wl.name(),
                args.seed,
                rep.run.norm_s,
                rep.digest
            );
            traced.push(rep);
        }
        let done = started.elapsed().as_secs_f64() >= args.seconds;
        if done && (args.trace || reps.len() >= MIN_REPS) {
            break;
        }
    }

    // Traced repetitions must match too: tracing observes, never steers.
    let first = &reps[0];
    let diverged: Vec<String> = reps
        .iter()
        .chain(&traced)
        .filter(|r| r.digest != first.digest)
        .map(|r| {
            format!(
                "nondeterministic: digest {:016x} differs from {:016x}",
                r.digest, first.digest
            )
        })
        .collect();
    if !diverged.is_empty() {
        return Err(diverged);
    }
    println!(
        "digest {} seed {} {:016x}",
        wl.name(),
        args.seed,
        first.digest
    );

    let run_s = median(&reps.iter().map(|r| r.run.norm_s).collect::<Vec<_>>());
    let (names, mut values): (&[(&str, &str)], Metrics) = if args.trace {
        let mut layer = median_metrics(traced.iter().map(|r| &r.layer));
        let traced_run_s = median(&traced.iter().map(|r| r.run.norm_s).collect::<Vec<_>>());
        layer.insert("sim.events_per_s", first.layer["sim.events"] / run_s);
        layer.insert("obs.trace_overhead", traced_run_s / run_s);
        (PER_LAYER, layer)
    } else {
        let mut e2e = median_metrics(reps.iter().map(|r| &r.e2e));
        e2e.insert(
            "setup_s",
            median(&reps.iter().map(|r| r.setup.norm_s).collect::<Vec<_>>()),
        );
        e2e.insert("run_s", run_s);
        (END_TO_END, e2e)
    };
    names
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} not measured"));
            if v.is_finite() {
                Ok((name, unit, v))
            } else {
                Err(vec![format!("metric {name} is not finite: {v}")])
            }
        })
        .collect()
}

/// Writes the spans of a traced repetition next to the build output.
fn write_spans(wl: Workload, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{}-{seed}.json", wl.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args);
        return ExitCode::SUCCESS;
    }
    let mut reps = Vec::new();
    let result = bench(&args, &mut reps);
    let (attempted, failed) = reps.first().map_or((0, 0), |r| (r.attempted, r.failed));
    match result {
        Ok(metrics) => {
            println!("{}", render(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("FAIL: {p}");
            }
            println!("{}", render(false, attempted, failed, &[]));
            ExitCode::from(1)
        }
    }
}
