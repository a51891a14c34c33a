//! Splice benchmark: three closed-loop workloads, one caller, one op in
//! flight, each run in its own process.
//!
//! ```text
//! perfbench --workload check_corpus|gen_serve|sim_fig9_2 --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it reads `examples/specs/`). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, timed from outside around each
//! layer's public function. See `perfbench/README.md`.

mod check_corpus;
mod gen_serve;
mod report;
mod sim_fig9_2;
mod staged;
mod stats;

use report::Outcome;
use stats::CLASS_PERCENTILE;
use std::process::ExitCode;
use std::time::Instant;

/// Fewest ops a timed run makes, so that each job class's percentile rests
/// on ten samples or more in every workload.
const MIN_OPS: usize = 100;

/// Per-layer metrics printed by every traced run, with their units. A
/// layer off a workload's path does no work there and reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("spec.parse.us", "us"),
    ("spec.parse.bytes", "bytes"),
    ("spec.validate.us", "us"),
    ("core.elaborate.us", "us"),
    ("core.elaborate.instances", "count"),
    ("core.hdlgen.us", "us"),
    ("core.hdlgen.bytes", "bytes"),
    ("lint.spec.us", "us"),
    ("lint.ir.us", "us"),
    ("lint.hdl.us", "us"),
    ("lint.dataflow.us", "us"),
    ("lint.timing.us", "us"),
    ("lint.estimate.us", "us"),
    ("lint.diagnostics", "count"),
    ("check.explore.us", "us"),
    ("check.explore.states", "count"),
    ("check.explore.frontier_peak", "count"),
    ("check.explore.ns_per_state", "ns"),
    ("check.explore.complete_ratio", "ratio"),
    ("check.dataflow.us", "us"),
    ("check.dataflow.stmts_after", "count"),
    ("check.self.us", "us"),
    ("check.cross.us", "us"),
    ("driver.gen.us", "us"),
    ("driver.gen.bytes", "bytes"),
    ("pipeline.unattributed.us", "us"),
    ("serve.rtt.miss.us", "us"),
    ("serve.rtt.hit.us", "us"),
    ("serve.overhead.us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.attempts_per_job", "ratio"),
    ("serve.worker.restarts", "count"),
    ("buses.build.us", "us"),
    ("sim.run.simple_plb_hand.us", "us"),
    ("sim.run.optimized_fcb_hand.us", "us"),
    ("sim.run.splice_plb_simple.us", "us"),
    ("sim.run.splice_fcb.us", "us"),
    ("sim.run.splice_plb_dma.us", "us"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles", "count"),
    ("sim.ticks", "count"),
    ("sim.idle_cycles", "count"),
    ("trace.overhead_pct", "%"),
];

/// A workload: its name and how to run it.
struct Workload {
    name: &'static str,
    run: fn(&Args) -> Outcome,
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "check_corpus", run: check_corpus::run },
    Workload { name: "gen_serve", run: gen_serve::run },
    Workload { name: "sim_fig9_2", run: sim_fig9_2::run },
];

/// Command-line arguments of a benchmark run.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
            return Err(format!("--seconds {} is outside (0, 120]", parsed.seconds));
        }
        Ok(parsed)
    }
}

/// Drive a workload's rotations. One untimed rotation comes first, so that
/// caches fill and lazy set-up finishes before timing; its failures still
/// count. Then whole rotations run until `--seconds` have passed and at
/// least [`MIN_OPS`] ops were made. A traced run alternates untraced and
/// traced rotations, so host drift reaches both alike, and records how
/// much slower the traced ops are as `trace.overhead_pct`.
pub fn run_rotations(
    out: &mut Outcome,
    args: &Args,
    rotation: &mut impl FnMut(&mut Outcome, bool),
) {
    let mut warm = Outcome::default();
    rotation(&mut warm, false);
    out.failed += warm.failed;
    // Peak memory of this process once set-up and one op of each class
    // are done, before the timed run's per-op samples accumulate: the
    // sample log grows with throughput and is not the program's memory.
    out.peak_rss_kb = report::vm_hwm_kb("self").unwrap_or(0);

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        for (on, samples) in [(false, &mut untraced), (true, &mut traced)] {
            if on && !args.trace {
                continue;
            }
            let first = out.ops.len();
            rotation(out, on);
            out.rotations += 1;
            samples.extend(out.ops[first..].iter().map(|o| (o.class, o.ns)));
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        if out.elapsed_s >= args.seconds && out.ops.len() >= MIN_OPS {
            break;
        }
    }
    if args.trace {
        let half = out.rotations / 2;
        let rotation = |ops: Vec<(&str, u64)>| stats::rotation_ns(ops, half, CLASS_PERCENTILE);
        let overhead = (rotation(traced) / rotation(untraced) - 1.0) * 100.0;
        out.layer("trace.overhead_pct", overhead);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Re-executions of this binary as the serve daemon and its worker.
    match argv.first().map(String::as_str) {
        Some("--worker") => return ExitCode::from(splice_serve::run_worker() as u8),
        Some("--daemon") => {
            let Some(socket) = argv.get(1) else { return ExitCode::from(2) };
            let config = splice_serve::ServeConfig { workers: 1, ..Default::default() };
            return match splice_serve::serve(socket, config) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }

    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload `{}`; one of {names:?}", args.workload);
        return ExitCode::from(2);
    };
    if !std::path::Path::new("examples/specs").is_dir() {
        eprintln!("perfbench: run from the repository root (no examples/specs here)");
        return ExitCode::from(2);
    }

    let out = (workload.run)(&args);
    let mut correct = out.failed == 0 && !out.ops.is_empty();
    if let Err(e) = report::repeat_counters(workload.name, args.trace, &out.counters) {
        eprintln!("perfbench: {e}");
        correct = false;
    }

    let attempted = out.ops.len() as u64;
    let rotation_ms = stats::rotation_ns(
        out.ops.iter().map(|o| (o.class, o.ns)),
        out.rotations,
        CLASS_PERCENTILE,
    ) / 1e6;
    // The plain order statistics of the run, for the record: they move
    // with the host's slow share (see perfbench/README.md, *Noise*).
    let mut ns: Vec<u64> = out.ops.iter().map(|o| o.ns).collect();
    ns.sort_unstable();
    eprintln!(
        "perfbench: {} n={attempted} rotations={} rotation_ms={rotation_ms:.4}; \
         all ops: p50 {:.4} ms, p90 {:.4} ms, {:.1} ops/s; counters {:?}",
        workload.name,
        out.rotations,
        *stats::at(&ns, 50.0) as f64 / 1e6,
        *stats::at(&ns, 90.0) as f64 / 1e6,
        attempted as f64 / out.elapsed_s,
        out.counters
    );

    let metrics: Vec<(String, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out.layers.get(name).copied().unwrap_or(0.0);
                (name.to_owned(), unit, value)
            })
            .collect()
    } else {
        vec![
            ("rotation_ms".into(), "ms", rotation_ms),
            ("peak_rss_mb".into(), "MiB", out.peak_rss_kb as f64 / 1024.0),
            ("setup_s".into(), "s", stats::median(&out.setups_s)),
        ]
    };
    for name in out.layers.keys() {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted layer metric {name}");
    }
    println!("{}", report::result_line(correct, attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}
