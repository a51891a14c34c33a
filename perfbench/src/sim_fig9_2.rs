//! `sim_fig9_2`: the paper's evaluation path.
//!
//! Set-up builds the five Fig 9.2 systems. Each op, and each rotation, is
//! one full table, 5 implementations × 4 scenarios, on those systems.
//! Every cell's result must equal `reference_result` and the
//! per-implementation bus-cycle totals must be 680/298/508/344/488.

use crate::report::Outcome;
use crate::stats::median;
use crate::Args;
use splice::devices::eval::{speedup_pct, InterpImpl, InterpRunner};
use splice::devices::interp::{reference_result, Scenario};
use splice::sim::RunStats;
use std::time::Instant;

/// Fig 9.2 bus-cycle totals, in [`InterpImpl::all`] order.
pub const TOTALS: [u64; 5] = [680, 298, 508, 344, 488];
/// Per-implementation layer names, in [`InterpImpl::all`] order.
const RUN_LAYERS: [&str; 5] = [
    "sim.run.simple_plb_hand.us",
    "sim.run.optimized_fcb_hand.us",
    "sim.run.splice_plb_simple.us",
    "sim.run.splice_fcb.us",
    "sim.run.splice_plb_dma.us",
];
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 51;

/// One table's measurements.
#[derive(Clone)]
struct Table {
    totals: [u64; 5],
    /// Wall time of the whole table and of each implementation's four
    /// cells.
    total_ns: u64,
    run_ns: [u64; 5],
    kernel: RunStats,
    problem: Option<String>,
}

fn build() -> Vec<InterpRunner> {
    InterpImpl::all().into_iter().map(InterpRunner::build).collect()
}

fn table(runners: &mut [InterpRunner], references: &[u64; 4]) -> Table {
    let start = Instant::now();
    let mut t = Table {
        totals: [0; 5],
        total_ns: 0,
        run_ns: [0; 5],
        kernel: RunStats::default(),
        problem: None,
    };
    for (i, runner) in runners.iter_mut().enumerate() {
        let mark = runner.sim().stats_mark();
        let start = Instant::now();
        for (s, &reference) in Scenario::all().into_iter().zip(references) {
            let (cycles, result) = runner.run(s);
            t.totals[i] += cycles;
            if result != reference && t.problem.is_none() {
                t.problem = Some(format!(
                    "{:?} {s:?}: result {result}, reference {reference}",
                    InterpImpl::all()[i]
                ));
            }
        }
        t.run_ns[i] = start.elapsed().as_nanos() as u64;
        let k = runner.sim().stats_since(mark);
        t.kernel.cycles += k.cycles;
        t.kernel.ticks += k.ticks;
        t.kernel.idle_cycles += k.idle_cycles;
    }
    t.total_ns = start.elapsed().as_nanos() as u64;
    if t.problem.is_none() && t.totals != TOTALS {
        t.problem = Some(format!("bus-cycle totals {:?}, Fig 9.2 {TOTALS:?}", t.totals));
    }
    t
}

/// §9.3.1's comparisons from the model's totals, beside the paper's.
fn print_ratios(totals: &[u64; 5]) {
    use InterpImpl::*;
    let rows: Vec<(InterpImpl, [u64; 4])> =
        InterpImpl::all().into_iter().zip(totals).map(|(imp, &t)| (imp, [t, 0, 0, 0])).collect();
    let pct = |a, b| speedup_pct(&rows, a, b);
    eprintln!(
        "perfbench: sim_fig9_2 §9.3.1 (model vs paper): Splice PLB vs naive PLB {:+.1}% (paper ≈ +25%), \
         Splice FCB vs naive PLB {:+.1}% (≈ +43%), optimized FCB vs Splice FCB {:+.1}% (≈ +13%), \
         Splice PLB DMA vs simple {:+.1}% (+1..4%)",
        pct(SplicePlbSimple, SimplePlbHand),
        pct(SpliceFcb, SimplePlbHand),
        pct(OptimizedFcbHand, SpliceFcb),
        pct(SplicePlbDma, SplicePlbSimple),
    );
}

/// Run the workload: whole tables, or (traced) tables alternating
/// between untraced ones and ones whose per-implementation times are kept.
/// A table whose cells do not all check out is a failed op.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut runners = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        runners = build();
        out.setups_s.push(t.elapsed().as_secs_f64());
    }
    let references = Scenario::all().map(reference_result);
    // The first table on fresh systems ticks a few components more than
    // every later one; run it apart so each measured table does the same
    // kernel work.
    if let Some(p) = table(&mut runners, &references).problem {
        out.fail(&format!("first table: {p}"));
    }

    let mut first: Option<Table> = None;
    let mut traced: Vec<Table> = Vec::new();
    crate::run_rotations(&mut out, args, &mut |out, keep| {
        let t = table(&mut runners, &references);
        let mut problem = t.problem.clone();
        match &first {
            Some(f) if f.kernel != t.kernel && problem.is_none() => {
                problem = Some(format!("kernel work {:?}, first table {:?}", t.kernel, f.kernel));
            }
            Some(_) => {}
            None => first = Some(t.clone()),
        }
        out.op("table", t.total_ns, problem);
        if keep {
            traced.push(t);
        }
    });

    let Some(first) = first else { return out };
    print_ratios(&first.totals);
    let kernel = first.kernel;
    out.counters.insert("sim.cycles", kernel.cycles as f64);
    out.counters.insert("sim.ticks", kernel.ticks as f64);
    out.counters.insert("sim.idle_cycles", kernel.idle_cycles as f64);
    if traced.is_empty() {
        return out;
    }
    for (i, name) in RUN_LAYERS.iter().enumerate() {
        let v: Vec<f64> = traced.iter().map(|t| t.run_ns[i] as f64 / 1e3).collect();
        out.layer(name, median(&v));
    }
    let per_cycle: Vec<f64> =
        traced.iter().map(|t| t.run_ns.iter().sum::<u64>() as f64 / kernel.cycles as f64).collect();
    out.layer("sim.ns_per_cycle", median(&per_cycle));
    out.layer("sim.cycles", kernel.cycles as f64);
    out.layer("sim.ticks", kernel.ticks as f64);
    out.layer("sim.idle_cycles", kernel.idle_cycles as f64);
    out.layer("buses.build.us", median(&out.setups_s) * 1e6);
    let unattributed: Vec<f64> =
        traced.iter().map(|t| (t.total_ns - t.run_ns.iter().sum::<u64>()) as f64 / 1e3).collect();
    out.layer("pipeline.unattributed.us", median(&unattributed));
    out
}
