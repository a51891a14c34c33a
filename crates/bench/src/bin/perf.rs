//! Kernel throughput benchmark: cycles/second of the event-driven
//! scheduler against the eager (tick-everything) oracle, and of the
//! two-state step tape against the interpreted tree-walk.
//!
//! Every workload runs under both schedulers (`eager`, `gated`). Three
//! workloads:
//!
//! * `fig9_2` — the chapter-9 interpolator evaluation, all five
//!   implementations × four scenarios, repeated. Busy traffic through
//!   behavioural Rust components: most components have work most cycles,
//!   so gating helps modestly.
//! * `fig9_2_hdl` — the same device class at the HDL level: the `mac`
//!   example's generated `user_mac_unit` top (SIS front plus both function
//!   units, flattened) compiled to a transition relation and driven with
//!   pseudo-random SIS stimulus every cycle. The design host runs the
//!   bit-packed straight-line step tape lowered from the same
//!   `CompiledDesign` that `splice check`'s replay executes. One extra
//!   `treewalk` entry (gated schedule) hosts the generic two-state
//!   tree-walk instead, so the tape's speedup over it stays measured.
//! * `idle_heavy_sweep` — a `nowait` device with 512–2000-cycle
//!   calculations, fire-then-wait-for-interrupt. The bus is dead while the
//!   calculation counts down, which is exactly the stretch the
//!   sensitivity-gated scheduler skips.
//!
//! All modes must simulate the *same number of cycles* — schedulers and
//! evaluators are optimizations, not semantics changes — and the harness
//! asserts that
//! (plus a full signal-history checksum on the HDL workload).
//!
//! Usage: `cargo run --release -p splice-bench --bin perf [-- OPTIONS]`
//!
//! * `--smoke` — tiny iteration counts plus a hard assert that the Fig 9.2
//!   cycle table still matches the pinned seed values (CI regression gate).
//! * `--compare <baseline.json>` — after measuring, compare against the
//!   checked-in `BENCH_PERF.json` and exit nonzero when any workload's
//!   `cycles_per_sec` dropped more than the tolerance (perf-regression
//!   gate; see `splice_bench::compare`). Entries present on only one side
//!   are noted, not fatal, so the gate tolerates schema changes.
//! * `--tolerance <pct>` — allowed drop for `--compare` (default 20).
//! * `--trace-out <f>` — write a Chrome trace-event JSON of the bench run
//!   (one span per workload × mode, with throughput attrs).
//!
//! Writes `BENCH_PERF.json` into the working directory.

use splice_bench::compare::{compare, parse_perf_json, PerfEntry};
use splice_bench::table;
use splice_buses::system::SplicedSystem;
use splice_core::elaborate::elaborate;
use splice_core::hdlgen::design_modules;
use splice_core::simbuild::{CalcLogic, CalcResult, FuncInputs};
use splice_dataflow::engine::reset_slot;
use splice_dataflow::tv::mask;
use splice_dataflow::{two_state_eval, two_state_initial, two_state_step, CompiledDesign, StepFn};
use splice_devices::eval::{fig_9_2, InterpImpl, InterpRunner};
use splice_devices::interp::Scenario;
use splice_driver::program::CallArgs;
use splice_obs::trace;
use splice_sim::{Backend, Component, RunStats, SignalId, SimulatorBuilder, TickCtx};
use splice_spec::parse_and_validate;
use splice_testutil::Rng;
use std::time::{Duration, Instant};

/// One timed measurement: simulated cycles vs wall clock, plus the
/// kernel's own tick/idle accounting for the timed stretch (uniform
/// across every workload and mode via `Simulator::stats_mark`).
struct Meas {
    sim_cycles: u64,
    wall: Duration,
    stats: RunStats,
    /// Full signal-history checksum, for cross-mode parity assertions
    /// (HDL workload only).
    check: Option<u64>,
    /// Structural logic depth (unit-delay levels) of the compiled design,
    /// for workloads that execute one (HDL workload only) — throughput
    /// numbers mean little without the depth of the logic being stepped.
    levels: Option<u32>,
}

impl Meas {
    fn cps(&self) -> f64 {
        self.sim_cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn idle_pct(&self) -> String {
        if self.stats.cycles > 0 {
            format!("{:.1}%", self.stats.idle_cycles as f64 / self.stats.cycles as f64 * 100.0)
        } else {
            "-".into()
        }
    }
}

/// The fig 9.2 evaluation run `iters` times over persistent systems.
fn bench_fig9_2(backend: Backend, iters: u32) -> Meas {
    let mut runners: Vec<InterpRunner> = InterpImpl::all().map(InterpRunner::build).into();
    for r in &mut runners {
        r.sim_mut().set_backend(backend);
        // Warm-up pass (untimed): first calls touch cold allocations.
        for s in Scenario::all() {
            r.run(s);
        }
    }
    let marks: Vec<RunStats> = runners.iter().map(|r| r.sim().stats_mark()).collect();
    let start = Instant::now();
    for _ in 0..iters {
        for r in &mut runners {
            for s in Scenario::all() {
                r.run(s);
            }
        }
    }
    let wall = start.elapsed();
    let mut stats = RunStats::default();
    for (r, mark) in runners.iter().zip(marks) {
        let s = r.sim().stats_since(mark);
        stats.cycles += s.cycles;
        stats.ticks += s.ticks;
        stats.idle_cycles += s.idle_cycles;
    }
    Meas { sim_cycles: stats.cycles, wall, stats, check: None, levels: None }
}

// --- fig9_2_hdl: generated HDL executed through the sim kernel ----------

const HDL_SPEC: &str = include_str!("../../../../examples/specs/mac.splice");
const HDL_ROWS: usize = 512;
/// Replicated MAC units in the host — a small accelerator bank. Unit 0 is
/// driven through kernel signals; the shadow units consume the same
/// stimulus table at staggered offsets, so per-tick design evaluation
/// dominates over fixed kernel dispatch overhead and the tape/tree-walk
/// comparison measures the evaluators, not the scheduler.
const HDL_UNITS: usize = 16;

/// Plays a fixed stimulus table cyclically, one row per tick.
struct HdlStim {
    rows: Vec<Vec<u64>>,
    ids: Vec<SignalId>,
    t: usize,
}

impl Component for HdlStim {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let row = &self.rows[self.t % self.rows.len()];
        for (slot, &id) in self.ids.iter().enumerate() {
            ctx.set(id, row[slot]);
        }
        self.t += 1;
    }

    fn name(&self) -> &str {
        "hdl-stim"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// How an [`HdlHost`] evaluates its units.
enum HdlEval {
    /// The step tape — the form `splice check`'s replay executes — with
    /// one word vector per unit.
    Tape { tape: StepFn, words: Vec<Vec<u64>> },
    /// The generic two-state tree-walk, with one register state per unit
    /// (the `treewalk` baseline only).
    TreeWalk { states: Vec<Vec<u64>> },
}

/// Hosts a bank of [`HDL_UNITS`] identical [`CompiledDesign`] instances
/// in the kernel, each stepped by the host's [`HdlEval`]. Unit 0 reads
/// its inputs from kernel signals and drives the module outputs back;
/// shadow units 1..N replay the shared stimulus table at staggered
/// offsets. A rolling
/// checksum over every unit's post-step output words pins cross-mode
/// parity (the outputs are a function of the full register state, so a
/// divergence anywhere surfaces within a few rows).
struct HdlHost {
    design: CompiledDesign,
    eval: HdlEval,
    input_ids: Vec<SignalId>,
    output_ids: Vec<SignalId>,
    rows: Vec<Vec<u64>>,
    started: bool,
    t: usize,
    row: Vec<u64>,
    checksum: u64,
}

impl HdlHost {
    fn crunch(&mut self, v: u64) {
        self.checksum = self.checksum.wrapping_mul(0x100_0000_01b3) ^ v;
    }
}

impl Component for HdlHost {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if !self.started {
            self.started = true;
            return;
        }
        for (slot, &id) in self.input_ids.iter().enumerate() {
            self.row[slot] = ctx.get(id);
        }
        for u in 0..HDL_UNITS {
            // Unit 0 follows the kernel signals; shadow units replay the
            // table at unit-specific offsets (same rows every mode).
            let row = if u == 0 {
                std::mem::take(&mut self.row)
            } else {
                std::mem::take(&mut self.rows[(self.t + u * 61) % HDL_ROWS])
            };
            let obs_owned;
            let obs: &[u64] = match &mut self.eval {
                HdlEval::Tape { tape, words } => {
                    let w = &mut words[u];
                    tape.step(w, &row);
                    tape.eval(w, &row);
                    tape.signals(w)
                }
                HdlEval::TreeWalk { states } => {
                    states[u] = two_state_step(&self.design, &states[u], &row, false);
                    obs_owned = two_state_eval(&self.design, &states[u], &row, false);
                    &obs_owned
                }
            };
            if u == 0 {
                for (slot, &id) in self.design.outputs.iter().enumerate() {
                    ctx.set(self.output_ids[slot], obs[id]);
                }
            }
            let mut sum = 0u64;
            for &id in &self.design.outputs {
                sum = sum.wrapping_mul(0x100_0000_01b3) ^ obs[id];
            }
            self.crunch(sum);
            if u == 0 {
                self.row = row;
            } else {
                self.rows[(self.t + u * 61) % HDL_ROWS] = row;
            }
        }
        self.t += 1;
    }

    fn name(&self) -> &str {
        "hdl-host"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Pseudo-random SIS stimulus for the compiled module: two reset rows,
/// then seeded free traffic (same seed every run and mode).
fn hdl_stimulus(d: &CompiledDesign) -> Vec<Vec<u64>> {
    let rst = reset_slot(d).expect("generated module has RST");
    let mut rng = Rng::new(0x5EED_BEAC);
    let mut rows = Vec::with_capacity(HDL_ROWS);
    for t in 0..HDL_ROWS {
        rows.push(
            d.inputs
                .iter()
                .enumerate()
                .map(|(s, &id)| {
                    if s == rst {
                        u64::from(t < 2)
                    } else if t < 2 {
                        0
                    } else {
                        rng.next_u64() & mask(d.signals[id].width)
                    }
                })
                .collect(),
        );
    }
    rows
}

/// The HDL-level workload: `iters` passes over the stimulus table, every
/// unit on the step tape, or on the two-state tree-walk if `tree_walk`.
fn bench_fig9_2_hdl(backend: Backend, tree_walk: bool, iters: u32) -> Meas {
    let module = parse_and_validate(HDL_SPEC).expect("mac spec").module;
    let ir = elaborate(&module);
    let modules = design_modules(&ir, "perf-bench").expect("mac generates");
    let d = CompiledDesign::compile(&modules, "user_mac_unit").expect("mac top compiles");
    let levels = splice_dataflow::analyze_timing(&d).max_depth;
    let rows = hdl_stimulus(&d);

    let mut b = SimulatorBuilder::new();
    let input_ids: Vec<SignalId> =
        d.inputs.iter().map(|&id| b.sig(d.signals[id].name.clone(), d.signals[id].width)).collect();
    let output_ids: Vec<SignalId> = d
        .outputs
        .iter()
        .map(|&id| b.sig(d.signals[id].name.clone(), d.signals[id].width))
        .collect();
    b.component(Box::new(HdlStim { rows: rows.clone(), ids: input_ids.clone(), t: 0 }));
    let eval = if tree_walk {
        HdlEval::TreeWalk { states: (0..HDL_UNITS).map(|_| two_state_initial(&d, false)).collect() }
    } else {
        let tape = StepFn::lower(&d, false);
        HdlEval::Tape { words: (0..HDL_UNITS).map(|_| tape.new_state()).collect(), tape }
    };
    let num_inputs = d.inputs.len();
    let hidx = b.component(Box::new(HdlHost {
        eval,
        input_ids,
        output_ids,
        rows,
        started: false,
        t: 0,
        row: vec![0; num_inputs],
        checksum: 0,
        design: d,
    }));
    let mut sim = b.build();
    sim.set_backend(backend);

    // Warm-up pass (untimed).
    sim.run(HDL_ROWS as u64).expect("hdl warmup");
    let mark = sim.stats_mark();
    let start = Instant::now();
    sim.run(iters as u64 * HDL_ROWS as u64).expect("hdl run");
    let wall = start.elapsed();
    let stats = sim.stats_since(mark);
    let checksum = sim.component::<HdlHost>(hidx).expect("host").checksum;
    Meas { sim_cycles: stats.cycles, wall, stats, check: Some(checksum), levels: Some(levels) }
}

/// Calculation whose latency walks a fixed 512–2000-cycle pattern, so the
/// sweep spends nearly all its simulated time with an idle bus.
struct IdleCalc {
    i: usize,
}

const CALC_CYCLES: [u32; 5] = [512, 777, 1024, 1499, 2000];

impl CalcLogic for IdleCalc {
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
        let cycles = CALC_CYCLES[self.i % CALC_CYCLES.len()];
        self.i += 1;
        CalcResult { cycles, output: vec![inputs.scalar(0) * 2] }
    }
}

/// Fire-and-forget rounds against a long-latency device: `nowait` call,
/// wait for the completion interrupt, acknowledge, repeat.
fn bench_idle_sweep(backend: Backend, rounds: u32) -> Meas {
    let spec = "%device_name sweep\n%bus_type plb\n%bus_width 32\n\
                %base_address 0x80000000\n%irq_support true\n\
                nowait crunch(int x);";
    let module = parse_and_validate(spec).expect("sweep spec").module;
    let mut sys = SplicedSystem::build(&module, |_, _| Box::new(IdleCalc { i: 0 }));
    sys.sim_mut().set_backend(backend);
    let vector = sys.sim().signal_id("sis.IRQ_VECTOR").expect("irq vector");

    // Warm-up round (untimed).
    sys.call("crunch", &CallArgs::scalars(&[0])).expect("warmup call");
    sys.sim_mut().run_until_high("sweep irq", vector, 1_000_000).expect("warmup irq");
    sys.wait_irq("crunch", 0).expect("warmup ack");

    let mark = sys.sim().stats_mark();
    let start = Instant::now();
    for r in 0..rounds {
        let out = sys.call("crunch", &CallArgs::scalars(&[u64::from(r)])).expect("call");
        assert!(out.bus_cycles < 50, "nowait call should return fast");
        // Ride out the idle calculation on the signal-indexed fast wait,
        // then consume the latched interrupt (immediate) to clear the bit.
        sys.sim_mut().run_until_high("sweep irq", vector, 1_000_000).expect("irq");
        sys.wait_irq("crunch", 0).expect("ack");
    }
    let wall = start.elapsed();
    let stats = sys.sim().stats_since(mark);
    Meas { sim_cycles: stats.cycles, wall, stats, check: None, levels: None }
}

fn fmt_mcps(m: &Meas) -> String {
    format!("{:.2}", m.cps() / 1e6)
}

fn fmt_ms(m: &Meas) -> String {
    format!("{:.1}", m.wall.as_secs_f64() * 1e3)
}

fn fmt_levels(m: &Meas) -> String {
    m.levels.map_or_else(|| "-".into(), |l| l.to_string())
}

fn json_meas(m: &Meas) -> String {
    format!(
        "{{\"sim_cycles\":{},\"wall_ms\":{:.3},\"cycles_per_sec\":{:.0},\
         \"ticks\":{},\"idle_cycles\":{}}}",
        m.sim_cycles,
        m.wall.as_secs_f64() * 1e3,
        m.cps(),
        m.stats.ticks,
        m.stats.idle_cycles,
    )
}

/// The workload-level `"levels"` JSON field: the structural depth of the
/// compiled design, present only for workloads that execute one. The
/// baseline comparator ignores unknown fields, so old baselines still parse.
fn levels_json(m: &Meas) -> String {
    m.levels.map_or_else(String::new, |l| format!("\"levels\":{l},"))
}

/// Record one measurement as a span on the bench trace, when tracing.
fn trace_meas(name: &str, mode: &str, m: &Meas) {
    let _sp = trace::span("bench.workload");
    trace::attr("workload", name);
    trace::attr("mode", mode);
    trace::attr("sim_cycles", m.sim_cycles);
    trace::attr("wall_ms", format!("{:.3}", m.wall.as_secs_f64() * 1e3).as_str());
    trace::attr("mcycles_per_sec", format!("{:.2}", m.cps() / 1e6).as_str());
    trace::attr("ticks", m.stats.ticks);
    trace::attr("idle_cycles", m.stats.idle_cycles);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut compare_path: Option<String> = None;
    let mut tolerance = 20.0f64;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--compare" => match it.next() {
                Some(p) => compare_path = Some(p.clone()),
                None => {
                    eprintln!("--compare needs a baseline file argument");
                    std::process::exit(2);
                }
            },
            "--tolerance" => match it.next().and_then(|p| p.parse::<f64>().ok()) {
                Some(p) => tolerance = p,
                None => {
                    eprintln!("--tolerance needs a numeric percentage");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => {
                    eprintln!("--trace-out needs a file argument");
                    std::process::exit(2);
                }
            },
            bad => {
                eprintln!(
                    "unknown flag {bad}; usage: perf [--smoke] \
                     [--compare <baseline.json>] [--tolerance <pct>] [--trace-out <f>]"
                );
                std::process::exit(2);
            }
        }
    }

    // Read the baseline up front: the run overwrites `BENCH_PERF.json` in
    // the working directory, which is often the very file being compared
    // against — reading it afterwards would compare the run to itself.
    let baseline = compare_path.as_ref().map(|path| {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        parse_perf_json(&src).unwrap_or_else(|e| {
            eprintln!("perf: cannot parse baseline {path}: {e}");
            std::process::exit(2);
        })
    });

    if trace_out.is_some() {
        trace::start();
    }

    if smoke {
        // Regression gate: the event-driven kernel must reproduce the
        // seed's Fig 9.2 table exactly.
        let pinned: [u64; 5] = [680, 298, 508, 344, 488];
        for ((imp, row), want) in fig_9_2().iter().zip(pinned) {
            let total: u64 = row.iter().sum();
            assert_eq!(total, want, "{} drifted from pinned total", imp.label());
        }
        println!("smoke: fig 9.2 totals match pinned seed values {pinned:?}");
    }

    let (fig_iters, hdl_passes, sweep_rounds) = if smoke { (5, 5, 30) } else { (400, 100, 1500) };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_workloads: Vec<String> = Vec::new();
    let mut current: Vec<PerfEntry> = Vec::new();

    // Each workload under both schedulers; `fig9_2_hdl` adds the
    // tree-walk host on the gated schedule as the tape's baseline.
    type Bench = fn(Backend, u32) -> Meas;
    let workloads: [(&str, Bench, Option<Bench>, u32); 3] = [
        ("fig9_2", bench_fig9_2, None, fig_iters),
        (
            "fig9_2_hdl",
            |b, iters| bench_fig9_2_hdl(b, false, iters),
            Some(|b, iters| bench_fig9_2_hdl(b, true, iters)),
            hdl_passes,
        ),
        ("idle_heavy_sweep", bench_idle_sweep, None, sweep_rounds),
    ];
    for (name, run, tree_walk, iters) in workloads {
        let mut modes =
            vec![("eager", run(Backend::Eager, iters)), ("gated", run(Backend::Gated, iters))];
        if let Some(tree_walk) = tree_walk {
            modes.push(("treewalk", tree_walk(Backend::Gated, iters)));
        }
        let eager = &modes[0].1;
        for (mode, m) in &modes {
            trace_meas(name, mode, m);
            assert_eq!(
                m.sim_cycles, eager.sim_cycles,
                "{name}: {mode} changed the simulated cycle count"
            );
            assert_eq!(m.check, eager.check, "{name}: {mode} changed the signal history checksum");
            rows.push(vec![
                name.into(),
                (*mode).into(),
                m.sim_cycles.to_string(),
                fmt_ms(m),
                fmt_mcps(m),
                m.idle_pct(),
                fmt_levels(m),
            ]);
            current.push(PerfEntry {
                workload: name.into(),
                mode: (*mode).into(),
                cycles_per_sec: m.cps(),
            });
        }
        let gated = &modes[1].1;
        let speedup = gated.cps() / eager.cps();
        let mut ratios = format!("g {speedup:.2}x");
        let mut json = format!("{{\"name\":\"{name}\",{}", levels_json(eager));
        for (mode, m) in &modes {
            json += &format!("\"{mode}\":{},", json_meas(m));
        }
        json += &format!("\"speedup\":{speedup:.3}");
        if let Some((_, walk)) = modes.get(2) {
            let tape_speedup = gated.cps() / walk.cps();
            ratios += &format!(" / tape {tape_speedup:.2}x");
            json += &format!(",\"tape_speedup\":{tape_speedup:.3}");
        }
        rows.push(vec![name.into(), "speedup".into(), String::new(), String::new(), ratios]);
        json_workloads.push(json + "}");
    }

    let headers = ["workload", "mode", "sim cycles", "wall ms", "Mcycles/s", "idle", "levels"];
    println!("\nKernel throughput — scheduler and evaluator comparison");
    println!(
        "(fig9_2 x{fig_iters} passes, hdl x{hdl_passes} passes, sweep x{sweep_rounds} rounds)\n"
    );
    print!("{}", table(&headers, &rows));

    let json = format!(
        "{{\"bench\":\"kernel_throughput\",\"smoke\":{smoke},\
         \"fig9_2_iters\":{fig_iters},\"hdl_passes\":{hdl_passes},\"sweep_rounds\":{sweep_rounds},\
         \"workloads\":[{}]}}\n",
        json_workloads.join(",")
    );
    std::fs::write("BENCH_PERF.json", &json).expect("write BENCH_PERF.json");
    println!("\nwrote BENCH_PERF.json");

    if let Some(path) = &trace_out {
        if let Some(data) = trace::finish() {
            std::fs::write(path, data.to_chrome_json("splice-bench perf")).expect("write trace");
            println!("trace written to {path}");
        }
    }

    // The regression gate: measured throughput must stay within the
    // tolerance of the checked-in baseline.
    if let Some(baseline) = &baseline {
        let path = compare_path.as_deref().unwrap_or("?");
        let report = compare(&current, baseline, tolerance);
        println!("\nBaseline comparison against {path} (tolerance -{tolerance:.0}%):\n");
        print!("{}", report.render_text());
        if report.failed() {
            std::process::exit(1);
        }
    }
}
