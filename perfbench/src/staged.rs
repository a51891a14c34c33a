//! The generation pipeline, called layer by layer from outside.
//!
//! [`run`] makes the same calls as `splice::run_pipeline`, in the same
//! order and with the same arguments, and times each call into a layer's
//! public function. Inside `check_modules` the split between
//! `check.dataflow` and `check.explore` comes from the `splice_obs` spans
//! the checker already emits. Callers compare [`Staged::digest`] with the
//! digest of a `run_pipeline` output for the same spec, so the times
//! describe the work the untraced path does.

use crate::report::Outcome;
use crate::stats::median;
use splice::buses::builtin_libraries;
use splice::check::{check_modules, cross_check, CheckOutcome, ModuleStats};
use splice::core_engine::elaborate::elaborate;
use splice::core_engine::hdlgen::{design_modules, generate_hardware, GeneratedFile};
use splice::driver::cgen::{driver_header, driver_source};
use splice::driver::macros::macro_header_with_irq;
use splice::lint::LintReport;
use splice::obs::trace;
use splice::PipelineOptions;
use splice_serve::hash::{fnv64_update, FNV64_OFFSET};
use std::time::Instant;

/// Layers timed around a public call, in pipeline order. `check.self` is
/// `check_modules` minus its dataflow and explore spans.
pub const LAYERS: [&str; 15] = [
    "spec.parse",
    "spec.validate",
    "core.elaborate",
    "core.hdlgen",
    "lint.spec",
    "lint.ir",
    "lint.hdl",
    "lint.dataflow",
    "lint.timing",
    "lint.estimate",
    "check.dataflow",
    "check.explore",
    "check.self",
    "check.cross",
    "driver.gen",
];

/// One staged pipeline run.
pub struct Staged {
    /// FNV-64 digest of the generated files, as the serve worker computes it.
    pub digest: u64,
    /// Wall time of the whole staged run.
    pub total_ns: u64,
    /// Wall time per entry of [`LAYERS`].
    pub layer_ns: [u64; LAYERS.len()],
    /// Spec bytes parsed.
    pub parse_bytes: u64,
    /// Instances the elaborated design holds.
    pub instances: u64,
    /// Bytes of generated HDL.
    pub hdl_bytes: u64,
    /// Bytes of generated driver files.
    pub driver_bytes: u64,
    /// The post-generation lint report.
    pub lint: LintReport,
    /// Statements left in the folded relations (summed over modules).
    pub dataflow_stmts_after: u64,
    /// The model-check outcome, when checking ran.
    pub check: Option<CheckOutcome>,
}

impl Staged {
    /// Wall time not covered by any layer.
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.layer_ns.iter().sum())
    }
}

/// The digest and HDL byte count of a pipeline's generated files, in the
/// order and encoding the serve worker hashes them.
pub fn artifact_digest(hw: &[GeneratedFile], sw: &[(String, String)]) -> (u64, u64) {
    let mut digest = FNV64_OFFSET;
    for f in hw {
        digest = fnv64_update(digest, f.name.as_bytes());
        digest = fnv64_update(digest, f.text.as_bytes());
    }
    for (name, text) in sw {
        digest = fnv64_update(digest, name.as_bytes());
        digest = fnv64_update(digest, text.as_bytes());
    }
    (digest, hw.iter().map(|f| f.text.len() as u64).sum())
}

fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed().as_nanos() as u64;
    r
}

fn span_ns(data: &trace::TraceData, name: &str) -> u64 {
    data.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns).sum()
}

fn span_attr_sum(data: &trace::TraceData, name: &str, key: &str) -> u64 {
    data.spans
        .iter()
        .filter(|s| s.name == name)
        .flat_map(|s| &s.attrs)
        .filter_map(|(k, v)| match v {
            trace::AttrValue::Int(n) if k == key => Some(*n),
            _ => None,
        })
        .sum()
}

/// Run the pipeline over `source` layer by layer.
pub fn run(source: &str, opts: &PipelineOptions) -> Result<Staged, String> {
    let mut ns = [0u64; LAYERS.len()];
    let start = Instant::now();
    let libs = builtin_libraries();

    let spec = timed(&mut ns[0], || splice::spec::parser::parse(source))
        .map_err(|e| format!("parse: {e:?}"))?;
    let (module, lib) = timed(&mut ns[1], || {
        let module = splice::spec::validate::validate(&spec, &libs.spec_registry())
            .map_err(|e| format!("validate: {e:?}"))?
            .module;
        let bus = module.params.bus.kind.name();
        let lib = libs.get(bus).ok_or_else(|| format!("no interface library for `{bus}`"))?;
        lib.check_params(&module).map_err(|e| format!("bus library: {e}"))?;
        Ok::<_, String>((module, lib))
    })?;
    let ir = timed(&mut ns[2], || elaborate(&module));
    let (hw, modules) = timed(&mut ns[3], || {
        let markers = lib.markers(&ir);
        let hw = generate_hardware(&ir, &lib.interface_template(&ir), &markers, &opts.gen_date)
            .map_err(|e| format!("hdlgen: {e}"))?;
        let modules = design_modules(&ir, &opts.gen_date).map_err(|e| format!("hdlgen: {e}"))?;
        Ok::<_, String>((hw, modules))
    })?;

    let mut lint = LintReport::new();
    timed(&mut ns[4], || splice::lint::lint_spec(&spec, source, &libs.spec_registry(), &mut lint));
    timed(&mut ns[5], || splice::lint::lint_ir(&ir, &mut lint));
    timed(&mut ns[6], || splice::lint::lint_modules(&modules, &mut lint));
    timed(&mut ns[7], || splice::lint::lint_dataflow(&modules, &mut lint));
    timed(&mut ns[8], || splice::lint::lint_timing(&modules, &mut lint));
    timed(&mut ns[9], || splice::lint::lint_estimate(&ir, &modules, &mut lint));

    let mut dataflow_stmts_after = 0;
    let check = match &opts.check {
        Some(check_opts) if !lint.fails(opts.deny_warnings) => {
            trace::start();
            let mut check_ns = 0;
            let outcome = timed(&mut check_ns, || check_modules(&ir, &modules, check_opts));
            let spans = trace::finish().expect("tracer installed above");
            let mut outcome = outcome.map_err(|e| format!("check: {e}"))?;
            ns[10] = span_ns(&spans, "check.dataflow");
            ns[11] = span_ns(&spans, "check.explore");
            ns[12] = check_ns.saturating_sub(ns[10] + ns[11]);
            dataflow_stmts_after = span_attr_sum(&spans, "check.dataflow", "stmts_after");
            timed(&mut ns[13], || {
                let p = &module.params;
                let lib_h = macro_header_with_irq(&p.bus, p.bus_width, p.base_address, p.irq);
                cross_check(&ir, &modules, &lib_h, &driver_source(&module), &mut outcome.report);
            });
            Some(outcome)
        }
        _ => None,
    };

    let sw = timed(&mut ns[14], || {
        let p = &module.params;
        let dev = &p.device_name;
        let mut sw: Vec<(String, String)> = vec![
            (
                "splice_lib.h".into(),
                macro_header_with_irq(&p.bus, p.bus_width, p.base_address, p.irq),
            ),
            (format!("{dev}_driver.h"), driver_header(&module)),
            (format!("{dev}_driver.c"), driver_source(&module)),
        ];
        if opts.linux {
            sw.push((
                "splice_lib_linux.h".into(),
                splice::driver::macros::linux_macro_header(&p.bus, p.bus_width, p.base_address),
            ));
        }
        sw
    });
    let total_ns = start.elapsed().as_nanos() as u64;

    let (digest, hdl_bytes) = artifact_digest(&hw, &sw);
    Ok(Staged {
        digest,
        total_ns,
        layer_ns: ns,
        parse_bytes: source.len() as u64,
        instances: ir.total_instances() as u64,
        hdl_bytes,
        driver_bytes: sw.iter().map(|(_, t)| t.len() as u64).sum(),
        lint,
        dataflow_stmts_after,
        check,
    })
}

/// Record the per-layer metrics of staged runs that cover whole rotations
/// of `per_rotation` specs: times as the median per op, work as the exact
/// total per rotation.
pub fn record_layers(out: &mut Outcome, runs: &[Staged], per_rotation: usize) {
    if runs.is_empty() {
        return;
    }
    let med = |f: &dyn Fn(&Staged) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    for (i, name) in LAYERS.iter().enumerate() {
        out.layer(&format!("{name}.us"), med(&|s| s.layer_ns[i] as f64 / 1e3));
    }
    out.layer("pipeline.unattributed.us", med(&|s| s.unattributed_ns() as f64 / 1e3));

    let rotations = (runs.len() / per_rotation) as f64;
    let per_rot = |f: &dyn Fn(&Staged) -> u64| runs.iter().map(f).sum::<u64>() as f64 / rotations;
    out.layer("spec.parse.bytes", per_rot(&|s| s.parse_bytes));
    out.layer("core.elaborate.instances", per_rot(&|s| s.instances));
    out.layer("core.hdlgen.bytes", per_rot(&|s| s.hdl_bytes));
    out.layer("driver.gen.bytes", per_rot(&|s| s.driver_bytes));
    out.layer("lint.diagnostics", per_rot(&|s| s.lint.diagnostics.len() as u64));
    out.layer("check.dataflow.stmts_after", per_rot(&|s| s.dataflow_stmts_after));

    fn stats(s: &Staged) -> impl Iterator<Item = &ModuleStats> {
        s.check.iter().flat_map(|c| &c.stats)
    }
    let states = |s: &Staged| stats(s).map(|m| m.reachable as u64).sum::<u64>();
    out.layer("check.explore.states", per_rot(&states));
    let peak = runs.iter().flat_map(stats).map(|m| m.frontier_peak).max().unwrap_or(0);
    out.layer("check.explore.frontier_peak", peak as f64);
    let explore = LAYERS.iter().position(|&l| l == "check.explore").expect("explore layer");
    let explored: Vec<f64> = runs
        .iter()
        .filter(|s| states(s) > 0)
        .map(|s| s.layer_ns[explore] as f64 / states(s) as f64)
        .collect();
    let ns_per_state = if explored.is_empty() { 0.0 } else { median(&explored) };
    out.layer("check.explore.ns_per_state", ns_per_state);
    let modules: Vec<bool> = runs.iter().flat_map(stats).map(|m| m.complete).collect();
    let complete = modules.iter().filter(|&&c| c).count() as f64;
    out.layer("check.explore.complete_ratio", complete / modules.len().max(1) as f64);
}
