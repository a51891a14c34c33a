//! `check_corpus`: the paper's spec → HDL + drivers + verdict path.
//!
//! Each op runs `splice::run_pipeline` with model checking on for one
//! example spec, under the pinned [`check_options`]. A run is whole
//! rotations over all five specs, in a seeded order per rotation; each
//! spec is a job class of its own.

use crate::report::Outcome;
use crate::staged::{self, artifact_digest, Staged};
use crate::Args;
use splice::check::{Backend, CheckOptions, CheckOutcome};
use splice::lint::LintReport;
use splice::{run_pipeline, PipelineOptions};
use splice_testutil::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The corpus, `examples/specs/<stem>.splice`.
pub const SPECS: [&str; 5] = ["apb_sensor", "dma_stream", "fir_filter", "hw_timer", "mac"];

/// The checker's bounds, pinned here rather than taken from
/// `CheckOptions::default()`: raising the exploration horizon changes the
/// work this workload measures, so it must show as a change of the
/// workload, not as a shift underneath a timing.
pub fn check_options() -> CheckOptions {
    CheckOptions {
        response_bound: 16,
        max_states: 50_000,
        max_depth: 64,
        replay: true,
        fold: true,
        backend: Backend::Gated,
        stop: None,
    }
}

type Pinned = &'static [(&'static str, usize, bool)];

/// Per-module `(reachable, complete)` under [`check_options`], as pinned by
/// the repository's model-checking tests. 7,795 states per rotation.
const PINNED: [(&str, Pinned); 5] = [
    (
        "apb_sensor",
        &[("func_sample", 13, true), ("func_reset_all", 9, true), ("user_apb_sensor", 1094, true)],
    ),
    (
        "dma_stream",
        &[
            ("func_push_block", 84, true),
            ("func_pop_word", 9, true),
            ("user_dma_stream", 820, true),
        ],
    ),
    (
        "fir_filter",
        &[("func_set_taps", 28, true), ("func_filter", 143, false), ("user_fir", 2711, false)],
    ),
    (
        "hw_timer",
        &[
            ("func_disable", 9, true),
            ("func_enable", 9, true),
            ("func_set_threshold", 24, true),
            ("func_get_threshold", 16, true),
            ("func_get_snapshot", 16, true),
            ("func_get_clock", 9, true),
            ("func_get_status", 9, true),
            ("user_hw_timer", 2564, true),
        ],
    ),
    (
        "mac",
        &[
            ("func_mac", 16, true),
            ("func_mac_clear", 9, true),
            ("func_preload", 5, true),
            ("user_mac_unit", 198, true),
        ],
    ),
];

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 51;

/// One spec of the corpus.
pub struct Spec {
    pub stem: &'static str,
    pub path: String,
    pub source: String,
}

/// Read the corpus from `examples/specs/`.
pub fn read_corpus() -> Result<Vec<Spec>, String> {
    SPECS
        .iter()
        .map(|&stem| {
            let path = format!("examples/specs/{stem}.splice");
            let source = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Spec { stem, path, source })
        })
        .collect()
}

/// The set-up: the corpus and the bus-library registry.
fn load() -> Result<Vec<Spec>, String> {
    let specs = read_corpus()?;
    std::hint::black_box(splice::buses::builtin_libraries());
    Ok(specs)
}

/// Per-rotation work: states explored, peak frontier, lint findings and
/// HDL bytes. Identical in every rotation of every run.
#[derive(Default, PartialEq, Debug)]
struct Work {
    states: u64,
    frontier_peak: u64,
    lint_diagnostics: u64,
    hdl_bytes: u64,
}

impl Work {
    fn add(&mut self, check: &CheckOutcome, lint: &LintReport, hdl_bytes: u64) {
        self.states += check.stats.iter().map(|s| s.reachable as u64).sum::<u64>();
        let peak = check.stats.iter().map(|s| s.frontier_peak as u64).max().unwrap_or(0);
        self.frontier_peak = self.frontier_peak.max(peak);
        self.lint_diagnostics += lint.diagnostics.len() as u64;
        self.hdl_bytes += hdl_bytes;
    }
}

/// What must hold of one op's verdict.
fn verify(stem: &str, lint: &LintReport, check: Option<&CheckOutcome>) -> Option<String> {
    if !lint.is_clean() {
        return Some(format!("lint not clean:\n{}", lint.render_text()));
    }
    let Some(check) = check else { return Some("model check did not run".into()) };
    if !check.report.is_clean() || !check.counterexamples.is_empty() {
        return Some(format!("verdict not clean:\n{}", check.render_text()));
    }
    let pinned = PINNED.iter().find(|(s, _)| *s == stem).expect("pinned spec").1;
    let got: Vec<(&str, usize, bool)> =
        check.stats.iter().map(|s| (s.module.as_str(), s.reachable, s.complete)).collect();
    (got.as_slice() != pinned).then(|| format!("state counts {got:?}, pinned {pinned:?}"))
}

/// Run the workload: whole rotations of `run_pipeline` calls, or (traced)
/// rotations alternating between those and the staged pipeline.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut specs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        specs = match load() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: check_corpus set-up: {e}");
                std::process::exit(2);
            }
        };
        out.setups_s.push(t.elapsed().as_secs_f64());
    }
    let opts = PipelineOptions { check: Some(check_options()), ..PipelineOptions::default() };
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut first: Option<Work> = None;
    // Each spec's artifact digest from `run_pipeline`, which the staged
    // pipeline must reproduce.
    let mut digests = BTreeMap::new();
    let mut staged_runs: Vec<Staged> = Vec::new();

    let mut rotation = |out: &mut Outcome, traced: bool| {
        rng.shuffle(&mut order);
        let mut work = Work::default();
        for &i in &order {
            let spec = &specs[i];
            let t = Instant::now();
            let (ns, problem) = if traced {
                let result = staged::run(&spec.source, &opts);
                let ns = t.elapsed().as_nanos() as u64;
                let problem = match result {
                    Ok(s) => {
                        if let Some(c) = &s.check {
                            work.add(c, &s.lint, s.hdl_bytes);
                        }
                        let p = verify(spec.stem, &s.lint, s.check.as_ref()).or_else(|| {
                            (digests.get(spec.stem) != Some(&s.digest))
                                .then(|| "staged digest differs from run_pipeline's".to_owned())
                        });
                        staged_runs.push(s);
                        p
                    }
                    Err(e) => Some(format!("staged pipeline error: {e}")),
                };
                (ns, problem)
            } else {
                let result = run_pipeline(&spec.source, &spec.path, &opts);
                let ns = t.elapsed().as_nanos() as u64;
                let problem = match &result {
                    Ok(p) => {
                        let (digest, hdl_bytes) = artifact_digest(&p.hw, &p.sw);
                        digests.insert(spec.stem, digest);
                        if let Some(c) = &p.check {
                            work.add(c, &p.lint, hdl_bytes);
                        }
                        verify(spec.stem, &p.lint, p.check.as_ref())
                    }
                    Err(e) => Some(format!("pipeline error: {e}")),
                };
                (ns, problem)
            };
            out.op(spec.stem, ns, problem);
        }
        match &first {
            None => first = Some(work),
            Some(w) if *w != work => {
                out.fail(&format!("rotation work {work:?}, first rotation {w:?}"))
            }
            Some(_) => {}
        }
    };
    crate::run_rotations(&mut out, args, &mut rotation);

    if let Some(w) = &first {
        out.counters.insert("check.explore.states", w.states as f64);
        out.counters.insert("check.explore.frontier_peak", w.frontier_peak as f64);
        out.counters.insert("lint.diagnostics", w.lint_diagnostics as f64);
        out.counters.insert("core.hdlgen.bytes", w.hdl_bytes as f64);
    }
    staged::record_layers(&mut out, &staged_runs, SPECS.len());
    out
}
