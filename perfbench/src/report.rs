//! What a run hands back, the one-line JSON result, and the exact work
//! counters every run of the same program must repeat.

use splice::obs::JsonWriter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where runs keep their sockets and counter records, relative to the
/// checkout root the benchmark runs from.
pub const RUN_DIR: &str = ".perfbench_run";

/// One measured op: its job class and its latency.
pub struct Op {
    pub class: &'static str,
    pub ns: u64,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Each timed set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Every op of the timed run.
    pub ops: Vec<Op>,
    /// Whole rotations the timed run made.
    pub rotations: usize,
    /// Wall time of the timed run.
    pub elapsed_s: f64,
    /// Ops whose output failed its check, plus failed harness steps such
    /// as a daemon that did not shut down cleanly.
    pub failed: u64,
    /// Peak resident memory of the processes doing the work, in KiB.
    pub peak_rss_kb: u64,
    /// Exact work counters: identical in every run of the same program.
    pub counters: BTreeMap<&'static str, f64>,
    /// Per-layer metrics of a traced run, by name.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record an op, counting it failed when `problem` is set.
    pub fn op(&mut self, class: &'static str, ns: u64, problem: Option<String>) {
        if let Some(p) = problem {
            self.fail(&format!("{class}: {p}"));
        }
        self.ops.push(Op { class, ns });
    }

    /// Count one failed op, saying why on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: FAILED {why}");
        }
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }
}

/// Peak resident set (`VmHWM`) of a process, in KiB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Render the last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values keep every digit `f64`'s shortest round-trip form gives them.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").boolean(correct);
    w.field_u64("attempted", attempted).field_u64("failed", failed);
    w.key("metrics").begin_object();
    for (name, unit, value) in metrics {
        assert!(value.is_finite(), "metric {name} is {value}");
        w.key(name).begin_object();
        w.key("value").raw(&value.to_string()).field_str("unit", unit);
        w.end_object();
    }
    w.end_object().end_object();
    w.finish()
}

fn record_path(workload: &str, traced: bool) -> std::io::Result<PathBuf> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    let key = splice_serve::hash::fnv64(&exe);
    Ok(Path::new(RUN_DIR)
        .join("counters")
        .join(format!("{key:016x}-{workload}-t{}", u8::from(traced))))
}

/// Compare this run's exact counters with the record left by the first
/// run of the same executable on this workload, writing that record when
/// there is none. On a difference, the error shows both records.
pub fn repeat_counters(
    workload: &str,
    traced: bool,
    counters: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let rendered: String = counters.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let path = record_path(workload, traced).map_err(|e| format!("counter record: {e}"))?;
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == rendered => Ok(()),
        Ok(previous) => Err(format!(
            "exact work counters differ from an earlier run of this program:\n\
             earlier:\n{previous}now:\n{rendered}"
        )),
        Err(_) => {
            let dir = path.parent().expect("record path has a directory");
            std::fs::create_dir_all(dir).map_err(|e| format!("counter record: {e}"))?;
            std::fs::write(&path, rendered).map_err(|e| format!("counter record: {e}"))
        }
    }
}
