//! The perf-regression gate: compare a fresh `BENCH_PERF.json` run against
//! a checked-in baseline.
//!
//! `perf --compare BENCH_PERF.json --tolerance 15` reads the baseline
//! document (written by an earlier `perf` run), matches its workloads and
//! modes against the current measurements, and fails when any
//! `cycles_per_sec` dropped more than the tolerance below its baseline.
//! Improvements never fail; workloads present on only one side are listed
//! but don't gate — a renamed workload should not silently pass, nor should
//! adding one require regenerating every developer's baseline.
//!
//! Parsing uses the workspace's own [`splice_obs::json::JsonValue`] reader,
//! so the gate exercises the same JSON layer the producers write with.

use splice_obs::json::JsonValue;
use std::fmt::Write as _;

/// One `(workload, mode)` throughput measurement, the unit of comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    pub workload: String,
    /// `"eager"`, `"gated"`, or `"treewalk"`.
    pub mode: String,
    pub cycles_per_sec: f64,
}

/// Extract the `(workload, mode, cycles_per_sec)` triples from a
/// `BENCH_PERF.json` document.
pub fn parse_perf_json(src: &str) -> Result<Vec<PerfEntry>, String> {
    let doc = JsonValue::parse(src)?;
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("missing `workloads` array — not a BENCH_PERF.json document?")?;
    let mut entries = Vec::new();
    for w in workloads {
        let name =
            w.get("name").and_then(JsonValue::as_str).ok_or("workload entry without a `name`")?;
        for mode in ["eager", "gated", "treewalk"] {
            if let Some(m) = w.get(mode) {
                let cps = m
                    .get("cycles_per_sec")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{name}/{mode}: missing `cycles_per_sec`"))?;
                entries.push(PerfEntry {
                    workload: name.to_owned(),
                    mode: mode.to_owned(),
                    cycles_per_sec: cps,
                });
            }
        }
    }
    if entries.is_empty() {
        return Err("baseline contains no measurements".into());
    }
    Ok(entries)
}

/// One matched pair in a comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    pub workload: String,
    pub mode: String,
    pub baseline_cps: f64,
    pub current_cps: f64,
    /// Percent change relative to baseline; negative means slower.
    pub delta_pct: f64,
    /// True when the drop exceeds the tolerance.
    pub regressed: bool,
}

/// The outcome of a baseline comparison.
#[derive(Debug)]
pub struct CompareReport {
    pub tolerance_pct: f64,
    pub rows: Vec<CompareRow>,
    /// `(workload, mode)` pairs present in the baseline but not measured now.
    pub missing_current: Vec<String>,
    /// `(workload, mode)` pairs measured now but absent from the baseline.
    pub missing_baseline: Vec<String>,
}

impl CompareReport {
    /// Did any matched measurement regress beyond the tolerance?
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Human-readable comparison table plus the verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>14} {:>14} {:>8}  verdict",
            "workload", "mode", "baseline c/s", "current c/s", "delta"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>14.0} {:>14.0} {:>+7.1}%  {}",
                r.workload,
                r.mode,
                r.baseline_cps,
                r.current_cps,
                r.delta_pct,
                if r.regressed { "REGRESSED" } else { "ok" },
            );
        }
        for m in &self.missing_current {
            let _ = writeln!(out, "note: {m} is in the baseline but was not measured");
        }
        for m in &self.missing_baseline {
            let _ = writeln!(out, "note: {m} has no baseline entry (new workload?)");
        }
        let _ = writeln!(
            out,
            "{}: {} measurement(s) within -{:.0}% of baseline",
            if self.failed() { "FAIL" } else { "PASS" },
            self.rows.iter().filter(|r| !r.regressed).count(),
            self.tolerance_pct,
        );
        out
    }
}

/// Compare current measurements against a baseline with a percentage
/// tolerance: a matched pair regresses when
/// `current < baseline * (1 - tolerance_pct / 100)`.
pub fn compare(current: &[PerfEntry], baseline: &[PerfEntry], tolerance_pct: f64) -> CompareReport {
    let mut rows = Vec::new();
    let mut missing_current = Vec::new();
    for b in baseline {
        match current.iter().find(|c| c.workload == b.workload && c.mode == b.mode) {
            Some(c) => {
                let floor = b.cycles_per_sec * (1.0 - tolerance_pct / 100.0);
                let delta_pct = if b.cycles_per_sec > 0.0 {
                    (c.cycles_per_sec - b.cycles_per_sec) / b.cycles_per_sec * 100.0
                } else {
                    0.0
                };
                rows.push(CompareRow {
                    workload: b.workload.clone(),
                    mode: b.mode.clone(),
                    baseline_cps: b.cycles_per_sec,
                    current_cps: c.cycles_per_sec,
                    delta_pct,
                    regressed: c.cycles_per_sec < floor,
                });
            }
            None => missing_current.push(format!("{}/{}", b.workload, b.mode)),
        }
    }
    let missing_baseline = current
        .iter()
        .filter(|c| !baseline.iter().any(|b| b.workload == c.workload && b.mode == c.mode))
        .map(|c| format!("{}/{}", c.workload, c.mode))
        .collect();
    CompareReport { tolerance_pct, rows, missing_current, missing_baseline }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"bench":"kernel_throughput","mode":"both","smoke":true,
        "workloads":[
          {"name":"fig9_2",
           "eager":{"sim_cycles":1000,"wall_ms":1.0,"cycles_per_sec":1000000},
           "gated":{"sim_cycles":1000,"wall_ms":0.5,"cycles_per_sec":2000000},
           "speedup":2.0},
          {"name":"idle_heavy_sweep",
           "eager":{"sim_cycles":9000,"wall_ms":9.0,"cycles_per_sec":1000000}}
        ]}"#;

    fn entry(w: &str, m: &str, cps: f64) -> PerfEntry {
        PerfEntry { workload: w.into(), mode: m.into(), cycles_per_sec: cps }
    }

    #[test]
    fn parses_workloads_and_modes() {
        let entries = parse_perf_json(BASELINE).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], entry("fig9_2", "eager", 1_000_000.0));
        assert_eq!(entries[1], entry("fig9_2", "gated", 2_000_000.0));
        assert_eq!(entries[2], entry("idle_heavy_sweep", "eager", 1_000_000.0));
    }

    #[test]
    fn rejects_documents_without_workloads() {
        assert!(parse_perf_json("{}").is_err());
        assert!(parse_perf_json("{\"workloads\":[]}").is_err());
        assert!(parse_perf_json("not json at all").is_err());
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = parse_perf_json(BASELINE).unwrap();
        // 5% slower everywhere, 10% tolerance: fine.
        let current: Vec<PerfEntry> =
            baseline.iter().map(|b| entry(&b.workload, &b.mode, b.cycles_per_sec * 0.95)).collect();
        let report = compare(&current, &baseline, 10.0);
        assert!(!report.failed(), "{}", report.render_text());
        assert_eq!(report.rows.len(), 3);
    }

    #[test]
    fn injected_regression_fails() {
        let baseline = parse_perf_json(BASELINE).unwrap();
        let mut current: Vec<PerfEntry> = baseline.clone();
        // Halve the gated fig9_2 throughput — well past any sane tolerance.
        current[1].cycles_per_sec = baseline[1].cycles_per_sec * 0.5;
        let report = compare(&current, &baseline, 10.0);
        assert!(report.failed());
        let bad: Vec<_> = report.rows.iter().filter(|r| r.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].workload, "fig9_2");
        assert_eq!(bad[0].mode, "gated");
        assert!(report.render_text().contains("REGRESSED"));
    }

    #[test]
    fn improvements_never_fail() {
        let baseline = parse_perf_json(BASELINE).unwrap();
        let current: Vec<PerfEntry> =
            baseline.iter().map(|b| entry(&b.workload, &b.mode, b.cycles_per_sec * 3.0)).collect();
        assert!(!compare(&current, &baseline, 10.0).failed());
    }

    #[test]
    fn old_schema_baselines_without_treewalk_entries_still_pass() {
        // Baselines written before the tree-walk baseline mode existed
        // carry only eager/gated measurements. A current run that adds
        // `treewalk` entries must compare cleanly: the new measurements
        // are noted as having no baseline, never gated on.
        let baseline = parse_perf_json(BASELINE).unwrap();
        assert!(!baseline.iter().any(|b| b.mode == "treewalk"), "fixture predates treewalk");
        let mut current: Vec<PerfEntry> = baseline.clone();
        current.push(entry("fig9_2_hdl", "treewalk", 20_000.0));
        let report = compare(&current, &baseline, 10.0);
        assert!(!report.failed(), "{}", report.render_text());
        assert_eq!(report.rows.len(), baseline.len());
        assert_eq!(
            report.missing_baseline,
            vec!["fig9_2_hdl/treewalk"],
            "treewalk entries ride as notes against an old-schema baseline"
        );
        assert!(report.missing_current.is_empty());
    }

    #[test]
    fn parses_treewalk_entries_and_ignores_retired_modes() {
        // `compiled` entries from baselines predating the scheduler-only
        // kernel are not a mode any more: they are skipped, not gated.
        let src = r#"{"workloads":[
          {"name":"fig9_2_hdl",
           "eager":{"cycles_per_sec":1000000},
           "gated":{"cycles_per_sec":1100000},
           "treewalk":{"cycles_per_sec":180000},
           "compiled":{"cycles_per_sec":8000000},
           "speedup":1.1,"tape_speedup":6.1}
        ]}"#;
        let entries = parse_perf_json(src).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2], entry("fig9_2_hdl", "treewalk", 180_000.0));
    }

    #[test]
    fn unmatched_workloads_are_noted_not_fatal() {
        let baseline = parse_perf_json(BASELINE).unwrap();
        let current = vec![entry("fig9_2", "eager", 1_000_000.0), entry("brand_new", "eager", 1.0)];
        let report = compare(&current, &baseline, 10.0);
        assert!(!report.failed());
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.missing_current, vec!["fig9_2/gated", "idle_heavy_sweep/eager"]);
        assert_eq!(report.missing_baseline, vec!["brand_new/eager"]);
        let text = report.render_text();
        assert!(text.contains("was not measured"));
        assert!(text.contains("no baseline entry"));
    }
}
