//! `plwg-benchmark compare <dirA> <dirB>`: do two sets of runs agree?
//!
//! For every (workload, end-to-end metric) found in both directories it
//! prints each side's median and quartiles and a verdict, judged with the
//! metric's bound from `BENCHMARK.json`: `regressed` when B's median is
//! worse than A's by more than the bound, `unresolved` when either side's
//! own spread (quartile distance ÷ median) is wider than the bound, `ok`
//! otherwise. `setup_s` is judged on its medians alone, as the driver does.
#![forbid(unsafe_code)]

use crate::json::{self, Value};
use crate::spec::{Metric, Spec};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// metric values by (workload, metric name), from the untraced result
/// files of one directory.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("run_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("traced").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let workload = doc.get("workload").and_then(Value::as_str);
        let metrics = doc
            .get("summary")
            .and_then(|s| s.get("metrics"))
            .and_then(Value::as_obj);
        let (Some(workload), Some(metrics)) = (workload, metrics) else {
            return Err(format!("{}: not a result file", path.display()));
        };
        for (metric, entry) in metrics {
            if let Some(v) = entry.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges baseline `a` against candidate `b` for `metric`.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (Some([_, ma, _]), Some([_, mb, _])) = (stats::quartiles(a), stats::quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let worse_by = if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let wide = |v: &[f64]| stats::spread(v).is_none_or(|s| s > bound);
    if metric.name != "setup_s" && (wide(a) || wide(b)) {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Prints the comparison; `Ok(true)` when every verdict is `ok`.
pub fn compare(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut all_ok = true;
    let mut rows = 0;
    println!(
        "{:<14} {:<18} {:>5} {:>38} {:>38}  verdict",
        "workload", "metric", "bound", "A: q1 / median / q3 (n)", "B: q1 / median / q3 (n)"
    );
    for (workload, _) in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = judge(metric, va, vb);
            all_ok &= verdict == Verdict::Ok;
            rows += 1;
            let side = |v: &[f64]| {
                let [q1, q2, q3] = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
                format!("{q1:.4} / {q2:.4} / {q3:.4} ({})", v.len())
            };
            println!(
                "{workload:<14} {:<18} {:>5} {:>38} {:>38}  {}",
                metric.name,
                metric.bound.unwrap_or(0.0),
                side(va),
                side(vb),
                verdict.label()
            );
        }
    }
    if rows == 0 {
        return Err("the two directories share no (workload, metric) to compare".to_string());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher: bool, bound: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let lower = metric("op_p50_us", false, 0.10);
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&lower, &base, &[105.0, 104.0, 106.0, 105.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &base, &[120.0, 121.0, 119.0, 120.0]),
            Verdict::Regressed
        );
        // Getting better is never a regression.
        assert_eq!(judge(&lower, &base, &[50.0, 50.5, 49.5, 50.0]), Verdict::Ok);
        let higher = metric("ops_per_s", true, 0.10);
        assert_eq!(
            judge(&higher, &base, &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &base, &[120.0, 121.0, 119.0, 120.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_except_for_setup() {
        let noisy = [80.0, 100.0, 120.0, 100.0];
        let lower = metric("op_p50_us", false, 0.10);
        assert_eq!(judge(&lower, &noisy, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&lower, &[], &noisy), Verdict::Unresolved);
        let setup = metric("setup_s", false, 0.25);
        assert_eq!(judge(&setup, &noisy, &noisy), Verdict::Ok);
    }
}
