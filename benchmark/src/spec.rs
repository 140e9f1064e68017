//! `BENCHMARK.json`, compiled in: the one place workloads, metric names,
//! units and bounds are declared. A run reports exactly the metrics it
//! lists, and `compare` judges with its bounds.
#![forbid(unsafe_code)]

use crate::json::{self, Value};

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The benchmark's declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// Workload names with the reason each was chosen.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks \"{k}\""))
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no \"{key}\" list"))?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                higher_is_better: field(m, "better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let doc = json::parse(TEXT)?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: no \"workloads\" list")?
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Value::as_str).map(str::to_string);
                s("name")
                    .zip(s("why"))
                    .ok_or_else(|| "BENCHMARK.json: a workload lacks name or why".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no \"run_seconds\"")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_declaration_is_what_the_issue_names() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "sim_fanin_64b",
                "sim_solo_1k",
                "sim_heal_128",
                "net_pair_64b"
            ]
        );
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "ops_per_s",
                "op_p50_us",
                "allocs_per_op",
                "wire_bytes_per_op",
                "peak_heap_mib"
            ]
        );
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert_eq!(m.higher_is_better, m.name == "ops_per_s", "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }
}
