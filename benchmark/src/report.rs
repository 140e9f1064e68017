//! What a run is asked for, what a workload hands back, and how that is
//! printed: phase timings, one `workload metric value unit` line per
//! declared metric, the result file, and the one-line JSON summary.
#![forbid(unsafe_code)]

use crate::json::Value;
use crate::spec::{Metric, Spec};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// How to run a workload once.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Wall seconds the measured window lasts (at least).
    pub seconds: f64,
    /// Set-ups to time at least; the last one is measured on. More than one
    /// asks for a steady median: see [`Opts::wants_setup`].
    pub setups: usize,
    /// Chunks (cycles) the count-based metrics are taken over; the window
    /// lasts until it holds them, whatever `seconds` says.
    pub prefix: usize,
    /// Whether spans are recorded.
    pub traced: bool,
}

impl Opts {
    /// Whether another set-up should be timed after those in `done`: at
    /// least `setups`, and — when a median is wanted at all — until half a
    /// second of set-up has been timed or 25 of them, so that a set-up of
    /// a few milliseconds is not judged by three samples.
    pub fn wants_setup(&self, done: &[f64]) -> bool {
        done.len() < self.setups.max(1)
            || (self.setups > 1 && done.len() < 25 && done.iter().sum::<f64>() < 0.5)
    }
}

/// Guards a measured loop against running away: the window itself may not
/// last longer than four times what was asked for plus a minute.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether the time asked for has been measured.
    pub fn spent(&self) -> bool {
        self.elapsed_s() >= self.seconds
    }

    /// `Err` once the loop has overrun beyond reason.
    pub fn check(&self, what: &str) -> Result<(), String> {
        let limit = self.seconds * 4.0 + 60.0;
        if self.elapsed_s() > limit {
            return Err(format!(
                "{what} still incomplete after {limit:.0} s of wall time"
            ));
        }
        Ok(())
    }
}

/// Wall time of each phase of a run, seconds.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub setups_s: Vec<f64>,
    pub warm_s: f64,
    pub window_s: f64,
    pub drain_s: f64,
}

/// What one execution of a workload measured.
#[derive(Default)]
pub struct Measured {
    /// The end-to-end metrics but `setup_s`.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The per-layer metrics but `harness.trace_overhead_share`; empty
    /// when the run was not traced.
    pub per_layer: BTreeMap<&'static str, f64>,
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per thing that went wrong; empty on a correct run.
    pub problems: Vec<String>,
    pub phases: Phases,
    /// Aggregates and sampled spans of a traced run.
    pub trace: Option<Value>,
}

/// A finished run, ready to print.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub phases: Vec<Phases>,
    pub trace: Option<Value>,
}

impl Outcome {
    /// The run of an untraced workload: its end-to-end metrics.
    pub fn end_to_end(workload: &str, opts: &Opts, m: Measured) -> Outcome {
        let mut metrics = m.end_to_end;
        metrics.insert("setup_s", stats::median(&m.phases.setups_s).unwrap_or(0.0));
        Outcome {
            workload: workload.to_string(),
            seed: opts.seed,
            traced: false,
            metrics,
            attempted: m.attempted,
            failed: m.failed,
            problems: m.problems,
            phases: vec![m.phases],
            trace: None,
        }
    }

    /// The traced run of a workload: the per-layer metrics of `traced`, and
    /// what tracing cost against the untraced `reference` of the same seed.
    pub fn per_layer(
        workload: &str,
        opts: &Opts,
        reference: Measured,
        traced: Measured,
    ) -> Outcome {
        let mut metrics = traced.per_layer;
        metrics.insert(
            "harness.trace_overhead_share",
            if reference.ops_per_s > 0.0 {
                1.0 - traced.ops_per_s / reference.ops_per_s
            } else {
                0.0
            },
        );
        let mut problems = reference.problems;
        problems.extend(traced.problems);
        Outcome {
            workload: workload.to_string(),
            seed: opts.seed,
            traced: true,
            metrics,
            attempted: reference.attempted + traced.attempted,
            failed: reference.failed + traced.failed,
            problems,
            phases: vec![reference.phases, traced.phases],
            trace: traced.trace,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The metrics this run must report, in declaration order, each with
    /// its value. `Err` names a declared metric the run did not produce, a
    /// produced one that is not declared, or a value that is not a number.
    pub fn declared<'s>(&self, spec: &'s Spec) -> Result<Vec<(&'s Metric, f64)>, String> {
        let declared = if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|name| !declared.iter().any(|d| d.name == **name))
        {
            return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
        }
        declared
            .iter()
            .map(|d| match self.metrics.get(d.name.as_str()) {
                Some(v) if v.is_finite() => Ok((d, *v)),
                Some(v) => Err(format!("metric {} is {v}, not a number", d.name)),
                None => Err(format!("declared metric {} was not measured", d.name)),
            })
            .collect()
    }

    /// Prints the phase timings, the problems and one line per metric, and
    /// returns the summary object (printed last by the caller).
    pub fn print(&self, spec: &Spec) -> Result<Value, String> {
        for (i, p) in self.phases.iter().enumerate() {
            let setups: Vec<String> = p.setups_s.iter().map(|s| format!("{s:.3}")).collect();
            println!(
                "# {} phases[{i}]: set-up {} s, warm-up {:.3} s, window {:.3} s, drain {:.3} s",
                self.workload,
                setups.join(" "),
                p.warm_s,
                p.window_s,
                p.drain_s
            );
        }
        for problem in &self.problems {
            println!("# {} problem: {problem}", self.workload);
        }
        let values = self.declared(spec)?;
        for (d, v) in &values {
            println!("{} {} {v} {}", self.workload, d.name, d.unit);
        }
        let metrics = values.iter().map(|(d, v)| {
            let entry = Value::obj([("value", Value::Num(*v)), ("unit", d.unit.as_str().into())]);
            (d.name.clone(), entry)
        });
        Ok(Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ]))
    }

    /// Writes `run_<workload>_<seed>[_traced].json` (and the trace file of
    /// a traced run) into `dir`.
    pub fn write(&self, dir: &Path, summary: &Value, env: &Value) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tag = if self.traced { "_traced" } else { "" };
        let result = Value::obj([
            ("workload", Value::from(self.workload.as_str())),
            ("seed", Value::Num(self.seed as f64)),
            ("traced", Value::Bool(self.traced)),
            ("summary", summary.clone()),
            (
                "problems",
                Value::Arr(self.problems.iter().map(|p| p.as_str().into()).collect()),
            ),
            ("environment", env.clone()),
        ]);
        let name = format!("run_{}_{}{tag}.json", self.workload, self.seed);
        std::fs::write(dir.join(name), format!("{result}\n"))?;
        if let Some(trace) = &self.trace {
            let name = format!("trace_{}.json", self.workload);
            std::fs::write(dir.join(name), format!("{trace}\n"))?;
        }
        Ok(())
    }
}
