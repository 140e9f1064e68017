//! `plwg-benchmark` — the repo's one benchmark (declared in
//! `/BENCHMARK.json`; described in `benchmark/README.md`).
//!
//! ```text
//! plwg-benchmark run --workload W --seed N [--seconds S] [--trace 0|1 | --traced] [--out DIR]
//! plwg-benchmark run --smoke
//! plwg-benchmark compare <dirA> <dirB>
//! ```
#![deny(unsafe_code)]

mod alloc;
mod compare;
mod env;
mod host;
mod json;
mod layers;
mod net_pair;
mod report;
mod sim_data;
mod sim_heal;
mod simworld;
mod spec;
mod stats;
mod trace;
mod wire_replay;

use json::Value;
use report::{Measured, Opts, Outcome};
use sim_data::Shape;
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  plwg-benchmark run --workload W --seed N [--seconds S] [--trace 0|1 | --traced] [--out DIR]
  plwg-benchmark run --smoke
  plwg-benchmark compare <dirA> <dirB>";

/// Chunks (cycles, for the heal workload) the count-based metrics of a
/// simulator workload are taken over.
fn prefix_of(workload: &str) -> usize {
    match workload {
        "sim_heal_128" => 16,
        _ => 64,
    }
}

fn measure(workload: &str, opts: &Opts) -> Result<Measured, String> {
    match workload {
        "sim_fanin_64b" => sim_data::measure(Shape::Fanin, opts),
        "sim_solo_1k" => sim_data::measure(Shape::Solo, opts),
        "sim_heal_128" => sim_heal::measure(opts),
        "net_pair_64b" => net_pair::measure(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One run: the end-to-end metrics, or — traced — an untraced reference
/// over half the time followed by the traced window over the other half.
fn run_one(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    if !opts.traced {
        return Ok(Outcome::end_to_end(
            workload,
            opts,
            measure(workload, opts)?,
        ));
    }
    let half = Opts {
        seconds: opts.seconds / 2.0,
        setups: 1,
        prefix: 1,
        traced: false,
        ..opts.clone()
    };
    let reference = measure(workload, &half)?;
    let traced = measure(
        workload,
        &Opts {
            traced: true,
            ..half
        },
    )?;
    Ok(Outcome::per_layer(workload, opts, reference, traced))
}

/// The summary of a run that could not be carried out.
fn failure_summary() -> Value {
    Value::obj([
        ("correct", Value::Bool(false)),
        ("attempted", Value::Num(1.0)),
        ("failed", Value::Num(1.0)),
        ("metrics", Value::obj::<String>([])),
    ])
}

/// Prints a finished run and writes its result file. `Ok(true)` when the
/// run was correct.
fn conclude(
    spec: &Spec,
    outcome: &Outcome,
    out_dir: Option<&Path>,
) -> Result<(bool, Value), String> {
    let summary = outcome.print(spec)?;
    if let Some(dir) = out_dir {
        // The result file is a convenience for `compare`; a read-only
        // checkout must not fail the run.
        if let Err(e) = outcome.write(dir, &summary, &env::environment()) {
            println!("# could not write results into {}: {e}", dir.display());
        }
    }
    Ok((outcome.correct(), summary))
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        out: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load()?;
    let args = parse_run(args)?;
    if args.smoke {
        return smoke(&spec);
    }
    let workload = args
        .workload
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !spec.workloads.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        return Err(format!(
            "unknown workload {workload}; BENCHMARK.json declares {}",
            names.join(", ")
        ));
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        setups: 3,
        prefix: prefix_of(&workload),
        traced: args.traced,
    };
    let summary = match run_one(&workload, &opts).and_then(|o| conclude(&spec, &o, Some(&args.out)))
    {
        Ok((correct, summary)) => {
            println!("{summary}");
            return Ok(correct);
        }
        Err(e) => e,
    };
    // A wait ran out, a socket could not be bound, or a metric went
    // missing: one line of diagnosis, every op failed, non-zero exit.
    println!("# {workload} problem: {summary}");
    eprintln!("plwg-benchmark: {workload}: {summary}");
    println!("{}", failure_summary());
    Ok(false)
}

/// All four workloads and one traced run, short, with the same checks.
fn smoke(spec: &Spec) -> Result<bool, String> {
    let started = Instant::now();
    let mut all_correct = true;
    let mut runs: Vec<(&str, f64, bool)> = spec
        .workloads
        .iter()
        .map(|(name, _)| {
            let seconds = match name.as_str() {
                "net_pair_64b" => 1.0,
                "sim_heal_128" => 0.1,
                _ => 0.3,
            };
            (name.as_str(), seconds, false)
        })
        .collect();
    runs.push(("sim_fanin_64b", 0.6, true));
    for (workload, seconds, traced) in runs {
        let opts = Opts {
            seed: 1,
            seconds,
            setups: 1,
            prefix: if workload == "sim_heal_128" { 1 } else { 4 },
            traced,
        };
        let (correct, _) = conclude(spec, &run_one(workload, &opts)?, None)?;
        all_correct &= correct;
    }
    println!(
        "# smoke: {} in {:.1} s",
        if all_correct { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => Spec::load()
            .and_then(|spec| compare::compare(&spec, Path::new(&args[1]), Path::new(&args[2]))),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("plwg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload emits exactly the declared end-to-end metrics, the
    /// traced run exactly the declared per-layer metrics, and a correct
    /// run says so — at smoke size, with the checks of a full run.
    #[test]
    fn every_declared_metric_is_emitted_and_nothing_else() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let mut seen_nonzero = std::collections::BTreeSet::new();
        for (workload, _) in &spec.workloads {
            for traced in [false, true] {
                // One traced simulator data workload stands for both.
                if traced && workload == "sim_solo_1k" {
                    continue;
                }
                let opts = Opts {
                    seed: 7,
                    seconds: if workload == "net_pair_64b" { 0.6 } else { 0.2 },
                    setups: 1,
                    prefix: if workload == "sim_heal_128" { 1 } else { 4 },
                    traced,
                };
                let outcome = run_one(workload, &opts).expect("the run completes");
                assert!(outcome.correct(), "{workload}: {:?}", outcome.problems);
                let values = outcome.declared(&spec).expect("declared == emitted");
                let declared = if traced {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                assert_eq!(values.len(), declared.len());
                for (metric, v) in values {
                    if traced && v != 0.0 {
                        seen_nonzero.insert(metric.name.clone());
                    }
                    assert!(traced || v > 0.0, "{workload} {} = {v}", metric.name);
                }
            }
        }
        // Per-layer metrics may be 0 where a layer is bypassed, but each
        // must be live on at least one workload. Counts of rare events
        // (repairs, drops) are legitimately 0 on a healthy run; a heal needs
        // no LWG-level flush (the HWG's flush serves every LWG), and on the
        // pinned heal path every LWG is whole again before the name
        // servers' next gossip round reconciles them.
        let rare = [
            "core.lwg_flushes_per_cycle",
            "naming.reconciliations_per_cycle",
            "vsync.nacks_per_kop",
            "vsync.resends_per_kop",
            "vsync.dups_per_kop",
            "net.queue_dropped",
            "core.filtered_per_op",
        ];
        for metric in &spec.per_layer {
            assert!(
                seen_nonzero.contains(&metric.name) || rare.contains(&metric.name.as_str()),
                "{} was 0 on every traced workload",
                metric.name
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_run(&args("--workload w --seed 9 --seconds 2.5 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload.as_deref(), ok.seed, ok.seconds, ok.traced),
            (Some("w"), 9, Some(2.5), true)
        );
        assert!(parse_run(&args("--traced")).expect("valid").traced);
        for bad in [
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}
