//! # plwg-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation, the four ablations and
//! two deterministic counter sweeps are experiments in this library, each a
//! function that runs its deterministic simulation, asserts the paper's
//! claim on the numbers it just computed, and returns its text. The one
//! binary, `reproduce`, runs them and writes `results/<name>.txt` (and
//! `BENCH_pack.json` / `BENCH_scale.json` for the two sweeps); CI
//! regenerates every file and fails on any byte of difference. See
//! `EXPERIMENTS.md` at the repository root for the recorded outputs next
//! to the paper's claims. Performance is measured elsewhere: by the
//! repository's one benchmark (`BENCHMARK.json`, `benchmark/`); the only
//! bench target here is the codec micro-bench `benches/wire.rs`.
//!
//! | experiment | reproduces |
//! |---|---|
//! | `fig2_latency` | Figure 2, data-transfer latency vs. #groups |
//! | `fig2_throughput` | Figure 2, throughput vs. #groups |
//! | `fig2_recovery` | Figure 2, crash-recovery time vs. #groups |
//! | `tab3_naming_merge` | Table 3, merged naming database |
//! | `tab4_evolution` | Table 4, naming database through the heal |
//! | `ablation_heal_sweep` | §6.4 single-flush claim (Fig. 5) + heal-time sweep |
//! | `ablation_interference` | §2/§3.3 interference quantification |
//! | `ablation_policy_params` | §3.2 policy stability vs. `k_m`/`k_c` |
//! | `ablation_ns_callback` | §6.1 callbacks vs. polling load |
//! | `sharing_efficiency` | §1 motivation, overlapping subscriptions |
//! | `pack_sweep` | extension: message packing + subset delivery (`BENCH_pack.json`) |
//! | `lwg_scale_sweep` | extension: sharded directory + rebalancer from 1k to 100k LWGs (`BENCH_scale.json`) |
//!
//! Underneath are the three service configurations compared in Figure 2
//! (*no LWG service*, *static LWG service*, *dynamic LWG service*), the
//! two-disjoint-sets workload of §3.3, partition/heal schedules, and
//! measurement probes (latency, throughput, recovery time, reconvergence
//! time, message counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod fig2;
mod heal;
mod interference;
mod mode;
mod overlap;
mod pack;
mod report;
mod scale;
mod tables;
mod twosets;

pub use report::write_json_rows;

/// Reads the process's live heap bytes (allocated minus freed). The scale
/// sweep needs it and only a binary can install the counting allocator.
pub type LiveBytes = fn() -> u64;

/// What one experiment produces.
pub struct Output {
    /// The text of `results/<name>.txt`.
    pub text: String,
    /// One JSON row's `"key": value` pairs per row, for the experiments
    /// that also write a `BENCH_*.json` ([`Experiment::json`]).
    pub rows: Vec<String>,
}

impl From<String> for Output {
    fn from(text: String) -> Self {
        Output {
            text,
            rows: Vec::new(),
        }
    }
}

/// One experiment: a table, a figure, an ablation or a sweep.
pub struct Experiment {
    /// Its name, and the stem of its `results/` file.
    pub name: &'static str,
    /// The `BENCH_*.json` its rows go to, if any.
    pub json: Option<&'static str>,
    /// Runs it. Panics if the paper's claim does not hold on the result.
    pub run: fn(LiveBytes) -> Output,
}

/// Every experiment, in the order `reproduce` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig2_latency",
        json: None,
        run: |_| fig2::latency(),
    },
    Experiment {
        name: "fig2_throughput",
        json: None,
        run: |_| fig2::throughput(),
    },
    Experiment {
        name: "fig2_recovery",
        json: None,
        run: |_| fig2::recovery(),
    },
    Experiment {
        name: "tab3_naming_merge",
        json: None,
        run: |_| tables::tab3(),
    },
    Experiment {
        name: "tab4_evolution",
        json: None,
        run: |_| tables::tab4(),
    },
    Experiment {
        name: "ablation_heal_sweep",
        json: None,
        run: |_| heal::sweep(),
    },
    Experiment {
        name: "ablation_interference",
        json: None,
        run: |_| interference::ablation(),
    },
    Experiment {
        name: "ablation_policy_params",
        json: None,
        run: |_| ablations::policy_params(),
    },
    Experiment {
        name: "ablation_ns_callback",
        json: None,
        run: |_| ablations::ns_callback(),
    },
    Experiment {
        name: "sharing_efficiency",
        json: None,
        run: |_| overlap::sharing_efficiency(),
    },
    Experiment {
        name: "pack_sweep",
        json: Some("BENCH_pack.json"),
        run: |_| pack::sweep(),
    },
    Experiment {
        name: "lwg_scale_sweep",
        json: Some("BENCH_scale.json"),
        run: scale::sweep,
    },
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use std::path::Path;

    /// Every experiment has its recorded result files, and every recorded
    /// `results/*.txt` and `BENCH_*.json` belongs to an experiment.
    #[test]
    fn experiments_and_result_files_match_one_to_one() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for e in EXPERIMENTS {
            let txt = root.join("results").join(format!("{}.txt", e.name));
            assert!(txt.is_file(), "{} has no {}", e.name, txt.display());
            if let Some(json) = e.json {
                assert!(root.join(json).is_file(), "{} has no {json}", e.name);
            }
        }
        let names = |dir: &Path| -> Vec<String> {
            let entries = std::fs::read_dir(dir).expect("readable directory");
            entries
                .map(|e| {
                    e.expect("readable entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .collect()
        };
        for file in names(&root.join("results")) {
            let stem = file.strip_suffix(".txt").unwrap_or("");
            assert!(
                !file.ends_with(".txt") || EXPERIMENTS.iter().any(|e| e.name == stem),
                "results/{file} belongs to no experiment"
            );
        }
        for file in names(&root) {
            assert!(
                !(file.starts_with("BENCH_") && file.ends_with(".json"))
                    || EXPERIMENTS.iter().any(|e| e.json == Some(file.as_str())),
                "{file} belongs to no experiment"
            );
        }
    }
}
