//! Extension experiment: **mapping quality under overlapping
//! subscriptions** — the paper's §1 motivation (the Swiss Exchange ran "as
//! many as 50 groups that may overlap") quantified.
//!
//! N subject groups with random 3–5-process subscriber sets over 8
//! processes. The dynamic service should use far fewer HWGs than subjects
//! (resource sharing) while keeping the backing HWG close to each subject's
//! own membership (bounded interference).

use plwg_bench::overlap::{run_overlap, OverlapParams};
use plwg_bench::Table;
use plwg_sim::SimDuration;

fn main() {
    println!("Mapping quality: N overlapping subject groups over 8 processes");
    println!("(subscribers drawn per subject: 3..=5; dynamic service)\n");
    let mut table = Table::new(&[
        "subjects",
        "distinct HWGs",
        "HWGs/node",
        "switches",
        "overhead |HWG|/|LWG|",
        "converged",
    ]);
    for &subjects in &[4usize, 8, 16, 32] {
        let r = run_overlap(&OverlapParams {
            subjects,
            processes: 8,
            subscribers: (3, 5),
            seed: 9,
            settle: SimDuration::from_secs(90),
        });
        table.row(&[
            subjects.to_string(),
            r.distinct_hwgs.to_string(),
            format!("{:.1}", r.avg_hwgs_per_node),
            r.switches.to_string(),
            format!("{:.2}", r.mean_overhead),
            r.converged.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("A stand-alone-group deployment would use exactly N HWGs; the");
    println!("service collapses overlapping subjects onto a small pool while");
    println!("the overhead column bounds the interference each subject pays.");
}
