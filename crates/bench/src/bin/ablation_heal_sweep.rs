//! Ablation A + the §6.4 single-flush claim: partition-heal cost as a
//! function of how many LWGs share the healed HWG.
//!
//! The MERGE-VIEWS protocol (paper Fig. 5) merges all concurrent views of
//! all co-mapped LWGs with one forced HWG flush, so both the reconvergence
//! time and the number of HWG flushes should stay (nearly) flat as the LWG
//! count grows, while the number of LWG view merges grows linearly — each
//! merge is a single extra multicast, not a flush.

use plwg_bench::{run_heal_sweep, Table};

fn main() {
    println!("Heal cost vs. number of LWGs co-mapped on the healed HWG");
    println!("(4 members split 2/2, partition heals, full reconvergence)\n");
    let results = run_heal_sweep(&[1, 2, 4, 8, 16, 32], 4, 7);
    let mut table = Table::new(&["lwgs", "reconverge", "hwg flushes", "lwg merges"]);
    for r in &results {
        table.row(&[
            r.lwgs.to_string(),
            format!("{}", r.reconverge),
            r.hwg_flushes.to_string(),
            r.lwg_merges.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("The paper's claim (§6.4): one flush serves all co-mapped groups —");
    println!("'Resource sharing is promoted because a flush for each light-weight");
    println!("group is avoided.'");
}
