//! Partition-heal experiments: how long reconciliation takes and how much
//! protocol work it costs, as a function of how many LWGs share the HWG.
//!
//! This quantifies the claim of paper §6.4: the MERGE-VIEWS protocol
//! (Fig. 5) merges *all* concurrent views of *all* LWGs mapped on an HWG
//! with a **single** forced HWG flush, so both the reconvergence time and
//! the number of HWG flushes should stay (nearly) flat as the LWG count
//! grows, while the number of LWG view merges grows linearly — each merge
//! is a single extra multicast, not a flush.

use crate::mode::{BenchNode, ServiceMode};
use crate::report::{page, Table};
use crate::Output;
use plwg_core::LwgConfig;
use plwg_obs::scenarios::{run_until, Scenario};
use plwg_sim::{SimDuration, World};

/// Parameters of one heal run.
#[derive(Debug, Clone)]
pub(crate) struct HealParams {
    /// Number of LWGs sharing the one HWG.
    pub(crate) lwgs: usize,
    /// Total member processes (split half/half by the partition).
    pub(crate) members: usize,
    /// Deterministic seed.
    pub(crate) seed: u64,
}

/// Measurements from one heal run.
#[derive(Debug, Clone)]
pub(crate) struct HealResult {
    /// Time from the heal until every LWG at every member shows the full
    /// membership again.
    pub(crate) reconverge: SimDuration,
    /// HWG flushes executed between heal and reconvergence (the paper's
    /// single-flush claim: this should not grow with `lwgs`).
    pub(crate) hwg_flushes: u64,
    /// LWG view merges performed.
    pub(crate) lwg_merges: u64,
}

/// Runs the heal experiment: bring up `lwgs` groups over one HWG,
/// partition the members half/half, let concurrent views form, heal, and
/// measure reconvergence.
///
/// # Panics
///
/// Panics if bring-up or reconvergence does not complete within generous
/// virtual-time limits (a protocol bug).
pub(crate) fn run_heal(params: &HealParams) -> HealResult {
    assert!(params.members >= 2, "need at least two members to split");
    let scenario = Scenario::new(params.seed, params.members);
    let (mut world, servers, apps) = scenario.build_with(|me, servers| {
        BenchNode::new(me, ServiceMode::Dynamic, servers, LwgConfig::default())
    });

    // Bring up all LWGs (same full membership → one shared HWG).
    for g in 1..=params.lwgs as u64 {
        for (i, &m) in apps.iter().enumerate() {
            let t = world.now()
                + SimDuration::from_millis(200 * g)
                + SimDuration::from_millis(400 * i as u64);
            world.invoke_at(t, m, move |n: &mut BenchNode, ctx| {
                n.join_group(ctx, g, i == 0)
            });
        }
    }
    let whole = |w: &mut World| (1..=params.lwgs as u64).all(|g| BenchNode::is_whole(w, g, &apps));
    let step = SimDuration::from_millis(250);
    run_until(&mut world, step, SimDuration::from_secs(300), whole)
        .expect("heal experiment did not come up within 300 s");

    // Partition half/half (name servers split too, one per side).
    let half = params.members / 2;
    let mut side_a = vec![servers[0]];
    side_a.extend(&apps[..half]);
    let mut side_b = vec![servers[1]];
    side_b.extend(&apps[half..]);
    let t_split = world.now() + SimDuration::from_secs(1);
    world.split_at(t_split, vec![side_a, side_b]);
    // Let each side settle into its concurrent views.
    world.run_until(t_split + SimDuration::from_secs(15));

    let flushes_before = world.metrics().counter(plwg_vsync::keys::FLUSHES);
    let merges_before = world.metrics().counter(plwg_core::keys::VIEWS_MERGED);
    let t_heal = world.now();
    world.heal_at(t_heal);
    let reconverged_at = run_until(&mut world, step, SimDuration::from_secs(120), whole)
        .expect("heal experiment did not reconverge within 120 s");

    HealResult {
        reconverge: reconverged_at.saturating_since(t_heal),
        hwg_flushes: world.metrics().counter(plwg_vsync::keys::FLUSHES) - flushes_before,
        lwg_merges: world.metrics().counter(plwg_core::keys::VIEWS_MERGED) - merges_before,
    }
}

/// `ablation_heal_sweep`: ablation A and the §6.4 single-flush claim.
/// Asserts the claim: the HWG flushes at 32 co-mapped LWGs are no more
/// than at 2, and every row merges each LWG exactly once.
pub(crate) fn sweep() -> Output {
    let mut table = Table::new(&["lwgs", "reconverge", "hwg flushes", "lwg merges"]);
    let mut flushes = Vec::new();
    for lwgs in [1, 2, 4, 8, 16, 32] {
        let r = run_heal(&HealParams {
            lwgs,
            members: 4,
            seed: 7,
        });
        table.row(&[
            lwgs.to_string(),
            format!("{}", r.reconverge),
            r.hwg_flushes.to_string(),
            r.lwg_merges.to_string(),
        ]);
        assert_eq!(r.lwg_merges, lwgs as u64, "Fig. 5: one merge per LWG");
        flushes.push(r.hwg_flushes);
    }
    assert!(
        flushes[5] <= flushes[1],
        "Fig. 5: {} HWG flushes at 32 LWGs against {} at 2",
        flushes[5],
        flushes[1]
    );
    page(
        "Heal cost vs. number of LWGs co-mapped on the healed HWG\n\
         (4 members split 2/2, partition heals, full reconvergence)",
        &table,
        "The paper's claim (§6.4): one flush serves all co-mapped groups —\n\
         'Resource sharing is promoted because a flush for each light-weight\n\
         group is avoided.'\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heal_smoke() {
        let r = run_heal(&HealParams {
            lwgs: 2,
            members: 4,
            seed: 7,
        });
        assert!(r.reconverge > SimDuration::ZERO);
        assert!(r.reconverge < SimDuration::from_secs(60));
        assert!(r.lwg_merges >= 1, "concurrent views must have merged");
    }
}
