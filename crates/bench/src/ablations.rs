//! Ablations C and D: the mapping policy's thresholds, and name-server
//! callbacks against polling.

use crate::report::{page, Table};
use crate::Output;
use plwg_core::{LwgConfig, LwgId};
use plwg_naming::NamingConfig;
use plwg_obs::scenarios::{agree, join_staggered, run_until, Node, Scenario};
use plwg_sim::{SimDuration, SimTime, World};
use plwg_vsync::VsyncStack;

/// One policy-threshold run: a 2-member LWG joins after an 8-member one.
/// Returns the switch count and whether the two ended on different HWGs.
fn policy_run(k_m: u32, k_c: u32) -> (u64, bool) {
    const BIG: LwgId = LwgId(1);
    const SMALL: LwgId = LwgId(2);
    let cfg = LwgConfig {
        k_m,
        k_c,
        policy_interval: SimDuration::from_secs(5),
        ..LwgConfig::default()
    };
    let scenario = Scenario {
        lwg: cfg,
        ..Scenario::new(17, 8)
    };
    let (mut w, _, apps) = scenario.build::<VsyncStack>();
    let gap = SimDuration::from_millis(300);
    // Big group over all 8 → one 8-member HWG.
    let now = w.now();
    join_staggered::<VsyncStack>(&mut w, BIG, &apps, now, gap);
    w.run_for(SimDuration::from_secs(12));
    // Small group of 2 → optimistically mapped onto the big HWG.
    let now = w.now();
    join_staggered::<VsyncStack>(&mut w, SMALL, &apps[..2], now, gap);
    // Several policy rounds.
    w.run_for(SimDuration::from_secs(40));
    let switches = w.metrics().counter(plwg_core::keys::SWITCHES);
    let separated = w.inspect(apps[0], |a: &Node| {
        a.service_ref().mapping_of(BIG) != a.service_ref().mapping_of(SMALL)
    });
    (switches, separated)
}

/// `ablation_policy_params`: mapping-policy behaviour vs. the `k_m`/`k_c`
/// thresholds of paper Figure 1 (§3.2: "poorly chosen local heuristics lead
/// to instability").
///
/// A small (2-member) LWG is optimistically mapped onto a big (8-member)
/// HWG. Whether the interference rule rescues it depends on `k_m` (how
/// lopsided the mapping must be) and, once it moves, `k_c` (how snug the
/// target must fit).
pub(crate) fn policy_params() -> Output {
    let mut table = Table::new(&["k_m", "k_c", "switches", "separated"]);
    for k_m in [1, 2, 4, 8] {
        for k_c in [1, 4] {
            let (switches, separated) = policy_run(k_m, k_c);
            table.row(&[
                k_m.to_string(),
                k_c.to_string(),
                switches.to_string(),
                separated.to_string(),
            ]);
        }
    }
    page(
        "Policy thresholds: a 2-member LWG optimistically mapped on an\n\
         8-member HWG; does the interference rule separate it, and how\n\
         many switches does the run perform?",
        &table,
        "k_m in 2..=4 (the paper's prototype used 4): the 2-of-8 minority\n\
         moves to its own HWG in one clean switch. k_m = 1 with loose\n\
         thresholds keeps re-evaluating — the instability §3.2 warns about.\n\
         k_m = 8 never treats 2-of-8 as a minority: interference persists.\n",
    )
}

/// What one callbacks-or-polling run cost.
struct Load {
    reads: u64,
    callbacks: u64,
    reconverged: Option<SimDuration>,
}

/// One run: `lwgs` groups founded in two partitions, healed at 25 s, with
/// callbacks (`poll` is `None`) or polling every `poll`.
fn callback_run(poll: Option<SimDuration>, lwgs: u64) -> Load {
    let naming = NamingConfig {
        push_callbacks: poll.is_none(),
        ..NamingConfig::default()
    };
    let cfg = LwgConfig {
        ns_poll_interval: poll,
        ..LwgConfig::default()
    };
    let scenario = Scenario {
        naming,
        lwg: cfg,
        ..Scenario::new(23, 4)
    };
    let (mut w, servers, apps) = scenario.build::<VsyncStack>();
    // Found the groups in two partitions → inconsistent mappings on heal.
    w.split_at(
        SimTime::from_secs(1),
        vec![
            vec![servers[0], apps[0], apps[1]],
            vec![servers[1], apps[2], apps[3]],
        ],
    );
    let gap = SimDuration::from_millis(400);
    for g in 1..=lwgs {
        let start = SimTime::from_secs(2) + SimDuration::from_millis(100 * g);
        for side in apps.chunks(2) {
            join_staggered::<VsyncStack>(&mut w, LwgId(g), side, start, gap);
        }
    }
    let t_heal = SimTime::from_secs(25);
    w.run_until(t_heal);
    let reads_before = w.metrics().counter(plwg_naming::keys::READS);
    let callbacks_before = w.metrics().counter(plwg_naming::keys::CALLBACKS);
    w.heal_at(t_heal);

    // Wait for every group to span all four members again.
    let whole = |w: &mut World| (1..=lwgs).all(|g| agree::<VsyncStack>(w, LwgId(g), &apps));
    let step = SimDuration::from_millis(250);
    let reconverged = run_until(&mut w, step, SimDuration::from_secs(95), whole)
        .map(|t| t.saturating_since(t_heal));
    // Run on a while to account for steady-state polling load.
    w.run_until(SimTime::from_secs(120));
    Load {
        reads: w.metrics().counter(plwg_naming::keys::READS) - reads_before,
        callbacks: w.metrics().counter(plwg_naming::keys::CALLBACKS) - callbacks_before,
        reconverged,
    }
}

/// `ablation_ns_callback`: MULTIPLE-MAPPINGS **callbacks vs. polling**
/// (paper §6.1: "One possible way is to require group members to
/// periodically inquire one of the reachable name servers. Unfortunately,
/// this could load the servers with unnecessary requests. Instead, we use
/// the callback approach."): the name-server request load and the
/// reconciliation latency of the same partition/heal scenario.
pub(crate) fn ns_callback() -> Output {
    let mut table = Table::new(&["lwgs", "variant", "ns reads", "callbacks", "reconverge"]);
    for lwgs in [2, 8] {
        for (label, poll) in [
            ("callback", None),
            ("poll 1s", Some(SimDuration::from_secs(1))),
            ("poll 5s", Some(SimDuration::from_secs(5))),
        ] {
            let load = callback_run(poll, lwgs);
            table.row(&[
                lwgs.to_string(),
                label.to_owned(),
                load.reads.to_string(),
                load.callbacks.to_string(),
                load.reconverged
                    .map_or_else(|| "TIMEOUT".into(), |d| format!("{d}")),
            ]);
        }
    }
    page(
        "Callbacks vs. polling for global peer discovery (paper §6.1)\n\
         (4 nodes, groups founded in two partitions, heal at t=25s;\n \
         request counts cover the heal plus 95s of steady state)",
        &table,
        "Callbacks: server work only while an inconsistency exists.\n\
         Polling: steady read load forever, and reconciliation waits for\n\
         the next poll — slower heal at lower cost only if polled rarely.\n",
    )
}
