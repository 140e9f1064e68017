//! The causal timeline: trace events ordered and linked by their
//! [`EventRefs`].
//!
//! The simulator is single-threaded and deterministic, so the emission
//! order of [`TraceEvent`]s is already a total order consistent with
//! causality. The timeline keeps that order and adds explicit *cause*
//! edges wherever two events share protocol identity:
//!
//! * **view lineage** — an event about view `v` is caused by the previous
//!   event about `v`, and by the events that introduced each of `v`'s
//!   predecessor views (`refs.parents`);
//! * **flush identity** — an event of flush `f` is caused by the previous
//!   event of `f` (so `hwg.flush.start → hwg.flush.member → …` chains up).

use plwg_sim::{EventRefs, NodeId, SimTime, Trace, TraceEvent, TraceLayer};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One event on the timeline, with its causal predecessors resolved to
/// timeline sequence numbers.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Position in the timeline (index into [`Timeline::entries`]).
    pub seq: usize,
    /// Simulated time of the event.
    pub time: SimTime,
    /// Emitting node (`None` for world-level fault injection).
    pub node: Option<NodeId>,
    /// The protocol layer that emitted the event.
    pub layer: TraceLayer,
    /// Canonical event kind (e.g. `lwg.merge`).
    pub kind: &'static str,
    /// Human-readable details.
    pub detail: String,
    /// The layer-agnostic protocol references the event carried.
    pub refs: EventRefs,
    /// Sequence numbers of the events this one is causally linked to.
    pub causes: Vec<usize>,
}

impl std::fmt::Display for TimelineEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let node = match self.node {
            Some(n) => n.to_string(),
            None => "world".to_string(),
        };
        write!(
            f,
            "#{:04} [{} {} {}] {}: {}",
            self.seq, self.time, node, self.layer, self.kind, self.detail
        )?;
        if !self.causes.is_empty() {
            let list: Vec<String> = self.causes.iter().map(|c| format!("#{c:04}")).collect();
            write!(f, "   <- {}", list.join(" "))?;
        }
        Ok(())
    }
}

/// A causally-linked, cross-node ordering of a run's protocol events.
#[derive(Debug, Default)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// Builds the timeline from a recorded trace, resolving the causal
    /// links described in the module docs.
    pub fn build(trace: &Trace) -> Self {
        Self::from_events(trace.events())
    }

    /// Builds the timeline from a slice of trace events (already in
    /// emission order).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        // Last timeline position that mentioned a given view / flush key.
        let mut view_last: BTreeMap<(u32, u64), usize> = BTreeMap::new();
        let mut flush_last: BTreeMap<(u32, u64), usize> = BTreeMap::new();
        let mut entries = Vec::with_capacity(events.len());
        for (seq, ev) in events.iter().enumerate() {
            let mut causes: BTreeSet<usize> = BTreeSet::new();
            if let Some(f) = ev.refs.flush {
                if let Some(&prev) = flush_last.get(&f) {
                    causes.insert(prev);
                }
                flush_last.insert(f, seq);
            }
            for p in &ev.refs.parents {
                if let Some(&prev) = view_last.get(p) {
                    causes.insert(prev);
                }
            }
            if let Some(v) = ev.refs.view {
                if let Some(&prev) = view_last.get(&v) {
                    causes.insert(prev);
                }
                view_last.insert(v, seq);
            }
            entries.push(TimelineEntry {
                seq,
                time: ev.time,
                node: ev.node,
                layer: ev.layer,
                kind: ev.kind,
                detail: ev.detail.clone(),
                refs: ev.refs.clone(),
                causes: causes.into_iter().collect(),
            });
        }
        Timeline { entries }
    }

    /// All entries, in causally-consistent emission order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Entries of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TimelineEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Entries whose refs mention light-weight group `lwg`.
    pub fn of_lwg(&self, lwg: u64) -> impl Iterator<Item = &TimelineEntry> {
        self.entries.iter().filter(move |e| e.refs.lwg == Some(lwg))
    }

    /// Renders the whole timeline, one entry per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// The paper's four-step heal procedure (§6), extracted from the run:
    /// every entry from the heal fault (or the first naming
    /// reconciliation, whichever exists) onward whose kind participates in
    /// the procedure — naming reconciliation, MULTIPLE-MAPPINGS callbacks,
    /// mapping switches, and the MERGE-VIEWS flush with the merges it
    /// produced — in causal order.
    pub fn heal_procedure(&self) -> Vec<&TimelineEntry> {
        const HEAL_KINDS: &[&str] = &[
            "world.heal",
            "ns.reconcile",
            "ns.multiple_mappings",
            "lwg.reconcile",
            "lwg.switch.start",
            "lwg.switch.complete",
            "hwg.merge.start",
            "hwg.merge.accept",
            "hwg.merge.complete",
            "lwg.merge",
        ];
        let start = self
            .entries
            .iter()
            .position(|e| e.kind == "world.heal")
            .unwrap_or(0);
        self.entries[start..]
            .iter()
            .filter(|e| HEAL_KINDS.contains(&e.kind))
            .collect()
    }

    /// The `lwg.merge` entries of one group — the single
    /// MERGE-VIEWS conclusion per healed LWG the paper's Fig. 5 promises.
    pub fn merges_of(&self, lwg: u64) -> Vec<&TimelineEntry> {
        self.of_kind("lwg.merge")
            .filter(|e| e.refs.lwg == Some(lwg))
            .collect()
    }
}

/// A view id as [`EventRefs`] carry it: `(coordinator, seq)`.
pub type ViewKey = (u32, u64);

/// A forked view lineage: `view` of LWG `lwg` has two installed
/// successors, and neither is an ancestor of the other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fork {
    /// The light-weight group.
    pub lwg: u64,
    /// The view with two unordered successors.
    pub view: ViewKey,
    /// The two successors, in ascending order.
    pub successors: [ViewKey; 2],
}

/// Every forked LWG view lineage in `trace`, ascending by group and view.
///
/// Only `lwg.view.install` events count: a view some node installed, with
/// the predecessors it names. A partition forks a lineage on purpose: each
/// side prunes the view, and the merge that heals it names both branches.
/// A run that never splits should have no fork; when one has, some members
/// left a view for a branch that does not name it, and the naming
/// database (paper §5.2) is left with a mapping nothing supersedes.
pub fn forks_of(trace: &Trace) -> Vec<Fork> {
    let mut forks = Vec::new();
    for (&lwg, preds) in &lineages(trace) {
        let mut successors: BTreeMap<ViewKey, Vec<ViewKey>> = BTreeMap::new();
        for (&view, parents) in preds {
            for &p in *parents {
                successors.entry(p).or_default().push(view);
            }
        }
        for (view, next) in successors {
            let unordered = next.iter().enumerate().find_map(|(i, &s)| {
                next.get(i + 1..)?
                    .iter()
                    .find(|&&t| !is_ancestor(preds, s, t) && !is_ancestor(preds, t, s))
                    .map(|&t| [s, t])
            });
            if let Some(successors) = unordered {
                forks.push(Fork {
                    lwg,
                    view,
                    successors,
                });
            }
        }
    }
    forks
}

/// A merge of two views of one lineage chain: `merged` of LWG `lwg` names
/// both `ancestor` and `descendant`, a view the ancestor precedes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AncestorMerge {
    /// The light-weight group.
    pub lwg: u64,
    /// The merged view.
    pub merged: ViewKey,
    /// The earlier of the two merged views.
    pub ancestor: ViewKey,
    /// The later one, which the ancestor precedes.
    pub descendant: ViewKey,
}

/// Every `lwg.merge` in `trace` whose predecessors include two views of one
/// lineage chain, in trace order; ancestry is read from the installed views,
/// as [`forks_of`] reads it.
///
/// A merge round merges only concurrent views, so such a merge means some
/// member still held a view its group had moved past — an announced
/// successor it never installed — and the round took that old view for a
/// concurrent branch.
pub fn ancestor_merges_of(trace: &Trace) -> Vec<AncestorMerge> {
    let lineages = lineages(trace);
    let mut found = Vec::new();
    for ev in trace.events().iter().filter(|e| e.kind == "lwg.merge") {
        let (Some(lwg), Some(merged)) = (ev.refs.lwg, ev.refs.view) else {
            continue;
        };
        let Some(preds) = lineages.get(&lwg) else {
            continue;
        };
        let parents = &ev.refs.parents;
        let pair = parents.iter().find_map(|&a| {
            let d = parents.iter().find(|&&d| is_ancestor(preds, a, d))?;
            Some((a, *d))
        });
        if let Some((ancestor, descendant)) = pair {
            found.push(AncestorMerge {
                lwg,
                merged,
                ancestor,
                descendant,
            });
        }
    }
    found
}

/// Per LWG, every view some node installed in `trace`, with the
/// predecessors it names (`lwg.view.install` events only).
fn lineages(trace: &Trace) -> BTreeMap<u64, BTreeMap<ViewKey, &[ViewKey]>> {
    let mut lineage: BTreeMap<u64, BTreeMap<ViewKey, &[ViewKey]>> = BTreeMap::new();
    for ev in trace
        .events()
        .iter()
        .filter(|e| e.kind == "lwg.view.install")
    {
        if let (Some(lwg), Some(view)) = (ev.refs.lwg, ev.refs.view) {
            lineage
                .entry(lwg)
                .or_default()
                .insert(view, &ev.refs.parents);
        }
    }
    lineage
}

/// Whether `a` precedes `b` in the lineage `preds`.
fn is_ancestor(preds: &BTreeMap<ViewKey, &[ViewKey]>, a: ViewKey, b: ViewKey) -> bool {
    let mut stack = vec![b];
    let mut seen = BTreeSet::new();
    while let Some(v) = stack.pop() {
        for &p in preds.get(&v).copied().unwrap_or_default() {
            if p == a {
                return true;
            }
            if seen.insert(p) {
                stack.push(p);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_core::LwgProtocolEvent;
    use plwg_hwg::{view_key, View, ViewId};
    use plwg_naming::{LwgId, NamingEvent};
    use plwg_sim::NodeId;

    fn mini_heal_trace() -> Trace {
        let mut t = Trace::new(true);
        let n1 = NodeId(1);
        let n3 = NodeId(3);
        let va = ViewId::new(n1, 2);
        let vb = ViewId::new(n3, 2);
        let t1 = SimTime::from_micros(1_000_000);
        t.record(t1, Some(NodeId(0)), || NamingEvent::Reconcile {
            changed: vec![LwgId(1)],
        });
        t.record(t1, Some(NodeId(0)), || NamingEvent::MultipleMappings {
            lwg: LwgId(1),
            mappings: 2,
            targets: vec![n1, n3],
        });
        let merged = View::with_predecessors(ViewId::new(n1, 3), vec![n1, n3], vec![va, vb]);
        // The concurrent views enter the record via installs…
        t.record(t1, Some(n1), || LwgProtocolEvent::ViewInstall {
            lwg: LwgId(1),
            view: View::initial(va, vec![n1]),
            hwg: plwg_hwg::HwgId(7),
        });
        t.record(t1, Some(n3), || LwgProtocolEvent::ViewInstall {
            lwg: LwgId(1),
            view: View::initial(vb, vec![n3]),
            hwg: plwg_hwg::HwgId(9),
        });
        // …and the merge links back to both of them.
        t.record(SimTime::from_micros(2_000_000), Some(n1), || {
            LwgProtocolEvent::Merge {
                lwg: LwgId(1),
                concurrent: vec![va, vb],
                merged,
            }
        });
        t
    }

    #[test]
    fn merge_is_caused_by_both_concurrent_views() {
        let trace = mini_heal_trace();
        let tl = Timeline::build(&trace);
        let merge = tl.of_kind("lwg.merge").next().expect("merge entry");
        // The two ViewInstall entries are seq 2 and 3.
        assert_eq!(merge.causes, vec![2, 3]);
        assert_eq!(tl.merges_of(1).len(), 1);
        let refs = &merge.refs;
        let trace_views: Vec<(u32, u64)> = vec![
            view_key(ViewId::new(NodeId(1), 2)),
            view_key(ViewId::new(NodeId(3), 2)),
        ];
        assert_eq!(refs.parents, trace_views);
    }

    #[test]
    fn heal_procedure_orders_the_four_steps() {
        let trace = mini_heal_trace();
        let tl = Timeline::build(&trace);
        let steps: Vec<&str> = tl.heal_procedure().iter().map(|e| e.kind).collect();
        assert_eq!(
            steps,
            vec!["ns.reconcile", "ns.multiple_mappings", "lwg.merge"]
        );
    }

    /// `lwg.view.install` of view `(c, s)` naming `preds`, at node `c`.
    fn install(t: &mut Trace, (c, s): (u32, u64), preds: &[(u32, u64)]) {
        let view = View::with_predecessors(
            ViewId::new(NodeId(c), s),
            vec![NodeId(c)],
            preds
                .iter()
                .map(|&(c, s)| ViewId::new(NodeId(c), s))
                .collect(),
        );
        t.record(SimTime::ZERO, Some(NodeId(c)), || {
            LwgProtocolEvent::ViewInstall {
                lwg: LwgId(1),
                view,
                hwg: plwg_hwg::HwgId(7),
            }
        });
    }

    #[test]
    fn forks_are_two_unordered_successors() {
        // A chain, with a later view also naming an ancestor, and a merge
        // of two roots: no fork.
        let mut t = Trace::new(true);
        install(&mut t, (1, 1), &[]);
        install(&mut t, (1, 2), &[(1, 1)]);
        install(&mut t, (1, 3), &[(1, 2), (1, 1)]);
        install(&mut t, (2, 1), &[]);
        install(&mut t, (1, 4), &[(1, 3), (2, 1)]);
        // Installed at two nodes, a view still counts once.
        install(&mut t, (1, 4), &[(1, 3), (2, 1)]);
        assert_eq!(forks_of(&t), vec![]);
        // A flush and a merge that both succeed (1, 4).
        install(&mut t, (1, 5), &[(1, 4)]);
        install(&mut t, (3, 1), &[]);
        install(&mut t, (1, 6), &[(1, 4), (3, 1)]);
        assert_eq!(
            forks_of(&t),
            vec![Fork {
                lwg: 1,
                view: (1, 4),
                successors: [(1, 5), (1, 6)],
            }]
        );
    }

    /// `lwg.merge` into view `(c, s)` of the views `preds`, at node `c`.
    fn merge(t: &mut Trace, (c, s): (u32, u64), preds: &[(u32, u64)]) {
        let concurrent: Vec<ViewId> = preds
            .iter()
            .map(|&(c, s)| ViewId::new(NodeId(c), s))
            .collect();
        let merged = View::with_predecessors(
            ViewId::new(NodeId(c), s),
            vec![NodeId(c)],
            concurrent.clone(),
        );
        t.record(SimTime::ZERO, Some(NodeId(c)), || LwgProtocolEvent::Merge {
            lwg: LwgId(1),
            concurrent,
            merged,
        });
    }

    #[test]
    fn a_merge_naming_a_view_and_its_descendant_is_flagged() {
        let mut t = Trace::new(true);
        install(&mut t, (2, 3), &[]);
        install(&mut t, (2, 4), &[(2, 3)]);
        install(&mut t, (2, 5), &[(2, 4)]);
        install(&mut t, (7, 1), &[]);
        // Two branches, and a view outside the recorded lineage.
        merge(&mut t, (2, 6), &[(2, 5), (7, 1), (9, 9)]);
        assert_eq!(ancestor_merges_of(&t), vec![]);
        // A laggard's view merged with its group's descendant of it.
        merge(&mut t, (2, 7), &[(2, 3), (2, 5)]);
        assert_eq!(
            ancestor_merges_of(&t),
            vec![AncestorMerge {
                lwg: 1,
                merged: (2, 7),
                ancestor: (2, 3),
                descendant: (2, 5),
            }]
        );
    }

    /// Runs that never split never fork a view lineage.
    #[test]
    fn quickstart_and_churn_do_not_fork() {
        for world in [crate::scenarios::quickstart(), crate::scenarios::churn()] {
            assert_eq!(forks_of(world.trace()), vec![]);
        }
    }

    #[test]
    fn render_contains_cause_arrows() {
        let trace = mini_heal_trace();
        let tl = Timeline::build(&trace);
        let text = tl.render();
        assert!(text.contains("lwg.merge"));
        assert!(text.contains("<- #0002 #0003"));
    }
}
