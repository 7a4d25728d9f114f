//! Reference counts of active faults, one per (fault kind, component).
//!
//! Overlapping campaigns cannot flip component state directly: two
//! concurrent `LinkDown`s on one node must keep the link down until
//! *both* recover. Every fault counts itself in on inject and out on
//! recover, and the cluster changes the underlying state (fabric flags,
//! substrate error modes, process freeze) only on the 0→1 and →0 edges.
//! Non-overlapping campaigns take exactly the edges of a direct flip.

use std::collections::BTreeMap;

use mendosus::{FaultKind, FaultSpec};
use simnet::fabric::NodeId;

/// What a fault acts on: faults of one kind on one component share a
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Component {
    Switch,
    Node(usize),
    /// A node pair, lower id first, so either order names one count.
    Pair(usize, usize),
}

impl Component {
    fn of(spec: &FaultSpec) -> Self {
        match spec.kind {
            FaultKind::SwitchDown => Component::Switch,
            FaultKind::PartialPartition => {
                let peer = spec.peer.expect("partition specs always carry a peer");
                let (a, b) = (spec.node.0, peer.0);
                Component::Pair(a.min(b), a.max(b))
            }
            _ => Component::Node(spec.node.0),
        }
    }
}

#[derive(Debug, Default)]
pub(super) struct FaultLedger {
    /// Active faults per key; a key leaves the map at count 0.
    active: BTreeMap<(FaultKind, Component), u32>,
}

impl FaultLedger {
    /// Counts `spec` in (`inject`) or out, and reports whether its
    /// component changed state: 0→1 on inject, →0 on recover.
    ///
    /// # Panics
    ///
    /// Panics when recovering a fault that was never injected, which
    /// is a campaign bug.
    pub fn edge(&mut self, spec: &FaultSpec, inject: bool) -> bool {
        let key = (spec.kind, Component::of(spec));
        if inject {
            let count = self.active.entry(key).or_insert(0);
            *count += 1;
            return *count == 1;
        }
        let count = self
            .active
            .get_mut(&key)
            .expect("recovering a fault that was never injected");
        *count -= 1;
        let cleared = *count == 0;
        if cleared {
            self.active.remove(&key);
        }
        cleared
    }

    /// Whether a `kind` fault is active on `node`.
    pub fn active(&self, kind: FaultKind, node: NodeId) -> bool {
        self.active.contains_key(&(kind, Component::Node(node.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimTime};

    fn spec(kind: FaultKind, node: usize) -> FaultSpec {
        let second = SimDuration::from_secs(1);
        FaultSpec::transient(kind, NodeId(node), SimTime::ZERO, second)
    }

    #[test]
    fn overlapping_link_faults_keep_the_link_down_until_both_recover() {
        let mut ledger = FaultLedger::default();
        let link = spec(FaultKind::LinkDown, 1);
        assert!(
            ledger.edge(&link, true),
            "the first fault takes the link down"
        );
        assert!(!ledger.edge(&link, true));
        assert!(!ledger.edge(&link, false), "one fault still holds it");
        assert!(ledger.active(FaultKind::LinkDown, NodeId(1)));
        assert!(ledger.edge(&link, false), "the last recovery brings it up");
        assert!(!ledger.active(FaultKind::LinkDown, NodeId(1)));
    }

    #[test]
    fn partition_keys_are_symmetric_and_vanish_at_zero() {
        let mut ledger = FaultLedger::default();
        let second = SimDuration::from_secs(1);
        let ab = FaultSpec::partial_partition(NodeId(0), NodeId(2), SimTime::ZERO, second);
        let mut ba = ab.clone();
        (ba.node, ba.peer) = (NodeId(2), Some(NodeId(0)));
        assert!(ledger.edge(&ab, true));
        assert!(!ledger.edge(&ba, true), "(2, 0) is the same pair as (0, 2)");
        assert!(!ledger.edge(&ab, false));
        assert!(ledger.edge(&ba, false));
        assert!(ledger.active.is_empty(), "{:?}", ledger.active);
    }

    #[test]
    fn the_switch_is_one_component_whichever_node_a_spec_names() {
        let mut ledger = FaultLedger::default();
        assert!(ledger.edge(&spec(FaultKind::SwitchDown, 0), true));
        assert!(!ledger.edge(&spec(FaultKind::SwitchDown, 3), true));
        assert!(!ledger.edge(&spec(FaultKind::SwitchDown, 0), false));
        assert!(ledger.edge(&spec(FaultKind::SwitchDown, 3), false));
    }

    #[test]
    fn crash_and_hang_are_counted_apart_and_queried_per_node() {
        let mut ledger = FaultLedger::default();
        assert!(ledger.edge(&spec(FaultKind::NodeCrash, 2), true));
        assert!(
            ledger.edge(&spec(FaultKind::NodeHang, 2), true),
            "own count"
        );
        assert!(ledger.active(FaultKind::NodeCrash, NodeId(2)));
        assert!(!ledger.active(FaultKind::NodeCrash, NodeId(1)));
        assert!(ledger.edge(&spec(FaultKind::NodeCrash, 2), false));
        assert!(!ledger.active(FaultKind::NodeCrash, NodeId(2)));
        assert!(ledger.active(FaultKind::NodeHang, NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "recovering a fault that was never injected")]
    fn recovering_a_fault_that_was_never_injected_panics() {
        FaultLedger::default().edge(&spec(FaultKind::LinkDown, 0), false);
    }
}
