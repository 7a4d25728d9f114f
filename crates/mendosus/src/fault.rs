//! The fault catalogue (Table 2 of the paper) and fault specifications.

use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime};
use transport::MsgClass;

/// Every fault class the study injects — Table 2 verbatim — plus the
/// gray (degraded-but-alive) extensions. Table 2 lists fail-stop and
/// fail-fast classes only; real clusters also see components that keep
/// answering health checks while performing badly, so the catalogue
/// grows three gray classes (listed in [`FaultKind::GRAY`], kept out of
/// [`FaultKind::ALL`] to preserve the Table 2 correspondence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// A node's link to the switch fails (fail-stop).
    LinkDown,
    /// The switch fails (fail-stop): total intra-cluster partition.
    SwitchDown,
    /// Hard reboot: the node's NIC and memory contents are lost.
    NodeCrash,
    /// The node freezes (and later resumes where it left off).
    NodeHang,
    /// Kernel skbuf allocation fails for intra-cluster communication.
    KernelAllocFail,
    /// Memory-locking (pinning) requests fail.
    MemPinFail,
    /// The application process receives SIGSTOP (later SIGCONT).
    AppHang,
    /// The application process is killed (the daemon restarts it).
    AppCrash,
    /// A NULL data pointer is passed to a send call.
    BadParamNull,
    /// The data pointer passed to a send call is off by N bytes.
    BadParamOffPtr,
    /// The size passed to a send call is off by N bytes.
    BadParamOffSize,
    /// Gray: the node's link stays up but runs degraded — every frame
    /// crossing it picks up extra latency and a periodic silent drop.
    /// No NIC error is ever raised, so TCP and VIA both believe the
    /// link is healthy.
    LinkDegraded,
    /// Gray: the node runs slow-but-alive — every CPU charge is
    /// multiplied, so heartbeats still answer while service throughput
    /// collapses.
    CpuThrottle,
    /// Gray: the switch silently refuses to forward between one pair of
    /// nodes (both of whose links stay up), so the two halves of the
    /// pair disagree with the rest of the cluster about who is alive.
    PartialPartition,
}

impl FaultKind {
    /// All catalogue entries, in Table 2 order.
    pub const ALL: [FaultKind; 11] = [
        FaultKind::LinkDown,
        FaultKind::SwitchDown,
        FaultKind::NodeCrash,
        FaultKind::NodeHang,
        FaultKind::KernelAllocFail,
        FaultKind::MemPinFail,
        FaultKind::AppHang,
        FaultKind::AppCrash,
        FaultKind::BadParamNull,
        FaultKind::BadParamOffPtr,
        FaultKind::BadParamOffSize,
    ];

    /// The gray extensions: degraded-but-alive faults with
    /// transport-visible effects but no fail-stop signal.
    pub const GRAY: [FaultKind; 3] = [
        FaultKind::LinkDegraded,
        FaultKind::CpuThrottle,
        FaultKind::PartialPartition,
    ];

    /// The fault category column of Table 2 ("Gray" for the
    /// degraded-but-alive extensions, which Table 2 does not cover).
    pub fn category(self) -> &'static str {
        match self {
            FaultKind::LinkDown | FaultKind::SwitchDown => "Network hardware",
            FaultKind::NodeCrash | FaultKind::NodeHang => "Node",
            FaultKind::KernelAllocFail | FaultKind::MemPinFail => "Resource exhaustion",
            FaultKind::LinkDegraded | FaultKind::CpuThrottle | FaultKind::PartialPartition => {
                "Gray"
            }
            _ => "Application",
        }
    }

    /// Whether this is a gray (degraded-but-alive) fault: the component
    /// misbehaves without ever raising a fail-stop signal, so substrate
    /// error paths (TCP connection breaks, VIA teardown) never fire and
    /// only end-to-end observation can notice.
    pub fn is_gray(self) -> bool {
        FaultKind::GRAY.contains(&self)
    }

    /// The fault name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LinkDown => "Link fault",
            FaultKind::SwitchDown => "Switch fault",
            FaultKind::NodeCrash => "Node crash",
            FaultKind::NodeHang => "Node hang",
            FaultKind::KernelAllocFail => "Kernel memory allocation fault",
            FaultKind::MemPinFail => "Memory locking",
            FaultKind::AppHang => "Application hang",
            FaultKind::AppCrash => "Application crash",
            FaultKind::BadParamNull => "Bad parameters: NULL pointer",
            FaultKind::BadParamOffPtr => "Bad parameters: off-by-N data pointer",
            FaultKind::BadParamOffSize => "Bad parameters: off-by-N size",
            FaultKind::LinkDegraded => "Link degradation (gray)",
            FaultKind::CpuThrottle => "CPU throttle (gray)",
            FaultKind::PartialPartition => "Partial partition (gray)",
        }
    }

    /// Example error sources, from Table 2.
    pub fn example_sources(self) -> &'static str {
        match self {
            FaultKind::LinkDown => "faulty cable, accidental unplugging, mis-configuration",
            FaultKind::SwitchDown => "power failure, software bug, mis-configuration",
            FaultKind::NodeCrash => "operator error, OS bug, hardware fault, power failure",
            FaultKind::NodeHang => "OS bug, OS recovering after killing faulty process",
            FaultKind::KernelAllocFail => {
                "system low on (kernel) memory / out of virtual address space"
            }
            FaultKind::MemPinFail => "out of pinnable physical memory",
            FaultKind::AppHang => "application bugs, paging effects",
            FaultKind::AppCrash => "application bugs, operator mis-termination",
            FaultKind::BadParamNull | FaultKind::BadParamOffPtr | FaultKind::BadParamOffSize => {
                "uninitialized pointers, logical error, pointer corruption, stale memory handle (RDMA)"
            }
            FaultKind::LinkDegraded => "failing cable/transceiver, duplex mismatch, CRC retries",
            FaultKind::CpuThrottle => "thermal throttling, noisy neighbor, memory pressure paging",
            FaultKind::PartialPartition => "switch TCAM corruption, asymmetric routing, VLAN mis-configuration",
        }
    }

    /// How the injector realizes the fault in the simulated cluster.
    pub fn mechanism(self) -> &'static str {
        match self {
            FaultKind::LinkDown => "fabric: mark the target node's link down",
            FaultKind::SwitchDown => "fabric: mark the switch down",
            FaultKind::NodeCrash => {
                "fabric + process: NIC dead, process and memory lost, reboot on recovery"
            }
            FaultKind::NodeHang => "freeze the whole node; resume in place on recovery",
            FaultKind::KernelAllocFail => "transport: skbuf allocation calls return errors",
            FaultKind::MemPinFail => {
                "transport: memory-locking threshold drops to the current usage"
            }
            FaultKind::AppHang => "daemon sends SIGSTOP; SIGCONT on recovery",
            FaultKind::AppCrash => "daemon kills the process; restart on recovery",
            FaultKind::BadParamNull | FaultKind::BadParamOffPtr | FaultKind::BadParamOffSize => {
                "interposition layer corrupts the next matching send call"
            }
            FaultKind::LinkDegraded => {
                "fabric: add per-hop latency and periodic silent loss on the node's link"
            }
            FaultKind::CpuThrottle => "cpu: multiply every charged cost on the node",
            FaultKind::PartialPartition => {
                "fabric: switch silently refuses to forward between the node pair"
            }
        }
    }

    /// Whether the fault is a one-shot event (bad parameters) rather
    /// than a condition with a duration.
    pub fn is_one_shot(self) -> bool {
        matches!(
            self,
            FaultKind::BadParamNull | FaultKind::BadParamOffPtr | FaultKind::BadParamOffSize
        )
    }

    /// Whether the fault targets a specific node (everything except the
    /// switch fault).
    pub fn targets_node(self) -> bool {
        self != FaultKind::SwitchDown
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault to inject: what, where, when, and for how long.
///
/// The derived `Ord` (field declaration order: kind, node, at,
/// duration, class, off_n, peer) gives specs a total order; the
/// campaign layer uses it as the final tie-break so same-instant
/// actions replay in one documented, deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultSpec {
    /// The fault class.
    pub kind: FaultKind,
    /// The target node (ignored for [`FaultKind::SwitchDown`]).
    pub node: NodeId,
    /// Injection time.
    pub at: SimTime,
    /// Duration for transient faults; `None` means permanent (no
    /// recovery within the run).
    pub duration: Option<SimDuration>,
    /// For bad-parameter faults: the call class to corrupt.
    pub class: MsgClass,
    /// For off-by-N faults: the offset N in bytes (paper: 0..=100).
    pub off_n: u32,
    /// For [`FaultKind::PartialPartition`]: the other end of the
    /// blocked pair. `None` for every other kind.
    pub peer: Option<NodeId>,
}

impl FaultSpec {
    /// A transient fault of `kind` on `node`, active `[at, at+duration)`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a one-shot bad-parameter fault (use
    /// [`FaultSpec::bad_param`]) or a partial partition (use
    /// [`FaultSpec::partial_partition`], which names both ends).
    pub fn transient(kind: FaultKind, node: NodeId, at: SimTime, duration: SimDuration) -> Self {
        assert!(
            !kind.is_one_shot(),
            "{kind} is a one-shot fault; use FaultSpec::bad_param"
        );
        assert!(
            kind != FaultKind::PartialPartition,
            "partial partitions need a peer; use FaultSpec::partial_partition"
        );
        FaultSpec {
            kind,
            node,
            at,
            duration: Some(duration),
            class: MsgClass::FileData,
            off_n: 0,
            peer: None,
        }
    }

    /// A permanent fault of `kind` on `node` starting at `at`.
    pub fn permanent(kind: FaultKind, node: NodeId, at: SimTime) -> Self {
        assert!(!kind.is_one_shot(), "{kind} is a one-shot fault");
        assert!(
            kind != FaultKind::PartialPartition,
            "partial partitions need a peer; use FaultSpec::partial_partition"
        );
        FaultSpec {
            kind,
            node,
            at,
            duration: None,
            class: MsgClass::FileData,
            off_n: 0,
            peer: None,
        }
    }

    /// A transient gray partition: the switch silently stops forwarding
    /// between `a` and `b` for `[at, at+duration)`. Both links stay up
    /// and no error is raised anywhere.
    ///
    /// The pair is normalized (lower node id becomes the target) so two
    /// specs naming the same pair in either order compare equal.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn partial_partition(a: NodeId, b: NodeId, at: SimTime, duration: SimDuration) -> Self {
        assert!(a != b, "a partition needs two distinct nodes");
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        FaultSpec {
            kind: FaultKind::PartialPartition,
            node: lo,
            at,
            duration: Some(duration),
            class: MsgClass::FileData,
            off_n: 0,
            peer: Some(hi),
        }
    }

    /// A one-shot bad-parameter fault corrupting the next `class` send
    /// on `node` at or after `at`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a bad-parameter fault, or if `off_n`
    /// exceeds 100 (the observed dominant range per §4.3).
    pub fn bad_param(
        kind: FaultKind,
        node: NodeId,
        at: SimTime,
        class: MsgClass,
        off_n: u32,
    ) -> Self {
        assert!(kind.is_one_shot(), "{kind} is not a bad-parameter fault");
        assert!(off_n <= 100, "off-by-N offsets are 0..=100 bytes");
        FaultSpec {
            kind,
            node,
            at,
            duration: None,
            class,
            off_n,
            peer: None,
        }
    }

    /// When the faulty component recovers, if the fault is transient.
    pub fn recovery_at(&self) -> Option<SimTime> {
        self.duration.map(|d| self.at + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_table_2() {
        assert_eq!(FaultKind::ALL.len(), 11);
        let categories: Vec<&str> = FaultKind::ALL.iter().map(|k| k.category()).collect();
        assert_eq!(
            categories
                .iter()
                .filter(|c| **c == "Network hardware")
                .count(),
            2
        );
        assert_eq!(categories.iter().filter(|c| **c == "Node").count(), 2);
        assert_eq!(
            categories
                .iter()
                .filter(|c| **c == "Resource exhaustion")
                .count(),
            2
        );
        assert_eq!(
            categories.iter().filter(|c| **c == "Application").count(),
            5
        );
    }

    #[test]
    fn every_kind_has_prose() {
        for k in FaultKind::ALL {
            assert!(!k.name().is_empty());
            assert!(!k.example_sources().is_empty());
            assert!(!k.mechanism().is_empty());
            assert_eq!(k.to_string(), k.name());
        }
    }

    #[test]
    fn transient_fault_has_a_recovery_time() {
        let f = FaultSpec::transient(
            FaultKind::LinkDown,
            NodeId(2),
            SimTime::from_secs(30),
            SimDuration::from_secs(90),
        );
        assert_eq!(f.recovery_at(), Some(SimTime::from_secs(120)));
    }

    #[test]
    fn permanent_fault_never_recovers() {
        let f = FaultSpec::permanent(FaultKind::SwitchDown, NodeId(0), SimTime::from_secs(5));
        assert_eq!(f.recovery_at(), None);
    }

    #[test]
    #[should_panic(expected = "not a bad-parameter fault")]
    fn bad_param_rejects_condition_faults() {
        FaultSpec::bad_param(
            FaultKind::LinkDown,
            NodeId(0),
            SimTime::ZERO,
            MsgClass::FileData,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "one-shot")]
    fn transient_rejects_one_shot_faults() {
        FaultSpec::transient(
            FaultKind::BadParamNull,
            NodeId(0),
            SimTime::ZERO,
            SimDuration::from_secs(1),
        );
    }

    #[test]
    #[should_panic(expected = "0..=100")]
    fn off_n_range_is_validated() {
        FaultSpec::bad_param(
            FaultKind::BadParamOffPtr,
            NodeId(0),
            SimTime::ZERO,
            MsgClass::FileData,
            101,
        );
    }

    #[test]
    fn only_switch_fault_is_nodeless() {
        for k in FaultKind::ALL {
            assert_eq!(k.targets_node(), k != FaultKind::SwitchDown);
        }
    }

    #[test]
    fn gray_catalogue_is_disjoint_from_table_2() {
        assert_eq!(FaultKind::GRAY.len(), 3);
        for k in FaultKind::GRAY {
            assert!(k.is_gray());
            assert!(!FaultKind::ALL.contains(&k));
            assert_eq!(k.category(), "Gray");
            assert!(!k.name().is_empty());
            assert!(!k.example_sources().is_empty());
            assert!(!k.mechanism().is_empty());
            assert!(!k.is_one_shot());
        }
        for k in FaultKind::ALL {
            assert!(!k.is_gray());
        }
    }

    #[test]
    fn partial_partition_normalizes_the_pair() {
        let fwd = FaultSpec::partial_partition(
            NodeId(3),
            NodeId(1),
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
        );
        let rev = FaultSpec::partial_partition(
            NodeId(1),
            NodeId(3),
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
        );
        assert_eq!(fwd, rev);
        assert_eq!(fwd.node, NodeId(1));
        assert_eq!(fwd.peer, Some(NodeId(3)));
        assert_eq!(fwd.recovery_at(), Some(SimTime::from_secs(15)));
    }

    #[test]
    #[should_panic(expected = "two distinct nodes")]
    fn partition_rejects_self_pairs() {
        FaultSpec::partial_partition(
            NodeId(2),
            NodeId(2),
            SimTime::ZERO,
            SimDuration::from_secs(1),
        );
    }

    #[test]
    #[should_panic(expected = "need a peer")]
    fn transient_rejects_peerless_partitions() {
        FaultSpec::transient(
            FaultKind::PartialPartition,
            NodeId(0),
            SimTime::ZERO,
            SimDuration::from_secs(1),
        );
    }

    #[test]
    fn specs_have_a_total_order_for_tie_breaking() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_secs(5);
        let a = FaultSpec::transient(FaultKind::LinkDown, NodeId(0), t, d);
        let b = FaultSpec::transient(FaultKind::LinkDown, NodeId(1), t, d);
        let c = FaultSpec::transient(FaultKind::NodeCrash, NodeId(0), t, d);
        assert!(a < b, "same kind orders by node");
        assert!(b < c, "kind dominates node (declaration order)");
        let mut v = vec![c.clone(), b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }
}
