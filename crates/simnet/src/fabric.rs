//! Intra-cluster network fabric model.
//!
//! The paper's test-bed is four nodes on a 1 Gb/s Giganet cLAN: one NIC
//! per node, one link per NIC, and a single switch. [`Fabric`] models that
//! topology with per-endpoint serialization (bandwidth), per-hop latency,
//! bounded queueing, and fail-stop faults on links, the switch, and nodes.
//!
//! The fabric is *mechanism only*: it reports why a frame was lost
//! ([`LossReason`]) and leaves the reaction to the transport. TCP treats
//! every loss as silent (retransmit later); VIA's fail-stop model treats
//! losses as connection-fatal. This split is the heart of the paper's
//! "match the fault model of the fabric" argument.

use crate::time::{SimDuration, SimTime};

/// Identifies a cluster node (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A frame handed to the fabric for transmission.
///
/// The fabric only inspects the header fields; `payload` rides along for
/// the caller to deliver to the destination transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<P> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Wire size in bytes (payload plus protocol headers).
    pub bytes: u32,
    /// Opaque transport payload.
    pub payload: P,
}

/// Why a frame did not arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossReason {
    /// The sender's own link is down — observable by the sending NIC.
    SrcLinkDown,
    /// The destination's link is down.
    DstLinkDown,
    /// The switch is down.
    SwitchDown,
    /// The destination node is crashed (NIC unpowered).
    DstNodeDown,
    /// The sending node is crashed; nothing leaves a dead NIC.
    SrcNodeDown,
    /// Sender-side queue exceeded its backlog bound.
    TxQueueOverrun,
    /// Receiver-side queue exceeded its backlog bound.
    RxQueueOverrun,
    /// Dropped by explicit fault injection (transient packet loss).
    Injected,
    /// Dropped on a gray (degraded) link: the link is nominally up, so
    /// neither NIC raises an error — the frame just never arrives.
    LinkDegraded,
    /// Dropped inside the switch by a partial partition: the switch can
    /// no longer forward between this pair of ports, but both links
    /// stay up and no error is reported anywhere.
    Partitioned,
}

impl LossReason {
    /// Whether the *sending NIC* can observe this loss synchronously.
    ///
    /// A SAN with hop-by-hop flow control reports local link failures and
    /// backpressure at the source; remote conditions are only visible
    /// end-to-end.
    pub fn sender_observable(self) -> bool {
        matches!(
            self,
            LossReason::SrcLinkDown | LossReason::SrcNodeDown | LossReason::TxQueueOverrun
        )
    }

    /// Whether the loss is *gray*: no component anywhere reports an
    /// error, so the transport must not receive a failure notification
    /// — the frame silently vanishes and only end-to-end timeouts can
    /// notice. This is what distinguishes gray faults from the
    /// fail-stop loss reasons above (which the composition layer turns
    /// into `transmit_failed` callbacks).
    pub fn silent(self) -> bool {
        matches!(self, LossReason::LinkDegraded | LossReason::Partitioned)
    }
}

/// Result of handing one frame to [`Fabric::transmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The frame will arrive at the destination NIC at `at`.
    Delivered {
        /// Arrival time at the destination.
        at: SimTime,
    },
    /// The frame was lost.
    Lost {
        /// Why it was lost.
        reason: LossReason,
    },
}

impl TransmitOutcome {
    /// The arrival time if delivered.
    pub fn delivery_time(self) -> Option<SimTime> {
        match self {
            TransmitOutcome::Delivered { at } => Some(at),
            TransmitOutcome::Lost { .. } => None,
        }
    }
}

// The paper's 1 Gb/s Giganet cLAN, fixed for every run (§5.1).

/// One-way propagation plus NIC processing latency per link hop.
pub const LINK_LATENCY: SimDuration = SimDuration::from_micros(5);
/// Forwarding latency of every switch a frame crosses except a fat
/// tree's spine.
pub const SWITCH_LATENCY: SimDuration = SimDuration::from_micros(1);
/// Forwarding latency of a fat tree's spine switch.
pub const SPINE_LATENCY: SimDuration = SimDuration::from_micros(2);
/// Per-endpoint bandwidth in bytes per second (1 Gb/s).
pub const BANDWIDTH: u64 = 125_000_000;
/// Sender-side backlog (time depth) past which frames drop.
pub const MAX_TX_BACKLOG: SimDuration = SimDuration::from_millis(20);
/// Receiver-side backlog (time depth) past which frames drop.
pub const MAX_RX_BACKLOG: SimDuration = SimDuration::from_millis(20);
/// Nodes a partial partition can name: the width of the per-node
/// partition masks. [`Fabric::set_pair_blocked`] rejects a node at or
/// past it.
pub const PARTITION_NODES: usize = 64;

/// Physical switch arrangement of the fabric.
///
/// [`Topology::Star`] is the paper's single-switch cLAN: every pair of
/// nodes is two link hops and one switch apart. [`Topology::FatTree`]
/// is a two-level leaf/spine fabric for clusters that outgrow one
/// switch: node `i` attaches to leaf switch `i / leaf_radix`; same-leaf
/// traffic crosses only its leaf, while cross-leaf traffic additionally
/// climbs to a spine switch and back down (two extra link hops, one
/// extra leaf, and [`SPINE_LATENCY`]). The up/down fault flags are
/// fabric-wide regardless of topology: a switch fault kills forwarding
/// everywhere (modelled as the common spine failing closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One switch; uniform pairwise latency.
    Star,
    /// Two-level leaf/spine fat tree.
    FatTree {
        /// Nodes per leaf switch (node `i` sits under leaf
        /// `i / leaf_radix`).
        leaf_radix: usize,
    },
}

impl Topology {
    /// One-way propagation latency from `src`'s NIC to `dst`'s switch
    /// port (excludes serialization and gray penalties).
    pub fn path_latency(self, src: NodeId, dst: NodeId) -> SimDuration {
        let same_switch = LINK_LATENCY + SWITCH_LATENCY + LINK_LATENCY;
        match self {
            Topology::FatTree { leaf_radix } if src.0 / leaf_radix != dst.0 / leaf_radix => {
                // Up to the spine and back down: two more link hops,
                // the spine and the second leaf switch.
                same_switch + LINK_LATENCY + LINK_LATENCY + SPINE_LATENCY + SWITCH_LATENCY
            }
            _ => same_switch,
        }
    }
}

/// Serialization time of `bytes` at [`BANDWIDTH`] (at least one
/// nanosecond).
pub fn wire_time(bytes: u32) -> SimDuration {
    let nanos = u64::from(bytes) * 1_000_000_000 / BANDWIDTH;
    SimDuration::from_nanos(nanos.max(1))
}

/// One in every this-many frames crossing a degraded link is lost.
pub const GRAY_DROP_PERIOD: u32 = 50;

/// Extra one-way latency added per degraded endpoint a frame crosses
/// (a flapping negotiation / CRC-retry penalty).
pub const GRAY_EXTRA_LATENCY: SimDuration = SimDuration::from_micros(150);

/// Counters describing fabric activity, for assertions and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames delivered.
    pub delivered: u64,
    /// Frames lost for any reason.
    pub lost: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
}

/// The switched cluster network.
///
/// # Example
///
/// ```
/// use simnet::fabric::{Fabric, Frame, NodeId, Topology, TransmitOutcome};
/// use simnet::SimTime;
///
/// let mut fabric = Fabric::new(4, Topology::Star);
/// let frame = Frame { src: NodeId(0), dst: NodeId(1), bytes: 1024, payload: () };
/// match fabric.transmit(SimTime::ZERO, &frame) {
///     TransmitOutcome::Delivered { at } => assert!(at > SimTime::ZERO),
///     TransmitOutcome::Lost { reason } => panic!("healthy fabric lost a frame: {reason:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    topology: Topology,
    link_up: Vec<bool>,
    node_up: Vec<bool>,
    switch_up: bool,
    tx_busy: Vec<SimTime>,
    rx_busy: Vec<SimTime>,
    /// Number of upcoming frames to drop per (src) — fault injection.
    drop_next_from: Vec<u32>,
    /// Frames each node has sent across a degraded (gray) link; every
    /// [`GRAY_DROP_PERIOD`]-th such frame is dropped.
    gray_seq: Vec<u32>,
    /// Gray state: per-node degradation and pairwise partition masks.
    degraded: Vec<bool>,
    blocked: Vec<u64>,
    stats: FabricStats,
}

impl Fabric {
    /// Creates a healthy `n`-node fabric of the cLAN's hops arranged as
    /// `topology`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a one-node cluster has no fabric paths), or if
    /// a fat tree's `leaf_radix < 2` (a radix-1 "leaf" is a patch
    /// cable, not a switch).
    pub fn new(n: usize, topology: Topology) -> Self {
        assert!(n >= 2, "a fabric needs at least 2 nodes (got {n})");
        if let Topology::FatTree { leaf_radix } = topology {
            assert!(
                leaf_radix >= 2,
                "fat tree needs at least 2 nodes per leaf switch (got {leaf_radix})"
            );
        }
        Fabric {
            topology,
            link_up: vec![true; n],
            node_up: vec![true; n],
            switch_up: true,
            tx_busy: vec![SimTime::ZERO; n],
            rx_busy: vec![SimTime::ZERO; n],
            drop_next_from: vec![0; n],
            gray_seq: vec![0; n],
            degraded: vec![false; n],
            blocked: vec![0; n],
            stats: FabricStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Sets the state of `node`'s link (fault injection).
    pub fn set_link_up(&mut self, node: NodeId, up: bool) {
        self.link_up[node.0] = up;
    }

    /// Sets the switch state (fault injection).
    pub fn set_switch_up(&mut self, up: bool) {
        self.switch_up = up;
    }

    /// Marks a node as crashed (NIC dead) or alive.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.node_up[node.0] = up;
    }

    /// Marks `node`'s link as gray-degraded (or healthy again): frames
    /// crossing it pick up [`GRAY_EXTRA_LATENCY`] per degraded endpoint
    /// and every [`GRAY_DROP_PERIOD`]-th one is silently lost. The link
    /// still reports "up" everywhere.
    pub fn set_link_degraded(&mut self, node: NodeId, degraded: bool) {
        self.degraded[node.0] = degraded;
    }

    /// Whether `node`'s link is currently gray-degraded.
    pub fn link_degraded(&self, node: NodeId) -> bool {
        self.degraded[node.0]
    }

    /// Blocks (or unblocks) switch forwarding between `a` and `b` in
    /// both directions — a partial partition. Both links stay up and no
    /// error is reported; frames between the pair silently vanish.
    ///
    /// # Panics
    ///
    /// Panics if either node index is at or past [`PARTITION_NODES`]
    /// (the mask width) or the two nodes are the same.
    pub fn set_pair_blocked(&mut self, a: NodeId, b: NodeId, blocked: bool) {
        assert!(
            a.0 < PARTITION_NODES && b.0 < PARTITION_NODES,
            "partition masks cover {PARTITION_NODES} nodes"
        );
        assert_ne!(a.0, b.0, "a node cannot be partitioned from itself");
        if blocked {
            self.blocked[a.0] |= 1 << b.0;
            self.blocked[b.0] |= 1 << a.0;
        } else {
            self.blocked[a.0] &= !(1 << b.0);
            self.blocked[b.0] &= !(1 << a.0);
        }
    }

    /// Whether the switch currently refuses to forward between `a` and
    /// `b` (partial partition). Only nodes below [`PARTITION_NODES`]
    /// can be blocked, so a wider index is never tested against the mask.
    pub fn pair_blocked(&self, a: NodeId, b: NodeId) -> bool {
        b.0 < PARTITION_NODES && self.blocked[a.0] & (1 << b.0) != 0
    }

    /// Whether `node`'s link is currently up.
    pub fn link_up(&self, node: NodeId) -> bool {
        self.link_up[node.0]
    }

    /// Whether the switch is currently up.
    pub fn switch_up(&self) -> bool {
        self.switch_up
    }

    /// Whether `node`'s NIC is powered.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.node_up[node.0]
    }

    /// Whether a frame sent now from `a` could reach `b`.
    pub fn path_up(&self, a: NodeId, b: NodeId) -> bool {
        self.node_up[a.0]
            && self.node_up[b.0]
            && self.link_up[a.0]
            && self.link_up[b.0]
            && self.switch_up
    }

    /// Arranges for the next `count` frames sent by `src` to be dropped
    /// (transient packet-loss injection).
    pub fn inject_drops_from(&mut self, src: NodeId, count: u32) {
        self.drop_next_from[src.0] += count;
    }

    /// Attempts to transmit `frame` at time `now`.
    ///
    /// On success, the returned arrival time accounts for sender
    /// serialization, the topology's path latency, any gray penalty, and
    /// receiver serialization. The caller is responsible for scheduling
    /// delivery.
    pub fn transmit<P>(&mut self, now: SimTime, frame: &Frame<P>) -> TransmitOutcome {
        let src = frame.src.0;
        let dst = frame.dst.0;
        let n = self.link_up.len();
        assert!(src < n && dst < n);
        let outcome = self.traverse(now, frame.src, frame.dst, frame.bytes);
        if let TransmitOutcome::Delivered { .. } = outcome {
            self.stats.delivered += 1;
            self.stats.bytes_delivered += u64::from(frame.bytes);
        } else {
            self.stats.lost += 1;
        }
        outcome
    }

    /// Walks one frame through the fabric: the loss checks in the order
    /// the sender meets them, then both serializations and the
    /// propagation between them. Updates the per-node port state; the
    /// caller keeps the stats.
    fn traverse(
        &mut self,
        now: SimTime,
        src_id: NodeId,
        dst_id: NodeId,
        bytes: u32,
    ) -> TransmitOutcome {
        let src = src_id.0;
        let dst = dst_id.0;
        let reason = if !self.node_up[src] {
            Some(LossReason::SrcNodeDown)
        } else if !self.link_up[src] {
            Some(LossReason::SrcLinkDown)
        } else if self.drop_next_from[src] > 0 {
            self.drop_next_from[src] -= 1;
            Some(LossReason::Injected)
        } else if !self.switch_up {
            Some(LossReason::SwitchDown)
        } else if !self.link_up[dst] {
            Some(LossReason::DstLinkDown)
        } else if !self.node_up[dst] {
            Some(LossReason::DstNodeDown)
        } else if self.pair_blocked(src_id, dst_id) {
            Some(LossReason::Partitioned)
        } else {
            None
        };
        if let Some(reason) = reason {
            return TransmitOutcome::Lost { reason };
        }

        // Gray degradation: the path is nominally up, but frames crossing
        // a degraded endpoint suffer periodic silent loss. The counter is
        // kept per sender, so the drop pattern is deterministic for a
        // given frame sequence.
        let gray_endpoints = usize::from(self.degraded[src]) + usize::from(self.degraded[dst]);
        if gray_endpoints > 0 {
            self.gray_seq[src] += 1;
            if self.gray_seq[src].is_multiple_of(GRAY_DROP_PERIOD) {
                return TransmitOutcome::Lost {
                    reason: LossReason::LinkDegraded,
                };
            }
        }

        let wire = wire_time(bytes);

        // Sender serialization.
        let tx_start = self.tx_busy[src].max(now);
        if tx_start.saturating_since(now) > MAX_TX_BACKLOG {
            return TransmitOutcome::Lost {
                reason: LossReason::TxQueueOverrun,
            };
        }
        let tx_end = tx_start + wire;
        self.tx_busy[src] = tx_end;

        // Propagation along the topology's path for this pair, plus the
        // gray penalty per degraded endpoint crossed.
        let at_dst_port = tx_end
            + self.topology.path_latency(src_id, dst_id)
            + GRAY_EXTRA_LATENCY * gray_endpoints as u64;

        // Receiver serialization.
        let rx_start = self.rx_busy[dst].max(at_dst_port);
        if rx_start.saturating_since(at_dst_port) > MAX_RX_BACKLOG {
            return TransmitOutcome::Lost {
                reason: LossReason::RxQueueOverrun,
            };
        }
        let rx_end = rx_start + wire;
        self.rx_busy[dst] = rx_end;
        TransmitOutcome::Delivered { at: rx_end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: usize, dst: usize, bytes: u32) -> Frame<()> {
        Frame {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            payload: (),
        }
    }

    const TREE: Topology = Topology::FatTree { leaf_radix: 8 };

    fn clan() -> Fabric {
        Fabric::new(4, Topology::Star)
    }

    #[test]
    fn star_latency_does_not_depend_on_the_pair() {
        for n in [4usize, 8, 16, 32] {
            assert_eq!(
                Topology::Star.path_latency(NodeId(0), NodeId(n - 1)),
                Topology::Star.path_latency(NodeId(0), NodeId(1))
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn star_rejects_single_node() {
        let _ = Fabric::new(1, Topology::Star);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn fat_tree_rejects_single_node() {
        let _ = Fabric::new(1, Topology::FatTree { leaf_radix: 4 });
    }

    #[test]
    #[should_panic(expected = "2 nodes per leaf")]
    fn fat_tree_rejects_radix_one() {
        let _ = Fabric::new(8, Topology::FatTree { leaf_radix: 1 });
    }

    #[test]
    fn fat_tree_cross_leaf_paths_pay_the_spine() {
        let same_leaf = TREE.path_latency(NodeId(0), NodeId(7));
        let cross_leaf = TREE.path_latency(NodeId(0), NodeId(8));
        // Same-leaf = star latency; cross-leaf adds two link hops, the
        // second leaf switch, and the spine.
        assert_eq!(same_leaf, Topology::Star.path_latency(NodeId(0), NodeId(7)));
        assert_eq!(
            cross_leaf,
            same_leaf + LINK_LATENCY + LINK_LATENCY + SWITCH_LATENCY + SPINE_LATENCY
        );
    }

    #[test]
    fn fat_tree_transmit_times_follow_the_topology() {
        let mut f = Fabric::new(16, TREE);
        // 1000B at 125MB/s = 8us serialization at each endpoint.
        let same = f
            .transmit(SimTime::ZERO, &frame(0, 1, 1000))
            .delivery_time()
            .expect("delivered");
        assert_eq!(same.as_nanos(), 8_000 + 5_000 + 1_000 + 5_000 + 8_000);
        let mut f = Fabric::new(16, TREE);
        let cross = f
            .transmit(SimTime::ZERO, &frame(0, 8, 1000))
            .delivery_time()
            .expect("delivered");
        // Four link hops, two leaf switches, the 2us spine.
        assert_eq!(
            cross.as_nanos(),
            8_000 + 4 * 5_000 + 2 * 1_000 + 2_000 + 8_000
        );
    }

    #[test]
    fn fat_tree_switch_down_kills_cross_and_same_leaf_forwarding() {
        let mut f = Fabric::new(16, TREE);
        f.set_switch_up(false);
        for dst in [1usize, 8] {
            let TransmitOutcome::Lost { reason } = f.transmit(SimTime::ZERO, &frame(0, dst, 100))
            else {
                panic!("switch down must lose the frame to n{dst}");
            };
            assert_eq!(reason, LossReason::SwitchDown);
        }
    }

    #[test]
    fn healthy_fabric_delivers_with_latency() {
        let mut f = clan();
        let out = f.transmit(SimTime::ZERO, &frame(0, 1, 1000));
        let at = out.delivery_time().expect("delivered");
        // 1000B at 125MB/s = 8us wire time at each endpoint, plus
        // 5+1+5 us of hops.
        let expected_nanos = 8_000 + 5_000 + 1_000 + 5_000 + 8_000;
        assert_eq!(at.as_nanos(), expected_nanos);
        assert_eq!(f.stats().delivered, 1);
    }

    #[test]
    fn sender_link_down_is_sender_observable() {
        let mut f = clan();
        f.set_link_up(NodeId(0), false);
        match f.transmit(SimTime::ZERO, &frame(0, 1, 100)) {
            TransmitOutcome::Lost { reason } => {
                assert_eq!(reason, LossReason::SrcLinkDown);
                assert!(reason.sender_observable());
            }
            other => panic!("expected loss, got {other:?}"),
        }
    }

    #[test]
    fn destination_conditions_are_not_sender_observable() {
        let mut f = clan();
        f.set_link_up(NodeId(1), false);
        let TransmitOutcome::Lost { reason } = f.transmit(SimTime::ZERO, &frame(0, 1, 100)) else {
            panic!("expected loss");
        };
        assert_eq!(reason, LossReason::DstLinkDown);
        assert!(!reason.sender_observable());

        f.set_link_up(NodeId(1), true);
        f.set_node_up(NodeId(1), false);
        let TransmitOutcome::Lost { reason } = f.transmit(SimTime::ZERO, &frame(0, 1, 100)) else {
            panic!("expected loss");
        };
        assert_eq!(reason, LossReason::DstNodeDown);
    }

    #[test]
    fn switch_down_partitions_everything() {
        let mut f = clan();
        f.set_switch_up(false);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(!f.path_up(NodeId(a), NodeId(b)));
                }
            }
        }
        let TransmitOutcome::Lost { reason } = f.transmit(SimTime::ZERO, &frame(2, 3, 64)) else {
            panic!("expected loss");
        };
        assert_eq!(reason, LossReason::SwitchDown);
    }

    #[test]
    fn transmissions_serialize_on_the_sender_link() {
        let mut f = clan();
        let a = f
            .transmit(SimTime::ZERO, &frame(0, 1, 125_000))
            .delivery_time()
            .unwrap();
        let b = f
            .transmit(SimTime::ZERO, &frame(0, 2, 125_000))
            .delivery_time()
            .unwrap();
        // Each frame needs 1ms of wire time; the second must queue behind
        // the first on the shared sender link.
        assert!(b > a);
        assert!(b.as_nanos() - a.as_nanos() >= 1_000_000);
    }

    #[test]
    fn tx_backlog_bound_drops_frames() {
        let mut f = clan();
        // 125,000 bytes take 1 ms on the wire: the sender queues 20 such
        // frames behind the first, and the next one overruns.
        for i in 0..=20 {
            let out = f.transmit(SimTime::ZERO, &frame(0, 1, 125_000));
            assert!(
                matches!(out, TransmitOutcome::Delivered { .. }),
                "frame {i} fits the 20 ms backlog"
            );
        }
        assert_eq!(
            f.transmit(SimTime::ZERO, &frame(0, 2, 125_000)),
            TransmitOutcome::Lost {
                reason: LossReason::TxQueueOverrun
            }
        );
    }

    #[test]
    fn injected_drops_consume_exactly_count_frames() {
        let mut f = clan();
        f.inject_drops_from(NodeId(0), 2);
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(0, 1, 64)),
            TransmitOutcome::Lost {
                reason: LossReason::Injected
            }
        ));
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(0, 1, 64)),
            TransmitOutcome::Lost {
                reason: LossReason::Injected
            }
        ));
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(0, 1, 64)),
            TransmitOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn crashed_sender_cannot_transmit() {
        let mut f = clan();
        f.set_node_up(NodeId(0), false);
        let TransmitOutcome::Lost { reason } = f.transmit(SimTime::ZERO, &frame(0, 1, 64)) else {
            panic!("expected loss");
        };
        assert_eq!(reason, LossReason::SrcNodeDown);
        assert!(reason.sender_observable());
    }

    #[test]
    fn recovery_restores_the_path() {
        let mut f = clan();
        f.set_link_up(NodeId(3), false);
        assert!(!f.path_up(NodeId(0), NodeId(3)));
        f.set_link_up(NodeId(3), true);
        assert!(f.path_up(NodeId(0), NodeId(3)));
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(0, 3, 64)),
            TransmitOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn degraded_link_adds_latency_and_drops_periodically() {
        let mut f = clan();
        let healthy = f
            .transmit(SimTime::ZERO, &frame(0, 1, 1000))
            .delivery_time()
            .unwrap();

        f.set_link_degraded(NodeId(0), true);
        assert!(f.link_degraded(NodeId(0)));
        // The path still reports healthy: gray faults are invisible to
        // link-level health checks.
        assert!(f.path_up(NodeId(0), NodeId(1)));

        let mut g = clan();
        g.set_link_degraded(NodeId(0), true);
        let gray = g
            .transmit(SimTime::ZERO, &frame(0, 1, 1000))
            .delivery_time()
            .unwrap();
        assert_eq!(
            gray.as_nanos() - healthy.as_nanos(),
            GRAY_EXTRA_LATENCY.as_nanos(),
            "one degraded endpoint adds exactly one gray penalty"
        );

        // Every GRAY_DROP_PERIOD-th frame across the gray link is lost,
        // silently: no sender-observable error.
        let mut losses = 0u32;
        let mut sent = 0u32;
        for i in 0..(2 * GRAY_DROP_PERIOD) {
            let t = SimTime::ZERO + SimDuration::from_millis(u64::from(i + 1));
            match g.transmit(t, &frame(0, 1, 64)) {
                TransmitOutcome::Lost { reason } => {
                    assert_eq!(reason, LossReason::LinkDegraded);
                    assert!(reason.silent());
                    assert!(!reason.sender_observable());
                    losses += 1;
                }
                TransmitOutcome::Delivered { .. } => {}
            }
            sent += 1;
        }
        assert_eq!(sent, 2 * GRAY_DROP_PERIOD);
        assert_eq!(losses, 2, "exactly one drop per period");
    }

    #[test]
    fn both_endpoints_degraded_doubles_the_penalty() {
        let mut f = clan();
        let healthy = f
            .transmit(SimTime::ZERO, &frame(0, 1, 1000))
            .delivery_time()
            .unwrap();
        let mut g = clan();
        g.set_link_degraded(NodeId(0), true);
        g.set_link_degraded(NodeId(1), true);
        let gray = g
            .transmit(SimTime::ZERO, &frame(0, 1, 1000))
            .delivery_time()
            .unwrap();
        assert_eq!(
            gray.as_nanos() - healthy.as_nanos(),
            2 * GRAY_EXTRA_LATENCY.as_nanos()
        );
    }

    #[test]
    fn partial_partition_is_symmetric_silent_and_pairwise() {
        let mut f = clan();
        f.set_pair_blocked(NodeId(0), NodeId(2), true);
        assert!(f.pair_blocked(NodeId(0), NodeId(2)));
        assert!(f.pair_blocked(NodeId(2), NodeId(0)));
        // Health checks still say the path is fine.
        assert!(f.path_up(NodeId(0), NodeId(2)));

        for (src, dst) in [(0usize, 2usize), (2, 0)] {
            let TransmitOutcome::Lost { reason } = f.transmit(SimTime::ZERO, &frame(src, dst, 64))
            else {
                panic!("expected {src}->{dst} to be partitioned");
            };
            assert_eq!(reason, LossReason::Partitioned);
            assert!(reason.silent());
            assert!(!reason.sender_observable());
        }
        // Unrelated pairs are untouched.
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(0, 1, 64)),
            TransmitOutcome::Delivered { .. }
        ));
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(1, 2, 64)),
            TransmitOutcome::Delivered { .. }
        ));

        f.set_pair_blocked(NodeId(0), NodeId(2), false);
        assert!(!f.pair_blocked(NodeId(0), NodeId(2)));
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(0, 2, 64)),
            TransmitOutcome::Delivered { .. }
        ));
    }

    /// Partition masks are 64 bits wide: a destination at or past node
    /// 64 must never be shifted into one, or node 70 would alias node 6
    /// (and debug builds would panic on the overflowing shift).
    #[test]
    fn partition_masks_ignore_destinations_past_node_63() {
        let mut f = Fabric::new(128, TREE);
        f.set_pair_blocked(NodeId(0), NodeId(6), true);
        assert!(f.pair_blocked(NodeId(0), NodeId(6)));
        assert!(!f.pair_blocked(NodeId(0), NodeId(70)));
        assert!(!f.pair_blocked(NodeId(70), NodeId(0)));
        for dst in [70usize, 127] {
            assert!(
                matches!(
                    f.transmit(SimTime::ZERO, &frame(0, dst, 64)),
                    TransmitOutcome::Delivered { .. }
                ),
                "frame 0 -> {dst} must not see the 0-6 partition"
            );
        }
        assert!(matches!(
            f.transmit(SimTime::ZERO, &frame(0, 6, 64)),
            TransmitOutcome::Lost {
                reason: LossReason::Partitioned
            }
        ));
    }
}
