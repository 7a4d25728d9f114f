//! Membership (§3): the node's view of the cluster with the state of
//! its rejoin, and failure detection for the versions that run it: the
//! paper's heartbeat ring or the SWIM epidemic detector. Pure state: the
//! node reports what it hears and carries out the beats, probes, sends
//! and exclusions the view and its detector ask for.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime};

use crate::config::{MembershipImpl, PressConfig, REJOIN_ATTEMPTS};

/// Where one boot of a node stands in joining the cluster (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Join {
    /// Booted with the whole cluster.
    Cold,
    /// Restarted alone and asking to be readmitted, `tries` ticks so far.
    Seeking { tries: u32 },
    /// Restarted, then readmitted or given up on rejoining (§5.3).
    Settled,
}

/// A node's membership view and join state. `members` (this node
/// included) changes only through the view, which keeps the boot's
/// failure `detector` in step with every admission and exclusion; the
/// node drives the detector's own protocol directly.
#[derive(Debug)]
pub(crate) struct View {
    me: NodeId,
    nodes: usize,
    pub members: BTreeSet<NodeId>,
    join: Join,
    pub detector: Detector,
}

impl View {
    pub fn new(me: NodeId, nodes: usize) -> Self {
        View {
            me,
            nodes,
            members: BTreeSet::new(),
            join: Join::Cold,
            detector: Detector::Off,
        }
    }

    /// Boots the view (§3): a cold boot holds every node, a restart holds
    /// itself and seeks readmission. With `heartbeats` the boot runs the
    /// configured detector, whose ring continues the last boot's beats.
    pub fn boot(&mut self, config: &PressConfig, heartbeats: bool, cold: bool, now: SimTime) {
        self.members = self.others().filter(|_| cold).chain([self.me]).collect();
        self.join = if cold {
            Join::Cold
        } else {
            Join::Seeking { tries: 0 }
        };
        let seq = match &self.detector {
            Detector::Ring(ring) => ring.seq,
            _ => 0,
        };
        let members = self.members.iter().copied();
        self.detector = match config.membership {
            _ if !heartbeats => Detector::Off,
            MembershipImpl::Ring => Detector::Ring(Ring::new(self.me, config, now, seq)),
            MembershipImpl::Gossip => Detector::Gossip {
                swim: Box::new(gossip::Swim::new(config.gossip.clone(), self.me, members)),
                suspect_since: BTreeMap::new(),
            },
        };
    }

    /// The members other than this node, in id order.
    pub fn peers(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|p| *p != self.me)
            .collect()
    }

    /// Every node but this one, in id order.
    pub fn others(&self) -> impl Iterator<Item = NodeId> {
        let me = self.me;
        (0..self.nodes).map(NodeId).filter(move |p| *p != me)
    }

    /// Whether a restart still announces itself on each new connection.
    pub fn announces(&self) -> bool {
        self.join != Join::Cold
    }

    /// Whether this node may admit others: not while seeking readmission.
    pub fn admits(&self) -> bool {
        !matches!(self.join, Join::Seeking { .. })
    }

    /// Adds `peer` to the view. SWIM re-arms it at a fresh incarnation so
    /// assertions from its previous life cannot re-kill it; the ring gives
    /// it and the predecessor fresh deadlines.
    pub fn admit(&mut self, peer: NodeId, now: SimTime) {
        self.members.insert(peer);
        match &mut self.detector {
            Detector::Off => {}
            Detector::Ring(ring) => {
                ring.heard(peer, now);
                ring.refresh_predecessor(&self.members, now);
            }
            Detector::Gossip { swim, .. } => swim.readmit(peer),
        }
    }

    /// Admits `peer` unless it is this node or a member; true if it did.
    pub fn admit_new(&mut self, peer: NodeId, now: SimTime) -> bool {
        let new = peer != self.me && !self.members.contains(&peer);
        if new {
            self.admit(peer, now);
        }
        new
    }

    /// Drops `peer` from the view; false if it was not in it. SWIM
    /// tombstones it so stale gossip cannot resurrect it, and its
    /// suspicion span is over; the ring gives the (possibly new)
    /// predecessor a fresh deadline so a ring change does not trigger an
    /// instant cascade.
    pub fn exclude(&mut self, peer: NodeId, now: SimTime) -> bool {
        if peer == self.me || !self.members.remove(&peer) {
            return false;
        }
        match &mut self.detector {
            Detector::Off => {}
            Detector::Ring(ring) => ring.refresh_predecessor(&self.members, now),
            Detector::Gossip {
                swim,
                suspect_since,
            } => {
                swim.remove(peer);
                suspect_since.remove(&peer);
            }
        }
        true
    }

    /// One rejoin tick: whether to ask every other node again. After
    /// [`REJOIN_ATTEMPTS`] unanswered ticks the node gives up and serves
    /// standalone (§5.3).
    pub fn rejoin_tick(&mut self) -> bool {
        let Join::Seeking { tries } = &mut self.join else {
            return false;
        };
        *tries += 1;
        if *tries > REJOIN_ATTEMPTS {
            self.join = Join::Settled;
        }
        self.join != Join::Settled
    }

    /// Adopts the view `members` that admitted this node, if it seeks
    /// readmission; true if it did.
    pub fn rejoined(&mut self, members: &[NodeId], now: SimTime) -> bool {
        if self.admits() {
            return false;
        }
        for &m in members {
            if m != self.me {
                self.admit(m, now);
            }
        }
        self.join = Join::Settled;
        true
    }
}

/// The failure detector one boot of a node runs.
#[derive(Debug)]
pub enum Detector {
    /// None: TCP-PRESS learns of failures only from broken connections.
    Off,
    /// The paper's heartbeat ring ([`crate::MembershipImpl::Ring`]).
    Ring(Ring),
    /// SWIM ([`crate::MembershipImpl::Gossip`]).
    Gossip {
        /// The protocol machine (boxed: it dwarfs the other variants).
        swim: Box<gossip::Swim>,
        /// When each currently open suspicion started (for trace spans).
        suspect_since: BTreeMap<NodeId, SimTime>,
    },
}

impl Detector {
    /// Opens a suspicion span for `node` unless one is open (SWIM only).
    pub fn suspect(&mut self, node: NodeId, now: SimTime) {
        if let Detector::Gossip { suspect_since, .. } = self {
            suspect_since.entry(node).or_insert(now);
        }
    }

    /// Closes `node`'s open suspicion span, returning when it started.
    pub fn end_suspicion(&mut self, node: NodeId) -> Option<SimTime> {
        match self {
            Detector::Gossip { suspect_since, .. } => suspect_since.remove(&node),
            _ => None,
        }
    }
}

/// The paper's heartbeat ring: each member beats to its successor in
/// id order and expects beats from its predecessor.
#[derive(Debug)]
pub struct Ring {
    me: NodeId,
    /// When each peer last beat, or was last given a fresh deadline.
    last_hb: BTreeMap<NodeId, SimTime>,
    /// Sequence number of the last beat sent.
    seq: u64,
    /// Silence after which the predecessor is declared dead.
    threshold: SimDuration,
}

impl Ring {
    /// The ring of node `me` booting at `now`: every peer starts with a
    /// full deadline, and beats continue from sequence number `seq`.
    pub fn new(me: NodeId, config: &PressConfig, now: SimTime, seq: u64) -> Self {
        let peers = (0..config.nodes).map(NodeId).filter(|p| *p != me);
        let mut last_hb = BTreeMap::new();
        last_hb.extend(peers.map(|p| (p, now)));
        Ring {
            me,
            last_hb,
            seq,
            threshold: config.hb_detect_threshold(),
        }
    }

    /// This period's beat over the view `members`: `(successor, seq)`,
    /// if the node has company.
    pub fn beat(&mut self, members: &BTreeSet<NodeId>) -> Option<(NodeId, u64)> {
        let succ = successor(self.me, members)?;
        self.seq += 1;
        Some((succ, self.seq))
    }

    /// The predecessor to exclude at `now`: silent for the threshold.
    pub fn expired(&self, members: &BTreeSet<NodeId>, now: SimTime) -> Option<NodeId> {
        predecessor(self.me, members).filter(|pred| {
            let last = self.last_hb.get(pred).copied().unwrap_or(now);
            now.saturating_since(last) >= self.threshold
        })
    }

    /// A beat from `peer` arrived.
    pub fn heard(&mut self, peer: NodeId, now: SimTime) {
        self.last_hb.insert(peer, now);
    }

    fn refresh_predecessor(&mut self, members: &BTreeSet<NodeId>, now: SimTime) {
        if let Some(pred) = predecessor(self.me, members) {
            self.heard(pred, now);
        }
    }
}

/// The member after `me` in id order, wrapping around; `None` unless
/// `me` has company in `members`.
pub fn successor(me: NodeId, members: &BTreeSet<NodeId>) -> Option<NodeId> {
    let next = members.range((Excluded(me), Unbounded)).next();
    neighbour(me, members, next.or(members.first()))
}

/// The member before `me` in id order, wrapping around; `None` unless
/// `me` has company in `members`.
pub fn predecessor(me: NodeId, members: &BTreeSet<NodeId>) -> Option<NodeId> {
    let prev = members.range(..me).next_back();
    neighbour(me, members, prev.or(members.last()))
}

fn neighbour(me: NodeId, members: &BTreeSet<NodeId>, n: Option<&NodeId>) -> Option<NodeId> {
    n.copied().filter(|n| *n != me && members.contains(&me))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MembershipImpl;

    fn view(ids: &[usize]) -> BTreeSet<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    fn ring_at(me: usize, at: u64) -> Ring {
        let config = PressConfig::paper_testbed();
        Ring::new(NodeId(me), &config, SimTime::from_secs(at), 0)
    }

    #[test]
    fn neighbours_wrap_around_the_sorted_view() {
        let m = view(&[0, 2, 5, 7]);
        assert_eq!(successor(NodeId(2), &m), Some(NodeId(5)));
        assert_eq!(predecessor(NodeId(2), &m), Some(NodeId(0)));
        assert_eq!(successor(NodeId(7), &m), Some(NodeId(0)));
        assert_eq!(predecessor(NodeId(0), &m), Some(NodeId(7)));
        // Alone, or outside the view: no ring.
        assert_eq!(successor(NodeId(2), &view(&[2])), None);
        assert_eq!(predecessor(NodeId(2), &view(&[2])), None);
        assert_eq!(successor(NodeId(3), &m), None);
        assert_eq!(predecessor(NodeId(3), &m), None);
    }

    /// A view of node `me` of four, booted at `at` seconds.
    fn booted(config: &PressConfig, me: usize, cold: bool, at: u64) -> View {
        let mut v = View::new(NodeId(me), 4);
        v.boot(config, true, cold, SimTime::from_secs(at));
        v
    }

    fn ring_of(v: &mut View) -> &mut Ring {
        match &mut v.detector {
            Detector::Ring(ring) => ring,
            _ => unreachable!("the test-bed config runs the ring"),
        }
    }

    #[test]
    fn a_tick_beats_with_rising_sequence_numbers() {
        let mut ring = ring_at(0, 0);
        let m = view(&[0, 1, 2, 3]);
        assert_eq!(ring.beat(&m), Some((NodeId(1), 1)));
        assert_eq!(ring.beat(&m), Some((NodeId(1), 2)));
        assert_eq!(ring.beat(&view(&[0])), None);
        assert_eq!(ring.beat(&view(&[0, 2])), Some((NodeId(2), 3)));
        // A reboot re-arms the deadlines but keeps counting beats.
        let config = PressConfig::paper_testbed();
        let mut v = View::new(NodeId(0), 4);
        v.detector = Detector::Ring(ring);
        v.boot(&config, true, true, SimTime::from_secs(40));
        let reborn = ring_of(&mut v);
        assert_eq!(reborn.beat(&m), Some((NodeId(1), 4)));
        assert_eq!(reborn.expired(&m, SimTime::from_secs(54)), None);
        // A boot without the ring counts from zero again.
        v.boot(&config, false, true, SimTime::from_secs(60));
        assert!(matches!(v.detector, Detector::Off));
        v.boot(&config, true, true, SimTime::from_secs(61));
        assert_eq!(ring_of(&mut v).beat(&m), Some((NodeId(1), 1)));
    }

    #[test]
    fn a_silent_predecessor_expires_at_the_threshold() {
        let mut ring = ring_at(0, 0);
        let m = view(&[0, 1, 2, 3]);
        assert_eq!(ring.expired(&m, SimTime::from_secs(14)), None);
        assert_eq!(ring.expired(&m, SimTime::from_secs(15)), Some(NodeId(3)));
        // A beat resets the deadline.
        ring.heard(NodeId(3), SimTime::from_secs(15));
        assert_eq!(ring.expired(&m, SimTime::from_secs(29)), None);
    }

    #[test]
    fn ring_changes_give_the_new_predecessor_a_fresh_deadline() {
        let config = PressConfig::paper_testbed();
        let mut v = booted(&config, 0, true, 0);
        let expired = |v: &mut View, t: u64| {
            let m = v.members.clone();
            ring_of(v).expired(&m, SimTime::from_secs(t))
        };
        // Node 3 is excluded at 20 s: node 2, silent since boot, becomes
        // the predecessor but is not expired on the spot.
        assert!(v.exclude(NodeId(3), SimTime::from_secs(20)));
        assert!(!v.exclude(NodeId(3), SimTime::from_secs(20)), "already out");
        assert_eq!(expired(&mut v, 21), None);
        assert_eq!(expired(&mut v, 35), Some(NodeId(2)));
        // Node 3 comes back at 40 s and is the predecessor again, with
        // a deadline counted from its admission.
        v.admit(NodeId(3), SimTime::from_secs(40));
        assert_eq!(expired(&mut v, 54), None);
        assert_eq!(expired(&mut v, 55), Some(NodeId(3)));
    }

    #[test]
    fn suspicion_spans_open_once_and_end_on_exclusion() {
        let config = PressConfig {
            membership: MembershipImpl::Gossip,
            ..PressConfig::paper_testbed()
        };
        let mut v = booted(&config, 0, true, 0);
        let detector = &mut v.detector;
        detector.suspect(NodeId(2), SimTime::from_secs(3));
        detector.suspect(NodeId(2), SimTime::from_secs(5));
        assert_eq!(
            detector.end_suspicion(NodeId(2)),
            Some(SimTime::from_secs(3))
        );
        assert_eq!(detector.end_suspicion(NodeId(2)), None);
        detector.suspect(NodeId(1), SimTime::from_secs(6));
        v.exclude(NodeId(1), SimTime::from_secs(7));
        assert_eq!(v.detector.end_suspicion(NodeId(1)), None);
        // The ring keeps no spans.
        let mut ring = Detector::Ring(ring_at(0, 0));
        ring.suspect(NodeId(1), SimTime::from_secs(1));
        assert_eq!(ring.end_suspicion(NodeId(1)), None);
    }

    #[test]
    fn a_cold_boot_is_a_member_that_admits_and_never_announces() {
        let config = PressConfig::paper_testbed();
        let mut v = booted(&config, 1, true, 0);
        assert_eq!(v.members, view(&[0, 1, 2, 3]));
        assert_eq!(v.peers(), [NodeId(0), NodeId(2), NodeId(3)]);
        assert!(v.others().eq(v.peers()));
        assert!(v.admits() && !v.announces());
        assert!(!v.rejoin_tick(), "nothing to rejoin");
        assert!(!v.rejoined(&[NodeId(0)], SimTime::from_secs(1)));
    }

    #[test]
    fn a_restart_seeks_readmission_until_a_peer_answers() {
        let config = PressConfig::paper_testbed();
        let mut v = booted(&config, 1, false, 0);
        assert_eq!(v.members, view(&[1]));
        assert!(v.announces() && !v.admits());
        assert!(v.rejoin_tick());
        let at = SimTime::from_secs(2);
        assert!(v.rejoined(&[NodeId(0), NodeId(1), NodeId(3)], at));
        assert_eq!(v.members, view(&[0, 1, 3]));
        // Settled: admits others, still announces itself, ticks no more,
        // and a second answer changes nothing.
        assert!(v.admits() && v.announces());
        assert!(!v.rejoin_tick());
        assert!(!v.rejoined(&[NodeId(2)], at));
        assert_eq!(v.members, view(&[0, 1, 3]));
    }

    #[test]
    fn a_restart_gives_up_after_its_rejoin_attempts() {
        let config = PressConfig::paper_testbed();
        let mut v = booted(&config, 1, false, 0);
        for _ in 0..REJOIN_ATTEMPTS {
            assert!(v.rejoin_tick());
            assert!(!v.admits());
        }
        assert!(!v.rejoin_tick(), "gives up");
        assert!(v.admits() && v.announces(), "serves standalone");
        assert_eq!(v.members, view(&[1]));
        assert!(!v.rejoin_tick());
        // A boot resets the count.
        v.boot(&config, true, false, SimTime::from_secs(30));
        assert!(v.rejoin_tick() && !v.admits());
    }

    #[test]
    fn admitting_skips_this_node_and_members() {
        let config = PressConfig::paper_testbed();
        let mut v = booted(&config, 0, false, 0);
        let at = SimTime::from_secs(1);
        assert!(!v.admit_new(NodeId(0), at), "this node");
        assert!(v.admit_new(NodeId(2), at));
        assert!(!v.admit_new(NodeId(2), at), "already a member");
        assert!(!v.exclude(NodeId(0), at), "never excludes itself");
        assert_eq!(v.members, view(&[0, 2]));
    }
}
