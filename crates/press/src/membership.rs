//! Failure detection for the versions that run membership (§3): the
//! paper's heartbeat ring or the SWIM epidemic detector. Pure state: the
//! node reports what it hears and carries out the beats, probes and
//! exclusions the detector asks for.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime};

use crate::config::PressConfig;

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
    /// SWIM for node `me` over its initial view `members` (a warm
    /// restart starts alone; rejoins reach it as [`Detector::on_admit`]).
    pub fn gossip(config: &PressConfig, me: NodeId, members: &BTreeSet<NodeId>) -> Self {
        let swim = gossip::Swim::new(config.gossip.clone(), me, members.iter().copied());
        Detector::Gossip {
            swim: Box::new(swim),
            suspect_since: BTreeMap::new(),
        }
    }

    /// `peer` left the view, leaving `members`. SWIM tombstones it so
    /// stale gossip cannot resurrect it, and its suspicion span is over;
    /// the ring gives the (possibly new) predecessor a fresh deadline so
    /// a ring change does not trigger an instant cascade.
    pub fn on_exclude(&mut self, peer: NodeId, members: &BTreeSet<NodeId>, now: SimTime) {
        match self {
            Detector::Off => {}
            Detector::Ring(ring) => ring.refresh_predecessor(members, now),
            Detector::Gossip {
                swim,
                suspect_since,
            } => {
                swim.remove(peer);
                suspect_since.remove(&peer);
            }
        }
    }

    /// `peer` joined the view, giving `members`. SWIM re-arms it at a
    /// fresh incarnation so assertions from its previous life cannot
    /// re-kill it; the ring gives it and the predecessor fresh deadlines.
    pub fn on_admit(&mut self, peer: NodeId, members: &BTreeSet<NodeId>, now: SimTime) {
        match self {
            Detector::Off => {}
            Detector::Ring(ring) => {
                ring.heard(peer, now);
                ring.refresh_predecessor(members, now);
            }
            Detector::Gossip { swim, .. } => swim.readmit(peer),
        }
    }

    /// Opens a suspicion span for `node` unless one is open (SWIM only).
    pub fn suspect(&mut self, node: NodeId, now: SimTime) {
        if let Detector::Gossip { suspect_since, .. } = self {
            suspect_since.entry(node).or_insert(now);
        }
    }

    /// The ring's last beat sequence number (0 without a ring), which
    /// the ring of the node's next boot continues.
    pub fn ring_seq(&self) -> u64 {
        match self {
            Detector::Ring(ring) => ring.seq,
            _ => 0,
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

    #[test]
    fn a_tick_beats_with_rising_sequence_numbers() {
        let mut ring = ring_at(0, 0);
        let m = view(&[0, 1, 2, 3]);
        assert_eq!(ring.beat(&m), Some((NodeId(1), 1)));
        assert_eq!(ring.beat(&m), Some((NodeId(1), 2)));
        assert_eq!(ring.beat(&view(&[0])), None);
        assert_eq!(ring.beat(&view(&[0, 2])), Some((NodeId(2), 3)));
        // A reboot re-arms the deadlines but keeps counting beats.
        let seq = Detector::Ring(ring).ring_seq();
        assert_eq!((seq, Detector::Off.ring_seq()), (3, 0));
        let config = PressConfig::paper_testbed();
        let mut reborn = Ring::new(NodeId(0), &config, SimTime::from_secs(40), seq);
        assert_eq!(reborn.beat(&m), Some((NodeId(1), 4)));
        assert_eq!(reborn.expired(&m, SimTime::from_secs(54)), None);
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
        let mut detector = Detector::Ring(ring_at(0, 0));
        let mut m = view(&[0, 1, 2, 3]);
        let expired = |d: &mut Detector, m: &BTreeSet<NodeId>, t: u64| match d {
            Detector::Ring(ring) => ring.expired(m, SimTime::from_secs(t)),
            _ => unreachable!(),
        };
        // Node 3 is excluded at 20 s: node 2, silent since boot, becomes
        // the predecessor but is not expired on the spot.
        m.remove(&NodeId(3));
        detector.on_exclude(NodeId(3), &m, SimTime::from_secs(20));
        assert_eq!(expired(&mut detector, &m, 21), None);
        assert_eq!(expired(&mut detector, &m, 35), Some(NodeId(2)));
        // Node 3 comes back at 40 s and is the predecessor again, with
        // a deadline counted from its admission.
        m.insert(NodeId(3));
        detector.on_admit(NodeId(3), &m, SimTime::from_secs(40));
        assert_eq!(expired(&mut detector, &m, 54), None);
        assert_eq!(expired(&mut detector, &m, 55), Some(NodeId(3)));
    }

    #[test]
    fn suspicion_spans_open_once_and_end_on_exclusion() {
        let config = PressConfig {
            membership: MembershipImpl::Gossip,
            ..PressConfig::paper_testbed()
        };
        let mut m = view(&[0, 1, 2, 3]);
        let mut detector = Detector::gossip(&config, NodeId(0), &m);
        detector.suspect(NodeId(2), SimTime::from_secs(3));
        detector.suspect(NodeId(2), SimTime::from_secs(5));
        assert_eq!(
            detector.end_suspicion(NodeId(2)),
            Some(SimTime::from_secs(3))
        );
        assert_eq!(detector.end_suspicion(NodeId(2)), None);
        detector.suspect(NodeId(1), SimTime::from_secs(6));
        m.remove(&NodeId(1));
        detector.on_exclude(NodeId(1), &m, SimTime::from_secs(7));
        assert_eq!(detector.end_suspicion(NodeId(1)), None);
        // The ring keeps no spans.
        let mut ring = Detector::Ring(ring_at(0, 0));
        ring.suspect(NodeId(1), SimTime::from_secs(1));
        assert_eq!(ring.end_suspicion(NodeId(1)), None);
    }
}
