//! A deterministic SWIM-style epidemic membership protocol
//! (Das/Gupta/Motivala's *Scalable Weakly-consistent Infection-style
//! Process Group Membership*), packaged as a pure state machine the
//! PRESS node drives as a pluggable alternative to its heartbeat ring.
//!
//! Per protocol period each member probes one peer chosen from a
//! shuffled cycle; a missing ack escalates to an indirect `ping-req`
//! through `k` proxies, then to *suspicion*; suspicion that survives
//! its timeout becomes a *confirm* (the peer is declared dead).
//! Members refute suspicion about themselves by bumping their
//! incarnation number, and every message piggybacks recent membership
//! updates so state spreads epidemically.
//!
//! # Determinism
//!
//! The machine consumes no wall clock and no global randomness: time
//! enters only as tick calls (the host schedules them on sim-time
//! timers), and all randomness comes from a [`SimRng`] seeded from
//! `SwimConfig::seed` mixed with the owner's node id. Two machines
//! built with the same config and fed the same call sequence emit the
//! same command sequence, byte for byte — which is what keeps cluster
//! runs identical across `--jobs`.
//!
//! # Division of labour with the host
//!
//! [`Swim`] decides *who is alive*; the host owns the transport and the
//! authoritative member list. The machine emits [`Command`]s (send a
//! message, confirm a death, note a suspicion) and the host applies
//! them: sends become wire messages, confirms become exclusions. The
//! host mirrors its own membership decisions back via
//! [`Swim::remove`] / [`Swim::readmit`], so an exclusion learned
//! out-of-band (a broken connection, a view message) tombstones the
//! peer here too instead of racing the protocol.

use std::collections::BTreeMap;
use std::sync::Arc;

use simnet::fabric::NodeId;
use simnet::SimRng;

/// What a member believes about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PeerState {
    /// Responding (directly or through proxies).
    Alive,
    /// Failed a probe round; the suspicion clock is running.
    Suspect,
    /// Confirmed dead (tombstone; only the host readmits).
    Dead,
}

/// One piggybacked membership assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// The peer the assertion is about.
    pub node: NodeId,
    /// The incarnation the assertion applies to.
    pub incarnation: u64,
    /// The asserted state.
    pub state: PeerState,
}

/// Wire messages. The host embeds these in its own message type; the
/// machine never touches a transport.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMsg {
    /// Direct probe: "are you alive?".
    Ping {
        /// Prober-local sequence number echoed by the ack.
        seq: u64,
        /// Piggybacked dissemination.
        updates: Arc<[Update]>,
    },
    /// Indirect probe: "please ping `target` for me".
    PingReq {
        /// Origin-local sequence number for the relayed ack.
        seq: u64,
        /// The peer the origin could not reach directly.
        target: NodeId,
        /// Piggybacked dissemination.
        updates: Arc<[Update]>,
    },
    /// Liveness answer, possibly relayed by a proxy.
    Ack {
        /// The sequence number being answered.
        seq: u64,
        /// The peer whose liveness this attests.
        target: NodeId,
        /// Piggybacked dissemination.
        updates: Arc<[Update]>,
    },
}

impl GossipMsg {
    /// The piggybacked updates, whichever variant carries them.
    pub fn updates(&self) -> &[Update] {
        match self {
            GossipMsg::Ping { updates, .. }
            | GossipMsg::PingReq { updates, .. }
            | GossipMsg::Ack { updates, .. } => updates,
        }
    }
}

/// What the host must do for the machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Transmit `msg` to `to` (best-effort; losses are the point).
    Send {
        /// Destination peer.
        to: NodeId,
        /// The message.
        msg: GossipMsg,
    },
    /// `node` failed direct and indirect probes; suspicion started.
    Suspect {
        /// The suspected peer.
        node: NodeId,
    },
    /// Suspicion about `node` was cleared by liveness evidence.
    ClearSuspect {
        /// The reprieved peer.
        node: NodeId,
    },
    /// Suspicion survived its timeout: declare `node` dead. The host
    /// should exclude it from the cooperating membership.
    Confirm {
        /// The confirmed-dead peer.
        node: NodeId,
    },
    /// This member learned it was suspected and bumped its incarnation
    /// to `incarnation` (an Alive refutation is already queued).
    Refute {
        /// The new self-incarnation.
        incarnation: u64,
    },
}

/// Protocol parameters. All periods are expressed in *ticks* of the
/// host-scheduled `probe_interval`, so the machine never reads a clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SwimConfig {
    /// One protocol period (the host schedules a tick at this rate).
    pub probe_interval: simnet::SimDuration,
    /// Proxies asked to ping an unresponsive peer indirectly.
    pub proxies: usize,
    /// Ticks a suspicion lasts before it becomes a confirm.
    pub suspect_ticks: u32,
    /// Maximum updates piggybacked per message.
    pub piggyback: usize,
    /// Times each update is retransmitted before it stops spreading.
    pub update_sends: u32,
    /// Run seed; each node's RNG stream is derived from this and its id.
    pub seed: u64,
}

impl Default for SwimConfig {
    /// Defaults calibrated so a *single* death is detected in roughly
    /// the ring's 15 s threshold at N = 4 (probe pickup ≈ 1–2 periods,
    /// plus the ping-req escalation, plus the suspicion timeout). The
    /// comparison is then apples-to-apples on false-positive
    /// robustness, and scaling does the rest: the ring unmasks k
    /// simultaneous adjacent deaths one 15 s threshold at a time,
    /// while these parameters detect them all in parallel.
    fn default() -> Self {
        SwimConfig {
            probe_interval: simnet::SimDuration::from_secs(2),
            proxies: 2,
            suspect_ticks: 4,
            piggyback: 6,
            update_sends: 8,
            seed: 0,
        }
    }
}

/// Fan-out and detection counters, exported by the host as metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwimStats {
    /// Protocol periods run.
    pub ticks: u64,
    /// Direct pings sent.
    pub pings: u64,
    /// Acks sent (direct answers, not relays).
    pub acks: u64,
    /// Ping-req fan-outs sent as the origin.
    pub ping_reqs: u64,
    /// Ping-reqs relayed as a proxy.
    pub relays: u64,
    /// Suspicions started locally or adopted from gossip.
    pub suspects: u64,
    /// Suspicions cleared by liveness evidence.
    pub clears: u64,
    /// Refutations issued about this member itself.
    pub refutations: u64,
    /// Deaths confirmed (locally or adopted from gossip).
    pub confirms: u64,
    /// Updates piggybacked onto outgoing messages.
    pub updates_sent: u64,
}

#[derive(Debug, Clone, Copy)]
struct Peer {
    incarnation: u64,
    state: PeerState,
    /// Ticks left before a suspicion confirms (meaningful iff Suspect).
    suspect_left: u32,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    target: NodeId,
    /// 0 = direct ping outstanding; 1 = ping-reqs outstanding.
    phase: u8,
}

#[derive(Debug, Clone, Copy)]
struct Relay {
    seq: u64,
    origin: NodeId,
    origin_seq: u64,
    target: NodeId,
    ttl: u32,
}

/// The per-member SWIM state machine.
#[derive(Debug)]
pub struct Swim {
    cfg: SwimConfig,
    me: NodeId,
    incarnation: u64,
    peers: BTreeMap<NodeId, Peer>,
    /// Updates still spreading: node → (assertion, sends left).
    updates: BTreeMap<NodeId, (Update, u32)>,
    rng: SimRng,
    seq: u64,
    /// Outstanding probes by sequence number (at most a few).
    outstanding: BTreeMap<u64, Pending>,
    /// Proxy duties awaiting the target's ack.
    relays: Vec<Relay>,
    /// Shuffled probe cycle (SWIM's round-robin randomization: every
    /// live peer is probed once per cycle, in an order reshuffled each
    /// pass, bounding worst-case first-probe time to one cycle).
    cycle: Vec<NodeId>,
    cycle_pos: usize,
    stats: SwimStats,
}

impl Swim {
    /// Builds the machine for `me` with an initial membership view
    /// (`members` may or may not include `me`; everyone starts Alive at
    /// incarnation 0).
    pub fn new(cfg: SwimConfig, me: NodeId, members: impl IntoIterator<Item = NodeId>) -> Self {
        // SplitMix-style mix so per-node streams are independent even
        // for adjacent seeds/ids.
        let mix = cfg
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(me.0 as u64 + 1));
        let rng = SimRng::seed_from(mix);
        let peers = members
            .into_iter()
            .filter(|n| *n != me)
            .map(|n| {
                (
                    n,
                    Peer {
                        incarnation: 0,
                        state: PeerState::Alive,
                        suspect_left: 0,
                    },
                )
            })
            .collect();
        Swim {
            cfg,
            me,
            incarnation: 0,
            peers,
            updates: BTreeMap::new(),
            rng,
            seq: 0,
            outstanding: BTreeMap::new(),
            relays: Vec::new(),
            cycle: Vec::new(),
            cycle_pos: 0,
            stats: SwimStats::default(),
        }
    }

    /// This member's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Protocol counters.
    pub fn stats(&self) -> &SwimStats {
        &self.stats
    }

    /// What this member currently believes about `node`.
    pub fn peer_state(&self, node: NodeId) -> Option<(PeerState, u64)> {
        self.peers.get(&node).map(|p| (p.state, p.incarnation))
    }

    /// The host excluded `node` out-of-band (broken connection, view
    /// message): tombstone it so gossip cannot resurrect it; only
    /// [`Swim::readmit`] brings it back.
    pub fn remove(&mut self, node: NodeId) {
        if node == self.me {
            return;
        }
        let p = self.peers.entry(node).or_insert(Peer {
            incarnation: 0,
            state: PeerState::Dead,
            suspect_left: 0,
        });
        p.state = PeerState::Dead;
        self.outstanding.retain(|_, pend| pend.target != node);
        self.relays.retain(|r| r.target != node && r.origin != node);
    }

    /// The host readmitted `node` (rejoin/merge): mark it alive at a
    /// fresh incarnation so stale Suspect/Dead assertions still
    /// circulating cannot re-kill it, and start spreading the news.
    pub fn readmit(&mut self, node: NodeId) {
        if node == self.me {
            return;
        }
        let p = self.peers.entry(node).or_insert(Peer {
            incarnation: 0,
            state: PeerState::Dead,
            suspect_left: 0,
        });
        p.incarnation += 1;
        p.state = PeerState::Alive;
        p.suspect_left = 0;
        let inc = p.incarnation;
        self.queue_update(Update {
            node,
            incarnation: inc,
            state: PeerState::Alive,
        });
    }

    /// Runs one protocol period. The host calls this every
    /// `cfg.probe_interval` of simulated time.
    pub fn tick(&mut self, out: &mut Vec<Command>) {
        self.stats.ticks += 1;
        // Expire proxy duties whose target never answered.
        self.relays.retain_mut(|r| {
            r.ttl -= 1;
            r.ttl > 0
        });
        self.advance_suspicions(out);
        self.escalate_probes(out);
        self.start_probe(out);
    }

    /// Feeds one received message in; `from` is the wire-level sender.
    pub fn on_message(&mut self, from: NodeId, msg: &GossipMsg, out: &mut Vec<Command>) {
        for u in msg.updates() {
            self.apply_update(*u, out);
        }
        match *msg {
            GossipMsg::Ping { seq, .. } => {
                self.stats.acks += 1;
                let updates = self.piggyback();
                out.push(Command::Send {
                    to: from,
                    msg: GossipMsg::Ack {
                        seq,
                        target: self.me,
                        updates,
                    },
                });
            }
            GossipMsg::PingReq { seq, target, .. } => {
                self.stats.relays += 1;
                self.seq += 1;
                self.relays.push(Relay {
                    seq: self.seq,
                    origin: from,
                    origin_seq: seq,
                    target,
                    ttl: 2,
                });
                let updates = self.piggyback();
                out.push(Command::Send {
                    to: target,
                    msg: GossipMsg::Ping {
                        seq: self.seq,
                        updates,
                    },
                });
            }
            GossipMsg::Ack { seq, target, .. } => {
                // A proxy duty answered: relay the ack to the origin.
                if let Some(i) = self.relays.iter().position(|r| r.seq == seq) {
                    let r = self.relays.swap_remove(i);
                    let updates = self.piggyback();
                    out.push(Command::Send {
                        to: r.origin,
                        msg: GossipMsg::Ack {
                            seq: r.origin_seq,
                            target: r.target,
                            updates,
                        },
                    });
                }
                // One of our own probes answered: the target is alive.
                if let Some(pend) = self.outstanding.remove(&seq) {
                    if pend.target == target {
                        self.saw_alive(target, out);
                    }
                }
            }
        }
    }

    /// Live (non-tombstoned) peers, in id order.
    fn probe_candidates(&self) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, p)| p.state != PeerState::Dead)
            .map(|(n, _)| *n)
            .collect()
    }

    fn advance_suspicions(&mut self, out: &mut Vec<Command>) {
        let mut confirmed = Vec::new();
        for (&n, p) in self.peers.iter_mut() {
            if p.state == PeerState::Suspect {
                p.suspect_left = p.suspect_left.saturating_sub(1);
                if p.suspect_left == 0 {
                    p.state = PeerState::Dead;
                    confirmed.push((n, p.incarnation));
                }
            }
        }
        for (n, inc) in confirmed {
            self.stats.confirms += 1;
            self.queue_update(Update {
                node: n,
                incarnation: inc,
                state: PeerState::Dead,
            });
            out.push(Command::Confirm { node: n });
        }
    }

    fn escalate_probes(&mut self, out: &mut Vec<Command>) {
        let pending: Vec<(u64, Pending)> = self.outstanding.iter().map(|(s, p)| (*s, *p)).collect();
        for (seq, pend) in pending {
            let alive_target = self
                .peers
                .get(&pend.target)
                .is_some_and(|p| p.state != PeerState::Dead);
            if !alive_target {
                self.outstanding.remove(&seq);
                continue;
            }
            match pend.phase {
                0 => {
                    // Direct ping unanswered for a full period: ask k
                    // proxies to try from their vantage points.
                    let mut proxies: Vec<NodeId> = self
                        .probe_candidates()
                        .into_iter()
                        .filter(|n| *n != pend.target)
                        .collect();
                    if proxies.is_empty() {
                        // No proxy available: escalate straight to
                        // suspicion next period.
                        self.outstanding.insert(seq, Pending { phase: 1, ..pend });
                        continue;
                    }
                    let k = self.cfg.proxies.min(proxies.len());
                    for i in 0..k {
                        let j = i + self.rng.below((proxies.len() - i) as u64) as usize;
                        proxies.swap(i, j);
                        self.stats.ping_reqs += 1;
                        let updates = self.piggyback();
                        out.push(Command::Send {
                            to: proxies[i],
                            msg: GossipMsg::PingReq {
                                seq,
                                target: pend.target,
                                updates,
                            },
                        });
                    }
                    self.outstanding.insert(seq, Pending { phase: 1, ..pend });
                }
                _ => {
                    // Indirect round unanswered too: suspect.
                    self.outstanding.remove(&seq);
                    self.suspect(pend.target, out);
                }
            }
        }
    }

    fn start_probe(&mut self, out: &mut Vec<Command>) {
        // Walk the shuffled cycle to the next still-live peer,
        // reshuffling when a pass completes.
        let mut target = None;
        for _ in 0..2 {
            while self.cycle_pos < self.cycle.len() {
                let n = self.cycle[self.cycle_pos];
                self.cycle_pos += 1;
                if self
                    .peers
                    .get(&n)
                    .is_some_and(|p| p.state != PeerState::Dead)
                {
                    target = Some(n);
                    break;
                }
            }
            if target.is_some() {
                break;
            }
            self.cycle = self.probe_candidates();
            self.cycle_pos = 0;
            if self.cycle.is_empty() {
                return;
            }
            // Fisher–Yates on the deterministic per-node stream.
            for i in (1..self.cycle.len()).rev() {
                let j = self.rng.below((i + 1) as u64) as usize;
                self.cycle.swap(i, j);
            }
        }
        let Some(target) = target else { return };
        self.seq += 1;
        self.stats.pings += 1;
        self.outstanding
            .insert(self.seq, Pending { target, phase: 0 });
        let updates = self.piggyback();
        out.push(Command::Send {
            to: target,
            msg: GossipMsg::Ping {
                seq: self.seq,
                updates,
            },
        });
    }

    fn suspect(&mut self, node: NodeId, out: &mut Vec<Command>) {
        let Some(p) = self.peers.get_mut(&node) else {
            return;
        };
        if p.state != PeerState::Alive {
            return;
        }
        p.state = PeerState::Suspect;
        p.suspect_left = self.cfg.suspect_ticks;
        let inc = p.incarnation;
        self.stats.suspects += 1;
        self.queue_update(Update {
            node,
            incarnation: inc,
            state: PeerState::Suspect,
        });
        out.push(Command::Suspect { node });
    }

    /// Direct liveness evidence about `node` (an ack we solicited).
    fn saw_alive(&mut self, node: NodeId, out: &mut Vec<Command>) {
        let Some(p) = self.peers.get_mut(&node) else {
            return;
        };
        if p.state == PeerState::Suspect {
            // Local reprieve only: without a higher incarnation we
            // cannot overrule other members' suspicion — the target's
            // own refutation does that — but we will not confirm a
            // peer we just heard from.
            p.state = PeerState::Alive;
            p.suspect_left = 0;
            self.stats.clears += 1;
            out.push(Command::ClearSuspect { node });
        }
    }

    fn apply_update(&mut self, u: Update, out: &mut Vec<Command>) {
        if u.node == self.me {
            // Someone thinks we are suspect/dead: refute with a higher
            // incarnation (SWIM's alive-message precedence).
            if u.state != PeerState::Alive && u.incarnation >= self.incarnation {
                self.incarnation = u.incarnation + 1;
                self.stats.refutations += 1;
                let inc = self.incarnation;
                self.queue_update(Update {
                    node: self.me,
                    incarnation: inc,
                    state: PeerState::Alive,
                });
                out.push(Command::Refute { incarnation: inc });
            }
            return;
        }
        let Some(p) = self.peers.get_mut(&u.node) else {
            // Unknown peer: membership is host-governed; gossip alone
            // does not introduce members.
            return;
        };
        if p.state == PeerState::Dead {
            // Tombstones are final here; only the host's rejoin path
            // (readmit) resurrects a peer.
            return;
        }
        match u.state {
            PeerState::Alive => {
                // Alive{i} overrides Suspect{j}/Alive{j} iff i > j.
                if u.incarnation > p.incarnation {
                    let was_suspect = p.state == PeerState::Suspect;
                    p.incarnation = u.incarnation;
                    p.state = PeerState::Alive;
                    p.suspect_left = 0;
                    self.queue_update(u);
                    if was_suspect {
                        self.stats.clears += 1;
                        out.push(Command::ClearSuspect { node: u.node });
                    }
                }
            }
            PeerState::Suspect => {
                // Suspect{i} overrides Alive{j} iff i >= j, and
                // Suspect{j} iff i > j.
                let overrides = match p.state {
                    PeerState::Alive => u.incarnation >= p.incarnation,
                    PeerState::Suspect => u.incarnation > p.incarnation,
                    PeerState::Dead => false,
                };
                if overrides {
                    let was_alive = p.state == PeerState::Alive;
                    p.incarnation = u.incarnation;
                    if was_alive {
                        p.state = PeerState::Suspect;
                        p.suspect_left = self.cfg.suspect_ticks;
                        self.stats.suspects += 1;
                        out.push(Command::Suspect { node: u.node });
                    }
                    self.queue_update(u);
                }
            }
            PeerState::Dead => {
                // Confirm overrides everything.
                p.state = PeerState::Dead;
                p.incarnation = p.incarnation.max(u.incarnation);
                self.stats.confirms += 1;
                self.queue_update(u);
                out.push(Command::Confirm { node: u.node });
            }
        }
    }

    fn queue_update(&mut self, u: Update) {
        self.updates.insert(u.node, (u, self.cfg.update_sends));
    }

    /// Drains up to `cfg.piggyback` pending updates into a shareable
    /// slice, charging each one send from its budget.
    fn piggyback(&mut self) -> Arc<[Update]> {
        if self.updates.is_empty() {
            return Arc::from(&[][..]);
        }
        let mut picked = Vec::with_capacity(self.cfg.piggyback);
        let mut exhausted = Vec::new();
        for (&n, (u, left)) in self.updates.iter_mut() {
            if picked.len() >= self.cfg.piggyback {
                break;
            }
            picked.push(*u);
            *left -= 1;
            if *left == 0 {
                exhausted.push(n);
            }
        }
        for n in exhausted {
            self.updates.remove(&n);
        }
        self.stats.updates_sent += picked.len() as u64;
        picked.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SwimConfig {
        SwimConfig {
            seed: 42,
            ..SwimConfig::default()
        }
    }

    fn swim(me: usize, n: usize) -> Swim {
        Swim::new(cfg(), NodeId(me), (0..n).map(NodeId))
    }

    fn sends(cmds: &[Command]) -> Vec<(NodeId, &GossipMsg)> {
        cmds.iter()
            .filter_map(|c| match c {
                Command::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn probes_every_peer_once_per_cycle() {
        let mut s = swim(0, 4);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..3 {
            let mut out = Vec::new();
            s.tick(&mut out);
            for (to, msg) in sends(&out) {
                if matches!(msg, GossipMsg::Ping { .. }) {
                    seen.insert(to);
                }
            }
            // Answer every ping so nothing escalates.
            for (to, msg) in sends(&out.clone()) {
                if let GossipMsg::Ping { seq, .. } = msg {
                    let ack = GossipMsg::Ack {
                        seq: *seq,
                        target: to,
                        updates: Arc::from(&[][..]),
                    };
                    let mut o2 = Vec::new();
                    s.on_message(to, &ack, &mut o2);
                    assert!(o2.is_empty(), "plain ack should be silent");
                }
            }
        }
        assert_eq!(seen.len(), 3, "one cycle probes all three peers");
    }

    #[test]
    fn unanswered_probe_escalates_to_ping_req_then_suspect_then_confirm() {
        let mut s = swim(0, 4);
        let mut out = Vec::new();
        s.tick(&mut out); // ping some target
        let target = match sends(&out)[0] {
            (to, GossipMsg::Ping { .. }) => to,
            other => panic!("expected ping, got {other:?}"),
        };
        out.clear();
        s.tick(&mut out); // escalate to ping-req
        let reqs: Vec<_> = sends(&out)
            .into_iter()
            .filter(|(_, m)| matches!(m, GossipMsg::PingReq { .. }))
            .collect();
        assert_eq!(reqs.len(), 2, "k = 2 proxies asked");
        for (to, msg) in &reqs {
            assert_ne!(*to, target);
            match msg {
                GossipMsg::PingReq { target: t, .. } => assert_eq!(*t, target),
                _ => unreachable!(),
            }
        }
        out.clear();
        s.tick(&mut out); // still nothing: suspect
        assert!(out.contains(&Command::Suspect { node: target }));
        assert_eq!(s.peer_state(target).unwrap().0, PeerState::Suspect);
        // Suspicion expires after suspect_ticks further periods.
        let mut confirmed = false;
        for _ in 0..cfg().suspect_ticks {
            out.clear();
            s.tick(&mut out);
            confirmed |= out.contains(&Command::Confirm { node: target });
        }
        assert!(confirmed, "suspicion must confirm after the timeout");
        assert_eq!(s.peer_state(target).unwrap().0, PeerState::Dead);
    }

    #[test]
    fn relayed_ack_through_a_proxy_averts_suspicion() {
        let mut a = swim(0, 4);
        let mut out = Vec::new();
        a.tick(&mut out);
        let (target, seq) = match sends(&out)[0] {
            (to, GossipMsg::Ping { seq, .. }) => (to, *seq),
            other => panic!("expected ping, got {other:?}"),
        };
        out.clear();
        a.tick(&mut out); // ping-reqs go out
        let (proxy, preq) = sends(&out)
            .into_iter()
            .find_map(|(to, m)| match m {
                GossipMsg::PingReq { .. } => Some((to, m.clone())),
                _ => None,
            })
            .expect("a ping-req");
        // The proxy pings the target, the target acks, the proxy
        // relays the ack back to the origin.
        let mut p = Swim::new(cfg(), proxy, (0..4).map(NodeId));
        let mut pout = Vec::new();
        p.on_message(NodeId(0), &preq, &mut pout);
        let (ping_to, proxy_ping) = match &sends(&pout)[0] {
            (to, m @ GossipMsg::Ping { .. }) => (*to, (*m).clone()),
            other => panic!("proxy must ping, got {other:?}"),
        };
        assert_eq!(ping_to, target);
        let mut t = Swim::new(cfg(), target, (0..4).map(NodeId));
        let mut tout = Vec::new();
        t.on_message(proxy, &proxy_ping, &mut tout);
        let ack = match &sends(&tout)[0] {
            (_, m @ GossipMsg::Ack { .. }) => (*m).clone(),
            other => panic!("target must ack, got {other:?}"),
        };
        pout.clear();
        p.on_message(target, &ack, &mut pout);
        let relayed = match &sends(&pout)[0] {
            (to, m @ GossipMsg::Ack { .. }) => {
                assert_eq!(*to, NodeId(0));
                (*m).clone()
            }
            other => panic!("proxy must relay the ack, got {other:?}"),
        };
        match &relayed {
            GossipMsg::Ack {
                seq: s2,
                target: t2,
                ..
            } => {
                assert_eq!(*s2, seq, "relay echoes the origin's seq");
                assert_eq!(*t2, target);
            }
            _ => unreachable!(),
        }
        out.clear();
        a.on_message(proxy, &relayed, &mut out);
        // No suspicion on the next tick.
        out.clear();
        a.tick(&mut out);
        assert!(
            !out.iter()
                .any(|c| matches!(c, Command::Suspect { node } if *node == target)),
            "relayed ack must avert suspicion: {out:?}"
        );
        assert_eq!(a.peer_state(target).unwrap().0, PeerState::Alive);
    }

    #[test]
    fn incarnation_precedence() {
        let mut s = swim(0, 4);
        let n = NodeId(1);
        let upd = |incarnation, state| Update {
            node: n,
            incarnation,
            state,
        };
        let mut out = Vec::new();
        // Suspect{0} overrides Alive{0} (>=).
        s.apply_update(upd(0, PeerState::Suspect), &mut out);
        assert_eq!(s.peer_state(n).unwrap(), (PeerState::Suspect, 0));
        // Alive{0} does NOT override Suspect{0} (needs >).
        s.apply_update(upd(0, PeerState::Alive), &mut out);
        assert_eq!(s.peer_state(n).unwrap().0, PeerState::Suspect);
        // Alive{1} clears Suspect{0}.
        out.clear();
        s.apply_update(upd(1, PeerState::Alive), &mut out);
        assert_eq!(s.peer_state(n).unwrap(), (PeerState::Alive, 1));
        assert!(out.contains(&Command::ClearSuspect { node: n }));
        // Suspect{0} is stale against Alive{1}.
        s.apply_update(upd(0, PeerState::Suspect), &mut out);
        assert_eq!(s.peer_state(n).unwrap().0, PeerState::Alive);
        // Dead overrides everything and is final.
        out.clear();
        s.apply_update(upd(0, PeerState::Dead), &mut out);
        assert_eq!(s.peer_state(n).unwrap().0, PeerState::Dead);
        assert!(out.contains(&Command::Confirm { node: n }));
        s.apply_update(upd(7, PeerState::Alive), &mut out);
        assert_eq!(s.peer_state(n).unwrap().0, PeerState::Dead);
    }

    #[test]
    fn suspicion_about_self_is_refuted() {
        let mut s = swim(0, 4);
        let mut out = Vec::new();
        s.apply_update(
            Update {
                node: NodeId(0),
                incarnation: 0,
                state: PeerState::Suspect,
            },
            &mut out,
        );
        assert_eq!(s.incarnation(), 1);
        assert!(out.contains(&Command::Refute { incarnation: 1 }));
        // The refutation spreads on the next message.
        let pig = s.piggyback();
        assert!(pig
            .iter()
            .any(|u| u.node == NodeId(0) && u.incarnation == 1 && u.state == PeerState::Alive));
        // The refuting Alive{1} clears suspicion at another member.
        let mut other = swim(1, 4);
        let mut o2 = Vec::new();
        other.apply_update(
            Update {
                node: NodeId(0),
                incarnation: 0,
                state: PeerState::Suspect,
            },
            &mut o2,
        );
        assert_eq!(other.peer_state(NodeId(0)).unwrap().0, PeerState::Suspect);
        other.apply_update(pig[0], &mut o2);
        assert_eq!(other.peer_state(NodeId(0)).unwrap().0, PeerState::Alive);
    }

    #[test]
    fn readmit_outruns_stale_tombstone_gossip() {
        let mut s = swim(0, 4);
        let n = NodeId(2);
        s.remove(n);
        assert_eq!(s.peer_state(n).unwrap().0, PeerState::Dead);
        // Stale gossip cannot resurrect a tombstone...
        let mut out = Vec::new();
        s.apply_update(
            Update {
                node: n,
                incarnation: 0,
                state: PeerState::Alive,
            },
            &mut out,
        );
        assert_eq!(s.peer_state(n).unwrap().0, PeerState::Dead);
        // ...only the host's readmit does, at a fresh incarnation that
        // beats the old Dead/Suspect assertions still circulating.
        s.readmit(n);
        let (state, inc) = s.peer_state(n).unwrap();
        assert_eq!(state, PeerState::Alive);
        assert_eq!(inc, 1);
        s.apply_update(
            Update {
                node: n,
                incarnation: 0,
                state: PeerState::Suspect,
            },
            &mut out,
        );
        assert_eq!(s.peer_state(n).unwrap().0, PeerState::Alive);
    }

    #[test]
    fn same_seed_same_command_stream() {
        let run = || {
            let mut s = swim(0, 8);
            let mut log = Vec::new();
            for _ in 0..20 {
                let mut out = Vec::new();
                s.tick(&mut out);
                log.extend(out);
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn piggyback_respects_budget_and_cap() {
        let mut s = swim(0, 4);
        s.queue_update(Update {
            node: NodeId(1),
            incarnation: 0,
            state: PeerState::Suspect,
        });
        for _ in 0..cfg().update_sends {
            let pig = s.piggyback();
            assert_eq!(pig.len(), 1);
        }
        assert!(s.piggyback().is_empty(), "budget exhausted");
    }
}
