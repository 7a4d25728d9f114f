//! User-level VIA (Virtual Interface Architecture) model, after the
//! Giganet cLAN implementation the paper uses.
//!
//! The behaviours that drive the paper's results:
//!
//! * **Message boundaries.** Sends are descriptors, not stream bytes; a
//!   bad parameter damages one operation, never the framing of later
//!   messages.
//! * **Fail-stop fault model.** The SAN has hop-by-hop flow control, so
//!   packet loss signals something serious: any transmission fault
//!   breaks the connection immediately, giving PRESS near-instant fault
//!   detection (§5.2).
//! * **Pre-allocated resources.** Receive descriptors and communication
//!   buffers are registered (pinned) at start-up, making the substrate
//!   immune to kernel-memory exhaustion (§5.4). Only dynamic pinning
//!   (VIA-PRESS-5's zero-copy file cache) is exposed to pin faults, via
//!   [`ViaNic::register_pages`].
//! * **Asynchronous error reporting.** Bad parameters surface as error
//!   status in completed descriptors ([`Upcall::CompletionError`]); with
//!   remote memory writes the error is reported *at both ends* (§5.5).
//! * **Credit-based flow control.** PRESS implements flow-control
//!   messages itself when running on VIA (§3); modeled as credits
//!   returned in batches.

use std::collections::VecDeque;

use simnet::fabric::{Frame, LossReason, NodeId};
use simnet::{SimDuration, SimTime};

use crate::api::{
    trace_instant, BreakReason, CallParams, Effect, Effects, ErrorSite, MsgClass, PtrParam,
    SendStatus, Substrate, TimerKey, TimerKind, Upcall, WirePayload,
};
use crate::cost::CostModel;
use crate::peers::PeerSlots;

/// How data moves on the VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViaMode {
    /// Regular send/receive descriptors, interrupt-driven reception
    /// (VIA-PRESS-0).
    Messaging,
    /// Remote memory writes into per-sender buffers, polled reception
    /// (VIA-PRESS-3 and VIA-PRESS-5).
    RemoteWrite,
}

/// Tunable VIA parameters.
#[derive(Debug, Clone)]
pub struct ViaConfig {
    /// Data movement / completion style.
    pub mode: ViaMode,
    /// Wire overhead per packet.
    pub header_bytes: u32,
    /// Pre-posted receive descriptors (= send credits) per VI.
    pub credits_per_vi: u32,
    /// Return credits to the sender after consuming this many messages.
    pub credit_return_batch: u32,
    /// Application-side queue bound while out of credits; beyond this,
    /// sends report [`SendStatus::WouldBlock`].
    pub max_pending_sends: usize,
    /// Connection-request retransmission interval.
    pub connect_retry: SimDuration,
    /// Give up on connection establishment after this long.
    pub connect_give_up: SimDuration,
    /// Pages pinned at start-up for descriptors and communication
    /// buffers (pre-allocation).
    pub startup_pinned_pages: u32,
    /// Normal pinning ceiling (Linux 2.2 limits pinning to half of
    /// physical memory; 206 MB nodes → ~25k pinnable 4 KB pages).
    pub pinned_page_limit: u32,
}

impl Default for ViaConfig {
    fn default() -> Self {
        ViaConfig {
            mode: ViaMode::Messaging,
            header_bytes: 16,
            credits_per_vi: 32,
            credit_return_batch: 8,
            max_pending_sends: 64,
            connect_retry: SimDuration::from_millis(500),
            connect_give_up: SimDuration::from_secs(10),
            startup_pinned_pages: 2_048, // 8 MB of comm buffers
            pinned_page_limit: 25_000,
        }
    }
}

impl ViaConfig {
    /// Configuration for VIA-PRESS-0.
    pub fn messaging() -> Self {
        ViaConfig::default()
    }

    /// Configuration for VIA-PRESS-3/5.
    pub fn remote_write() -> Self {
        ViaConfig {
            mode: ViaMode::RemoteWrite,
            ..ViaConfig::default()
        }
    }
}

/// Why a descriptor completed with error status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemotePoison {
    /// NULL data pointer in the posted descriptor.
    NullPtr,
    /// Data pointer offset outside the registered region.
    OffByPtr,
    /// Declared size disagrees with the posted buffer.
    OffBySize,
}

impl RemotePoison {
    fn cause(self) -> &'static str {
        match self {
            RemotePoison::NullPtr => "null data pointer in descriptor",
            RemotePoison::OffByPtr => "data pointer outside registered region",
            RemotePoison::OffBySize => "descriptor length mismatch",
        }
    }
}

/// One VIA packet on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ViaPacket<M> {
    /// Connection request.
    ConnReq {
        /// Initiator's process incarnation.
        incarnation: u64,
    },
    /// Connection accept.
    ConnAck {
        /// Acceptor's process incarnation.
        incarnation: u64,
    },
    /// Teardown notification (sent when a packet hits a VI that no
    /// longer exists, e.g. after a process restart).
    Disconnect,
    /// An application message (or, when `poison` is set, a corrupted
    /// remote operation that completes in error at the receiver).
    Data {
        /// The message.
        msg: M,
        /// Class tag.
        class: MsgClass,
        /// Declared payload size.
        bytes: u32,
        /// Set when a bad-parameter fault rode along to the remote end.
        poison: Option<RemotePoison>,
        /// Sender's process incarnation.
        incarnation: u64,
    },
    /// Flow-control credit return.
    Credit {
        /// Number of receive descriptors re-posted.
        n: u32,
        /// Sender's process incarnation.
        incarnation: u64,
    },
}

/// Error returned when a memory-registration request cannot pin pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinError {
    /// Pages requested.
    pub requested: u32,
    /// Pages currently pinned on the node.
    pub pinned: u32,
    /// The effective ceiling that rejected the request.
    pub limit: u32,
}

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot pin {} pages: {} already pinned, limit {}",
            self.requested, self.pinned, self.limit
        )
    }
}

impl std::error::Error for PinError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ViState {
    ReqSent,
    Established,
}

#[derive(Debug)]
struct Vi<M> {
    state: ViState,
    peer_inc: u64,
    opened_at: SimTime,
    credits: u32,
    pending: VecDeque<(MsgClass, M, u32, Option<RemotePoison>, SimTime)>,
    blocked: bool,
    consumed_since_credit: u32,
    timer_gen: u64,
}

impl<M> Vi<M> {
    fn new(now: SimTime, state: ViState, peer_inc: u64, credits: u32) -> Self {
        Vi {
            state,
            peer_inc,
            opened_at: now,
            credits,
            pending: VecDeque::new(),
            blocked: false,
            consumed_since_credit: 0,
            timer_gen: 0,
        }
    }
}

impl<M> PeerSlots<Option<Vi<M>>> {
    fn vi(&self, peer: NodeId) -> Option<&Vi<M>> {
        self.get(peer)?.as_ref()
    }

    fn vi_mut(&mut self, peer: NodeId) -> Option<&mut Vi<M>> {
        self.get_mut(peer)?.as_mut()
    }

    /// The VI to `peer`, if it is established and belongs to the peer's
    /// incarnation `inc`.
    fn live(&self, peer: NodeId, inc: u64) -> Option<&Vi<M>> {
        self.vi(peer)
            .filter(|vi| vi.state == ViState::Established && vi.peer_inc == inc)
    }
}

/// Behaviour counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViaStats {
    /// Data packets sent.
    pub messages_sent: u64,
    /// Messages delivered to the application.
    pub messages_delivered: u64,
    /// Descriptors completed with error status.
    pub completion_errors: u64,
    /// Connections broken by the fail-stop model.
    pub conn_breaks: u64,
    /// Sends that had to wait for credits.
    pub credit_stalls: u64,
    /// Rejected pin requests.
    pub pin_failures: u64,
}

/// The VIA endpoint of one node: a VI per peer plus registered-memory
/// accounting.
///
/// # Example
///
/// ```
/// use simnet::fabric::NodeId;
/// use simnet::SimTime;
/// use transport::via::{ViaConfig, ViaNic};
/// use transport::{CostModel, Substrate};
///
/// let mut nic: ViaNic<&str> = ViaNic::new(NodeId(0), ViaConfig::remote_write(), CostModel::via5());
/// let mut out = Vec::new();
/// nic.open(SimTime::ZERO, NodeId(1), &mut out);
/// assert!(!nic.is_connected(NodeId(1))); // until the ConnAck returns
/// ```
#[derive(Debug)]
pub struct ViaNic<M> {
    node: NodeId,
    config: ViaConfig,
    cost: CostModel,
    incarnation: u64,
    pin_fail: bool,
    pinned_pages: u32,
    app_receiving: bool,
    vis: PeerSlots<Option<Vi<M>>>,
    parked: Vec<(NodeId, M, MsgClass, u32)>,
    stats: ViaStats,
    /// Structured-tracing switch; checked before any trace event is
    /// even constructed so the disabled path costs one branch.
    trace: bool,
    /// Causal-attribution switch, same discipline as `trace`.
    attr: bool,
    /// Data-descriptor counter used to sample `via.descriptor` events
    /// while tracing (unstalled descriptors are emitted 1-in-64).
    trace_seq: u64,
    /// Last connect-timer generation stamped. NIC-wide and kept across
    /// `restart`, so a re-opened VI's timer never matches the one its
    /// predecessor left pending.
    timer_gen: u64,
}

impl<M: Clone> ViaNic<M> {
    /// Creates the endpoint for `node`, pre-registering the start-up
    /// communication buffers.
    pub fn new(node: NodeId, config: ViaConfig, cost: CostModel) -> Self {
        let pinned = config.startup_pinned_pages;
        ViaNic {
            node,
            config,
            cost,
            incarnation: 1,
            pin_fail: false,
            pinned_pages: pinned,
            app_receiving: true,
            vis: PeerSlots::default(),
            parked: Vec::new(),
            stats: ViaStats::default(),
            trace: false,
            attr: false,
            trace_seq: 0,
            timer_gen: 0,
        }
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &ViaStats {
        &self.stats
    }

    /// Pages currently pinned on this node.
    pub fn pinned_pages(&self) -> u32 {
        self.pinned_pages
    }

    /// Remaining send credits towards `peer` (testing/diagnostics).
    pub fn credits(&self, peer: NodeId) -> u32 {
        self.vis.vi(peer).map_or(0, |vi| vi.credits)
    }

    /// Registers (pins) `pages` 4 KB pages with the NIC — the dynamic
    /// pinning VIA-PRESS-5 performs for every file entering its cache.
    ///
    /// # Errors
    ///
    /// Fails when the pinned-page ceiling would be exceeded; under the
    /// Mendosus memory-locking fault the effective ceiling is the
    /// currently pinned amount, so *all* new requests fail (§4.2).
    pub fn register_pages(
        &mut self,
        now: SimTime,
        pages: u32,
        out: &mut Effects<M>,
    ) -> Result<(), PinError> {
        let limit = if self.pin_fail {
            self.pinned_pages // nothing more can be pinned
        } else {
            self.config.pinned_page_limit
        };
        if self.pinned_pages + pages > limit {
            self.stats.pin_failures += 1;
            let pinned = u64::from(self.pinned_pages);
            trace_instant(out, self.trace, "via.pin_fail", self.node, now, |e| {
                e.arg_u64("requested", u64::from(pages))
                    .arg_u64("pinned", pinned)
                    .arg_u64("limit", u64::from(limit))
            });
            return Err(PinError {
                requested: pages,
                pinned: self.pinned_pages,
                limit,
            });
        }
        self.pinned_pages += pages;
        out.push(Effect::ChargeCpu(self.cost.pin_cost(pages)));
        Ok(())
    }

    fn transmit(&self, peer: NodeId, bytes: u32, pkt: ViaPacket<M>, out: &mut Effects<M>) {
        out.push(Effect::Transmit(Frame {
            src: self.node,
            dst: peer,
            bytes: bytes + self.config.header_bytes,
            payload: WirePayload::Via(pkt),
        }));
    }

    fn teardown(&mut self, now: SimTime, peer: NodeId, reason: BreakReason, out: &mut Effects<M>) {
        if self.vis.get_mut(peer).and_then(Option::take).is_some() {
            self.stats.conn_breaks += 1;
            trace_instant(out, self.trace, "via.conn_break", self.node, now, |e| {
                e.arg_u64("peer", peer.0 as u64)
                    .arg_str("reason", reason.label())
            });
            if self.attr && !matches!(reason, BreakReason::LocalClose) {
                out.push(Effect::Attr(telemetry::AttrEvent::Abort));
            }
            out.push(Effect::Upcall(Upcall::ConnBroken { peer, reason }));
        }
        self.parked.retain(|(p, _, _, _)| *p != peer);
    }

    fn connected(&self, now: SimTime, peer: NodeId, out: &mut Effects<M>) {
        trace_instant(out, self.trace, "via.connected", self.node, now, |e| {
            e.arg_u64("peer", peer.0 as u64)
        });
        out.push(Effect::Upcall(Upcall::Connected { peer }));
    }

    fn trace_completion_error(
        &self,
        now: SimTime,
        peer: NodeId,
        site: &'static str,
        p: RemotePoison,
        out: &mut Effects<M>,
    ) {
        let name = "via.completion_error";
        trace_instant(out, self.trace, name, self.node, now, |e| {
            e.arg_u64("peer", peer.0 as u64)
                .arg_str("site", site)
                .arg_str("cause", p.cause())
        });
    }

    fn deliver(
        &mut self,
        _now: SimTime,
        peer: NodeId,
        msg: M,
        class: MsgClass,
        bytes: u32,
        out: &mut Effects<M>,
    ) {
        out.push(Effect::ChargeCpu(
            self.cost.recv_cost(bytes, class.is_bulk()),
        ));
        self.stats.messages_delivered += 1;
        out.push(Effect::Upcall(Upcall::Deliver {
            peer,
            msg,
            class,
            bytes,
        }));
        // Re-post the receive descriptor; batch credit returns.
        if let Some(vi) = self.vis.vi_mut(peer) {
            vi.consumed_since_credit += 1;
            if vi.consumed_since_credit >= self.config.credit_return_batch {
                let n = std::mem::take(&mut vi.consumed_since_credit);
                let incarnation = self.incarnation;
                out.push(Effect::ChargeCpu(self.cost.credit_cost));
                self.transmit(peer, 0, ViaPacket::Credit { n, incarnation }, out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn transmit_data(
        &mut self,
        now: SimTime,
        posted: SimTime,
        peer: NodeId,
        class: MsgClass,
        msg: M,
        bytes: u32,
        poison: Option<RemotePoison>,
        out: &mut Effects<M>,
    ) {
        let rdma = self.config.mode == ViaMode::RemoteWrite;
        self.stats.messages_sent += 1;
        if self.trace {
            // Every credit-stalled descriptor is worth a span (the wait
            // is the story); unstalled ones are sampled 1-in-64.
            self.trace_seq += 1;
            let waited = now.saturating_since(posted);
            if waited.as_nanos() > 0 || self.trace_seq.is_multiple_of(64) {
                out.push(Effect::Trace(
                    telemetry::TraceEvent::span(
                        "via.descriptor",
                        "via",
                        self.node.0 as u32,
                        posted,
                        waited,
                    )
                    .arg_u64("peer", peer.0 as u64)
                    .arg_u64("bytes", u64::from(bytes))
                    .arg_str("class", class.label()),
                ));
            }
        }
        out.push(Effect::ChargeCpu(
            self.cost.send_cost(bytes, class.is_bulk()),
        ));
        let pkt = ViaPacket::Data {
            msg,
            class,
            bytes,
            poison: if rdma { poison } else { None },
            incarnation: self.incarnation,
        };
        self.transmit(peer, bytes, pkt, out);
    }

    fn drain_pending(&mut self, now: SimTime, peer: NodeId, out: &mut Effects<M>) {
        loop {
            let Some(vi) = self.vis.vi_mut(peer) else {
                return;
            };
            if vi.credits == 0 || vi.pending.is_empty() {
                break;
            }
            vi.credits -= 1;
            let (class, msg, bytes, poison, posted) = vi.pending.pop_front().expect("nonempty");
            self.transmit_data(now, posted, peer, class, msg, bytes, poison, out);
        }
        if let Some(vi) = self.vis.vi_mut(peer) {
            if vi.blocked && vi.pending.len() <= self.config.max_pending_sends / 2 {
                vi.blocked = false;
                out.push(Effect::Upcall(Upcall::Writable { peer }));
            }
        }
    }
}

impl<M: Clone> Substrate<M> for ViaNic<M> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn open(&mut self, now: SimTime, peer: NodeId, out: &mut Effects<M>) {
        let credits = self.config.credits_per_vi;
        let vi = self
            .vis
            .slot(peer)
            .insert(Vi::new(now, ViState::ReqSent, 0, credits));
        self.timer_gen += 1;
        vi.timer_gen = self.timer_gen;
        let key = TimerKey {
            node: self.node,
            peer,
            conn: 0,
            kind: TimerKind::Connect,
            gen: vi.timer_gen,
        };
        let incarnation = self.incarnation;
        self.transmit(peer, 0, ViaPacket::ConnReq { incarnation }, out);
        out.push(Effect::SetTimer {
            at: now + self.config.connect_retry,
            key,
        });
    }

    fn close(&mut self, peer: NodeId) {
        *self.vis.slot(peer) = None;
        self.parked.retain(|(p, _, _, _)| *p != peer);
    }

    fn is_connected(&self, peer: NodeId) -> bool {
        self.vis
            .vi(peer)
            .is_some_and(|vi| vi.state == ViState::Established)
    }

    /// Pauses or resumes application-level consumption (process hang).
    /// While paused, arriving messages are held and no credits return,
    /// so peers stall exactly like TCP's zero window.
    fn set_app_receiving(&mut self, now: SimTime, receiving: bool, out: &mut Effects<M>) {
        if self.app_receiving == receiving {
            return;
        }
        self.app_receiving = receiving;
        if receiving {
            let parked = std::mem::take(&mut self.parked);
            for (peer, msg, class, bytes) in parked {
                self.deliver(now, peer, msg, class, bytes, out);
            }
        }
    }

    fn register_pages(
        &mut self,
        now: SimTime,
        pages: u32,
        out: &mut Effects<M>,
    ) -> Result<(), crate::api::PinFailed> {
        ViaNic::register_pages(self, now, pages, out).map_err(|_| crate::api::PinFailed)
    }

    /// Deregisters (unpins) `pages` pages.
    fn deregister_pages(&mut self, _now: SimTime, pages: u32, out: &mut Effects<M>) {
        self.pinned_pages = self.pinned_pages.saturating_sub(pages);
        out.push(Effect::ChargeCpu(self.cost.unpin_cost(pages)));
    }

    fn send(
        &mut self,
        now: SimTime,
        peer: NodeId,
        class: MsgClass,
        msg: M,
        bytes: u32,
        params: CallParams,
        out: &mut Effects<M>,
    ) -> SendStatus {
        if !self.is_connected(peer) {
            return SendStatus::NotConnected;
        }

        // Bad parameters surface through descriptor completion status —
        // asynchronously, unlike TCP's EFAULT (§5.5).
        let poison = match (params.ptr, params.size_delta) {
            (PtrParam::Null, _) => Some(RemotePoison::NullPtr),
            (PtrParam::OffBy(_), _) => Some(RemotePoison::OffByPtr),
            (PtrParam::Valid, d) if d != 0 => Some(RemotePoison::OffBySize),
            _ => None,
        };
        if let Some(p) = poison {
            self.stats.completion_errors += 1;
            self.trace_completion_error(now, peer, "local", p, out);
            if p == RemotePoison::OffBySize && self.config.mode == ViaMode::Messaging {
                // A wrong length passes the local checks ("valid" bad
                // parameters) and fails only where the data lands.
                let vi = self.vis.vi_mut(peer).expect("checked");
                vi.credits = vi.credits.saturating_sub(1);
                self.stats.messages_sent += 1;
                let pkt = ViaPacket::Data {
                    msg,
                    class,
                    bytes,
                    poison: Some(p),
                    incarnation: self.incarnation,
                };
                self.transmit(peer, bytes, pkt, out);
                return SendStatus::Accepted;
            }
            // Pointer faults are caught by the local NIC's address
            // translation. With remote writes every error is reported at
            // both ends (§5.5), so the poisoned operation also travels to
            // the peer.
            out.push(Effect::Upcall(Upcall::CompletionError {
                peer,
                site: ErrorSite::Local,
                cause: p.cause(),
            }));
            if self.config.mode == ViaMode::RemoteWrite {
                self.transmit_data(now, now, peer, class, msg, bytes, Some(p), out);
            }
            return SendStatus::Accepted;
        }

        let vi = self.vis.vi_mut(peer).expect("checked");
        if vi.credits == 0 || !vi.pending.is_empty() {
            self.stats.credit_stalls += 1;
            if vi.pending.len() >= self.config.max_pending_sends {
                vi.blocked = true;
                return SendStatus::WouldBlock;
            }
            vi.pending.push_back((class, msg, bytes, None, now));
            return SendStatus::Accepted;
        }
        vi.credits -= 1;
        self.transmit_data(now, now, peer, class, msg, bytes, None, out);
        SendStatus::Accepted
    }

    fn frame_arrived(&mut self, now: SimTime, frame: Frame<WirePayload<M>>, out: &mut Effects<M>) {
        debug_assert_eq!(frame.dst, self.node);
        let WirePayload::Via(pkt) = frame.payload else {
            panic!("VIA NIC received a non-VIA frame");
        };
        let peer = frame.src;
        match pkt {
            ViaPacket::ConnReq { incarnation } => {
                if self.vis.live(peer, incarnation).is_none() {
                    // If a VI to the peer's *previous* incarnation is
                    // still up, the fail-stop model says that peer died:
                    // surface the break before accepting the new one.
                    if self.is_connected(peer) {
                        self.teardown(now, peer, BreakReason::PeerReset, out);
                    }
                    let credits = self.config.credits_per_vi;
                    *self.vis.slot(peer) =
                        Some(Vi::new(now, ViState::Established, incarnation, credits));
                    self.connected(now, peer, out);
                }
                let incarnation = self.incarnation;
                self.transmit(peer, 0, ViaPacket::ConnAck { incarnation }, out);
            }
            ViaPacket::ConnAck { incarnation } => {
                let Some(vi) = self.vis.vi_mut(peer) else {
                    return;
                };
                if vi.state == ViState::ReqSent {
                    vi.state = ViState::Established;
                    vi.peer_inc = incarnation;
                    self.timer_gen += 1;
                    vi.timer_gen = self.timer_gen;
                    self.connected(now, peer, out);
                    self.drain_pending(now, peer, out);
                }
            }
            ViaPacket::Disconnect => {
                self.teardown(now, peer, BreakReason::PeerReset, out);
            }
            ViaPacket::Data {
                msg,
                class,
                bytes,
                poison,
                incarnation,
            } => {
                if self.vis.live(peer, incarnation).is_none() {
                    self.transmit(peer, 0, ViaPacket::Disconnect, out);
                    return;
                }
                if let Some(p) = poison {
                    // The corrupted operation completes in error here too.
                    self.stats.completion_errors += 1;
                    self.trace_completion_error(now, peer, "remote", p, out);
                    out.push(Effect::Upcall(Upcall::CompletionError {
                        peer,
                        site: ErrorSite::Remote,
                        cause: p.cause(),
                    }));
                    return;
                }
                if self.app_receiving {
                    self.deliver(now, peer, msg, class, bytes, out);
                } else {
                    self.parked.push((peer, msg, class, bytes));
                }
            }
            ViaPacket::Credit { n, incarnation } => {
                if self.vis.live(peer, incarnation).is_none() {
                    return;
                }
                out.push(Effect::ChargeCpu(self.cost.credit_cost));
                let vi = self.vis.vi_mut(peer).expect("checked");
                vi.credits = (vi.credits + n).min(self.config.credits_per_vi);
                self.drain_pending(now, peer, out);
            }
        }
    }

    fn transmit_failed(
        &mut self,
        now: SimTime,
        peer: NodeId,
        reason: LossReason,
        out: &mut Effects<M>,
    ) {
        // Fail-stop: the SAN reported a fault; the VI is broken (§7:
        // "packet loss signals more serious problems than transient
        // congestion").
        self.teardown(now, peer, BreakReason::NicError(reason), out);
    }

    fn timer_fired(&mut self, now: SimTime, key: TimerKey, out: &mut Effects<M>) {
        if key.kind != TimerKind::Connect {
            return;
        }
        let peer = key.peer;
        let Some(vi) = self.vis.vi_mut(peer) else {
            return;
        };
        if key.gen != vi.timer_gen || vi.state != ViState::ReqSent {
            return;
        }
        if now.saturating_since(vi.opened_at) >= self.config.connect_give_up {
            self.teardown(now, peer, BreakReason::RetransmitTimeout, out);
            return;
        }
        let incarnation = self.incarnation;
        self.transmit(peer, 0, ViaPacket::ConnReq { incarnation }, out);
        out.push(Effect::SetTimer {
            at: now + self.config.connect_retry,
            key,
        });
    }

    fn set_pin_fail(&mut self, failing: bool) {
        self.pin_fail = failing;
    }

    fn restart(&mut self, _now: SimTime) {
        self.vis.clear();
        self.parked.clear();
        self.incarnation += 1;
        self.pin_fail = false;
        self.app_receiving = true;
        self.pinned_pages = self.config.startup_pinned_pages;
    }

    fn set_trace(&mut self, enabled: bool) {
        self.trace = enabled;
    }

    fn set_attr(&mut self, enabled: bool) {
        self.attr = enabled;
    }

    fn export_metrics(&self, reg: &mut telemetry::MetricsRegistry) {
        let s = &self.stats;
        reg.counter_add("via.messages_sent", s.messages_sent);
        reg.counter_add("via.messages_delivered", s.messages_delivered);
        reg.counter_add("via.completion_errors", s.completion_errors);
        reg.counter_add("via.conn_breaks", s.conn_breaks);
        reg.counter_add("via.credit_stalls", s.credit_stalls);
        reg.counter_add("via.pin_failures", s.pin_failures);
        reg.gauge_set(
            &format!("via.pinned_pages.node{}", self.node.0),
            f64::from(self.pinned_pages),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ferry::exchange;

    type Nic = ViaNic<&'static str>;

    fn pair(mode: ViaMode) -> (Nic, Nic) {
        let cfg = match mode {
            ViaMode::Messaging => ViaConfig::messaging(),
            ViaMode::RemoteWrite => ViaConfig::remote_write(),
        };
        let cost = match mode {
            ViaMode::Messaging => CostModel::via0(),
            ViaMode::RemoteWrite => CostModel::via3(),
        };
        (
            ViaNic::new(NodeId(0), cfg.clone(), cost.clone()),
            ViaNic::new(NodeId(1), cfg, cost),
        )
    }

    fn connect(a: &mut Nic, b: &mut Nic) {
        let mut out = Vec::new();
        a.open(SimTime::ZERO, b.node(), &mut out);
        exchange(SimTime::ZERO, &mut [a, b], out);
        assert!(a.is_connected(b.node()) && b.is_connected(a.node()));
    }

    #[test]
    fn handshake_and_round_trip() {
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "ping",
            64,
            CallParams::default(),
            &mut out,
        );
        assert_eq!(st, SendStatus::Accepted);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "ping", .. })));
        assert_eq!(b.stats().messages_delivered, 1);
    }

    #[test]
    fn credits_deplete_and_return_in_batches() {
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        let start = a.credits(NodeId(1));
        // Send a batch-worth of messages.
        let mut all = Vec::new();
        for _ in 0..8 {
            let mut out = Vec::new();
            a.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::Forward,
                "m",
                64,
                CallParams::default(),
                &mut out,
            );
            all.extend(out);
        }
        exchange(SimTime::ZERO, &mut [&mut a, &mut b], all);
        // The receiver consumed 8 and returned the batch: credits back to full.
        assert_eq!(a.credits(NodeId(1)), start);
        assert_eq!(b.stats().messages_delivered, 8);
    }

    #[test]
    fn credit_exhaustion_blocks_sender_when_peer_stops_consuming() {
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        // Hang b's application: credits never return.
        let mut out = Vec::new();
        b.set_app_receiving(SimTime::ZERO, false, &mut out);
        let mut blocked = false;
        for _ in 0..200 {
            let mut out = Vec::new();
            let st = a.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::Forward,
                "m",
                64,
                CallParams::default(),
                &mut out,
            );
            exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
            if st == SendStatus::WouldBlock {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "sender must block once credits and queue are full");
        // Resume: parked deliveries flow and credits return.
        let mut out = Vec::new();
        b.set_app_receiving(SimTime::ZERO, true, &mut out);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().any(|u| matches!(u, Upcall::Deliver { .. })));
    }

    #[test]
    fn any_transmission_fault_breaks_the_connection() {
        let (mut a, mut b) = pair(ViaMode::RemoteWrite);
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.transmit_failed(SimTime::ZERO, NodeId(1), LossReason::SrcLinkDown, &mut out);
        assert!(matches!(
            out.as_slice(),
            [Effect::Upcall(Upcall::ConnBroken {
                reason: BreakReason::NicError(LossReason::SrcLinkDown),
                ..
            })]
        ));
        assert!(!a.is_connected(NodeId(1)));
        assert_eq!(a.stats().conn_breaks, 1);
    }

    #[test]
    fn null_pointer_messaging_errors_locally_only() {
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::FileData,
            "x",
            8192,
            CallParams {
                ptr: PtrParam::Null,
                size_delta: 0,
            },
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        let locals = ups
            .iter()
            .filter(|u| {
                matches!(
                    u,
                    Upcall::CompletionError {
                        site: ErrorSite::Local,
                        ..
                    }
                )
            })
            .count();
        let remotes = ups
            .iter()
            .filter(|u| {
                matches!(
                    u,
                    Upcall::CompletionError {
                        site: ErrorSite::Remote,
                        ..
                    }
                )
            })
            .count();
        assert_eq!((locals, remotes), (1, 0));
        assert_eq!(b.stats().messages_delivered, 0);
    }

    #[test]
    fn null_pointer_remote_write_errors_at_both_ends() {
        let (mut a, mut b) = pair(ViaMode::RemoteWrite);
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::FileData,
            "x",
            8192,
            CallParams {
                ptr: PtrParam::Null,
                size_delta: 0,
            },
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        let locals = ups
            .iter()
            .filter(|u| {
                matches!(
                    u,
                    Upcall::CompletionError {
                        site: ErrorSite::Local,
                        ..
                    }
                )
            })
            .count();
        let remotes = ups
            .iter()
            .filter(|u| {
                matches!(
                    u,
                    Upcall::CompletionError {
                        site: ErrorSite::Remote,
                        ..
                    }
                )
            })
            .count();
        assert_eq!((locals, remotes), (1, 1), "RDMA faults report at both ends");
    }

    #[test]
    fn off_by_size_messaging_errors_at_receiver_only() {
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::FileData,
            "x",
            8192,
            CallParams {
                ptr: PtrParam::Valid,
                size_delta: 40,
            },
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        let remotes = ups
            .iter()
            .filter(|u| {
                matches!(
                    u,
                    Upcall::CompletionError {
                        site: ErrorSite::Remote,
                        ..
                    }
                )
            })
            .count();
        let locals = ups
            .iter()
            .filter(|u| {
                matches!(
                    u,
                    Upcall::CompletionError {
                        site: ErrorSite::Local,
                        ..
                    }
                )
            })
            .count();
        assert_eq!((locals, remotes), (0, 1));
    }

    #[test]
    fn later_messages_are_unaffected_by_a_bad_descriptor() {
        // Message boundaries contain the damage — the key contrast with
        // TCP's byte stream.
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "bad",
            64,
            CallParams {
                ptr: PtrParam::OffBy(50),
                size_delta: 0,
            },
            &mut out,
        );
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "good",
            64,
            CallParams::default(),
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "good", .. })));
        assert!(
            a.is_connected(NodeId(1)),
            "the VI survives a bad descriptor"
        );
    }

    #[test]
    fn pinning_respects_the_ceiling_and_the_fault() {
        let mut cfg = ViaConfig::remote_write();
        cfg.startup_pinned_pages = 100;
        cfg.pinned_page_limit = 150;
        let mut nic: Nic = ViaNic::new(NodeId(0), cfg, CostModel::via5());
        let mut out = Vec::new();
        assert!(nic.register_pages(SimTime::ZERO, 40, &mut out).is_ok());
        assert_eq!(nic.pinned_pages(), 140);
        // Above the ceiling: rejected.
        let err = nic
            .register_pages(SimTime::ZERO, 20, &mut out)
            .expect_err("over limit");
        assert_eq!(err.limit, 150);
        // Pin fault: nothing new can be pinned, but existing pins stay.
        nic.set_pin_fail(true);
        assert!(nic.register_pages(SimTime::ZERO, 1, &mut out).is_err());
        assert_eq!(nic.pinned_pages(), 140);
        // Releasing memory and clearing the fault recovers.
        nic.deregister_pages(SimTime::ZERO, 40, &mut out);
        nic.set_pin_fail(false);
        assert!(nic.register_pages(SimTime::ZERO, 20, &mut out).is_ok());
        assert_eq!(nic.stats().pin_failures, 2);
    }

    #[test]
    fn alloc_fault_is_a_no_op_for_via() {
        // Pre-allocation immunity (§5.4).
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        a.set_alloc_fail(true);
        b.set_alloc_fail(true);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "still works",
            64,
            CallParams::default(),
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().any(|u| matches!(
            u,
            Upcall::Deliver {
                msg: "still works",
                ..
            }
        )));
    }

    #[test]
    fn peer_restart_discovered_by_disconnect() {
        let (mut a, mut b) = pair(ViaMode::Messaging);
        connect(&mut a, &mut b);
        b.restart(SimTime::ZERO);
        let mut out = Vec::new();
        a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "m",
            64,
            CallParams::default(),
            &mut out,
        );
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        assert!(ups.iter().any(|u| matches!(
            u,
            Upcall::ConnBroken {
                reason: BreakReason::PeerReset,
                ..
            }
        )));
        assert!(!a.is_connected(NodeId(1)));
    }

    /// The connect-retry timer `out` arms.
    fn armed(out: &Effects<&'static str>) -> TimerKey {
        out.iter()
            .find_map(|e| match e {
                Effect::SetTimer { key, .. } => Some(*key),
                _ => None,
            })
            .expect("a connect-retry timer")
    }

    /// A VI opened again after a teardown or a restart must not answer
    /// the retry timer its predecessor left pending: that would run two
    /// ConnReq retry chains for one VI.
    #[test]
    fn reopened_vi_ignores_its_predecessors_retry_timer() {
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let mut nic: Nic = ViaNic::new(NodeId(0), ViaConfig::remote_write(), CostModel::via5());
        let mut out = Vec::new();
        nic.open(at(0), NodeId(1), &mut out);
        let first = armed(&out);
        out.clear();
        nic.transmit_failed(at(0), NodeId(1), LossReason::DstNodeDown, &mut out);
        out.clear();
        nic.open(at(100), NodeId(1), &mut out);
        let second = armed(&out);
        out.clear();
        nic.timer_fired(at(500), first, &mut out);
        assert!(out.is_empty(), "the torn-down VI's timer acted: {out:?}");
        nic.timer_fired(at(600), second, &mut out);
        assert_eq!(armed(&out), second, "the live VI still retries");

        out.clear();
        nic.restart(at(700));
        nic.open(at(700), NodeId(1), &mut out);
        out.clear();
        nic.timer_fired(at(1100), second, &mut out);
        assert!(out.is_empty(), "a pre-restart timer acted: {out:?}");
    }

    #[test]
    fn restart_restores_startup_pin_baseline() {
        let mut cfg = ViaConfig::remote_write();
        cfg.startup_pinned_pages = 64;
        let mut nic: Nic = ViaNic::new(NodeId(0), cfg, CostModel::via5());
        let mut out = Vec::new();
        nic.register_pages(SimTime::ZERO, 500, &mut out).unwrap();
        nic.restart(SimTime::ZERO);
        assert_eq!(nic.pinned_pages(), 64);
    }
}
