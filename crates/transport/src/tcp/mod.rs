//! Kernel-style TCP model.
//!
//! Captures the TCP properties the paper's results depend on:
//!
//! * **Byte-stream abstraction.** Application messages are framed on a
//!   stream; a bad pointer or size corrupts the framing of *everything
//!   after the fault* (§1, §5.5). The receiver discovers the corruption
//!   as a framing error and resets the connection.
//! * **Timeout and retry.** Packet loss is assumed transient: segments
//!   are retransmitted with exponential backoff and the connection only
//!   aborts after [`ABORT_AFTER`] (~13 minutes), which makes
//!   TCP fault *detection* far too slow to drive reconfiguration (§5.2).
//! * **Dynamic kernel memory.** Every packet needs an skbuf; when
//!   allocation fails, outgoing segments queue in the kernel and
//!   incoming packets are dropped (§4.2, §5.4).
//! * **Synchronous `EFAULT`.** A NULL data pointer is caught by the
//!   kernel at the system-call boundary (§5.5).
//! * **Connections are sockets, not peers.** A restarted process
//!   connects on a *new* socket while peers may still hold stalled old
//!   connections to its previous life; the old ones die only when a
//!   retransmission reaches the rebooted kernel and draws a reset. This
//!   coexistence is what produces the paper's failed-rejoin timing race
//!   (§5.3).
//!
//! # Who owns what
//!
//! [`TcpStack`] alone sees [`Effects`]: it holds each peer's sockets,
//! the node-wide skbuf and receive state and the counters, and turns
//! into effects what four pure per-socket machines decide: the
//! crate's shared `lifecycle`, and `send`, `reliability` and
//! `reassembly`. `segment` is the wire format.

mod reassembly;
mod reliability;
mod segment;
mod send;

use simnet::fabric::{Frame, NodeId};
use simnet::{SimDuration, SimTime};

use crate::api::{
    trace_instant, BreakReason, CallParams, Effect, Effects, MsgClass, PtrParam, SendStatus,
    Substrate, TimerKey, TimerKind, Upcall, WirePayload,
};
use crate::cost::CostModel;
use crate::lifecycle::{ConnectStep, Lifecycle};
use crate::peers::PeerSlots;
use reassembly::Reassembly;
use reliability::{Reliability, RtxFire};
pub use segment::{MsgRec, SegKind, TcpSegment};
use send::SendQueue;

// A Linux 2.2-era stack on the paper's test-bed, fixed for every run.

/// Maximum payload bytes per segment.
const MSS: u32 = 8192;
/// Wire overhead per segment (IP + TCP headers).
const HEADER_BYTES: u32 = 40;
/// Send-buffer size in bytes; sends beyond this return
/// [`SendStatus::WouldBlock`].
const SEND_BUFFER: u64 = 32 * 1024;
/// Initial retransmission timeout.
const INITIAL_RTO: SimDuration = SimDuration::from_millis(200);
/// Retransmission timeout ceiling.
const MAX_RTO: SimDuration = SimDuration::from_secs(64);
/// Time a segment may remain unacknowledged before the connection is
/// aborted. The paper observes "on the order of 10-15 minutes".
pub const ABORT_AFTER: SimDuration = SimDuration::from_secs(780);
/// Retry interval while kernel memory allocation is failing.
const ALLOC_RETRY: SimDuration = SimDuration::from_millis(10);
/// SYN retransmission interval.
const CONNECT_RETRY: SimDuration = SimDuration::from_secs(1);
/// Give up on connection establishment after this long.
const CONNECT_GIVE_UP: SimDuration = SimDuration::from_secs(12);

#[derive(Debug)]
struct Conn<M> {
    id: u64,
    life: Lifecycle,
    tx: SendQueue<M>,
    rtx: Reliability,
    rx: Reassembly<M>,
}

impl<M: Clone> Conn<M> {
    fn new(id: u64, life: Lifecycle) -> Self {
        Conn {
            id,
            life,
            tx: SendQueue::new(SEND_BUFFER),
            rtx: Reliability::new(),
            rx: Reassembly::new(),
        }
    }

    /// The data segment over `[seq, end)`, sent or resent.
    fn segment(&self, seq: u64, end: u64, window_open: bool) -> TcpSegment<M> {
        TcpSegment {
            kind: SegKind::Data,
            conn: self.id,
            seq,
            len: (end - seq) as u32,
            ack: self.rx.rcv_next(),
            window_open,
            msgs: self.tx.records(seq, end),
        }
    }
}

impl<M> PeerSlots<Vec<Conn<M>>> {
    fn conn_mut(&mut self, peer: NodeId, id: u64) -> Option<&mut Conn<M>> {
        self.get_mut(peer)?.iter_mut().find(|c| c.id == id)
    }

    /// The socket sends to `peer` use: the newest established one, else
    /// the newest pending one.
    fn active(&mut self, peer: NodeId) -> Option<&mut Conn<M>> {
        self.get_mut(peer)?
            .iter_mut()
            .max_by_key(|c| (c.life == Lifecycle::Established, c.id))
    }
}

/// Counters for observing stack behaviour in tests and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmissions).
    pub data_segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Messages delivered to the application.
    pub messages_delivered: u64,
    /// Connections aborted by the retransmission deadline.
    pub aborts: u64,
    /// Framing errors detected (stream corruption).
    pub framing_errors: u64,
    /// Sends rejected synchronously with `EFAULT`.
    pub efaults: u64,
    /// Segments that could not get an skbuf.
    pub alloc_failures: u64,
    /// Resets sent in response to segments for unknown connections.
    pub rsts_sent: u64,
}

/// The TCP endpoint of one node: its sockets to every peer plus the
/// node-wide kernel-memory state.
///
/// # Example
///
/// ```
/// use simnet::fabric::NodeId;
/// use simnet::SimTime;
/// use transport::tcp::TcpStack;
/// use transport::{CallParams, CostModel, Effects, MsgClass, SendStatus, Substrate};
///
/// let mut a: TcpStack<&str> = TcpStack::new(NodeId(0), CostModel::tcp());
/// let mut out = Effects::default();
/// a.open(SimTime::ZERO, NodeId(1), &mut out);
/// // Until the handshake completes the message is queued, not refused:
/// let st = a.send(SimTime::ZERO, NodeId(1), MsgClass::Forward, "hi", 64,
///                 CallParams::default(), &mut out);
/// assert_eq!(st, SendStatus::Accepted);
/// ```
#[derive(Debug)]
pub struct TcpStack<M> {
    node: NodeId,
    cost: CostModel,
    next_conn: u64,
    alloc_fail: bool,
    app_receiving: bool,
    /// The sockets to each peer, oldest first: the one sends use (see
    /// `active`) and any closing ones.
    conns: PeerSlots<Vec<Conn<M>>>,
    parked: Vec<(NodeId, MsgRec<M>)>,
    /// Scratch for assembling in-order deliveries in `on_data`;
    /// kept on the stack so steady-state receive reuses its capacity
    /// instead of allocating a fresh buffer per data segment.
    delivery: Vec<MsgRec<M>>,
    stats: TcpStats,
}

impl<M: Clone> TcpStack<M> {
    /// Creates the endpoint for `node`.
    pub fn new(node: NodeId, cost: CostModel) -> Self {
        TcpStack {
            node,
            cost,
            // Connection ids must stay unique across process restarts on
            // this node: start from a node-distinct base.
            next_conn: node.0 as u64 * 1_000_000_000 + 1,
            alloc_fail: false,
            app_receiving: true,
            conns: PeerSlots::default(),
            parked: Vec::new(),
            delivery: Vec::new(),
            stats: TcpStats::default(),
        }
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Bytes buffered (sent-but-unacked plus unsent) towards `peer`,
    /// over all of its connections.
    pub fn buffered_bytes(&self, peer: NodeId) -> u64 {
        self.conns
            .get(peer)
            .map_or(0, |v| v.iter().map(|c| c.tx.buffered()).sum())
    }

    /// Number of live connections (sockets) towards `peer`.
    pub fn conn_count(&self, peer: NodeId) -> usize {
        self.conns.get(peer).map_or(0, Vec::len)
    }

    fn transmit(&self, peer: NodeId, seg: TcpSegment<M>, out: &mut Effects<M>) {
        out.push(Effect::Transmit(Frame {
            src: self.node,
            dst: peer,
            bytes: seg.len + HEADER_BYTES,
            payload: WirePayload::Tcp(seg),
        }));
    }

    fn emit_ack(&mut self, peer: NodeId, conn: u64, ack: u64, out: &mut Effects<M>) {
        if self.alloc_fail {
            self.stats.alloc_failures += 1;
            return; // the kernel cannot even build an ACK
        }
        out.push(Effect::ChargeCpu(self.cost.ack_cost));
        let seg = TcpSegment::control(SegKind::Data, conn, ack, self.app_receiving);
        self.transmit(peer, seg, out);
    }

    fn send_rst(&mut self, peer: NodeId, conn: u64, out: &mut Effects<M>) {
        if self.alloc_fail {
            return;
        }
        self.stats.rsts_sent += 1;
        self.transmit(peer, TcpSegment::control(SegKind::Rst, conn, 0, true), out);
    }

    fn arm_timer(
        &mut self,
        now: SimTime,
        peer: NodeId,
        conn: u64,
        kind: TimerKind,
        delay: SimDuration,
        out: &mut Effects<M>,
    ) {
        let Some(c) = self.conns.conn_mut(peer, conn) else {
            return;
        };
        let gen = c.rtx.arm(now, kind, delay);
        let key = TimerKey {
            node: self.node,
            peer,
            conn,
            kind,
            gen,
        };
        out.push(Effect::SetTimer {
            at: now + delay,
            key,
        });
    }

    /// Transmits as much buffered stream as windows and kernel memory
    /// allow on connection `conn`.
    fn pump(&mut self, now: SimTime, peer: NodeId, conn: u64, out: &mut Effects<M>) {
        let mss = u64::from(MSS);
        loop {
            let Some(c) = self.conns.conn_mut(peer, conn) else {
                return;
            };
            let established = c.life == Lifecycle::Established;
            let Some((seq, end)) = c.tx.next_range(mss).filter(|_| established) else {
                return;
            };
            if self.alloc_fail {
                self.stats.alloc_failures += 1;
                if c.tx.start_alloc_wait() {
                    self.arm_timer(now, peer, conn, TimerKind::AllocRetry, ALLOC_RETRY, out);
                }
                return;
            }
            c.tx.sent_up_to(end);
            let arm = c.rtx.on_transmit(now);
            let seg = c.segment(seq, end, self.app_receiving);
            self.stats.data_segments_sent += 1;
            out.push(Effect::ChargeCpu(self.cost.checksum_cost(seg.len)));
            self.transmit(peer, seg, out);
            if let Some(rto) = arm {
                self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
            }
        }
    }

    /// Drops socket `conn` and reports the break upstream. Abandoning an
    /// established socket also resets the peer, unless the peer reset it.
    fn teardown(
        &mut self,
        now: SimTime,
        peer: NodeId,
        conn: u64,
        reason: BreakReason,
        out: &mut Effects<M>,
    ) {
        let sockets = self.conns.slot(peer);
        let Some(i) = sockets.iter().position(|c| c.id == conn) else {
            return;
        };
        if sockets.remove(i).life == Lifecycle::Established && reason != BreakReason::PeerReset {
            self.send_rst(peer, conn, out);
        }
        trace_instant(out, "tcp.conn_break", self.node, now, |e| {
            e.arg_u64("peer", peer.0 as u64)
                .arg_u64("conn", conn)
                .arg_str("reason", reason.label())
        });
        out.push(Effect::Upcall(Upcall::ConnBroken { peer, reason }));
    }

    fn connected(&self, now: SimTime, peer: NodeId, out: &mut Effects<M>) {
        trace_instant(out, "tcp.connected", self.node, now, |e| {
            e.arg_u64("peer", peer.0 as u64)
        });
        out.push(Effect::Upcall(Upcall::Connected { peer }));
    }

    fn deliver(&mut self, peer: NodeId, rec: MsgRec<M>, out: &mut Effects<M>) {
        // Interrupt and checksum were already charged per segment in
        // on_data; the per-message work left is the protocol fixed
        // cost plus the copy to user space.
        let copy_ns = f64::from(rec.bytes) * self.cost.copy_ns_per_byte_recv;
        let cost = self.cost.recv_fixed + SimDuration::from_nanos(copy_ns as u64);
        out.push(Effect::ChargeCpu(cost));
        self.stats.messages_delivered += 1;
        out.push(Effect::Upcall(Upcall::Deliver {
            peer,
            msg: rec.msg,
            class: rec.class,
            bytes: rec.bytes,
        }));
    }

    /// A data segment or bare ACK arrived.
    fn on_data(&mut self, now: SimTime, peer: NodeId, seg: TcpSegment<M>, out: &mut Effects<M>) {
        let conn = seg.conn;
        let known = self.conns.conn_mut(peer, conn);
        let Some(c) = known.filter(|c| c.life == Lifecycle::Established) else {
            // A segment for a socket we do not have (e.g. we restarted):
            // answer with a reset.
            self.send_rst(peer, conn, out);
            return;
        };
        if let Some(writable) = c.tx.on_ack(seg.ack, seg.window_open) {
            let rearm = c.rtx.on_progress(now, c.tx.outstanding());
            out.push(Effect::ChargeCpu(self.cost.ack_cost));
            if let Some(rto) = rearm {
                self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
            }
            if writable {
                out.push(Effect::Upcall(Upcall::Writable { peer }));
            }
        }
        self.pump(now, peer, conn, out);
        // A bare ACK completes nothing; data costs an interrupt and a
        // checksum per segment (ACKs are interrupt-coalesced).
        if seg.len == 0 {
            return;
        }
        let rx_cost = self.cost.interrupt + self.cost.checksum_cost(seg.len);
        out.push(Effect::ChargeCpu(rx_cost));
        let Some(c) = self.conns.conn_mut(peer, conn) else {
            return;
        };
        // Deliver completed messages in stream order.
        let mut ready = std::mem::take(&mut self.delivery);
        let corrupted = c.rx.receive(seg.seq, seg.len, seg.msgs, &mut ready);
        let ack = c.rx.rcv_next();
        for rec in ready.drain(..) {
            if self.app_receiving {
                self.deliver(peer, rec, out);
            } else {
                self.parked.push((peer, rec));
            }
        }
        self.delivery = ready;
        if corrupted {
            // Framing is unrecoverable: the length prefix read from the
            // stream is garbage. Reset the connection.
            self.stats.framing_errors += 1;
            trace_instant(out, "tcp.framing_error", self.node, now, |e| {
                e.arg_u64("peer", peer.0 as u64)
            });
            self.teardown(now, peer, conn, BreakReason::StreamCorrupt, out);
            return;
        }
        self.emit_ack(peer, conn, ack, out);
    }
}

impl<M: Clone> Substrate<M> for TcpStack<M> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn open(&mut self, now: SimTime, peer: NodeId, out: &mut Effects<M>) {
        // Re-opening supersedes any half-open attempt but coexists with
        // established sockets (old or new).
        let id = self.next_conn;
        self.next_conn += 1;
        let sockets = self.conns.slot(peer);
        sockets.retain(|c| c.life == Lifecycle::Established);
        let life = Lifecycle::Opening { opened_at: now };
        sockets.push(Conn::new(id, life));
        self.transmit(peer, TcpSegment::control(SegKind::Syn, id, 0, true), out);
        self.arm_timer(now, peer, id, TimerKind::Connect, CONNECT_RETRY, out);
    }

    fn close(&mut self, peer: NodeId) {
        self.conns.slot(peer).clear();
        self.parked.retain(|(p, _)| *p != peer);
    }

    fn is_connected(&self, peer: NodeId) -> bool {
        self.conns
            .get(peer)
            .is_some_and(|v| v.iter().any(|c| c.life == Lifecycle::Established))
    }

    /// Pauses or resumes application-level consumption (models the
    /// process being SIGSTOPed: the kernel stays alive and advertises a
    /// zero window, so peers stall instead of seeing a failure — the
    /// paper's node-hang behaviour, §5.3).
    fn set_app_receiving(&mut self, _now: SimTime, receiving: bool, out: &mut Effects<M>) {
        if self.app_receiving == receiving {
            return;
        }
        self.app_receiving = receiving;
        if receiving {
            let parked = std::mem::take(&mut self.parked);
            for (peer, rec) in parked {
                self.deliver(peer, rec, out);
            }
        }
        // Advertise the new window on every connection.
        let targets: Vec<(NodeId, u64, u64)> = self
            .conns
            .iter()
            .flat_map(|(p, v)| v.iter().map(move |c| (p, c.id, c.rx.rcv_next())))
            .collect();
        for (peer, conn, rcv_next) in targets {
            self.emit_ack(peer, conn, rcv_next, out);
        }
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
        let Some(c) = self.conns.active(peer) else {
            return SendStatus::NotConnected;
        };
        // NULL pointers are caught synchronously by the kernel: EFAULT.
        if params.ptr == PtrParam::Null {
            self.stats.efaults += 1;
            trace_instant(out, "tcp.efault", self.node, now, |e| {
                e.arg_u64("peer", peer.0 as u64)
            });
            out.push(Effect::ChargeCpu(SimDuration::from_micros(2)));
            return SendStatus::SyncError;
        }
        let conn = c.id;
        let status = c.tx.push(msg, class, bytes, params);
        if status == SendStatus::Accepted {
            out.push(Effect::ChargeCpu(
                self.cost.send_cost(bytes, class.is_bulk()),
            ));
            self.pump(now, peer, conn, out);
        }
        status
    }

    fn frame_arrived(&mut self, now: SimTime, frame: Frame<WirePayload<M>>, out: &mut Effects<M>) {
        debug_assert_eq!(frame.dst, self.node);
        let WirePayload::Tcp(seg) = frame.payload else {
            // A VIA packet on a TCP node would be a wiring bug.
            panic!("TCP stack received a non-TCP frame");
        };
        let peer = frame.src;
        // Kernel memory exhaustion: arriving packets are dropped before
        // protocol processing (§5.4).
        if self.alloc_fail && seg.kind != SegKind::Rst {
            self.stats.alloc_failures += 1;
            return;
        }
        let id = seg.conn;
        match seg.kind {
            SegKind::Syn => {
                if self.conns.conn_mut(peer, id).is_none() {
                    // A fresh socket from the peer — it coexists with any
                    // older connections we still hold to that node.
                    let c = Conn::new(id, Lifecycle::Established);
                    self.conns.slot(peer).push(c);
                    self.connected(now, peer, out);
                }
                let reply = TcpSegment::control(SegKind::SynAck, id, 0, self.app_receiving);
                self.transmit(peer, reply, out);
            }
            SegKind::SynAck => {
                let Some(c) = self.conns.conn_mut(peer, id) else {
                    return;
                };
                if c.life.on_accepted() {
                    self.connected(now, peer, out);
                    self.pump(now, peer, id, out);
                }
            }
            SegKind::Rst => self.teardown(now, peer, id, BreakReason::PeerReset, out),
            SegKind::Data => self.on_data(now, peer, seg, out),
        }
    }

    fn timer_fired(&mut self, now: SimTime, key: TimerKey, out: &mut Effects<M>) {
        let (peer, conn) = (key.peer, key.conn);
        let current = self.conns.conn_mut(peer, conn);
        let Some(c) = current.filter(|c| c.rtx.is_current(key.gen)) else {
            return; // stale
        };
        match key.kind {
            TimerKind::Retransmit => match c.rtx.on_fire(now, c.tx.outstanding()) {
                RtxFire::Idle => {}
                RtxFire::Wait(wait) => {
                    self.arm_timer(now, peer, conn, TimerKind::Retransmit, wait, out);
                }
                RtxFire::Abort(stalled) => {
                    self.stats.aborts += 1;
                    trace_instant(out, "tcp.abort", self.node, now, |e| {
                        e.arg_u64("peer", peer.0 as u64)
                            .arg_u64("stalled_us", stalled.as_nanos() / 1_000)
                    });
                    out.evidence(telemetry::AttrEvent::Abort);
                    self.teardown(now, peer, conn, BreakReason::RetransmitTimeout, out);
                }
                RtxFire::Due(rto) if self.alloc_fail => {
                    // Can't rebuild the segment without kernel memory;
                    // retry on the same schedule.
                    self.stats.alloc_failures += 1;
                    self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
                }
                RtxFire::Due(_) => {
                    // Go-back-N lite: resend the oldest window segment.
                    let (seq, end) = c.tx.unacked_range(u64::from(MSS));
                    let rto = c.rtx.backoff();
                    let seg = c.segment(seq, end, self.app_receiving);
                    self.stats.data_segments_sent += 1;
                    self.stats.retransmissions += 1;
                    trace_instant(out, "tcp.retransmit", self.node, now, |e| {
                        e.arg_u64("peer", peer.0 as u64)
                            .arg_u64("seq", seq)
                            .arg_u64("rto_us", rto.as_nanos() / 1_000)
                    });
                    out.evidence(telemetry::AttrEvent::Retransmit);
                    self.transmit(peer, seg, out);
                    self.arm_timer(now, peer, conn, TimerKind::Retransmit, rto, out);
                }
            },
            TimerKind::AllocRetry => {
                c.tx.end_alloc_wait();
                self.pump(now, peer, conn, out);
            }
            TimerKind::Connect => match c.life.on_connect_timer(now, CONNECT_GIVE_UP) {
                ConnectStep::Ignore => {}
                ConnectStep::GiveUp => {
                    self.teardown(now, peer, conn, BreakReason::RetransmitTimeout, out);
                }
                ConnectStep::Retry => {
                    self.transmit(peer, TcpSegment::control(SegKind::Syn, conn, 0, true), out);
                    self.arm_timer(now, peer, conn, TimerKind::Connect, CONNECT_RETRY, out);
                }
            },
        }
    }

    fn set_alloc_fail(&mut self, failing: bool) {
        self.alloc_fail = failing;
    }

    fn restart(&mut self, _now: SimTime) {
        self.conns.clear();
        self.parked.clear();
        self.alloc_fail = false;
        self.app_receiving = true;
    }

    fn export_metrics(&self, reg: &mut telemetry::MetricsRegistry) {
        let s = &self.stats;
        reg.counter_add("tcp.data_segments_sent", s.data_segments_sent);
        reg.counter_add("tcp.retransmissions", s.retransmissions);
        reg.counter_add("tcp.messages_delivered", s.messages_delivered);
        reg.counter_add("tcp.aborts", s.aborts);
        reg.counter_add("tcp.framing_errors", s.framing_errors);
        reg.counter_add("tcp.efaults", s.efaults);
        reg.counter_add("tcp.alloc_failures", s.alloc_failures);
        reg.counter_add("tcp.rsts_sent", s.rsts_sent);
    }
}

#[cfg(test)]
mod tests;
