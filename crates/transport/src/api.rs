//! The substrate-neutral API between the application and the transports.
//!
//! The application sees one interface ([`Substrate`]) regardless of
//! whether TCP or VIA is underneath — just as PRESS has one code
//! structure with "VI end-points replaced by TCP sockets" (§3). Every
//! behavioural difference between the substrates is expressed through the
//! *results*: synchronous [`SendStatus`] values, asynchronous [`Upcall`]s
//! and when/whether connections break.

use simnet::fabric::{Frame, LossReason, NodeId};
use simnet::{SimDuration, SimTime};

use crate::tcp::TcpSegment;
use crate::via::ViaPacket;

/// What a transport puts on the wire: either a TCP segment or a VIA
/// packet. The fabric treats payloads opaquely.
#[derive(Debug, Clone, PartialEq)]
pub enum WirePayload<M> {
    /// A TCP segment (possibly ACK-only or RST).
    Tcp(TcpSegment<M>),
    /// A VIA packet (data, credit update, or connection management).
    Via(ViaPacket<M>),
}

/// Classifies application messages so fault interposition can target a
/// particular call site (e.g. mangle only file-data sends) and so cost
/// models can treat bulk data differently from control traffic.
///
/// The `Ord` derive (declaration order) gives fault specs a total
/// order, which the campaign layer uses to break same-instant ties
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgClass {
    /// A forwarded HTTP request (small).
    Forward,
    /// File contents travelling from service node to initial node (bulk).
    FileData,
    /// Cooperative-cache membership broadcast (small).
    CacheUpdate,
    /// Heartbeat (small, TCP-PRESS-HB only).
    Heartbeat,
    /// Cluster membership / rejoin control traffic (small).
    Control,
}

impl MsgClass {
    /// Whether this class carries bulk data (eligible for zero-copy).
    pub fn is_bulk(self) -> bool {
        matches!(self, MsgClass::FileData)
    }

    /// Short stable name for trace attributes and logs.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Forward => "forward",
            MsgClass::FileData => "file-data",
            MsgClass::CacheUpdate => "cache-update",
            MsgClass::Heartbeat => "heartbeat",
            MsgClass::Control => "control",
        }
    }
}

/// The (possibly corrupted) data-pointer argument of a send/receive call.
///
/// Models the paper's §4.3 bad-parameter faults: NULL pointers and
/// off-by-N pointers with N in `[0, 100]` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PtrParam {
    /// A correct pointer.
    #[default]
    Valid,
    /// NULL.
    Null,
    /// Offset from the correct address by `n` bytes.
    OffBy(i32),
}

/// Parameters of one communication call, as seen *after* any fault
/// interposition. A clean call is `CallParams::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallParams {
    /// The data pointer argument.
    pub ptr: PtrParam,
    /// Bytes added to (or, negative, removed from) the correct length.
    pub size_delta: i32,
}

impl CallParams {
    /// `true` when no parameter was mangled.
    pub fn is_clean(&self) -> bool {
        *self == CallParams::default()
    }
}

/// Interposition hook between the application and the communication
/// library — the mechanism Mendosus uses to inject bad-parameter faults
/// (§4.3: "interposing a software layer between the application and the
/// normal communication library").
pub trait SendInterposer {
    /// Possibly corrupts the parameters of one send call.
    fn mangle(&mut self, now: SimTime, class: MsgClass, params: CallParams) -> CallParams;
}

/// An interposer that never changes anything (fault-free operation).
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanInterposer;

impl SendInterposer for CleanInterposer {
    fn mangle(&mut self, _now: SimTime, _class: MsgClass, params: CallParams) -> CallParams {
        params
    }
}

/// Synchronous result of [`Substrate::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendStatus {
    /// The message was accepted for (eventual) transmission.
    Accepted,
    /// The send buffer / credit window is full; the caller must stop
    /// sending to this peer until [`Upcall::Writable`] arrives. This is
    /// how a blocking socket manifests to the simulation.
    WouldBlock,
    /// Synchronous error: the kernel rejected the buffer address
    /// (`EFAULT`). Only TCP detects NULL pointers synchronously (§5.5).
    SyncError,
    /// There is no usable connection to the peer.
    NotConnected,
}

/// Kinds of timers a transport can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// TCP retransmission timeout for a connection.
    Retransmit,
    /// Retry loop while kernel memory allocation is failing.
    AllocRetry,
    /// Connection-establishment retry.
    Connect,
}

impl TimerKind {
    /// Number of timer kinds, for dense per-connection indexing.
    pub const COUNT: usize = 3;

    /// Dense index of this kind in `[0, TimerKind::COUNT)`.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            TimerKind::Retransmit => 0,
            TimerKind::AllocRetry => 1,
            TimerKind::Connect => 2,
        }
    }
}

/// Identifies a scheduled transport timer. Transports never *require*
/// cancellation — stale firings are detected by comparing `gen` against
/// the connection's current generation — but a composition layer may use
/// the `gen` stamps to cancel superseded timers before they transit the
/// event queue (see `Engine::schedule_cancellable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKey {
    /// The node whose transport armed the timer.
    pub node: NodeId,
    /// The peer the timer concerns.
    pub peer: NodeId,
    /// The connection the timer concerns (0 for transports with one
    /// connection per peer).
    pub conn: u64,
    /// What the timer is for.
    pub kind: TimerKind,
    /// Generation stamp for staleness detection.
    pub gen: u64,
}

/// Error returned by [`Substrate::register_pages`] when memory cannot
/// be pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PinFailed;

impl std::fmt::Display for PinFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("memory-locking request rejected")
    }
}

impl std::error::Error for PinFailed {}

/// Why a connection broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakReason {
    /// The NIC reported a transmission fault (VIA fail-stop).
    NicError(LossReason),
    /// TCP gave up after retransmitting for the abort interval.
    RetransmitTimeout,
    /// The peer answered with a reset (e.g. it restarted).
    PeerReset,
    /// The receiver detected stream corruption (framing error).
    StreamCorrupt,
    /// The local application asked for a teardown.
    LocalClose,
}

impl BreakReason {
    /// Short stable name for trace attributes and logs.
    pub fn label(self) -> &'static str {
        match self {
            BreakReason::NicError(_) => "nic-error",
            BreakReason::RetransmitTimeout => "retransmit-timeout",
            BreakReason::PeerReset => "peer-reset",
            BreakReason::StreamCorrupt => "stream-corrupt",
            BreakReason::LocalClose => "local-close",
        }
    }
}

/// Where a completion error was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorSite {
    /// On the node that issued the bad call.
    Local,
    /// On the remote node (bad RDMA writes land remotely).
    Remote,
}

/// Asynchronous notifications from the transport to the application.
#[derive(Debug, Clone, PartialEq)]
pub enum Upcall<M> {
    /// A complete application message arrived from `peer`.
    Deliver {
        /// Sending node.
        peer: NodeId,
        /// The message.
        msg: M,
        /// Message class as tagged by the sender.
        class: MsgClass,
        /// Size the sender declared.
        bytes: u32,
    },
    /// A previously full send path has space again.
    Writable {
        /// The peer that can be written to again.
        peer: NodeId,
    },
    /// The connection to `peer` is gone.
    ConnBroken {
        /// The peer whose connection broke.
        peer: NodeId,
        /// Why.
        reason: BreakReason,
    },
    /// A connection to `peer` completed establishment.
    Connected {
        /// The newly connected peer.
        peer: NodeId,
    },
    /// A communication descriptor completed with an error status. VIA
    /// reports bad parameters this way (asynchronously); PRESS treats
    /// these as fatal and fail-fasts (§5.5).
    CompletionError {
        /// The peer involved.
        peer: NodeId,
        /// Whether the error was detected locally or arrived from the
        /// remote end of an RDMA operation.
        site: ErrorSite,
        /// Human-readable cause, for reports.
        cause: &'static str,
    },
}

/// Side effects requested by a transport call.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect<M> {
    /// Hand a frame to the fabric.
    Transmit(Frame<WirePayload<M>>),
    /// Arm a timer; the composition layer must call
    /// [`Substrate::timer_fired`] with `key` at time `at`.
    SetTimer {
        /// When the timer fires.
        at: SimTime,
        /// Identity passed back on firing.
        key: TimerKey,
    },
    /// Charge protocol CPU time to this node (copies, interrupts,
    /// descriptor handling...). The composition layer adds it to the
    /// node's [`simnet::CpuMeter`].
    ChargeCpu(SimDuration),
    /// Notify the application.
    Upcall(Upcall<M>),
    /// Record a structured trace event. Only emitted after
    /// [`Substrate::set_trace`] enabled tracing, so the fault-free
    /// benchmark path never constructs one; the composition layer
    /// forwards it to the run's [`telemetry::TraceSink`].
    Trace(telemetry::TraceEvent),
    /// Record a causal attribution event (retransmit/abort/freeze
    /// evidence). Only emitted after [`Substrate::set_attr`] enabled
    /// attribution; the composition layer applies it to the run's
    /// [`telemetry::AttrState`] in event order.
    Attr(telemetry::AttrEvent),
}

/// Convenience alias: the buffer all transport entry points append
/// effects to.
pub type Effects<M> = Vec<Effect<M>>;

/// Appends the trace instant `name` on `node`'s lane at `now`, with the
/// attributes `args` adds, when `enabled`. The category is the name's
/// prefix (`"tcp.abort"` is a `"tcp"` event). The event is only built
/// while tracing is on, so the disabled path costs one branch.
pub(crate) fn trace_instant<M>(
    out: &mut Effects<M>,
    enabled: bool,
    name: &'static str,
    node: NodeId,
    now: SimTime,
    args: impl FnOnce(telemetry::TraceEvent) -> telemetry::TraceEvent,
) {
    if enabled {
        let cat = name.split_once('.').map_or(name, |(cat, _)| cat);
        let event = telemetry::TraceEvent::instant(name, cat, node.0 as u32, now);
        out.push(Effect::Trace(args(event)));
    }
}

/// One intra-cluster communication endpoint (all connections of one node).
///
/// Implementations: [`crate::tcp::TcpStack`] and [`crate::via::ViaNic`].
pub trait Substrate<M: Clone> {
    /// The node this endpoint lives on.
    fn node(&self) -> NodeId;

    /// Starts (or restarts) connection establishment towards `peer`.
    fn open(&mut self, now: SimTime, peer: NodeId, out: &mut Effects<M>);

    /// Tears down the connection to `peer` locally, without an upcall
    /// and without notifying the peer (PRESS closes connections to nodes
    /// it excludes from the cluster).
    fn close(&mut self, peer: NodeId);

    /// Whether a usable connection to `peer` exists.
    fn is_connected(&self, peer: NodeId) -> bool;

    /// Registers (pins) `pages` 4 KB pages for communication use.
    ///
    /// TCP does not pin memory, so the default implementation always
    /// succeeds without charging anything; VIA overrides this with real
    /// accounting (and the Mendosus memory-locking fault).
    ///
    /// # Errors
    ///
    /// Returns [`PinFailed`] when the pinnable-memory ceiling would be
    /// exceeded.
    fn register_pages(
        &mut self,
        _now: SimTime,
        _pages: u32,
        _out: &mut Effects<M>,
    ) -> Result<(), PinFailed> {
        Ok(())
    }

    /// Releases pages previously registered with
    /// [`Substrate::register_pages`]. Default: no-op.
    fn deregister_pages(&mut self, _now: SimTime, _pages: u32, _out: &mut Effects<M>) {}

    /// Sends one application message.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        now: SimTime,
        peer: NodeId,
        class: MsgClass,
        msg: M,
        bytes: u32,
        params: CallParams,
        out: &mut Effects<M>,
    ) -> SendStatus;

    /// A frame addressed to this node arrived from the fabric.
    fn frame_arrived(&mut self, now: SimTime, frame: Frame<WirePayload<M>>, out: &mut Effects<M>);

    /// A frame this node transmitted was lost; `reason` says why.
    /// Default: ignored, as TCP does — it assumes losses are transient
    /// congestion and leaves recovery, or the abort, to its retransmit
    /// timer. VIA's fail-stop model breaks the connection.
    fn transmit_failed(
        &mut self,
        _now: SimTime,
        _peer: NodeId,
        _reason: LossReason,
        _out: &mut Effects<M>,
    ) {
    }

    /// A timer armed via [`Effect::SetTimer`] fired.
    fn timer_fired(&mut self, now: SimTime, key: TimerKey, out: &mut Effects<M>);

    /// Pauses or resumes application-level consumption. While paused
    /// (the process is SIGSTOPed), arriving messages are held and the
    /// peer's flow control (zero window / credits) eventually stalls
    /// senders.
    fn set_app_receiving(&mut self, now: SimTime, receiving: bool, out: &mut Effects<M>);

    /// Sets whether kernel memory (skbuf) allocation currently fails on
    /// this node. Only TCP allocates kernel memory per packet. Default:
    /// ignored, as VIA does — it pre-allocates all kernel resources at
    /// channel set-up and is immune (§5.4).
    fn set_alloc_fail(&mut self, _failing: bool) {}

    /// Sets whether memory-pinning requests currently fail on this node.
    /// Only VIA pins memory; see [`crate::via::ViaNic::register_pages`].
    /// Default: ignored, as TCP does.
    fn set_pin_fail(&mut self, _failing: bool) {}

    /// The application process restarted: all endpoint state is lost.
    /// Peers discover this through resets on their next transmission.
    fn restart(&mut self, now: SimTime);

    /// Enables or disables structured tracing. While enabled, the
    /// transport appends [`Effect::Trace`] events (retransmissions,
    /// aborts, descriptor errors, connection breaks...) alongside its
    /// ordinary effects. Default: ignored (never traces).
    fn set_trace(&mut self, _enabled: bool) {}

    /// Enables or disables causal attribution. While enabled, the
    /// transport appends [`Effect::Attr`] evidence (retransmissions,
    /// aborts) alongside its ordinary effects. Default: ignored
    /// (never attributes).
    fn set_attr(&mut self, _enabled: bool) {}

    /// Dumps this endpoint's lifetime counters into a metrics
    /// registry (names like `tcp.retransmissions`); counters from all
    /// nodes of a cluster accumulate into the same keys. Default:
    /// contributes nothing.
    fn export_metrics(&self, _reg: &mut telemetry::MetricsRegistry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_params_are_clean() {
        assert!(CallParams::default().is_clean());
        let bad = CallParams {
            ptr: PtrParam::Null,
            size_delta: 0,
        };
        assert!(!bad.is_clean());
        let bad_size = CallParams {
            ptr: PtrParam::Valid,
            size_delta: 7,
        };
        assert!(!bad_size.is_clean());
    }

    #[test]
    fn clean_interposer_is_identity() {
        let mut i = CleanInterposer;
        let p = CallParams {
            ptr: PtrParam::OffBy(3),
            size_delta: -1,
        };
        assert_eq!(i.mangle(SimTime::ZERO, MsgClass::FileData, p), p);
    }

    #[test]
    fn only_file_data_is_bulk() {
        assert!(MsgClass::FileData.is_bulk());
        for class in [
            MsgClass::Forward,
            MsgClass::CacheUpdate,
            MsgClass::Heartbeat,
            MsgClass::Control,
        ] {
            assert!(!class.is_bulk());
        }
    }
}
