//! The wire format: segments and the framed messages they carry.

use crate::api::MsgClass;

/// A record of one framed application message on the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgRec<M> {
    /// Stream offset one past the last byte.
    pub end: u64,
    /// The message (simulation carries it out of band; on real hardware
    /// these bytes are the stream content).
    pub msg: M,
    /// Message class tag.
    pub class: MsgClass,
    /// Declared payload size.
    pub bytes: u32,
    /// Whether a bad-parameter fault garbled this message's bytes (and
    /// therefore the framing of everything after it).
    pub poisoned: bool,
}

/// Discriminates segment roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Connection request.
    Syn,
    /// Connection accept.
    SynAck,
    /// Data and/or acknowledgement.
    Data,
    /// Hard reset.
    Rst,
}

/// One TCP segment on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpSegment<M> {
    /// Segment role.
    pub kind: SegKind,
    /// The connection (socket pair) this segment belongs to; assigned by
    /// the connection initiator, echoed by resets.
    pub conn: u64,
    /// First stream byte carried (data segments).
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Cumulative acknowledgement.
    pub ack: u64,
    /// Advertised receive window: `false` means zero window (the peer
    /// application stopped consuming).
    pub window_open: bool,
    /// Messages whose final byte lies within this segment.
    pub msgs: Vec<MsgRec<M>>,
}

impl<M> TcpSegment<M> {
    /// A segment without payload: a SYN, SYN-ACK, reset or bare ACK.
    pub(super) fn control(kind: SegKind, conn: u64, ack: u64, window_open: bool) -> Self {
        TcpSegment {
            kind,
            conn,
            seq: 0,
            len: 0,
            ack,
            window_open,
            msgs: Vec::new(),
        }
    }
}
