//! The trace event model: spans and instants on the simulated clock.
//!
//! Events are deliberately plain data — no interior mutability, no
//! global state — so a transport can hand one to the composition layer
//! through its ordinary effect buffer and equality/cloning keep
//! working in tests.

use std::borrow::Cow;

use simnet::{SimDuration, SimTime};

/// Pseudo-thread id for cluster-wide events (fault injection, process
/// lifecycle) that belong to no single node's lane.
pub const TID_CLUSTER: u32 = 90;
/// Pseudo-thread id for the client population's lane.
pub const TID_CLIENTS: u32 = 91;
/// Pseudo-thread id for the derived stage-A–G lane.
pub const TID_STAGES: u32 = 92;

/// Whether an event covers an interval or marks a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval `[start, start + dur]` — emitted once the end
    /// is known, so no begin/end pairing is ever needed downstream
    /// (Chrome's "complete" `ph: "X"` shape).
    Span {
        /// When the interval began.
        start: SimTime,
        /// How long it lasted.
        dur: SimDuration,
    },
    /// A point event (Chrome's `ph: "i"` instant).
    Instant {
        /// When it happened.
        at: SimTime,
    },
}

/// One attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, ids, sizes).
    U64(u64),
    /// Signed integer (deltas, offsets).
    I64(i64),
    /// Static or owned string (names, reasons).
    Str(Cow<'static, str>),
}

/// One `key: value` attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Arg {
    /// Attribute name.
    pub key: &'static str,
    /// Attribute value.
    pub value: ArgValue,
}

/// One structured trace event, stamped with simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (Perfetto slice title).
    pub name: Cow<'static, str>,
    /// Category: `"tcp"`, `"via"`, `"press"`, `"fault"`, `"client"`,
    /// `"stage"` — Perfetto can filter on these.
    pub cat: &'static str,
    /// Lane: the node index for per-node events, or one of
    /// [`TID_CLUSTER`] / [`TID_CLIENTS`] / [`TID_STAGES`].
    pub tid: u32,
    /// Interval or point.
    pub kind: EventKind,
    /// Attributes (node, fault, version, ...).
    pub args: Vec<Arg>,
}

impl TraceEvent {
    /// A point event at `at`.
    pub fn instant(
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        tid: u32,
        at: SimTime,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat,
            tid,
            kind: EventKind::Instant { at },
            args: Vec::new(),
        }
    }

    /// A closed interval starting at `start` and lasting `dur`.
    pub fn span(
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        tid: u32,
        start: SimTime,
        dur: SimDuration,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat,
            tid,
            kind: EventKind::Span { start, dur },
            args: Vec::new(),
        }
    }

    /// Adds an unsigned-integer attribute (builder style).
    #[must_use]
    pub fn arg_u64(mut self, key: &'static str, value: u64) -> Self {
        self.args.push(Arg {
            key,
            value: ArgValue::U64(value),
        });
        self
    }

    /// Adds a signed-integer attribute (builder style).
    #[must_use]
    pub fn arg_i64(mut self, key: &'static str, value: i64) -> Self {
        self.args.push(Arg {
            key,
            value: ArgValue::I64(value),
        });
        self
    }

    /// Adds a string attribute (builder style).
    #[must_use]
    pub fn arg_str(mut self, key: &'static str, value: impl Into<Cow<'static, str>>) -> Self {
        self.args.push(Arg {
            key,
            value: ArgValue::Str(value.into()),
        });
        self
    }

    /// The event's anchor time: span start or instant time. Exporters
    /// use this; it is also handy for asserting ordering in tests.
    pub fn at(&self) -> SimTime {
        match self.kind {
            EventKind::Span { start, .. } => start,
            EventKind::Instant { at } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_attaches_args_in_order() {
        let ev = TraceEvent::instant("tcp.retransmit", "tcp", 2, SimTime::from_nanos(5_000_000))
            .arg_u64("peer", 3)
            .arg_i64("delta", -1)
            .arg_str("why", "rto");
        assert_eq!(ev.args.len(), 3);
        assert_eq!(ev.args[0].key, "peer");
        assert_eq!(ev.args[0].value, ArgValue::U64(3));
        assert_eq!(ev.args[2].value, ArgValue::Str("rto".into()));
        assert_eq!(ev.at(), SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn span_anchor_is_its_start() {
        let ev = TraceEvent::span(
            "request",
            "client",
            0,
            SimTime::from_secs(1),
            SimDuration::from_millis(30),
        );
        assert_eq!(ev.at(), SimTime::from_secs(1));
        assert_eq!(
            ev.kind,
            EventKind::Span {
                start: SimTime::from_secs(1),
                dur: SimDuration::from_millis(30)
            }
        );
    }
}
