//! Where events go while a run executes.
//!
//! The design constraint is the acceptance bar "near-free when
//! disabled": the fault-free hot path must not pay for tracing it is
//! not doing. [`TraceSink::Off`] is a unit variant, so the per-event
//! cost when disabled is one branch on a discriminant that the
//! emitting layer has already checked via [`TraceSink::enabled`] (or a
//! cached `bool`) *before* constructing the event at all.

use crate::event::TraceEvent;

/// The per-run event sink.
#[derive(Debug, Default)]
pub enum TraceSink {
    /// Tracing disabled: [`TraceSink::emit`] is a no-op.
    #[default]
    Off,
    /// Tracing enabled: events accumulate in order of emission. Boxed
    /// so the disabled variant stays pointer-sized inside `ClusterSim`.
    On(Box<Vec<TraceEvent>>),
}

impl TraceSink {
    /// An enabled sink, or [`TraceSink::Off`].
    pub fn new(enabled: bool) -> Self {
        if enabled {
            TraceSink::On(Box::default())
        } else {
            TraceSink::Off
        }
    }

    /// Whether events will be kept. Emitting layers check this first
    /// so the disabled path never constructs an event.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, TraceSink::On(_))
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        if let TraceSink::On(buf) = self {
            buf.push(ev);
        }
    }

    /// Records the event built by `f`, constructing it only when the
    /// sink is enabled — the disabled path pays one discriminant check.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let TraceSink::On(buf) = self {
            buf.push(f());
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        match self {
            TraceSink::Off => 0,
            TraceSink::On(buf) => buf.len(),
        }
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the buffered events, leaving an enabled-but-empty sink
    /// (or `Off` untouched).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        match self {
            TraceSink::Off => Vec::new(),
            TraceSink::On(buf) => std::mem::take(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    #[test]
    fn off_sink_drops_events() {
        let mut sink = TraceSink::new(false);
        assert!(!sink.enabled());
        sink.emit(TraceEvent::instant("x", "t", 0, SimTime::ZERO));
        assert!(sink.is_empty());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn on_sink_keeps_emission_order() {
        let mut sink = TraceSink::new(true);
        assert!(sink.enabled());
        sink.emit(TraceEvent::instant("a", "t", 0, SimTime::from_secs(2)));
        sink.emit(TraceEvent::instant("b", "t", 0, SimTime::from_secs(1)));
        let evs = sink.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[1].name, "b");
        // Still enabled after take.
        assert!(sink.enabled());
        assert!(sink.is_empty());
    }
}
