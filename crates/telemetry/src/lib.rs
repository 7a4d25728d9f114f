//! Sim-time observability for the cluster simulation.
//!
//! The paper's whole argument rests on *where time goes* inside the
//! cluster during a fault — detection latency, reconfiguration, stream
//! stalls — so this crate gives every layer of the stack a shared
//! vocabulary for saying so:
//!
//! * [`event`] — structured spans and instants stamped with
//!   **simulated** time (never wall-clock), carrying node / fault /
//!   version attributes. Because every timestamp comes from the
//!   discrete-event engine's clock, a trace is byte-identical for a
//!   given seed no matter how many worker threads produced it.
//! * [`sink`] — where events go while a run executes. The disabled
//!   sink is a unit enum variant, so a traced call site costs one
//!   predictable branch when tracing is off.
//! * [`metrics`] — a registry of named counters, gauges and
//!   log-bucketed histograms snapshotted once per run (retransmits,
//!   pin failures, cache hits, per-node CPU busy fraction, ...).
//! * [`export`] — Chrome-trace JSON (loadable in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev), with sim-time mapped to
//!   trace microseconds), a JSONL event log, and a plain-text metrics
//!   summary. All exporters format through integer math and ordered
//!   maps so output bytes are reproducible.
//! * [`json`] — a dependency-free JSON value type (sorted-key,
//!   byte-deterministic writer + strict parser) shared by the bench
//!   harness (`BENCH_repro.json`) and the report generator.
//! * [`attr`] — causal root-cause attribution: every lost or late
//!   request is classified into exactly one communication-architecture
//!   cause (fault kill, retransmit stall, broadcast freeze, detection
//!   lag, gray loss, overload), conservation-checked against the
//!   client pool's scores.
//!
//! The crate depends only on `simnet` (for [`simnet::SimTime`]); the
//! transports, PRESS, and the composition layer all emit into it.

pub mod attr;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod sink;

pub use attr::{AttrEvent, AttrReport, AttrState, RootCause, RunTotals, CAUSES, NCAUSES};
pub use event::{Arg, ArgValue, EventKind, TraceEvent, TID_CLIENTS, TID_CLUSTER, TID_STAGES};
pub use export::{chrome_trace_json, jsonl_log, RunTrace, JSONL_SCHEMA, JSONL_VERSION};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::TraceSink;
