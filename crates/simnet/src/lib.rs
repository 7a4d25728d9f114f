//! Deterministic discrete-event simulation substrate for cluster experiments.
//!
//! `simnet` provides the pieces every other crate in this workspace builds
//! on:
//!
//! * [`time`] — fixed-point simulated time ([`SimTime`]) and durations
//!   ([`SimDuration`]) with nanosecond resolution.
//! * [`engine`] — a generic event queue ([`Engine`]) with deterministic
//!   FIFO tie-breaking for simultaneous events.
//! * [`rng`] — a seeded random source ([`SimRng`]) so every simulation run
//!   is exactly reproducible.
//! * [`cpu`] — per-node CPU time accounting ([`CpuMeter`]).
//! * [`stats`] — throughput recording and time-series utilities used to
//!   produce the paper's figures.
//! * [`fabric`] — a model of the intra-cluster network: NICs, links and a
//!   single switch with latency, bandwidth, queueing and fail-stop faults.
//!
//! # Example
//!
//! ```
//! use simnet::{Engine, SimDuration, SimTime};
//!
//! let mut engine: Engine<&str> = Engine::new();
//! engine.schedule_in(SimDuration::from_millis(5), "hello");
//! engine.schedule_in(SimDuration::from_millis(1), "world");
//!
//! let (t, ev) = engine.pop().unwrap();
//! assert_eq!(ev, "world");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(1));
//! ```

pub mod cpu;
pub mod engine;
pub mod fabric;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use cpu::CpuMeter;
pub use engine::{CancelToken, CompactLane, Engine, Lane};
pub use fabric::{Fabric, Frame, NodeId, Topology, TransmitOutcome};
pub use rng::SimRng;
pub use slab::Slab;
pub use stats::{AvailabilityCounter, LatencyHistogram, ThroughputRecorder, TimeSeries};
pub use time::{SimDuration, SimTime};
