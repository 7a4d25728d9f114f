//! Composition layer: wires the discrete-event engine, network fabric,
//! transports, PRESS nodes, clients, and the Mendosus injector into one
//! runnable cluster, and defines the paper's experiments on top of it.
//!
//! * [`cluster`] — [`ClusterSim`]: the live 4-node cluster.
//! * [`phase1`] — single-fault injection runs: throughput timelines,
//!   stage markers, and 7-stage extraction (§5).
//! * [`phase2`] — analytic combination under Table 3 fault loads:
//!   unavailability, performability, sensitivity scenarios (§6).
//! * [`montecarlo`] — Monte-Carlo performability over generated fault
//!   timelines: correlated groups, gray faults, overlapping arrivals.
//! * [`membership`] — ring-vs-gossip detector study: detection-latency
//!   scaling, gray-fault false exclusions, rejoin latency over
//!   N ∈ {4, 8, 16, 32}.
//! * [`scale`] — cluster-size scaling study over N ∈ {4, 16, 64}:
//!   eager-broadcast vs batched-digest cache synchronization on a
//!   fat-tree fabric, reporting Tn/AT/AA/P and control-frame cost.
//! * [`figures`] — one entry point per table/figure of the paper.
//! * [`render`] — plain-text rendering of timelines and bar charts.
//! * [`runner`] — one observed run, its measures, and deterministic
//!   parallel execution of independent runs.

pub mod cluster;
pub mod figures;
pub mod membership;
pub mod montecarlo;
pub mod phase1;
pub mod phase2;
pub mod render;
pub mod runner;
pub mod scale;

pub use cluster::{events_dispatched_total, ClusterConfig, ClusterReport, ClusterSim};

pub use membership::{crossover_n, MembershipPoint};
pub use montecarlo::{
    closed_form_crosscheck, montecarlo_results, overlap_profile, run_montecarlo, CrossCheck,
    McReplication, McRun, MonteCarloSetup, OverlapProfile,
};
pub use phase1::{
    attr_stage_spans, attr_totals, measure_warmup, run_fault_experiment, FaultRunResult,
    FaultScenario,
};
pub use phase2::{
    behaviors_for_load, evaluate, version_profile, version_profiles, Phase2Result, RunScale,
    VersionProfile,
};
pub use runner::{effective_jobs, run_indexed};
pub use scale::ScalePoint;
