//! Single-file HTML performability dashboards and the blind
//! stage-segmentation audit.
//!
//! Two halves, both deterministic and dependency-free:
//!
//! - [`dashboard::render_report`] turns a repro target's
//!   [`experiments::phase1::FaultRunResult`]s into one standalone HTML
//!   page — inline-SVG throughput timelines with A–G stage bands and
//!   event annotations, per-stage response-time percentiles, the
//!   phase-2 AT/AA/P projection, Table 3's fault-load weights, and the
//!   `repro -- all` wall-time history. No JavaScript, no network: the
//!   file is the artifact.
//! - [`montecarlo::render_mc_report`] is the dashboard's Monte-Carlo
//!   counterpart: per-replication timelines with one band per
//!   active-fault interval (stacked into lanes when faults overlap)
//!   and the AT/AA confidence intervals.
//! - [`audit::audit_run`] re-derives each run's stage segmentation
//!   *blind* — an exact piecewise-constant change-point fit over the
//!   raw throughput series, which never sees the run log — and diffs it
//!   against the log-derived markers. Disagreements surface in the
//!   report and fail `repro -- audit`.
//!
//! Rendering does no file, clock, or randomness access, so report
//! bytes are identical across runs and `--jobs` values; the repro
//! harness diffs them in CI.

pub mod audit;
pub mod dashboard;
mod html;
pub mod montecarlo;
mod svg;

pub use audit::{
    audit_run, audit_series, AuditConfig, AuditSegment, Finding, FindingKind, RunAudit,
};
pub use dashboard::{parse_bench_history, render_report, BenchHistoryPoint, ReportMeta};
pub use montecarlo::render_mc_report;
