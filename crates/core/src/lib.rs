//! The paper's primary contribution as a library: the two-phase
//! performability evaluation methodology (§2).
//!
//! * [`stages`] — the 7-stage piece-wise linear model of a service's
//!   response to a single fault (Figure 1), plus extraction of stage
//!   parameters from measured throughput timelines.
//! * [`fault_load`] — fault classes with MTTF/MTTR (Table 3) including
//!   the application-fault split observed in the field-failure study the
//!   paper cites (process crash 40%, hang 40%, NULL pointer 8%,
//!   off-by-N pointer 9%, off-by-N size 2%).
//! * [`model`] — phase 2: combining per-fault behaviour with the fault
//!   load into average throughput (AT), average availability (AA) and
//!   per-fault unavailability contributions.
//! * [`metric`] — the performability metric
//!   `P = Tn · log(A_I) / log(AA)`.
//! * [`montecarlo`] — the empirical alternative to the closed-form
//!   model for fault loads it cannot express (correlated groups, gray
//!   faults, overlapping arrivals): average measured throughput over
//!   generated fault timelines, with confidence intervals.
//! * [`sensitivity`] — fault-rate sweeps and the crossover solver that
//!   reproduces the paper's "VIA fault rates must be ≈4× TCP's before
//!   performabilities equalize" result.
//!
//! # Example
//!
//! ```
//! use performability::fault_load::{paper_fault_load, DAY};
//! use performability::metric::performability;
//! use performability::model::{average_availability, FaultBehavior};
//! use performability::stages::SevenStage;
//!
//! let tn = 4965.0;
//! // A fault the server rides out at half throughput for its 3-minute
//! // repair time, with 15s detection at zero throughput:
//! let mut stages = SevenStage::zeroed();
//! stages.set(performability::stages::Stage::A, 15.0, 0.0);
//! stages.set(performability::stages::Stage::C, 165.0, tn / 2.0);
//! let behaviors: Vec<FaultBehavior> = paper_fault_load(DAY)
//!     .into_iter()
//!     .map(|entry| FaultBehavior { entry, stages: stages.clone() })
//!     .collect();
//! let aa = average_availability(tn, &behaviors);
//! assert!(aa > 0.9 && aa < 1.0);
//! let p = performability(tn, aa, 0.99999);
//! assert!(p > 0.0 && p < tn);
//! ```

pub mod fault_load;
pub mod metric;
pub mod model;
pub mod montecarlo;
pub mod sensitivity;
pub mod stages;

pub use fault_load::{paper_fault_load, FaultEntry, ModelFault};
pub use metric::performability;
pub use model::{
    average_availability, average_throughput, unavailability_breakdown, FaultBehavior,
};
pub use montecarlo::{MonteCarloEstimate, MonteCarloResult, Replication};
pub use sensitivity::{crossover_multiplier, CrossoverResult};
pub use stages::{SevenStage, Stage, StageMarkers, StagePoint};
