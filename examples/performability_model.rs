//! Phase 2 standalone: the analytic performability model with
//! hand-written stage parameters — no simulation at all.
//!
//! This is the paper's §2.2–2.3 machinery usable as a plain library:
//! describe how a server responds to each fault (the 7-stage model),
//! give fault rates (Table 3), and get availability and performability.
//!
//! ```text
//! cargo run --example performability_model
//! ```

use cluster_performability::performability::fault_load::{paper_fault_load, DAY, MONTH};
use cluster_performability::performability::metric::{performability, IDEAL_AVAILABILITY};
use cluster_performability::performability::model::{average_availability, FaultBehavior};
use cluster_performability::performability::stages::{SevenStage, Stage};

fn main() {
    let tn = 5_000.0; // requests per second in normal operation

    // A hypothetical server: detects any fault in 15 s (throughput zero
    // until then), then runs at 3/4 capacity until the component is
    // repaired, with a 20 s half-speed transient after recovery.
    let mut stages = SevenStage::zeroed();
    stages.set(Stage::A, 15.0, 0.0);
    stages.set(Stage::C, 0.0, 0.75 * tn); // stretched to each MTTR below
    stages.set(Stage::D, 20.0, 0.5 * tn);

    for (label, app_mttf) in [("one app fault per day", DAY), ("one per month", MONTH)] {
        let behaviors: Vec<FaultBehavior> = paper_fault_load(app_mttf)
            .into_iter()
            .map(|entry| FaultBehavior {
                stages: stages.scaled_to_repair(entry.mttr),
                entry,
            })
            .collect();
        let aa = average_availability(tn, &behaviors);
        let p = performability(tn, aa, IDEAL_AVAILABILITY);
        println!("{label}:");
        println!(
            "  average availability AA = {aa:.6}  (unavailability {:.1} ppm)",
            (1.0 - aa) * 1e6
        );
        println!("  performability P = {p:.1}  (Tn x log(0.99999)/log(AA))");
        // Which fault classes hurt most?
        let mut worst: Vec<(String, f64)> = behaviors
            .iter()
            .map(|b| (b.entry.fault.name().to_string(), b.unavailability(tn)))
            .collect();
        worst.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("  top contributors:");
        for (name, u) in worst.iter().take(3) {
            println!("    {name:<42} {:.1} ppm", u * 1e6);
        }
        println!();
    }
}
