//! Quickstart: boot the 4-node PRESS cluster on VIA, serve traffic for
//! ten simulated seconds, and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cluster_performability::experiments::{ClusterConfig, ClusterSim};
use cluster_performability::press::PressVersion;
use cluster_performability::simnet::SimTime;

fn main() {
    // The paper's test-bed: 4 nodes, 128 MB cooperative caches, 1 Gb/s
    // cLAN fabric, driven slightly above nominal peak.
    let version = PressVersion::Via5;
    let config = ClusterConfig::paper_defaults(version);
    println!(
        "booting {} on {} nodes at {:.0} req/s offered load...",
        version, config.press.nodes, config.rate
    );

    let mut sim = ClusterSim::new(config, 42);
    sim.run_until(SimTime::from_secs(10));

    let report = sim.report();
    println!(
        "served {} of {} requests ({:.3}% availability)",
        report.availability.successes,
        report.availability.attempts,
        report.availability.availability() * 100.0
    );
    println!(
        "steady-state throughput: {:.0} req/s (paper's Table 1: {:.0})",
        sim.mean_throughput(3.0, 10.0),
        version.paper_throughput()
    );
    println!(
        "cluster state: {} nodes cooperating, all processes running: {}",
        report.final_members[0], report.all_running
    );
    println!(
        "response times: p50 {:.1} ms, p99 {:.1} ms",
        report.latency.quantile(0.50) * 1e3,
        report.latency.quantile(0.99) * 1e3
    );
}
