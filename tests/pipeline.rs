//! End-to-end pipeline tests: phase 1 → stage extraction → phase 2 →
//! the paper's qualitative conclusions, on the shrunk test-bed.

use cluster_performability::experiments::{
    behaviors_for_load, evaluate, version_profile, ClusterConfig, ClusterSim, RunScale,
};
use cluster_performability::performability::fault_load::{paper_fault_load, ModelFault, MONTH};
use cluster_performability::performability::metric::IDEAL_AVAILABILITY;
use cluster_performability::performability::sensitivity::{
    crossover_multiplier, performability_at,
};
use cluster_performability::press::PressVersion;
use cluster_performability::simnet::SimTime;

#[test]
fn runs_are_deterministic_and_seed_sensitive() {
    let run = |seed: u64| {
        let mut sim = ClusterSim::new(ClusterConfig::small(PressVersion::Via3), seed);
        sim.run_until(SimTime::from_secs(6));
        let r = sim.report();
        (
            r.availability.attempts,
            r.availability.successes,
            r.throughput.points,
        )
    };
    assert_eq!(run(99), run(99), "same seed, same world");
    assert_ne!(run(99).2, run(100).2, "different seed, different world");
}

#[test]
fn latency_distribution_is_plausible_under_light_load() {
    let mut sim = ClusterSim::new(ClusterConfig::small(PressVersion::Via5), 5);
    sim.run_until(SimTime::from_secs(8));
    let lat = sim.report().latency;
    assert!(lat.count() > 3_000);
    // Sub-saturated: most requests finish in a few ms, all within the
    // client timeout.
    assert!(lat.quantile(0.5) < 0.05, "p50 {}", lat.quantile(0.5));
    assert!(lat.quantile(0.99) < 6.0, "p99 {}", lat.quantile(0.99));
    assert!(lat.mean() > 0.0);
}

/// The paper's central (and surprising) §6.2 result, end to end: under
/// the same fault load, the VIA versions deliver better availability
/// than the TCP versions, and the fastest version wins performability.
#[test]
fn headline_results_hold_on_the_small_testbed() {
    let profiles: Vec<_> = PressVersion::ALL
        .iter()
        .map(|v| version_profile(*v, RunScale::Small, 4242))
        .collect();
    let load = paper_fault_load(MONTH);
    let results: Vec<_> = profiles.iter().map(|p| evaluate(p, &load)).collect();

    let get = |v: PressVersion| {
        results
            .iter()
            .find(|r| r.version == v)
            .expect("all versions evaluated")
    };
    let tcp = get(PressVersion::Tcp);
    let hb = get(PressVersion::TcpHb);
    for via in [PressVersion::Via0, PressVersion::Via3, PressVersion::Via5] {
        let r = get(via);
        assert!(
            r.availability > tcp.availability,
            "{via}: {} should beat TCP-PRESS {}",
            r.availability,
            tcp.availability
        );
        assert!(
            r.performability > tcp.performability && r.performability > hb.performability,
            "{via} should win performability"
        );
    }
    // Heartbeats help TCP, even if they can misfire.
    assert!(hb.availability > tcp.availability);
    // Availability is "uniformly terrible": nobody reaches five nines.
    for r in &results {
        assert!(
            r.availability < 0.99999,
            "{}: {}",
            r.version,
            r.availability
        );
    }
}

/// Scaling VIA's switch/link/application fault rates must eventually
/// hand TCP the lead, with a crossover strictly above 1x.
#[test]
fn via_lead_erodes_with_fault_rate() {
    let via = version_profile(PressVersion::Via5, RunScale::Small, 77);
    let tcp = version_profile(PressVersion::TcpHb, RunScale::Small, 77);
    let load = paper_fault_load(MONTH);
    let via_behaviors = behaviors_for_load(&via, &load);
    let tcp_behaviors = behaviors_for_load(&tcp, &load);
    let tcp_p = performability_at(tcp.tn, &tcp_behaviors, 1.0, IDEAL_AVAILABILITY, |_| false);
    let result = crossover_multiplier(
        via.tn,
        &via_behaviors,
        tcp_p,
        IDEAL_AVAILABILITY,
        64.0,
        ModelFault::scales_for_via_pessimism,
    )
    .expect("a crossover must exist: VIA leads at 1x but degrades with rate");
    assert!(
        result.multiplier > 1.2,
        "crossover at {:.2}x should be comfortably above 1x",
        result.multiplier
    );
}
