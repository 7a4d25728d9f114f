//! Cross-crate integration tests: the §5 behaviour matrix of the paper,
//! run end-to-end on the shrunk test-bed.
//!
//! Each test asserts the *qualitative* observation the paper reports for
//! a (version, fault) pair; the quantitative shapes are exercised by the
//! repro harness at paper scale.

use cluster_performability::experiments::{
    run_fault_experiment, ClusterConfig, FaultRunResult, FaultScenario,
};
use cluster_performability::mendosus::FaultKind;
use cluster_performability::press::PressVersion;
use cluster_performability::simnet::fabric::NodeId;

fn quick(version: PressVersion, kind: FaultKind, node: usize) -> FaultRunResult {
    run_fault_experiment(
        ClusterConfig::small(version),
        FaultScenario::quick(kind, NodeId(node)),
        1234,
    )
}

fn tail_level(r: &FaultRunResult) -> f64 {
    r.series
        .mean_between(r.markers.end - 10.0, r.markers.end)
        .unwrap_or(0.0)
        / r.tn
}

// ---------------------------------------------------------------------
// §5.2 network hardware failures
// ---------------------------------------------------------------------

#[test]
fn link_fault_all_versions_match_the_paper() {
    // TCP-PRESS: stalls for the fault, never detects, fully recovers.
    let tcp = quick(PressVersion::Tcp, FaultKind::LinkDown, 3);
    assert!(tcp.markers.detected.is_none());
    assert!(tcp.during_fault() < 0.3 * tcp.tn);
    assert!(!tcp.needs_operator_reset);
    assert!(tail_level(&tcp) > 0.8);

    // TCP-PRESS-HB: detects at the 15 s heartbeat threshold, splinters
    // 3+1, and does NOT re-merge when the link returns.
    let hb = quick(PressVersion::TcpHb, FaultKind::LinkDown, 3);
    let lag = hb.markers.detected.expect("hb detects") - hb.markers.fault;
    assert!((10.0..25.0).contains(&lag), "lag {lag}");
    assert!(hb.needs_operator_reset);

    // VIA versions: near-instant detection, same splinter.
    for v in [PressVersion::Via0, PressVersion::Via3, PressVersion::Via5] {
        let via = quick(v, FaultKind::LinkDown, 3);
        let lag = via.markers.detected.expect("via detects") - via.markers.fault;
        assert!(lag < 2.0, "{v}: lag {lag}");
        assert!(via.needs_operator_reset, "{v} must stay splintered");
        // The surviving 3-node side keeps serving during the fault.
        assert!(
            via.during_fault() > 0.4 * via.tn,
            "{v}: {}",
            via.during_fault()
        );
    }
}

#[test]
fn switch_fault_partitions_everything() {
    let via = quick(PressVersion::Via3, FaultKind::SwitchDown, 0);
    // Every node ends up standalone; standalone nodes still serve from
    // their own caches and disks.
    assert!(via.needs_operator_reset);
    assert!(via.during_fault() > 0.0);

    let tcp = quick(PressVersion::Tcp, FaultKind::SwitchDown, 0);
    assert!(
        tcp.during_fault() < 0.3 * tcp.tn,
        "TCP freezes: {}",
        tcp.during_fault()
    );
    assert!(!tcp.needs_operator_reset, "TCP rides it out");
}

// ---------------------------------------------------------------------
// §5.3 node faults
// ---------------------------------------------------------------------

#[test]
fn node_crash_reintegration_depends_on_detection() {
    // HB and VIA reintegrate the rebooted node.
    for v in [PressVersion::TcpHb, PressVersion::Via0, PressVersion::Via5] {
        let r = quick(v, FaultKind::NodeCrash, 3);
        assert!(!r.needs_operator_reset, "{v} must reintegrate");
        assert!(tail_level(&r) > 0.8, "{v} tail {}", tail_level(&r));
    }
    // TCP-PRESS: the rejoin is disregarded while the stale connections
    // look alive; the cluster ends as 3 + a standalone node.
    let tcp = quick(PressVersion::Tcp, FaultKind::NodeCrash, 3);
    assert!(tcp.needs_operator_reset);
    assert_eq!(tcp.report.final_members, vec![3, 3, 3, 1]);
}

#[test]
fn node_hang_stalls_tcp_but_hb_splinters() {
    // TCP-PRESS correctly deduces no fault occurred (throughput falls
    // while everyone waits, then returns).
    let tcp = quick(PressVersion::Tcp, FaultKind::NodeHang, 3);
    assert!(tcp.markers.detected.is_none());
    assert!(tcp.during_fault() < 0.5 * tcp.tn);
    assert!(!tcp.needs_operator_reset);
    assert!(tail_level(&tcp) > 0.8);

    // TCP-PRESS-HB incorrectly declares a fault and splinters.
    let hb = quick(PressVersion::TcpHb, FaultKind::NodeHang, 3);
    assert!(hb.markers.detected.is_some());
    assert!(hb.needs_operator_reset);
}

// ---------------------------------------------------------------------
// §5.4 memory exhaustion
// ---------------------------------------------------------------------

#[test]
fn kernel_alloc_fault_freezes_tcp_only() {
    let tcp = quick(PressVersion::Tcp, FaultKind::KernelAllocFail, 3);
    assert!(
        tcp.during_fault() < 0.3 * tcp.tn,
        "TCP: {}",
        tcp.during_fault()
    );
    assert!(!tcp.needs_operator_reset);

    let hb = quick(PressVersion::TcpHb, FaultKind::KernelAllocFail, 3);
    assert!(
        hb.markers.detected.is_some(),
        "heartbeats flag the mute node"
    );

    // VIA pre-allocates: the fault has no visible effect at all.
    for v in [PressVersion::Via0, PressVersion::Via5] {
        let via = quick(v, FaultKind::KernelAllocFail, 3);
        assert!(
            via.during_fault() > 0.9 * via.tn,
            "{v} should be immune: {} vs {}",
            via.during_fault(),
            via.tn
        );
        assert!(!via.needs_operator_reset);
    }
}

#[test]
fn pin_fault_touches_only_the_zero_copy_version() {
    for v in [PressVersion::Tcp, PressVersion::Via0, PressVersion::Via3] {
        let r = quick(v, FaultKind::MemPinFail, 3);
        assert!(
            r.during_fault() > 0.9 * r.tn,
            "{v} does not pin dynamically: {} vs {}",
            r.during_fault(),
            r.tn
        );
    }
    // VIA-PRESS-5 sheds cache entries it cannot pin; extra misses go to
    // disk. (On the shrunk test-bed the overall dip is small but the
    // shedding must be observable.)
    let r5 = quick(PressVersion::Via5, FaultKind::MemPinFail, 3);
    let skips = r5.report.process_log.is_empty();
    assert!(skips, "no process should die from a pin fault");
    assert!(!r5.needs_operator_reset);
}

// ---------------------------------------------------------------------
// §5.5 application faults
// ---------------------------------------------------------------------

#[test]
fn null_pointer_fault_propagation_differs_by_substrate() {
    // TCP: synchronous EFAULT; nothing dies; throughput barely moves.
    let tcp = quick(PressVersion::Tcp, FaultKind::BadParamNull, 3);
    assert!(
        tcp.report.process_log.is_empty(),
        "{:?}",
        tcp.report.process_log
    );
    assert!(!tcp.needs_operator_reset);

    // VIA-0: asynchronous completion error; the faulting process
    // fail-fasts and restarts.
    let via0 = quick(PressVersion::Via0, FaultKind::BadParamNull, 3);
    let exits0: Vec<usize> = via0
        .report
        .process_log
        .iter()
        .filter(|(_, _, e)| format!("{e:?}") == "Exit")
        .map(|(_, n, _)| n.0)
        .collect();
    assert_eq!(exits0, vec![3], "only the faulting node dies");
    assert!(!via0.needs_operator_reset, "restart + rejoin heals it");

    // VIA-3/5 (remote writes): the error is reported at BOTH ends; two
    // processes die.
    for v in [PressVersion::Via3, PressVersion::Via5] {
        let r = quick(v, FaultKind::BadParamNull, 3);
        let exits = r
            .report
            .process_log
            .iter()
            .filter(|(_, _, e)| format!("{e:?}") == "Exit")
            .count();
        assert_eq!(exits, 2, "{v}: remote-write faults kill both ends");
        assert!(!r.needs_operator_reset, "{v} heals after restarts");
    }
}

#[test]
fn app_crash_and_hang_recover_after_the_fault() {
    for v in [PressVersion::Tcp, PressVersion::TcpHb, PressVersion::Via5] {
        let crash = quick(v, FaultKind::AppCrash, 3);
        assert!(
            crash.report.process_log.len() >= 2,
            "{v}: exit+restart expected, got {:?}",
            crash.report.process_log
        );
        let hang = quick(v, FaultKind::AppHang, 3);
        assert!(hang.during_fault() < hang.tn, "{v}: a hang costs something");
        assert!(
            tail_level(&hang) > 0.7,
            "{v}: hang must be transparent after SIGCONT"
        );
    }
}

// ---------------------------------------------------------------------
// Cross-cutting
// ---------------------------------------------------------------------

#[test]
fn availability_loss_matches_fault_severity() {
    // A 30 s full stall (TCP link fault) must cost far more availability
    // than a 30 s pin fault (cache shedding only).
    let stall = quick(PressVersion::Tcp, FaultKind::LinkDown, 3);
    let shed = quick(PressVersion::Via5, FaultKind::MemPinFail, 3);
    assert!(
        stall.report.availability.availability() + 0.05 < shed.report.availability.availability(),
        "stall {} vs shed {}",
        stall.report.availability.availability(),
        shed.report.availability.availability()
    );
}
