//! Integration tests for the membership-repair extension (the §6.2
//! "rigorous membership algorithm"): splintered clusters must re-merge
//! without operator intervention once the fabric heals.

use cluster_performability::experiments::{run_fault_experiment, ClusterConfig, FaultScenario};
use cluster_performability::mendosus::FaultKind;
use cluster_performability::press::PressVersion;
use cluster_performability::simnet::fabric::NodeId;

fn run(version: PressVersion, kind: FaultKind, repair: bool) -> (bool, Vec<usize>) {
    let mut config = ClusterConfig::small(version);
    config.press.membership_repair = repair;
    let mut scenario = FaultScenario::quick(kind, NodeId(3));
    // Leave extra time after recovery for probes to converge.
    scenario.run = simnet::SimDuration::from_secs(120);
    let r = run_fault_experiment(config, scenario, 31);
    (r.needs_operator_reset, r.report.final_members)
}

#[test]
fn link_fault_splinters_heal_with_repair() {
    for version in [PressVersion::TcpHb, PressVersion::Via5] {
        let (reset_off, _) = run(version, FaultKind::LinkDown, false);
        assert!(reset_off, "{version}: paper PRESS stays splintered");
        let (reset_on, members) = run(version, FaultKind::LinkDown, true);
        assert!(
            !reset_on,
            "{version}: repair must re-merge, members {members:?}"
        );
        assert_eq!(members, vec![4, 4, 4, 4]);
    }
}

#[test]
fn tcp_press_failed_rejoin_heals_with_repair() {
    let (reset_off, members_off) = run(PressVersion::Tcp, FaultKind::NodeCrash, false);
    assert!(reset_off, "paper TCP-PRESS ends 3+1: {members_off:?}");
    let (reset_on, members_on) = run(PressVersion::Tcp, FaultKind::NodeCrash, true);
    assert!(
        !reset_on,
        "repair must merge the standalone node back: {members_on:?}"
    );
    assert_eq!(members_on, vec![4, 4, 4, 4]);
}

#[test]
fn switch_fault_total_partition_heals_with_repair() {
    let (reset_off, _) = run(PressVersion::Via3, FaultKind::SwitchDown, false);
    assert!(reset_off, "four singletons without repair");
    let (reset_on, members) = run(PressVersion::Via3, FaultKind::SwitchDown, true);
    assert!(
        !reset_on,
        "repair must rebuild the full cluster: {members:?}"
    );
    assert_eq!(members, vec![4, 4, 4, 4]);
}

#[test]
fn repair_is_inert_when_nothing_splinters() {
    // A fault the cluster already heals from: repair must not change
    // the outcome (no spurious exclusions or merges).
    let (reset_off, m_off) = run(PressVersion::Via5, FaultKind::AppCrash, false);
    let (reset_on, m_on) = run(PressVersion::Via5, FaultKind::AppCrash, true);
    assert!(!reset_off && !reset_on);
    assert_eq!(m_off, m_on);
}
