//! The audit and the report against real (small-scale) cluster runs:
//! the blind segmentation must agree with the run log on healthy runs,
//! must catch a falsified marker, and the rendered report bytes must be
//! reproducible.

use experiments::cluster::ClusterConfig;
use experiments::phase1::{run_fault_experiment, FaultRunResult, FaultScenario};
use mendosus::FaultKind;
use press::PressVersion;
use report::{audit_run, render_report, ReportMeta};
use simnet::fabric::NodeId;

fn quick(version: PressVersion, kind: FaultKind) -> FaultRunResult {
    run_fault_experiment(
        ClusterConfig::small(version),
        FaultScenario::quick(kind, NodeId(3)),
        11,
    )
}

#[test]
fn blind_audit_agrees_with_real_runs() {
    // Two contrasting behaviours: VIA detects a node crash fast and
    // reconfigures; TCP stalls blindly through a link fault.
    for (v, k) in [
        (PressVersion::Via5, FaultKind::NodeCrash),
        (PressVersion::Tcp, FaultKind::LinkDown),
    ] {
        let audit = audit_run(&quick(v, k));
        assert!(
            audit.pass(),
            "{}: {:?}",
            audit.label,
            audit
                .findings
                .iter()
                .map(|f| f.describe())
                .collect::<Vec<_>>()
        );
        assert!(!audit.segments.is_empty());
    }
}

#[test]
fn a_falsified_recovery_marker_fails_the_audit() {
    // TCP under a link fault collapses until the link returns (~40 s on
    // the quick profile). Claiming recovery 12 s early contradicts the
    // curve, and the blind fit must say so.
    let mut r = quick(PressVersion::Tcp, FaultKind::LinkDown);
    let honest = audit_run(&r);
    assert!(honest.pass(), "baseline must pass: {:?}", honest.findings);
    r.markers.recovered -= 12.0;
    r.markers.restabilized = Some(r.markers.recovered);
    let audit = audit_run(&r);
    assert!(
        !audit.pass(),
        "a recovery marker shifted 12 s early must be flagged"
    );
}

#[test]
fn report_bytes_are_reproducible() {
    let runs = vec![quick(PressVersion::Via5, FaultKind::NodeCrash)];
    let meta = ReportMeta {
        target: "fig3".to_string(),
        title: "Figure 3: node crash".to_string(),
        scale: "small".to_string(),
        seed: 11,
    };
    let a = render_report(&meta, &runs, &[]);
    let b = render_report(&meta, &runs, &[]);
    assert_eq!(a, b, "rendering must be byte-deterministic");
    assert!(a.contains("VIA-PRESS-5"));
}
