//! Fault loads: fault classes with MTTF/MTTR (Table 3) and instance
//! counts.

/// Seconds in a day.
pub const DAY: f64 = 86_400.0;
/// Seconds in a week.
pub const WEEK: f64 = 7.0 * DAY;
/// Seconds in a 30-day month.
pub const MONTH: f64 = 30.0 * DAY;
/// Seconds in a 365-day year.
pub const YEAR: f64 = 365.0 * DAY;
/// The paper's application-fault repair time: 3 minutes to restart the
/// application in a clean state.
pub const THREE_MINUTES: f64 = 180.0;

/// The fault classes of the phase-2 model: Table 3 plus the three
/// classes added by the §6.3 sensitivity scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelFault {
    /// A node's link goes down.
    LinkDown,
    /// The switch goes down.
    SwitchDown,
    /// Node crash (hard reboot).
    NodeCrash,
    /// Node freeze.
    NodeFreeze,
    /// Memory pinning failure.
    MemPin,
    /// Kernel memory allocation failure.
    MemAlloc,
    /// Application process crash.
    ProcessCrash,
    /// Application process hang.
    ProcessHang,
    /// Bad parameters: NULL pointer.
    BadNull,
    /// Bad parameters: off-by-N data pointer.
    BadOffPtr,
    /// Bad parameters: off-by-N size.
    BadOffSize,
    /// §6.3: transient packet drop, VIA only (behaves like a process
    /// crash because the error report makes the process terminate).
    ViaPacketDrop,
    /// §6.3: extra application bugs from VIA's harder programming model
    /// (behaves like a process crash).
    ViaExtraBug,
    /// §6.3: system crash from immature VIA hardware/firmware (modeled
    /// as a switch crash).
    ViaSystemCrash,
}

impl ModelFault {
    /// Table 3's name for the fault.
    pub fn name(self) -> &'static str {
        match self {
            ModelFault::LinkDown => "Link down",
            ModelFault::SwitchDown => "Switch down",
            ModelFault::NodeCrash => "Node crash",
            ModelFault::NodeFreeze => "Node freeze",
            ModelFault::MemPin => "Memory pinning failure",
            ModelFault::MemAlloc => "Memory allocation failure",
            ModelFault::ProcessCrash => "Process crash",
            ModelFault::ProcessHang => "Process hang",
            ModelFault::BadNull => "Bad parameters - null pointer",
            ModelFault::BadOffPtr => "Bad parameters - off-by-N data pointer",
            ModelFault::BadOffSize => "Bad parameters - off-by-N size",
            ModelFault::ViaPacketDrop => "Transient packet drop (VIA)",
            ModelFault::ViaExtraBug => "Extra application bugs (VIA)",
            ModelFault::ViaSystemCrash => "System crash, immature substrate (VIA)",
        }
    }

    /// Which measured fault behaviour this class reuses. The sensitivity
    /// classes borrow existing phase-1 measurements: packet drops and
    /// extra bugs manifest as process crashes, substrate system crashes
    /// as switch crashes (§6.3).
    pub fn behaves_like(self) -> ModelFault {
        match self {
            ModelFault::ViaPacketDrop | ModelFault::ViaExtraBug => ModelFault::ProcessCrash,
            ModelFault::ViaSystemCrash => ModelFault::SwitchDown,
            other => other,
        }
    }

    /// Whether the §6 "pessimistic VIA" multiplier applies to this
    /// class (§9: "faults in a VIA-based server, such as switch, link,
    /// and application errors").
    pub fn scales_for_via_pessimism(self) -> bool {
        matches!(
            self,
            ModelFault::LinkDown
                | ModelFault::SwitchDown
                | ModelFault::ProcessCrash
                | ModelFault::ProcessHang
                | ModelFault::BadNull
                | ModelFault::BadOffPtr
                | ModelFault::BadOffSize
        )
    }
}

impl std::fmt::Display for ModelFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of the fault load: a class, its per-instance MTTF/MTTR, and
/// how many independent instances exist (4 links, 1 switch, 4
/// processes, ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEntry {
    /// Fault class.
    pub fault: ModelFault,
    /// Mean time to failure of one instance, seconds.
    pub mttf: f64,
    /// Mean time to repair, seconds.
    pub mttr: f64,
    /// Independent component instances.
    pub instances: u32,
}

impl FaultEntry {
    /// Cluster-wide fault arrival rate (faults per second).
    pub fn cluster_rate(&self) -> f64 {
        f64::from(self.instances) / self.mttf
    }

    /// Returns a copy with the MTTF divided by `factor` (i.e. faults
    /// `factor`× as often) — the sensitivity-analysis knob.
    pub fn scaled_rate(&self, factor: f64) -> FaultEntry {
        assert!(factor > 0.0, "rate factor must be positive");
        FaultEntry {
            mttf: self.mttf / factor,
            ..*self
        }
    }
}

/// Table 3, with the application fault rate expressed as a per-process
/// MTTF (`app_mttf` seconds; the paper sweeps one per day to one per
/// month) and divided between the application fault classes in the
/// proportions of the field-failure study the paper cites: process
/// crash 40%, process hang 40%, null pointer 8%, off-by-N data pointer
/// 9%, off-by-N size 2% (§6.1; the remaining 1% is folded into the
/// crash class to keep the split exhaustive).
pub fn paper_fault_load(app_mttf: f64) -> Vec<FaultEntry> {
    assert!(app_mttf > 0.0, "application MTTF must be positive");
    let nodes = 4;
    let app = |fault, share: f64| FaultEntry {
        fault,
        mttf: app_mttf / share,
        mttr: THREE_MINUTES,
        instances: nodes,
    };
    vec![
        FaultEntry {
            fault: ModelFault::LinkDown,
            mttf: 6.0 * MONTH,
            mttr: THREE_MINUTES,
            instances: nodes,
        },
        FaultEntry {
            fault: ModelFault::SwitchDown,
            mttf: YEAR,
            mttr: 3_600.0,
            instances: 1,
        },
        FaultEntry {
            fault: ModelFault::NodeCrash,
            mttf: 2.0 * WEEK,
            mttr: THREE_MINUTES,
            instances: nodes,
        },
        FaultEntry {
            fault: ModelFault::NodeFreeze,
            mttf: 2.0 * WEEK,
            mttr: THREE_MINUTES,
            instances: nodes,
        },
        FaultEntry {
            fault: ModelFault::MemPin,
            mttf: 61.0 * DAY,
            mttr: THREE_MINUTES,
            instances: nodes,
        },
        FaultEntry {
            fault: ModelFault::MemAlloc,
            mttf: 61.0 * DAY,
            mttr: THREE_MINUTES,
            instances: nodes,
        },
        app(ModelFault::ProcessCrash, 0.41),
        app(ModelFault::ProcessHang, 0.40),
        app(ModelFault::BadNull, 0.08),
        app(ModelFault::BadOffPtr, 0.09),
        app(ModelFault::BadOffSize, 0.02),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_3_rows_are_present() {
        let load = paper_fault_load(DAY);
        assert_eq!(load.len(), 11);
        let link = load
            .iter()
            .find(|e| e.fault == ModelFault::LinkDown)
            .unwrap();
        assert_eq!(link.mttf, 6.0 * MONTH);
        assert_eq!(link.mttr, THREE_MINUTES);
        let switch = load
            .iter()
            .find(|e| e.fault == ModelFault::SwitchDown)
            .unwrap();
        assert_eq!(switch.mttr, 3_600.0);
        assert_eq!(switch.instances, 1);
    }

    #[test]
    fn app_fault_split_totals_one_app_rate() {
        let load = paper_fault_load(DAY);
        let app_rate: f64 = load
            .iter()
            .filter(|e| {
                matches!(
                    e.fault,
                    ModelFault::ProcessCrash
                        | ModelFault::ProcessHang
                        | ModelFault::BadNull
                        | ModelFault::BadOffPtr
                        | ModelFault::BadOffSize
                )
            })
            .map(|e| 1.0 / e.mttf)
            .sum();
        // Per process: one fault per day split across the classes.
        assert!((app_rate - 1.0 / DAY).abs() < 1e-12);
    }

    #[test]
    fn cluster_rate_multiplies_instances() {
        let e = FaultEntry {
            fault: ModelFault::NodeCrash,
            mttf: 100.0,
            mttr: 1.0,
            instances: 4,
        };
        assert!((e.cluster_rate() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn scaled_rate_shortens_mttf() {
        let e = paper_fault_load(DAY)[0];
        let s = e.scaled_rate(4.0);
        assert!((s.mttf - e.mttf / 4.0).abs() < 1e-9);
        assert_eq!(s.mttr, e.mttr);
    }

    #[test]
    fn sensitivity_classes_borrow_behaviour() {
        assert_eq!(
            ModelFault::ViaPacketDrop.behaves_like(),
            ModelFault::ProcessCrash
        );
        assert_eq!(
            ModelFault::ViaExtraBug.behaves_like(),
            ModelFault::ProcessCrash
        );
        assert_eq!(
            ModelFault::ViaSystemCrash.behaves_like(),
            ModelFault::SwitchDown
        );
        assert_eq!(ModelFault::LinkDown.behaves_like(), ModelFault::LinkDown);
    }

    #[test]
    fn pessimism_scaling_targets_the_papers_classes() {
        assert!(ModelFault::LinkDown.scales_for_via_pessimism());
        assert!(ModelFault::ProcessCrash.scales_for_via_pessimism());
        assert!(!ModelFault::NodeCrash.scales_for_via_pessimism());
        assert!(!ModelFault::MemAlloc.scales_for_via_pessimism());
    }
}
