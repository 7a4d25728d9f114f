//! The 7-stage piece-wise linear model (Figure 1 of the paper).
//!
//! | Stage | Meaning |
//! |---|---|
//! | A | degraded throughput from fault occurrence to detection |
//! | B | transient while the system reconfigures |
//! | C | stable degraded regime until the component is repaired |
//! | D | transient after the component recovers |
//! | E | stable regime after recovery (may remain degraded) |
//! | F | operator reset |
//! | G | transient after the reset |
//!
//! Missing stages get duration 0 (§2.1).

use simnet::TimeSeries;

/// Stage labels A–G.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Fault occurrence → detection.
    A,
    /// Reconfiguration transient.
    B,
    /// Stable degraded regime until repair.
    C,
    /// Post-recovery transient.
    D,
    /// Stable post-recovery regime.
    E,
    /// Operator reset.
    F,
    /// Post-reset transient.
    G,
}

impl Stage {
    /// All stages in order.
    pub const ALL: [Stage; 7] = [
        Stage::A,
        Stage::B,
        Stage::C,
        Stage::D,
        Stage::E,
        Stage::F,
        Stage::G,
    ];

    fn index(self) -> usize {
        match self {
            Stage::A => 0,
            Stage::B => 1,
            Stage::C => 2,
            Stage::D => 3,
            Stage::E => 4,
            Stage::F => 5,
            Stage::G => 6,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One stage's parameters: how long, and the average throughput while in
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StagePoint {
    /// Stage length in seconds.
    pub duration: f64,
    /// Average throughput during the stage, requests per second.
    pub throughput: f64,
}

/// The per-fault 7-stage behaviour of a server version.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SevenStage {
    points: [StagePoint; 7],
}

impl SevenStage {
    /// All stages absent (duration 0).
    pub fn zeroed() -> Self {
        SevenStage::default()
    }

    /// Sets one stage.
    ///
    /// # Panics
    ///
    /// Panics on negative duration or throughput.
    pub fn set(&mut self, stage: Stage, duration: f64, throughput: f64) {
        assert!(duration >= 0.0, "negative stage duration");
        assert!(throughput >= 0.0, "negative stage throughput");
        self.points[stage.index()] = StagePoint {
            duration,
            throughput,
        };
    }

    /// Reads one stage.
    pub fn get(&self, stage: Stage) -> StagePoint {
        self.points[stage.index()]
    }

    /// Iterates `(stage, point)` in order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, StagePoint)> + '_ {
        Stage::ALL.iter().map(move |s| (*s, self.points[s.index()]))
    }

    /// Total time the system spends off the normal regime per fault.
    pub fn total_duration(&self) -> f64 {
        self.points.iter().map(|p| p.duration).sum()
    }

    /// Rescales the repair-dependent stage C so the fault's duration in
    /// the *model* matches the fault load's MTTR instead of however long
    /// the experimenter kept the fault injected: stages A and B consume
    /// their measured time, and C fills the rest of the repair interval.
    pub fn scaled_to_repair(&self, mttr_secs: f64) -> SevenStage {
        let mut out = self.clone();
        let a = self.get(Stage::A).duration;
        let b = self.get(Stage::B).duration;
        let c = (mttr_secs - a - b).max(0.0);
        out.points[Stage::C.index()].duration = c;
        out
    }

    /// Extracts stage parameters from a measured throughput timeline and
    /// the experiment's event markers. Intervals the markers leave empty
    /// become missing stages (duration 0); `tn` fills in the mean when a
    /// non-empty interval holds no samples.
    pub fn from_series(series: &TimeSeries, markers: &StageMarkers, tn: f64) -> SevenStage {
        let mut out = SevenStage::zeroed();
        for (stage, t0, t1) in markers.intervals() {
            let duration = (t1 - t0).max(0.0);
            if duration == 0.0 {
                continue;
            }
            let mean = series.mean_between(t0, t1).unwrap_or(tn);
            out.set(stage, duration, mean.max(0.0));
        }
        out
    }
}

/// Timestamps (seconds) of the experiment events that delimit the
/// stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageMarkers {
    /// Fault injection.
    pub fault: f64,
    /// When the system detected the fault (None: never detected).
    pub detected: Option<f64>,
    /// When post-detection throughput stabilized.
    pub stabilized: Option<f64>,
    /// When the faulty component recovered.
    pub recovered: f64,
    /// When post-recovery throughput stabilized.
    pub restabilized: Option<f64>,
    /// Operator reset start (None: no reset was needed).
    pub reset: Option<f64>,
    /// Operator reset end.
    pub reset_done: Option<f64>,
    /// End of the measurement.
    pub end: f64,
}

impl StageMarkers {
    /// The `(stage, start, end)` intervals the markers delimit, in
    /// stage order. Every A–E interval is present (possibly empty, with
    /// `end <= start`); F and G appear only when an operator reset
    /// happened. Absent markers collapse onto the surrounding ones the
    /// same way [`SevenStage::from_series`] treats them, so the spans
    /// here are exactly the ones the model parameters are extracted
    /// from.
    pub fn intervals(&self) -> Vec<(Stage, f64, f64)> {
        let mut edges: Vec<(Stage, f64, f64)> = Vec::with_capacity(7);
        let detected = self.detected.unwrap_or(self.recovered);
        let stabilized = self.stabilized.unwrap_or(detected);
        let restabilized = self.restabilized.unwrap_or(self.recovered);
        edges.push((Stage::A, self.fault, detected.min(self.recovered)));
        edges.push((
            Stage::B,
            detected.min(self.recovered),
            stabilized.min(self.recovered),
        ));
        edges.push((Stage::C, stabilized.min(self.recovered), self.recovered));
        edges.push((Stage::D, self.recovered, restabilized));
        let e_end = self.reset.unwrap_or(self.end);
        edges.push((Stage::E, restabilized, e_end));
        if let Some(reset) = self.reset {
            let reset_done = self.reset_done.unwrap_or(reset);
            edges.push((Stage::F, reset, reset_done));
            edges.push((Stage::G, reset_done, self.end));
        }
        edges
    }
}

/// Finds the first time at or after `from` (seconds) where the series
/// stays within `tolerance × target` of `target` for `hold` consecutive
/// samples — the "system stabilizes" detector used to place the B→C and
/// D→E boundaries.
pub fn stabilization_time(
    series: &TimeSeries,
    from: f64,
    target: f64,
    tolerance: f64,
    hold: usize,
) -> Option<f64> {
    let start = series.index_at(from);
    let pts = &series.points[start..];
    let ok = |v: f64| (v - target).abs() <= tolerance * target.max(1.0);
    let mut run = 0;
    for (i, &(t, v)) in pts.iter().enumerate() {
        if ok(v) {
            run += 1;
            if run >= hold {
                return Some(pts[i + 1 - run].0.max(t - (run as f64)));
            }
        } else {
            run = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_series(segments: &[(f64, f64, f64)]) -> TimeSeries {
        // segments of (t0, t1, value) sampled each second at t+0.5
        let mut pts = Vec::new();
        for &(t0, t1, v) in segments {
            let mut t = t0 + 0.5;
            while t < t1 {
                pts.push((t, v));
                t += 1.0;
            }
        }
        TimeSeries::new(pts)
    }

    #[test]
    fn zeroed_has_no_time_anywhere() {
        let s = SevenStage::zeroed();
        assert_eq!(s.total_duration(), 0.0);
        for (_, p) in s.iter() {
            assert_eq!(p.duration, 0.0);
        }
    }

    #[test]
    fn extraction_recovers_a_simple_fault_profile() {
        // Normal 100 until fault at 30; zero until detection at 45;
        // degraded 75 until recovery at 120; back to normal after.
        let series = flat_series(&[
            (0.0, 30.0, 100.0),
            (30.0, 45.0, 0.0),
            (45.0, 120.0, 75.0),
            (120.0, 200.0, 100.0),
        ]);
        let markers = StageMarkers {
            fault: 30.0,
            detected: Some(45.0),
            stabilized: Some(45.0),
            recovered: 120.0,
            restabilized: Some(120.0),
            reset: None,
            reset_done: None,
            end: 200.0,
        };
        let st = SevenStage::from_series(&series, &markers, 100.0);
        assert_eq!(st.get(Stage::A).duration, 15.0);
        assert!(st.get(Stage::A).throughput < 1.0);
        assert_eq!(st.get(Stage::B).duration, 0.0);
        assert_eq!(st.get(Stage::C).duration, 75.0);
        assert!((st.get(Stage::C).throughput - 75.0).abs() < 1.0);
        assert_eq!(st.get(Stage::D).duration, 0.0);
        assert_eq!(st.get(Stage::E).duration, 80.0);
        assert!((st.get(Stage::E).throughput - 100.0).abs() < 1.0);
        assert_eq!(st.get(Stage::F).duration, 0.0);
    }

    #[test]
    fn extraction_with_reset_produces_f_and_g() {
        let series = flat_series(&[
            (0.0, 50.0, 80.0),  // degraded E
            (50.0, 60.0, 0.0),  // reset F
            (60.0, 70.0, 90.0), // warmup G
        ]);
        let markers = StageMarkers {
            fault: 0.0,
            detected: Some(0.0),
            stabilized: Some(0.0),
            recovered: 0.0,
            restabilized: Some(0.0),
            reset: Some(50.0),
            reset_done: Some(60.0),
            end: 70.0,
        };
        let st = SevenStage::from_series(&series, &markers, 100.0);
        assert_eq!(st.get(Stage::E).duration, 50.0);
        assert_eq!(st.get(Stage::F).duration, 10.0);
        assert!(st.get(Stage::F).throughput < 1.0);
        assert_eq!(st.get(Stage::G).duration, 10.0);
    }

    #[test]
    fn undetected_fault_spans_stage_a() {
        // TCP-PRESS under a short link fault: never detects, stalls
        // through the whole fault.
        let markers = StageMarkers {
            fault: 10.0,
            detected: None,
            stabilized: None,
            recovered: 100.0,
            restabilized: Some(110.0),
            reset: None,
            reset_done: None,
            end: 150.0,
        };
        let series = flat_series(&[(0.0, 150.0, 50.0)]);
        let st = SevenStage::from_series(&series, &markers, 50.0);
        assert_eq!(st.get(Stage::A).duration, 90.0);
        assert_eq!(st.get(Stage::B).duration, 0.0);
        assert_eq!(st.get(Stage::C).duration, 0.0);
        assert_eq!(st.get(Stage::D).duration, 10.0);
    }

    #[test]
    fn scaled_to_repair_fills_stage_c() {
        let mut st = SevenStage::zeroed();
        st.set(Stage::A, 15.0, 0.0);
        st.set(Stage::B, 5.0, 50.0);
        st.set(Stage::C, 70.0, 80.0);
        let scaled = st.scaled_to_repair(180.0);
        assert_eq!(scaled.get(Stage::C).duration, 160.0);
        assert_eq!(scaled.get(Stage::C).throughput, 80.0);
        // A repair faster than detection leaves no stage C.
        let fast = st.scaled_to_repair(10.0);
        assert_eq!(fast.get(Stage::C).duration, 0.0);
    }

    #[test]
    fn stabilization_detector_finds_the_plateau() {
        let series = flat_series(&[(0.0, 20.0, 10.0), (20.0, 60.0, 100.0)]);
        let t = stabilization_time(&series, 0.0, 100.0, 0.05, 3).expect("stabilizes");
        assert!((20.0..23.0).contains(&t), "stabilized at {t}");
        assert_eq!(stabilization_time(&series, 0.0, 500.0, 0.05, 3), None);
    }

    #[test]
    fn intervals_cover_the_run_without_gaps() {
        let markers = StageMarkers {
            fault: 30.0,
            detected: Some(45.0),
            stabilized: Some(50.0),
            recovered: 120.0,
            restabilized: Some(130.0),
            reset: Some(160.0),
            reset_done: Some(170.0),
            end: 200.0,
        };
        let spans = markers.intervals();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[0], (Stage::A, 30.0, 45.0));
        assert_eq!(spans.last().unwrap(), &(Stage::G, 170.0, 200.0));
        // Contiguous: each interval starts where the previous ended.
        for w in spans.windows(2) {
            assert_eq!(w[0].2, w[1].1, "gap between {:?} and {:?}", w[0].0, w[1].0);
        }
        // No reset → only A..E, ending at `end`.
        let no_reset = StageMarkers {
            reset: None,
            reset_done: None,
            ..markers
        };
        let spans = no_reset.intervals();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans.last().unwrap(), &(Stage::E, 130.0, 200.0));
    }

    #[test]
    #[should_panic(expected = "negative stage duration")]
    fn negative_durations_are_rejected() {
        SevenStage::zeroed().set(Stage::A, -1.0, 0.0);
    }
}
