//! Call interposition for bad-parameter faults.
//!
//! §4.3: "We implement the injection of these faults by interposing a
//! software layer between the application and the normal communication
//! library. Our layer traps specific calls, modifies one or more
//! parameters, and then passes the call to the communication library."
//!
//! [`Mangler`] is that layer. PRESS routes every send's [`CallParams`]
//! through its interposer; a planned mangle fires on the first matching
//! call at or after its scheduled time, then disarms.

use simnet::SimTime;
use transport::{CallParams, MsgClass, PtrParam, SendInterposer};

/// The three corruption shapes of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadParam {
    /// Replace the data pointer with NULL.
    NullPtr,
    /// Offset the data pointer by `n` bytes (0..=100).
    OffByPtr(u32),
    /// Grow the size argument by `n` bytes (0..=100).
    OffBySize(u32),
}

impl BadParam {
    fn apply(self, mut params: CallParams) -> CallParams {
        match self {
            BadParam::NullPtr => params.ptr = PtrParam::Null,
            BadParam::OffByPtr(n) => params.ptr = PtrParam::OffBy(n as i32),
            BadParam::OffBySize(n) => params.size_delta = n as i32,
        }
        params
    }
}

/// One scheduled corruption: the first `class` send at or after `at`
/// gets `bad` applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMangle {
    /// Earliest time the mangle may fire.
    pub at: SimTime,
    /// Which call class to trap.
    pub class: MsgClass,
    /// The corruption to apply.
    pub bad: BadParam,
}

/// The interposition layer: a queue of planned one-shot corruptions.
///
/// # Example
///
/// ```
/// use mendosus::{BadParam, Mangler, PlannedMangle};
/// use simnet::SimTime;
/// use transport::{CallParams, MsgClass, PtrParam, SendInterposer};
///
/// let mut m = Mangler::new();
/// m.plan(PlannedMangle {
///     at: SimTime::from_secs(10),
///     class: MsgClass::FileData,
///     bad: BadParam::NullPtr,
/// });
/// // Too early: passes through clean.
/// let p = m.mangle(SimTime::from_secs(5), MsgClass::FileData, CallParams::default());
/// assert!(p.is_clean());
/// // First matching call after the trigger time is corrupted.
/// let p = m.mangle(SimTime::from_secs(10), MsgClass::FileData, CallParams::default());
/// assert_eq!(p.ptr, PtrParam::Null);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mangler {
    planned: Vec<PlannedMangle>,
    fired: u64,
}

impl Mangler {
    /// An interposer with nothing planned.
    pub fn new() -> Self {
        Mangler::default()
    }

    /// Schedules a corruption.
    pub fn plan(&mut self, mangle: PlannedMangle) {
        self.planned.push(mangle);
    }

    /// Number of corruptions applied so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Number of corruptions still armed.
    pub fn armed(&self) -> usize {
        self.planned.len()
    }
}

impl SendInterposer for Mangler {
    fn mangle(&mut self, now: SimTime, class: MsgClass, params: CallParams) -> CallParams {
        let hit = self
            .planned
            .iter()
            .position(|p| p.class == class && now >= p.at);
        match hit {
            Some(i) => {
                let p = self.planned.remove(i);
                self.fired += 1;
                p.bad.apply(params)
            }
            None => params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangle_fires_once_and_disarms() {
        let mut m = Mangler::new();
        m.plan(PlannedMangle {
            at: SimTime::ZERO,
            class: MsgClass::Forward,
            bad: BadParam::OffByPtr(42),
        });
        let p1 = m.mangle(
            SimTime::from_secs(1),
            MsgClass::Forward,
            CallParams::default(),
        );
        assert_eq!(p1.ptr, PtrParam::OffBy(42));
        let p2 = m.mangle(
            SimTime::from_secs(1),
            MsgClass::Forward,
            CallParams::default(),
        );
        assert!(p2.is_clean());
        assert_eq!(m.fired(), 1);
        assert_eq!(m.armed(), 0);
    }

    #[test]
    fn class_filter_is_respected() {
        let mut m = Mangler::new();
        m.plan(PlannedMangle {
            at: SimTime::ZERO,
            class: MsgClass::FileData,
            bad: BadParam::OffBySize(7),
        });
        // A Forward call does not trip a FileData mangle.
        let p = m.mangle(
            SimTime::from_secs(1),
            MsgClass::Forward,
            CallParams::default(),
        );
        assert!(p.is_clean());
        let p = m.mangle(
            SimTime::from_secs(1),
            MsgClass::FileData,
            CallParams::default(),
        );
        assert_eq!(p.size_delta, 7);
    }

    #[test]
    fn multiple_mangles_fire_independently() {
        let mut m = Mangler::new();
        m.plan(PlannedMangle {
            at: SimTime::ZERO,
            class: MsgClass::Forward,
            bad: BadParam::NullPtr,
        });
        m.plan(PlannedMangle {
            at: SimTime::from_secs(100),
            class: MsgClass::Forward,
            bad: BadParam::OffBySize(3),
        });
        let p = m.mangle(
            SimTime::from_secs(1),
            MsgClass::Forward,
            CallParams::default(),
        );
        assert_eq!(p.ptr, PtrParam::Null);
        // Second is still waiting for its time.
        let p = m.mangle(
            SimTime::from_secs(1),
            MsgClass::Forward,
            CallParams::default(),
        );
        assert!(p.is_clean());
        let p = m.mangle(
            SimTime::from_secs(200),
            MsgClass::Forward,
            CallParams::default(),
        );
        assert_eq!(p.size_delta, 3);
        assert_eq!(m.fired(), 2);
    }

    #[test]
    fn existing_params_fields_are_preserved() {
        // A size mangle must not clear an (unlikely but possible)
        // pointer corruption already present, and vice versa.
        let mut m = Mangler::new();
        m.plan(PlannedMangle {
            at: SimTime::ZERO,
            class: MsgClass::Forward,
            bad: BadParam::OffBySize(9),
        });
        let dirty = CallParams {
            ptr: PtrParam::OffBy(1),
            size_delta: 0,
        };
        let p = m.mangle(SimTime::ZERO, MsgClass::Forward, dirty);
        assert_eq!(p.ptr, PtrParam::OffBy(1));
        assert_eq!(p.size_delta, 9);
    }
}
