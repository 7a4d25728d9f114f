//! Timeout and retry for one connection: RTO and backoff, the
//! persistent retransmit timer, the ~13-minute abort deadline, and the
//! `gen` stamp. Every arming bumps `gen`, whatever the timer kind, and
//! only a firing with the newest stamp acts, so the composition layer
//! may cancel any pending timer with an older one.

use simnet::{SimDuration, SimTime};

use super::TcpConfig;
use crate::api::TimerKind;

#[derive(Debug)]
pub(super) struct Reliability {
    rto: SimDuration,
    gen: u64,
    /// When the retransmit timer fires, while it is armed.
    rtx_at: Option<SimTime>,
    /// Since when the oldest outstanding byte has waited.
    first_unacked_at: Option<SimTime>,
}

/// What a firing of the retransmit timer calls for.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum RtxFire {
    /// Nothing: the timer was disarmed or everything is acknowledged.
    Idle,
    /// ACKs arrived since it was armed: re-arm for the rest of an RTO.
    Wait(SimDuration),
    /// The oldest byte has stalled this long, past the abort deadline.
    Abort(SimDuration),
    /// A full RTO (this one) passed without progress: resend the
    /// oldest segment.
    Due(SimDuration),
}

impl Reliability {
    pub(super) fn new(rto: SimDuration) -> Self {
        Reliability {
            rto,
            gen: 0,
            rtx_at: None,
            first_unacked_at: None,
        }
    }

    /// Whether a timer stamped `gen` is the newest.
    pub(super) fn is_current(&self, gen: u64) -> bool {
        gen == self.gen
    }

    /// Arms a `kind` timer `delay` from `now`, superseding all older
    /// ones; returns its stamp.
    pub(super) fn arm(&mut self, now: SimTime, kind: TimerKind, delay: SimDuration) -> u64 {
        self.gen += 1;
        if kind == TimerKind::Retransmit {
            self.rtx_at = Some(now + delay);
        }
        self.gen
    }

    /// Supersedes every pending timer without arming one.
    pub(super) fn supersede(&mut self) {
        self.gen += 1;
    }

    /// Data went out at `now`: starts the stall clock; returns the delay
    /// to arm the retransmit timer with if it is not armed.
    pub(super) fn on_transmit(&mut self, now: SimTime) -> Option<SimDuration> {
        self.first_unacked_at.get_or_insert(now);
        self.rtx_at.is_none().then_some(self.rto)
    }

    /// New data was acknowledged at `now`: resets RTO and stall clock.
    /// If the armed timer sits beyond a fresh RTO with data still
    /// `outstanding`, returns the RTO to re-arm it with, so recovery
    /// after a long stall drains at full speed.
    pub(super) fn on_progress(
        &mut self,
        now: SimTime,
        outstanding: bool,
        cfg: &TcpConfig,
    ) -> Option<SimDuration> {
        self.rto = cfg.initial_rto;
        self.first_unacked_at = outstanding.then_some(now);
        let late = self.rtx_at.is_some_and(|at| at > now + self.rto);
        (outstanding && late).then_some(self.rto)
    }

    /// The newest retransmit timer fired at `now`; disarms it.
    pub(super) fn on_fire(&mut self, now: SimTime, outstanding: bool, cfg: &TcpConfig) -> RtxFire {
        if self.rtx_at.take().is_none() || !outstanding {
            return RtxFire::Idle;
        }
        let waited = now.saturating_since(self.first_unacked_at.unwrap_or(now));
        if waited < self.rto {
            RtxFire::Wait(self.rto - waited)
        } else if waited >= cfg.abort_after {
            RtxFire::Abort(waited)
        } else {
            RtxFire::Due(self.rto)
        }
    }

    /// Doubles the timeout, up to the ceiling, for a retransmission.
    pub(super) fn backoff(&mut self, cfg: &TcpConfig) -> SimDuration {
        self.rto = (self.rto * 2).min(cfg.max_rto);
        self.rto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    #[test]
    fn every_arming_supersedes_every_older_timer() {
        let mut r = Reliability::new(ms(200));
        let g1 = r.arm(at(0), TimerKind::Connect, ms(1000));
        let g2 = r.arm(at(5), TimerKind::Retransmit, ms(200));
        assert!(g2 > g1 && r.is_current(g2) && !r.is_current(g1));
        r.supersede();
        assert!(!r.is_current(g2));
    }

    #[test]
    fn first_transmission_arms_and_later_ones_do_not() {
        let mut r = Reliability::new(ms(200));
        assert_eq!(r.on_transmit(at(0)), Some(ms(200)));
        r.arm(at(0), TimerKind::Retransmit, ms(200));
        assert_eq!(r.on_transmit(at(50)), None);
    }

    #[test]
    fn a_timer_fired_early_by_progress_waits_out_the_rest() {
        let cfg = TcpConfig::default();
        let mut r = Reliability::new(cfg.initial_rto);
        r.on_transmit(at(0));
        r.arm(at(0), TimerKind::Retransmit, ms(200));
        // An ACK at 150 ms restarts the stall clock; data is still out.
        assert_eq!(r.on_progress(at(150), true, &cfg), None);
        assert_eq!(r.on_fire(at(200), true, &cfg), RtxFire::Wait(ms(150)));
        // A disarmed timer is idle, and so is one with nothing to resend.
        assert_eq!(r.on_fire(at(350), true, &cfg), RtxFire::Idle);
        r.arm(at(350), TimerKind::Retransmit, ms(150));
        assert_eq!(r.on_fire(at(500), false, &cfg), RtxFire::Idle);
    }

    #[test]
    fn backoff_doubles_to_the_ceiling_and_progress_resets_it() {
        let cfg = TcpConfig::default();
        let mut r = Reliability::new(cfg.initial_rto);
        let mut rto = cfg.initial_rto;
        for _ in 0..20 {
            rto = r.backoff(&cfg);
        }
        assert_eq!(rto, cfg.max_rto);
        // The armed timer now sits a full max RTO out: progress pulls it
        // back to the fresh initial RTO.
        r.arm(at(0), TimerKind::Retransmit, rto);
        assert_eq!(r.on_progress(at(10), true, &cfg), Some(cfg.initial_rto));
        assert_eq!(
            r.on_progress(at(10), false, &cfg),
            None,
            "nothing outstanding"
        );
    }

    #[test]
    fn a_stall_past_the_abort_deadline_aborts() {
        let cfg = TcpConfig::default();
        let mut r = Reliability::new(cfg.initial_rto);
        r.on_transmit(at(0));
        r.arm(at(0), TimerKind::Retransmit, cfg.initial_rto);
        assert_eq!(
            r.on_fire(at(200), true, &cfg),
            RtxFire::Due(cfg.initial_rto)
        );
        let late = SimTime::ZERO + cfg.abort_after;
        r.arm(at(200), TimerKind::Retransmit, cfg.abort_after);
        assert_eq!(r.on_fire(late, true, &cfg), RtxFire::Abort(cfg.abort_after));
    }
}
