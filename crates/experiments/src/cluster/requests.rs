//! The request ledger: every client request is scored exactly once.
//!
//! Availability divides served requests by offered ones, so each
//! request must reach exactly one fate. Each method below is one fate;
//! it makes the [`ClientPool`] tally, the attribution record and the
//! sampled trace event together, so the three can never disagree.

use std::collections::BTreeMap;

use press::DropReason;
use simnet::SimTime;
use telemetry::{AttrEvent, TraceEvent, TID_CLIENTS};
use workload::ClientPool;

use super::Observer;

pub(super) struct RequestLedger {
    /// Issues the requests and holds their tallies; every scoring call
    /// goes through the fate methods below.
    pub(super) pool: ClientPool,
    /// Trace every `sample`-th request (`0`: none).
    sample: u64,
    /// Sampled accepted requests: id → (accept time, target node).
    traced: BTreeMap<u64, (SimTime, usize)>,
}

impl RequestLedger {
    pub fn new(pool: ClientPool, sample: u64) -> Self {
        RequestLedger {
            pool,
            sample,
            traced: BTreeMap::new(),
        }
    }

    fn sampled(&self, req_id: u64) -> bool {
        self.sample != 0 && req_id.is_multiple_of(self.sample)
    }

    /// The target machine is unresponsive: the SYN goes nowhere.
    pub fn connect_failed(&mut self, obs: &mut Observer, now: SimTime, node: usize, id: u64) {
        self.pool.connect_failed();
        obs.attr(now, node, AttrEvent::ConnFailed);
        self.trace_instant(obs, "request.conn_failed", now, node, id, None);
    }

    /// The machine is up but its server process is dead.
    pub fn refused(&mut self, obs: &mut Observer, now: SimTime, node: usize, id: u64) {
        self.pool.refused();
        obs.attr(now, node, AttrEvent::Refused);
        self.trace_instant(obs, "request.refused", now, node, id, None);
    }

    fn trace_instant(
        &self,
        obs: &mut Observer,
        name: &'static str,
        now: SimTime,
        node: usize,
        id: u64,
        reason: Option<&'static str>,
    ) {
        if self.sampled(id) {
            let mut ev = TraceEvent::instant(name, "client", TID_CLIENTS, now)
                .arg_u64("req_id", id)
                .arg_u64("node", node as u64);
            if let Some(reason) = reason {
                ev = ev.arg_str("reason", reason);
            }
            obs.sink.emit(ev);
        }
    }

    /// `node` accepted the request; returns the deadline to queue.
    pub fn accepted(&mut self, obs: &mut Observer, now: SimTime, node: usize, id: u64) -> SimTime {
        if self.sampled(id) {
            self.traced.insert(id, (now, node));
        }
        obs.attr(now, node, AttrEvent::Accepted { req_id: id });
        self.pool.accepted(now, id)
    }

    /// PRESS dropped the request instead of accepting it: the client
    /// gives up after its connect timeout.
    pub fn dropped(
        &mut self,
        obs: &mut Observer,
        now: SimTime,
        node: usize,
        id: u64,
        reason: DropReason,
    ) {
        self.pool.connect_failed();
        let (ev, why) = match reason {
            DropReason::DeferOverflow => (AttrEvent::DroppedOverflow, "defer_overflow"),
            DropReason::Admission => (AttrEvent::DroppedBacklog, "admission"),
        };
        obs.attr(now, node, ev);
        self.trace_instant(obs, "request.dropped", now, node, id, Some(why));
    }

    /// `node`'s reply reached the client at `now`. It scores a success
    /// only while the client still waits; a later reply was already
    /// scored by the deadline.
    pub fn completed(&mut self, obs: &mut Observer, now: SimTime, node: usize, id: u64) {
        if !self.pool.complete(now, id) {
            return;
        }
        obs.attr(now, node, AttrEvent::Completed { req_id: id });
        if let Some((issued, target)) = self.traced.remove(&id) {
            let ev = TraceEvent::span("request", "client", target as u32, issued, now - issued);
            obs.sink.emit(ev.arg_u64("req_id", id));
        }
    }

    /// The request's deadline fired: a timeout if it is still open.
    pub fn deadline(&mut self, obs: &mut Observer, now: SimTime, id: u64) {
        if !self.pool.deadline(id) {
            return;
        }
        obs.attr(now, 0, AttrEvent::DeadlineMiss { req_id: id });
        if let Some((issued, target)) = self.traced.remove(&id) {
            let waited_us = (now - issued).as_nanos() / 1_000;
            obs.sink.emit(
                TraceEvent::instant("request.timeout", "client", target as u32, now)
                    .arg_u64("req_id", id)
                    .arg_u64("waited_us", waited_us),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimRng;
    use telemetry::{AttrState, TraceSink};
    use workload::ClientConfig;

    /// A ledger that traces every request, with attribution on.
    fn ledger() -> (RequestLedger, Observer) {
        let config = ClientConfig {
            rate: 100.0,
            nodes: 4,
            files: 60_000,
        };
        let pool = ClientPool::new(config, SimRng::seed_from(1));
        let obs = Observer {
            sink: TraceSink::new(true),
            attr: Some(Box::new(AttrState::new(4))),
        };
        (RequestLedger::new(pool, 1), obs)
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn names(obs: &mut Observer) -> Vec<String> {
        obs.sink.take().iter().map(|e| e.name.to_string()).collect()
    }

    #[test]
    fn each_fate_scores_exactly_once() {
        let (mut l, mut obs) = ledger();
        let next = |l: &mut RequestLedger| l.pool.arrive(ms(0)).0.id;
        let id = next(&mut l);
        l.connect_failed(&mut obs, ms(0), 0, id);
        let id = next(&mut l);
        l.refused(&mut obs, ms(0), 1, id);
        let id = next(&mut l);
        l.dropped(&mut obs, ms(0), 2, id, DropReason::Admission);
        let served = next(&mut l);
        let deadline = l.accepted(&mut obs, ms(0), 3, served);
        assert_eq!(deadline, ms(6_000));
        l.completed(&mut obs, ms(5), 3, served);
        let timed_out = next(&mut l);
        l.accepted(&mut obs, ms(0), 0, timed_out);
        // Deadlines fire for closed requests too, and score nothing.
        for id in [served, timed_out, served, timed_out] {
            l.deadline(&mut obs, ms(6_000), id);
        }
        l.completed(&mut obs, ms(6_000), 0, timed_out);

        let c = l.pool.counter();
        assert_eq!((c.attempts, c.successes, c.failures()), (5, 1, 4));
        assert_eq!(l.pool.outstanding(), 0);
        let attr = obs.attr.take().expect("attribution is on").finish();
        assert_eq!((attr.total(), attr.residual), (4, 0));
        // Every fate is traced, once.
        let trace = names(&mut obs);
        let fates = [
            "request.conn_failed",
            "request.refused",
            "request.dropped",
            "request",
            "request.timeout",
        ];
        assert_eq!(trace, fates);
    }

    #[test]
    fn a_reply_after_its_deadline_does_not_score() {
        let (mut l, mut obs) = ledger();
        let (req, ..) = l.pool.arrive(ms(0));
        let deadline = l.accepted(&mut obs, ms(0), 0, req.id);
        // A reply stamped past the deadline, handled before the deadline
        // event, is already too late.
        l.completed(
            &mut obs,
            deadline + simnet::SimDuration::from_nanos(1),
            0,
            req.id,
        );
        l.deadline(&mut obs, deadline, req.id);
        l.completed(&mut obs, ms(7_000), 0, req.id);
        let c = l.pool.counter();
        assert_eq!((c.successes, c.request_timeouts), (0, 1));
        assert_eq!(
            obs.attr.take().expect("attribution is on").finish().total(),
            1
        );
        assert_eq!(names(&mut obs), ["request.timeout"]);
    }
}
