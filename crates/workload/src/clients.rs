//! The open-loop Poisson client pool.

use std::collections::VecDeque;

use simnet::fabric::NodeId;
use simnet::{
    AvailabilityCounter, LatencyHistogram, SimDuration, SimRng, SimTime, ThroughputRecorder,
    TimeSeries,
};

use crate::zipf::Zipf;

/// Zipf popularity exponent of the paper's client traces (§5.1).
const ZIPF_ALPHA: f64 = 0.8;

/// Throughput-series bucket width.
const BUCKET: SimDuration = SimDuration::from_secs(1);

/// The accept-time slot of a request that is no longer open.
const CLOSED: SimTime = SimTime::MAX;

/// What the cluster tells its clients.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Aggregate request rate over all clients, requests per second.
    pub rate: f64,
    /// Number of server nodes (round-robin DNS target set).
    pub nodes: usize,
    /// Distinct files.
    pub files: u32,
}

/// Events the composition layer schedules for the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// Issue the next request (and schedule the following arrival).
    Arrival,
    /// A request's completion deadline passed.
    Deadline(u64),
}

/// The aggregate client population: generates arrivals, tracks
/// outstanding requests, and scores outcomes.
///
/// Protocol with the composition layer:
///
/// 1. Schedule the time returned by [`ClientPool::first_arrival`].
/// 2. On [`ClientEvent::Arrival`], call [`ClientPool::arrive`]; hand the
///    request to the chosen node and report the outcome with
///    [`ClientPool::accepted`] / [`ClientPool::connect_failed`] /
///    [`ClientPool::refused`]; schedule the returned next arrival and
///    (on accept) the deadline.
/// 3. Accept in issue order: every id passed to
///    [`ClientPool::accepted`] must be above every id accepted before
///    it, which holds when each request's fate is settled before the
///    next arrives. A repeated or late accept panics; it would score a
///    request twice.
/// 4. When the server replies, call [`ClientPool::complete`].
/// 5. On [`ClientEvent::Deadline`], call [`ClientPool::deadline`].
#[derive(Debug)]
pub struct ClientPool {
    config: ClientConfig,
    zipf: Zipf,
    rng: SimRng,
    next_id: u64,
    next_node: usize,
    /// Accept times of the requests from id `base` to the newest
    /// accepted, [`CLOSED`] where a request was scored or never
    /// accepted; closed slots leave from the front. Every open request
    /// closes by its deadline, so this spans at most
    /// [`press::REQUEST_TIMEOUT`] of arrivals.
    accepts: VecDeque<SimTime>,
    /// The id of `accepts[0]`.
    base: u64,
    /// Open slots in `accepts`.
    open: usize,
    counter: AvailabilityCounter,
    recorder: ThroughputRecorder,
    latency: LatencyHistogram,
    /// Per-time-bucket response-time distributions (same buckets as the
    /// throughput series), so reports can merge them into per-stage
    /// percentiles after the stage boundaries are known.
    latency_buckets: Vec<LatencyHistogram>,
}

impl ClientPool {
    /// Creates the pool with its own random stream.
    pub fn new(config: ClientConfig, rng: SimRng) -> Self {
        let zipf = Zipf::shared(config.files, ZIPF_ALPHA);
        let recorder = ThroughputRecorder::new(BUCKET);
        ClientPool {
            config,
            zipf,
            rng,
            next_id: 0,
            next_node: 0,
            accepts: VecDeque::new(),
            base: 0,
            open: 0,
            counter: AvailabilityCounter::new(),
            recorder,
            latency: LatencyHistogram::new(),
            latency_buckets: Vec::new(),
        }
    }

    /// The time of the first arrival.
    pub fn first_arrival(&mut self, now: SimTime) -> SimTime {
        now + self.inter_arrival()
    }

    fn inter_arrival(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exponential(self.config.rate))
    }

    /// Issues a request: returns `(request, target node, next arrival)`.
    pub fn arrive(&mut self, now: SimTime) -> (press::Request, NodeId, SimTime) {
        self.next_id += 1;
        let file = self.zipf.sample(&mut self.rng);
        let req = press::Request {
            id: self.next_id,
            file,
            issued: now,
        };
        let node = NodeId(self.next_node);
        self.next_node = (self.next_node + 1) % self.config.nodes;
        self.counter.attempts += 1;
        (req, node, now + self.inter_arrival())
    }

    /// The server accepted `req`; returns the completion deadline, `now +`
    /// [`press::REQUEST_TIMEOUT`], the composition layer must schedule as
    /// [`ClientEvent::Deadline`].
    ///
    /// # Panics
    ///
    /// Panics unless `req_id` is above every id accepted so far (step 3
    /// of the protocol).
    pub fn accepted(&mut self, now: SimTime, req_id: u64) -> SimTime {
        let next = self.base + self.accepts.len() as u64;
        assert!(
            req_id >= next,
            "request {req_id} accepted out of order: ids below {next} were already settled"
        );
        if self.accepts.is_empty() {
            self.base = req_id;
        } else {
            // Ids in between were refused or failed: closed from the start.
            let gap = (req_id - next) as usize;
            self.accepts.extend(std::iter::repeat_n(CLOSED, gap));
        }
        self.accepts.push_back(now);
        self.open += 1;
        now + press::REQUEST_TIMEOUT
    }

    /// The slot of `req_id` if the request is open.
    fn open_slot(&self, req_id: u64) -> Option<usize> {
        let i = usize::try_from(req_id.checked_sub(self.base)?).ok()?;
        self.accepts
            .get(i)
            .is_some_and(|&t| t != CLOSED)
            .then_some(i)
    }

    /// Scores slot `i` closed and drops the closed slots at the front.
    fn close(&mut self, i: usize) {
        self.accepts[i] = CLOSED;
        self.open -= 1;
        while self.accepts.front() == Some(&CLOSED) {
            self.accepts.pop_front();
            self.base += 1;
        }
    }

    /// The connection attempt failed (node down or accept queue
    /// overflow): the client gives up. It is scored at once; how long
    /// the connect timeout runs changes no outcome.
    pub fn connect_failed(&mut self) {
        self.counter.connect_timeouts += 1;
    }

    /// The connection was refused outright (machine up, server process
    /// dead): the client fails immediately.
    pub fn refused(&mut self) {
        self.counter.refused += 1;
    }

    /// The server's response left at `at`; scores a success if the
    /// client was still waiting. Returns `true` when the request was
    /// scored (closed).
    ///
    /// A closed request's [`ClientEvent::Deadline`] is still delivered
    /// and finds nothing to score ([`ClientPool::deadline`] is a no-op
    /// for it). The composition layer leaves it queued on purpose:
    /// deadlines ride a monotone lane where they cost O(1), and
    /// cancelling them would change the dispatched-event count that
    /// every golden file and recorded benchmark digest includes.
    pub fn complete(&mut self, at: SimTime, req_id: u64) -> bool {
        if let Some(i) = self.open_slot(req_id) {
            let issued = self.accepts[i];
            if at <= issued + press::REQUEST_TIMEOUT {
                self.close(i);
                self.counter.successes += 1;
                self.recorder.record(at);
                let secs = at.saturating_since(issued).as_secs_f64();
                self.latency.record(secs);
                let idx = (at.as_nanos() / BUCKET.as_nanos()) as usize;
                if idx >= self.latency_buckets.len() {
                    self.latency_buckets
                        .resize_with(idx + 1, LatencyHistogram::new);
                }
                self.latency_buckets[idx].record(secs);
                return true;
            }
            // A response after the deadline is scored by the deadline
            // event instead.
        }
        false
    }

    /// A deadline fired; scores a timeout if the request is still open.
    /// Returns `true` when the request was scored (closed).
    pub fn deadline(&mut self, req_id: u64) -> bool {
        let Some(i) = self.open_slot(req_id) else {
            return false;
        };
        self.close(i);
        self.counter.request_timeouts += 1;
        true
    }

    /// Requests currently awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.open
    }

    /// Outcome tallies so far.
    pub fn counter(&self) -> &AvailabilityCounter {
        &self.counter
    }

    /// Response-time distribution of successful requests.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Per-bucket response-time distributions over `[0, end)`, one
    /// histogram per throughput bucket (empty histograms where nothing
    /// completed). Like [`ClientPool::throughput`], the partial bucket
    /// containing `end` is dropped.
    pub fn latency_timeline(&self, end: SimTime) -> Vec<LatencyHistogram> {
        let n = (end.as_nanos() / BUCKET.as_nanos()) as usize;
        (0..n)
            .map(|i| self.latency_buckets.get(i).cloned().unwrap_or_default())
            .collect()
    }

    /// The throughput timeline over `[0, end)`.
    pub fn throughput(&self, end: SimTime) -> TimeSeries {
        self.recorder.series(end)
    }

    /// Successful requests per second over the window `[t0, t1)`
    /// (seconds), for steady-state measurements.
    pub fn mean_throughput(&self, end: SimTime, t0: f64, t1: f64) -> f64 {
        self.throughput(end).mean_between(t0, t1).unwrap_or(0.0)
    }

    /// Dumps the pool's outcome tallies and response-time shape into a
    /// [`telemetry::MetricsRegistry`].
    pub fn export_metrics(&self, reg: &mut telemetry::MetricsRegistry) {
        let c = &self.counter;
        reg.counter_add("client.attempts", c.attempts);
        reg.counter_add("client.successes", c.successes);
        reg.counter_add("client.connect_timeouts", c.connect_timeouts);
        reg.counter_add("client.request_timeouts", c.request_timeouts);
        reg.counter_add("client.refused", c.refused);
        if self.latency.count() > 0 {
            reg.gauge_set("client.latency_mean_ms", self.latency.mean() * 1e3);
            reg.gauge_set("client.latency_p50_ms", self.latency.quantile(0.50) * 1e3);
            reg.gauge_set("client.latency_p95_ms", self.latency.quantile(0.95) * 1e3);
            reg.gauge_set("client.latency_p99_ms", self.latency.quantile(0.99) * 1e3);
            reg.gauge_set("client.latency_max_ms", self.latency.max() * 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(rate: f64) -> ClientPool {
        let config = ClientConfig {
            rate,
            nodes: 4,
            files: 60_000,
        };
        ClientPool::new(config, SimRng::seed_from(3))
    }

    #[test]
    fn arrivals_average_the_configured_rate() {
        let mut p = pool(1000.0);
        let mut t = p.first_arrival(SimTime::ZERO);
        let mut n = 0u64;
        while t < SimTime::from_secs(10) {
            let (_, _, next) = p.arrive(t);
            t = next;
            n += 1;
        }
        let rate = n as f64 / 10.0;
        assert!((rate - 1000.0).abs() < 50.0, "measured rate {rate}");
    }

    #[test]
    fn round_robin_dns_covers_all_nodes() {
        let mut p = pool(100.0);
        let mut seen = [0u32; 4];
        let mut t = SimTime::ZERO;
        for _ in 0..40 {
            let (_, node, next) = p.arrive(t);
            seen[node.0] += 1;
            t = next;
        }
        assert_eq!(seen, [10, 10, 10, 10]);
    }

    #[test]
    fn success_and_timeout_scoring() {
        let mut p = pool(100.0);
        let t0 = SimTime::from_secs(1);
        let (req, _, _) = p.arrive(t0);
        let deadline = p.accepted(t0, req.id);
        assert_eq!(deadline, t0 + SimDuration::from_secs(6));
        // Completed in time: success.
        p.complete(t0 + SimDuration::from_millis(5), req.id);
        p.deadline(req.id); // deadline later finds nothing
        assert_eq!(p.counter().successes, 1);
        assert_eq!(p.counter().request_timeouts, 0);

        // Second request times out.
        let (req2, _, _) = p.arrive(t0);
        p.accepted(t0, req2.id);
        p.deadline(req2.id);
        assert_eq!(p.counter().request_timeouts, 1);
        // A very late reply after the deadline fired is not a success.
        p.complete(t0 + SimDuration::from_secs(60), req2.id);
        assert_eq!(p.counter().successes, 1);
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn late_reply_before_deadline_event_is_rejected_by_timestamp() {
        let mut p = pool(100.0);
        let t0 = SimTime::ZERO;
        let (req, _, _) = p.arrive(t0);
        p.accepted(t0, req.id);
        // Reply timestamped past the deadline, arriving before the
        // deadline event processes: not a success.
        p.complete(t0 + SimDuration::from_secs(7), req.id);
        assert_eq!(p.counter().successes, 0);
        p.deadline(req.id);
        assert_eq!(p.counter().request_timeouts, 1);
    }

    #[test]
    fn connect_failures_count_against_availability() {
        let mut p = pool(100.0);
        let (_, _, _) = p.arrive(SimTime::ZERO);
        p.connect_failed();
        assert_eq!(p.counter().attempts, 1);
        assert_eq!(p.counter().failures(), 1);
        assert_eq!(p.counter().availability(), 0.0);
    }

    #[test]
    fn latency_timeline_buckets_match_the_aggregate() {
        let mut p = pool(100.0);
        // One fast completion in bucket 0, two slower ones in bucket 2.
        for (issue_ms, take_ms) in [(100u64, 5u64), (2_100, 50), (2_300, 200)] {
            let t = SimTime::from_nanos(issue_ms * 1_000_000);
            let (req, _, _) = p.arrive(t);
            p.accepted(t, req.id);
            p.complete(t + SimDuration::from_millis(take_ms), req.id);
        }
        let timeline = p.latency_timeline(SimTime::from_secs(4));
        assert_eq!(timeline.len(), 4);
        assert_eq!(timeline[0].count(), 1);
        assert_eq!(timeline[1].count(), 0);
        assert_eq!(timeline[2].count(), 2);
        assert_eq!(timeline[3].count(), 0);
        // Merging the buckets reproduces the aggregate histogram.
        let mut merged = LatencyHistogram::new();
        for h in &timeline {
            merged.merge(h);
        }
        assert_eq!(&merged, p.latency());
        // Metrics export includes the p50/p95/p99 ladder.
        let mut reg = telemetry::MetricsRegistry::new();
        p.export_metrics(&mut reg);
        for g in [
            "client.latency_p50_ms",
            "client.latency_p95_ms",
            "client.latency_p99_ms",
        ] {
            assert!(reg.gauge(g).is_some(), "missing {g}");
        }
    }

    #[test]
    #[should_panic(expected = "accepted out of order")]
    fn accepting_an_id_twice_panics() {
        let mut p = pool(100.0);
        let (req, _, _) = p.arrive(SimTime::ZERO);
        p.accepted(SimTime::ZERO, req.id);
        p.complete(SimTime::ZERO, req.id);
        // Closed and gone from the ring, yet still not acceptable again.
        p.accepted(SimTime::ZERO, req.id);
    }

    #[test]
    #[should_panic(expected = "accepted out of order")]
    fn accepting_an_older_id_panics() {
        let mut p = pool(100.0);
        let (first, _, _) = p.arrive(SimTime::ZERO);
        let (second, _, _) = p.arrive(SimTime::ZERO);
        p.accepted(SimTime::ZERO, second.id);
        p.accepted(SimTime::ZERO, first.id);
    }

    /// The earlier pool bookkeeping, kept as the reference: open
    /// requests in a hash map of `(deadline, issued)`.
    #[derive(Default)]
    struct Model {
        open: std::collections::HashMap<u64, (SimTime, SimTime)>,
        successes: u64,
        timeouts: u64,
        latency: LatencyHistogram,
    }

    impl Model {
        fn accepted(&mut self, now: SimTime, id: u64) -> SimTime {
            let deadline = now + press::REQUEST_TIMEOUT;
            self.open.insert(id, (deadline, now));
            deadline
        }

        fn complete(&mut self, at: SimTime, id: u64) -> bool {
            match self.open.get(&id).copied() {
                Some((deadline, issued)) if at <= deadline => {
                    self.open.remove(&id);
                    self.successes += 1;
                    self.latency
                        .record(at.saturating_since(issued).as_secs_f64());
                    true
                }
                _ => false,
            }
        }

        fn deadline(&mut self, id: u64) -> bool {
            let open = self.open.remove(&id).is_some();
            self.timeouts += u64::from(open);
            open
        }
    }

    #[test]
    fn the_ring_matches_the_map_model() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            Complete(u64),
            Deadline(u64),
        }

        let mut rng = SimRng::seed_from(2003);
        let mut peak = 0;
        for case in 0..200 {
            let mut p = pool(100.0);
            let mut m = Model::default();
            // Pending completions and deadlines by (time, order queued).
            let mut queue = BinaryHeap::new();
            let mut seq = 0u64;
            let mut push = |queue: &mut BinaryHeap<_>, at: SimTime, ev: Ev| {
                seq += 1;
                queue.push(Reverse((at, seq, ev)));
            };
            let mut t = SimTime::ZERO;
            for _ in 0..rng.between(1, 600) {
                t += SimDuration::from_millis(rng.between(0, 40));
                // Everything due by now happens first.
                while let Some(&Reverse((at, _, ev))) = queue.peek() {
                    if at > t {
                        break;
                    }
                    queue.pop();
                    let (got, want) = match ev {
                        Ev::Complete(id) => (p.complete(at, id), m.complete(at, id)),
                        Ev::Deadline(id) => (p.deadline(id), m.deadline(id)),
                    };
                    assert_eq!(got, want, "case {case}");
                    assert_eq!(p.outstanding(), m.open.len(), "case {case}");
                }
                let (req, _, _) = p.arrive(t);
                if rng.chance(0.25) {
                    // Refused or failed: never accepted, and a stray
                    // reply for it finds nothing open.
                    p.refused();
                    let at = t + SimDuration::from_millis(rng.between(0, 100));
                    push(&mut queue, at, Ev::Complete(req.id));
                    continue;
                }
                let deadline = p.accepted(t, req.id);
                assert_eq!(deadline, m.accepted(t, req.id));
                // Replies before, at and after the deadline, sometimes
                // twice, sometimes none. Queued first, a reply at the
                // deadline is handled before the deadline event.
                for _ in 0..rng.between(0, 2) {
                    let at = if rng.chance(0.1) {
                        deadline
                    } else {
                        t + SimDuration::from_millis(rng.between(0, 8_000))
                    };
                    push(&mut queue, at, Ev::Complete(req.id));
                }
                push(&mut queue, deadline, Ev::Deadline(req.id));
                peak = peak.max(p.accepts.len());
            }
            while let Some(Reverse((at, _, ev))) = queue.pop() {
                let (got, want) = match ev {
                    Ev::Complete(id) => (p.complete(at, id), m.complete(at, id)),
                    Ev::Deadline(id) => (p.deadline(id), m.deadline(id)),
                };
                assert_eq!(got, want, "case {case}");
            }
            let c = p.counter();
            assert_eq!((c.successes, c.request_timeouts), (m.successes, m.timeouts));
            assert_eq!(p.latency(), &m.latency, "case {case}");
            assert_eq!((p.outstanding(), m.open.len()), (0, 0));
            assert!(p.accepts.is_empty(), "case {case}: every deadline passed");
        }
        assert!(
            peak > 100,
            "the ring never held a window of requests: {peak}"
        );
    }

    #[test]
    fn throughput_series_reflects_completions() {
        let mut p = pool(100.0);
        for i in 0..10 {
            let t = SimTime::from_nanos(100_000_000 * i);
            let (req, _, _) = p.arrive(t);
            p.accepted(t, req.id);
            p.complete(t + SimDuration::from_millis(1), req.id);
        }
        let series = p.throughput(SimTime::from_secs(2));
        assert_eq!(series.points[0].1, 10.0);
        assert_eq!(series.points[1].1, 0.0);
    }
}
