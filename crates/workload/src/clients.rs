//! The open-loop Poisson client pool.

use std::collections::HashMap;

use simnet::fabric::NodeId;
use simnet::{
    AvailabilityCounter, LatencyHistogram, SimDuration, SimRng, SimTime, ThroughputRecorder,
    TimeSeries,
};

use crate::zipf::Zipf;

/// Client-side parameters (§5.1).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Aggregate request rate over all clients, requests per second.
    pub rate: f64,
    /// Number of server nodes (round-robin DNS target set).
    pub nodes: usize,
    /// Distinct files.
    pub files: u32,
    /// Zipf popularity exponent.
    pub zipf_alpha: f64,
    /// Throughput-series bucket width.
    pub bucket: SimDuration,
}

impl ClientConfig {
    /// The paper's client setup, at the given aggregate rate.
    pub fn paper(rate: f64) -> Self {
        ClientConfig {
            rate,
            nodes: 4,
            files: 60_000,
            zipf_alpha: 0.8,
            bucket: SimDuration::from_secs(1),
        }
    }
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
///    [`ClientPool::accepted`] / [`ClientPool::connect_failed`];
///    schedule the returned next arrival and (on accept) the deadline.
/// 3. When the server replies, call [`ClientPool::complete`].
/// 4. On [`ClientEvent::Deadline`], call [`ClientPool::deadline`].
#[derive(Debug)]
pub struct ClientPool {
    config: ClientConfig,
    zipf: Zipf,
    rng: SimRng,
    next_id: u64,
    next_node: usize,
    outstanding: HashMap<u64, (SimTime, SimTime)>,
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
        let zipf = Zipf::shared(config.files, config.zipf_alpha);
        let recorder = ThroughputRecorder::new(config.bucket);
        ClientPool {
            config,
            zipf,
            rng,
            next_id: 0,
            next_node: 0,
            outstanding: HashMap::new(),
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
    pub fn accepted(&mut self, now: SimTime, req_id: u64) -> SimTime {
        let deadline = now + press::REQUEST_TIMEOUT;
        self.outstanding.insert(req_id, (deadline, now));
        deadline
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
        if let Some((deadline, issued)) = self.outstanding.get(&req_id).copied() {
            if at <= deadline {
                self.outstanding.remove(&req_id);
                self.counter.successes += 1;
                self.recorder.record(at);
                let secs = at.saturating_since(issued).as_secs_f64();
                self.latency.record(secs);
                let idx = (at.as_nanos() / self.config.bucket.as_nanos()) as usize;
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
        let open = self.outstanding.remove(&req_id).is_some();
        if open {
            self.counter.request_timeouts += 1;
        }
        open
    }

    /// Requests currently awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
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
        let n = (end.as_nanos() / self.config.bucket.as_nanos()) as usize;
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
        ClientPool::new(ClientConfig::paper(rate), SimRng::seed_from(3))
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
