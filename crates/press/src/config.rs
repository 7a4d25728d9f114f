//! PRESS configuration: document set, caches, per-request CPU costs,
//! disks, heartbeats and recovery behaviour.

use simnet::SimDuration;

/// Which failure-detection protocol the versions with membership
/// support (the TCP variants and VIA-PRESS) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipImpl {
    /// The paper's heartbeat ring: each node beats to its ring
    /// successor and watches its predecessor against the 3-beat
    /// threshold. Detection of k simultaneous adjacent failures is
    /// sequential — one threshold per unmasked node.
    Ring,
    /// SWIM-style epidemic membership (`crates/gossip`): random-peer
    /// probes with indirect ping-req and a suspect→confirm state
    /// machine. Detection latency stays flat as the cluster grows.
    Gossip,
}

/// How cooperative-caching state propagates to the other members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSyncImpl {
    /// The paper's PRESS (§3): every caching action is immediately
    /// broadcast to every member — O(N) frames per action, O(N²)
    /// cluster-wide, and a frame that would block freezes the sender's
    /// main thread (§5.4).
    Eager,
    /// Batched digests: caching deltas coalesce locally and flush as
    /// one `CacheDigest` frame to [`DIGEST_FANOUT`] peers (round-robin)
    /// every [`DIGEST_INTERVAL`] — at most `fanout / interval` control
    /// frames per node per second regardless of the request rate or
    /// cluster size. Directory staleness is bounded by
    /// `ceil((N-1) / fanout) × interval`; a stale entry only costs a
    /// disk fallback, never correctness.
    Digest,
}

// The calibrated test-bed (§5.1), fixed for every run: two SCSI disks
// per node, normalized file sizes and the per-request CPU costs. The
// four `*_COST` constants are the per-request HTTP work (identical
// across all five versions); their sum (≈541 µs) plus the substrate
// costs reproduces Table 1 — see `transport::cost` for the derivation.

/// Every file's size after the trace normalization (§5.1).
pub const FILE_BYTES: u32 = 8_192;
/// 4 KB pages needed to pin one file (VIA-PRESS-5 zero-copy).
pub const PAGES_PER_FILE: u32 = FILE_BYTES.div_ceil(4096);
/// CPU to accept and parse one client request.
pub const ACCEPT_PARSE_COST: SimDuration = SimDuration::from_micros(160);
/// CPU to make the routing decision.
pub const ROUTE_COST: SimDuration = SimDuration::from_micros(12);
/// CPU to read a cached file.
pub const CACHE_READ_COST: SimDuration = SimDuration::from_micros(18);
/// CPU to send the response to the client (client-network path).
pub const CLIENT_REPLY_COST: SimDuration = SimDuration::from_micros(344);
/// Disk service time per read.
pub const DISK_SERVICE: SimDuration = SimDuration::from_millis(9);
/// Disks per node (requests load-balance across them).
pub const DISKS_PER_NODE: usize = 2;
/// Refuse new client connections when the CPU backlog exceeds this
/// (listen-queue overflow under overload).
pub const ADMISSION_BACKLOG: SimDuration = SimDuration::from_millis(1500);
/// Maximum deferred work items while the main thread is blocked on a
/// send; beyond this, arrivals are dropped (accept-queue overflow).
pub const DEFERRED_CAP: usize = 2_000;
/// Delay between rejoin attempts after a restart.
pub const REJOIN_RETRY: SimDuration = SimDuration::from_secs(2);
/// Rejoin attempts before giving up and serving standalone.
pub const REJOIN_ATTEMPTS: u32 = 3;
/// Digest flush period ([`CacheSyncImpl::Digest`] only).
pub const DIGEST_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Peers flushed per digest tick, round-robin over the member list
/// ([`CacheSyncImpl::Digest`] only; clamped to the live peer count).
pub const DIGEST_FANOUT: usize = 2;
/// Probe period of the membership-repair extension.
pub const REPAIR_PROBE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// What experiments vary about the server. [`PressConfig::paper_testbed`]
/// reproduces the paper's setup (§5.1): 4 nodes, 128 MB file cache per
/// node, 5 s heartbeats with a 15 s (3 beat) detection threshold.
#[derive(Debug, Clone)]
pub struct PressConfig {
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Distinct files in the (static, fully replicated on disk)
    /// document set.
    pub files: u32,
    /// Per-node file-cache capacity in bytes (128 MB in the paper).
    pub cache_bytes: u64,
    /// Heartbeat period (TCP-PRESS-HB).
    pub hb_interval: SimDuration,
    /// Declare the ring predecessor dead after this many missed beats.
    pub hb_misses: u32,
    /// Failure-detection protocol for the membership-running versions.
    /// [`MembershipImpl::Ring`] is the paper's PRESS.
    pub membership: MembershipImpl,
    /// The run seed of [`MembershipImpl::Gossip`] (ignored under Ring).
    /// Only a node built directly reads a value set here: a cluster run
    /// (`experiments::ClusterSim::with_campaign`) always overwrites it
    /// with the run seed, so it is not an axis a study can vary.
    pub gossip: gossip::SwimConfig,
    /// How caching actions reach the other members.
    /// [`CacheSyncImpl::Eager`] is the paper's PRESS.
    pub cache_sync: CacheSyncImpl,
    /// Enables the membership-repair extension the paper's §6.2 calls
    /// for ("a rigorous membership algorithm"): nodes periodically probe
    /// excluded peers and re-merge splintered sub-clusters without
    /// operator intervention. Off in the paper's PRESS.
    pub membership_repair: bool,
}

impl PressConfig {
    /// The paper's 4-node test-bed.
    pub fn paper_testbed() -> Self {
        PressConfig {
            nodes: 4,
            files: 60_000,
            cache_bytes: 128 << 20,
            hb_interval: SimDuration::from_secs(5),
            hb_misses: 3,
            membership: MembershipImpl::Ring,
            gossip: gossip::SwimConfig::default(),
            cache_sync: CacheSyncImpl::Eager,
            membership_repair: false,
        }
    }

    /// Files that fit in one node's cache.
    pub fn cache_entries(&self) -> usize {
        (self.cache_bytes / u64::from(FILE_BYTES)) as usize
    }

    /// Heartbeat-loss detection threshold (`hb_misses × hb_interval` —
    /// 15 s in the paper).
    pub fn hb_detect_threshold(&self) -> SimDuration {
        self.hb_interval * u64::from(self.hb_misses)
    }
}

impl Default for PressConfig {
    fn default() -> Self {
        PressConfig::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_section_5_1() {
        let c = PressConfig::paper_testbed();
        assert_eq!(c.nodes, 4);
        assert_eq!(c.cache_bytes, 128 << 20);
        assert_eq!(c.cache_entries(), 16_384);
        assert_eq!(c.hb_detect_threshold(), SimDuration::from_secs(15));
        // The aggregate cache must cover the working set so steady-state
        // operation is disk-free, but one node's cache must not — that
        // asymmetry drives the degraded stages.
        assert!(c.cache_entries() * c.nodes >= c.files as usize);
        assert!(c.cache_entries() < c.files as usize);
        // An 8 KB file pins two 4 KB pages.
        assert_eq!(PAGES_PER_FILE, 2);
    }

    #[test]
    fn base_cost_matches_calibration() {
        let base = ACCEPT_PARSE_COST + ROUTE_COST + CACHE_READ_COST + CLIENT_REPLY_COST;
        let us = base.as_nanos() as f64 / 1000.0;
        assert!((530.0..555.0).contains(&us), "base cost = {us}us");
    }
}
