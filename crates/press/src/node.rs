//! The PRESS node: request routing and cooperative caching over any
//! [`Substrate`], and the entry points that dispatch to its membership
//! and freeze machines.
//!
//! # Execution model
//!
//! The composition layer owns the node's CPU meter and its transport
//! endpoint and calls into the node for: client arrivals
//! ([`PressNode::client_request`]), its own scheduled continuations
//! ([`PressNode::on_app_event`]) and transport upcalls
//! ([`PressNode::on_upcall`]). Every entry point takes a [`NodeCtx`] and
//! pushes [`AppEffect`]s (things only the composition layer can do:
//! schedule events, complete client requests, restart the process).
//!
//! # Who owns what
//!
//! [`PressNode`] owns the request path and every effect: sends,
//! connections, schedules, traces and attribution. It consults machines
//! that never see a substrate, one per concern, each settled once per
//! boot:
//! - the membership view (`membership::View`) owns the members, the
//!   join state of the boot and the [`Detector`] (none, the heartbeat
//!   ring or SWIM), and says whom to admit, exclude or ask to rejoin or
//!   merge;
//! - the freeze (`freeze::Freeze`) owns the stalled message of a blocked
//!   send and the bounded queue of work deferred behind it (§5.4);
//! - the [`DigestLog`], present iff [`CacheSyncImpl::Digest`], owns the
//!   batched caching deltas and what each peer has taken of them.
//!
//! Forwards, file responses and broadcasts all go through one blocking
//! send loop, which freezes the node when a send would block
//! ([`SendStatus::WouldBlock`]) and retries the stalled message on
//! `Writable`; control messages never block.

use std::collections::{BTreeMap, BTreeSet};

use simnet::fabric::NodeId;
use simnet::{CpuMeter, SimDuration, SimTime};
use telemetry::{AttrEvent, TraceEvent};
use transport::{BreakReason, CallParams, Effects, SendInterposer, SendStatus, Substrate, Upcall};

use crate::cache::{DigestLog, Directory, LruCache, MAX_NODES};
use crate::config::{
    CacheSyncImpl, MembershipImpl, PressConfig, ACCEPT_PARSE_COST, ADMISSION_BACKLOG,
    CACHE_READ_COST, CLIENT_REPLY_COST, DEFERRED_CAP, DIGEST_FANOUT, DIGEST_INTERVAL,
    DISKS_PER_NODE, DISK_SERVICE, PAGES_PER_FILE, REJOIN_RETRY, REPAIR_PROBE_INTERVAL, ROUTE_COST,
};
use crate::freeze::{Deferred, Freeze, Stalled};
use crate::membership::{Detector, View};
use crate::msg::{FileId, MsgBody, PressMsg, Request, REQUEST_TIMEOUT};
use crate::version::PressVersion;

/// Continuations the node schedules for itself.
#[derive(Debug, Clone, PartialEq)]
pub enum AppEvent {
    /// Accept/parse CPU finished for a client request.
    Parsed(Request),
    /// A disk read completed.
    DiskDone(DiskJob),
    /// A forwarded request has waited as long as its client would.
    PendingTimeout(u64),
    /// Periodic heartbeat send/check (TCP-PRESS-HB).
    HeartbeatTick,
    /// One SWIM protocol period ([`MembershipImpl::Gossip`]).
    GossipTick,
    /// Periodic rejoin attempt after a restart.
    RejoinTick,
    /// Periodic membership-repair probe (extension, off by default).
    ProbeTick,
    /// Periodic cache-digest flush ([`CacheSyncImpl::Digest`] only).
    DigestTick,
}

/// What a finished disk read was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskJob {
    /// A locally served client request.
    Local(Request),
    /// A request forwarded to us by `from`.
    Remote {
        /// The forwarded request id.
        req_id: u64,
        /// The file read.
        file: FileId,
        /// The initial node awaiting the data.
        from: NodeId,
    },
}

/// The event stream an [`AppEffect::Schedule`] belongs to.
///
/// Within one node, the timestamps of the `Cpu` and `Disk` streams
/// never decrease from one emission to the next, and `Timeout` stamps
/// are always the current time plus one constant, so the composition
/// layer can queue each stream on an already-sorted lane instead of a
/// general priority queue. The only breaks are a process kill (the CPU
/// backlog is dropped) and a restart (the disks reset); a consumer must
/// accept an out-of-order time, and still deliver it in time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// No ordering promise: periodic ticks with differing periods.
    Unordered,
    /// CPU completions, stamped by `CpuMeter::charge`:
    /// [`AppEvent::Parsed`] (and every [`AppEffect::Reply`]).
    Cpu,
    /// Disk completions ([`AppEvent::DiskDone`]), stamped
    /// `max(earliest free disk, now) + disk_service`.
    Disk,
    /// Fixed-horizon watchdogs ([`AppEvent::PendingTimeout`]), stamped
    /// `now +` [`REQUEST_TIMEOUT`] like the clients' request deadlines.
    /// This stream carries no other event, so the composition layer can
    /// park each watchdog as a small `(node, gen, req_id)` record beside
    /// the deadlines, rather than as a full event.
    Timeout,
}

/// Things only the composition layer can do for the node.
#[derive(Debug, Clone, PartialEq)]
pub enum AppEffect {
    /// Call [`PressNode::on_app_event`] with `ev` at time `at`.
    Schedule {
        /// When.
        at: SimTime,
        /// What.
        ev: AppEvent,
        /// Which of the node's event streams `at` continues.
        stream: Stream,
    },
    /// The response for `req_id` leaves the node at `at` (success if the
    /// client is still waiting). `at` is a CPU completion, so replies
    /// continue the node's [`Stream::Cpu`].
    Reply {
        /// The completed request.
        req_id: u64,
        /// Completion time (after CPU queueing).
        at: SimTime,
    },
    /// Fail-fast: the process terminates itself; the Mendosus daemon
    /// will restart it.
    ProcessExit {
        /// Why (for reports).
        reason: &'static str,
    },
}

/// Why a client arrival was turned away (for root-cause attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The node was frozen on a blocked send and its deferred queue
    /// overflowed (§5.4).
    DeferOverflow,
    /// Admission control shed the request under CPU backlog.
    Admission,
}

/// Outcome of handing a client request to the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientAccept {
    /// The request entered the server.
    Accepted,
    /// The listen/accept queue was full (the client's connection attempt
    /// will time out).
    Dropped(DropReason),
}

/// Everything a node entry point may touch, borrowed from the
/// composition layer.
///
/// Generic over the substrate so a caller holding a concrete transport
/// (e.g. `SubstrateImpl`) gets fully monomorphized, devirtualized node
/// code; the default parameter keeps trait-object callers (tests, mock
/// substrates) working unchanged.
pub struct NodeCtx<'a, S: ?Sized = dyn Substrate<PressMsg> + 'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// This node's CPU.
    pub cpu: &'a mut CpuMeter,
    /// This node's transport endpoint.
    pub sub: &'a mut S,
    /// The Mendosus interposition layer for send parameters.
    pub interposer: &'a mut dyn SendInterposer,
    /// Transport effects produced during the call (frames, timers, CPU).
    pub fx: &'a mut Effects<PressMsg>,
    /// Application effects produced during the call.
    pub app: &'a mut Vec<AppEffect>,
}

impl<S: ?Sized> NodeCtx<'_, S> {
    /// Schedules `ev` at `at`, continuing `stream`.
    fn schedule(&mut self, at: SimTime, ev: AppEvent, stream: Stream) {
        self.app.push(AppEffect::Schedule { at, ev, stream });
    }

    /// Schedules the periodic `ev` one `period` from now.
    fn schedule_tick(&mut self, ev: AppEvent, period: SimDuration) {
        self.schedule(self.now + period, ev, Stream::Unordered);
    }
}

/// Behaviour counters for experiments and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests served from the local cache.
    pub served_local: u64,
    /// Requests served via a remote cache.
    pub served_remote: u64,
    /// Requests that needed a disk read.
    pub served_disk: u64,
    /// Client arrivals dropped at admission.
    pub dropped_admission: u64,
    /// Work items dropped because the deferred queue overflowed.
    pub dropped_deferred: u64,
    /// Sends dropped after a synchronous EFAULT.
    pub efault_drops: u64,
    /// Forwarded requests that timed out waiting for the service node.
    pub forward_timeouts: u64,
    /// Messages ignored because the sender is not a member.
    pub ignored_foreign: u64,
    /// Files served but not cached because pinning failed (VIA-PRESS-5).
    pub pin_cache_skips: u64,
    /// Peers excluded from the cluster.
    pub exclusions: u64,
    /// Rejoin requests disregarded because the node seemed alive.
    pub rejoins_disregarded: u64,
    /// Times this node completed a rejoin.
    pub rejoined: u64,
    /// Sub-cluster merges completed by the membership-repair extension.
    pub merges: u64,
    /// Cache-synchronization frames handed to the transport: one per
    /// peer per caching action under [`CacheSyncImpl::Eager`], one per
    /// non-empty digest flush under [`CacheSyncImpl::Digest`].
    pub cache_sync_frames: u64,
    /// Non-empty `CacheDigest` frames sent (digest mode only).
    pub digest_flushes: u64,
    /// Caching deltas recorded into the digest log (digest mode only);
    /// `digest_deltas / digest_flushes` is the achieved batching.
    pub digest_deltas: u64,
    /// Digest flushes the transport refused (would-block, sync error,
    /// or no connection); the peer's watermark is not advanced, so the
    /// same deltas retry on its next round-robin turn.
    pub digest_retries: u64,
}

/// One PRESS server process.
#[derive(Debug)]
pub struct PressNode {
    id: NodeId,
    version: PressVersion,
    config: PressConfig,
    view: View,
    cache: LruCache,
    directory: Directory,
    /// Present iff the config selects [`CacheSyncImpl::Digest`].
    digest: Option<DigestLog>,
    load_map: Vec<u32>,
    open_requests: u32,
    pending_remote: BTreeMap<u64, (Request, NodeId)>,
    disks: Vec<SimTime>,
    freeze: Freeze,
    stats: NodeStats,
}

impl PressNode {
    /// Creates a stopped node; call [`PressNode::start`] to boot it.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` exceeds [`MAX_NODES`], the most node ids
    /// the cache directory can store, or if the node runs the heartbeat
    /// ring with a zero `hb_interval`, which would re-arm its tick at the
    /// same instant forever.
    pub fn new(id: NodeId, version: PressVersion, config: PressConfig) -> Self {
        assert!(
            config.nodes <= MAX_NODES,
            "PRESS supports at most {MAX_NODES} nodes (the cache directory stores u16 node ids); got {}",
            config.nodes
        );
        let ring = version.heartbeats() && config.membership == MembershipImpl::Ring;
        assert!(
            !ring || !config.hb_interval.is_zero(),
            "hb_interval must be positive"
        );
        let digest = config.cache_sync == CacheSyncImpl::Digest;
        PressNode {
            id,
            version,
            view: View::new(id, config.nodes),
            cache: LruCache::new(config.cache_entries()),
            directory: Directory::new(config.files),
            digest: digest.then(DigestLog::default),
            load_map: vec![0; config.nodes],
            open_requests: 0,
            pending_remote: BTreeMap::new(),
            disks: Vec::new(),
            freeze: Freeze::new(DEFERRED_CAP),
            stats: NodeStats::default(),
            config,
        }
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// SWIM protocol counters, when this node runs
    /// [`MembershipImpl::Gossip`].
    pub fn swim_stats(&self) -> Option<&gossip::SwimStats> {
        match &self.view.detector {
            Detector::Gossip { swim, .. } => Some(swim.stats()),
            _ => None,
        }
    }

    /// Dumps this node's behaviour counters into a metrics registry;
    /// counters from all nodes of a cluster accumulate into the same
    /// keys.
    pub fn export_metrics(&self, reg: &mut telemetry::MetricsRegistry) {
        let s = &self.stats;
        reg.counter_add("press.served_local", s.served_local);
        reg.counter_add("press.served_remote", s.served_remote);
        reg.counter_add("press.served_disk", s.served_disk);
        reg.counter_add("press.dropped_admission", s.dropped_admission);
        reg.counter_add("press.dropped_deferred", s.dropped_deferred);
        reg.counter_add("press.efault_drops", s.efault_drops);
        reg.counter_add("press.forward_timeouts", s.forward_timeouts);
        reg.counter_add("press.pin_cache_skips", s.pin_cache_skips);
        reg.counter_add("press.exclusions", s.exclusions);
        reg.counter_add("press.rejoined", s.rejoined);
        reg.counter_add("press.merges", s.merges);
        // Epidemic-detector fan-out counters exist only when the Gossip
        // detector runs, so Ring snapshots (and their golden files) are
        // untouched by the membership subsystem.
        if let Some(g) = self.swim_stats() {
            reg.counter_add("press.gossip.pings", g.pings);
            reg.counter_add("press.gossip.acks", g.acks);
            reg.counter_add("press.gossip.ping_reqs", g.ping_reqs);
            reg.counter_add("press.gossip.relays", g.relays);
            reg.counter_add("press.gossip.suspects", g.suspects);
            reg.counter_add("press.gossip.clears", g.clears);
            reg.counter_add("press.gossip.refutations", g.refutations);
            reg.counter_add("press.gossip.confirms", g.confirms);
            reg.counter_add("press.gossip.updates_sent", g.updates_sent);
        }
        // Cache-sync counters are gated the same way: Eager mode counts
        // its broadcast frames too, so exporting them unconditionally
        // would perturb the pre-digest metrics goldens.
        if self.config.cache_sync == CacheSyncImpl::Digest {
            reg.counter_add("press.cache.sync_frames", s.cache_sync_frames);
            reg.counter_add("press.cache.digest_flushes", s.digest_flushes);
            reg.counter_add("press.cache.digest_deltas", s.digest_deltas);
            reg.counter_add("press.cache.digest_retries", s.digest_retries);
        }
    }

    /// Current cooperating membership (includes self).
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.view.members
    }

    /// Whether the data path is currently frozen on a blocked send.
    pub fn is_blocked(&self) -> bool {
        self.freeze.is_frozen()
    }

    /// Files currently cached (for rejoin cache-info and tests).
    pub fn cached_files(&self) -> Vec<FileId> {
        self.cache.files().collect()
    }

    /// This node's cache summary, for a peer (re)joining its view.
    fn cache_info(&self) -> MsgBody {
        let files = self.cached_files().into();
        MsgBody::CacheInfo { files }
    }

    /// This node's view of who caches what (for experiments and the
    /// eager-vs-digest equivalence tests).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Files with recorded caching deltas not yet flushed to every
    /// current peer ([`CacheSyncImpl::Digest`]; empty under eager).
    pub fn digest_pending(&self) -> Vec<FileId> {
        self.digest
            .as_ref()
            .map_or_else(Vec::new, |log| log.pending(&self.view.peers()))
    }

    /// Boots the process.
    ///
    /// `cold` start: the whole cluster is coming up together, so the
    /// node assumes full membership. Otherwise this is a restart into a
    /// running cluster: the node starts alone and runs the rejoin
    /// protocol (§3 "Reconfiguration").
    pub fn start<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, cold: bool) {
        self.view
            .boot(&self.config, self.version.heartbeats(), cold, ctx.now);
        self.open_requests = 0;
        self.pending_remote.clear();
        let thawed = self.freeze.reset();
        ctx.fx.evidence(thawed);
        self.cache.clear();
        self.directory = Directory::new(self.config.files);
        self.digest = self.digest.as_ref().map(|_| DigestLog::default());
        self.disks = vec![ctx.now; DISKS_PER_NODE];
        for peer in self.view.others() {
            ctx.sub.open(ctx.now, peer, ctx.fx);
        }
        match self.view.detector {
            Detector::Off => {}
            Detector::Ring(_) => {
                ctx.schedule_tick(AppEvent::HeartbeatTick, self.config.hb_interval)
            }
            Detector::Gossip { .. } => {
                ctx.schedule_tick(AppEvent::GossipTick, gossip::PROBE_INTERVAL)
            }
        }
        if !cold {
            ctx.schedule_tick(AppEvent::RejoinTick, REJOIN_RETRY);
        }
        if self.config.membership_repair {
            ctx.schedule_tick(AppEvent::ProbeTick, REPAIR_PROBE_INTERVAL);
        }
        if self.digest.is_some() {
            ctx.schedule_tick(AppEvent::DigestTick, DIGEST_INTERVAL);
        }
    }

    /// Pre-populates this node's cache and cluster directory so
    /// experiments start in the steady state (skipping the multi-minute
    /// cold-cache warm-up). `assignment[f]` is the node caching file `f`.
    pub fn prewarm<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        assignment: &[NodeId],
    ) {
        for (f, &holder) in assignment.iter().enumerate() {
            let file = f as FileId;
            self.directory.add(file, holder);
            if holder == self.id {
                self.cache.insert(file);
                if self.version.zero_copy() {
                    // Zero-copy requires every cached file pinned. At
                    // prewarm the ceiling must accommodate the full
                    // cache; failures here would be a config error.
                    ctx.sub
                        .register_pages(ctx.now, PAGES_PER_FILE, ctx.fx)
                        .expect("prewarm must fit under the pinning ceiling");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Effect and sending helpers
    // ------------------------------------------------------------------

    /// Emits the instant trace event `name` on this node's lane, with
    /// the integer arguments `args`, when tracing is on.
    fn trace_instant<S: ?Sized>(
        &self,
        ctx: &mut NodeCtx<'_, S>,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        ctx.fx.trace(|| {
            let ev = TraceEvent::instant(name, "press", self.id.0 as u32, ctx.now);
            args.iter().fold(ev, |ev, &(key, v)| ev.arg_u64(key, v))
        });
    }

    fn make_msg(&self, body: MsgBody) -> PressMsg {
        PressMsg {
            load: self.open_requests,
            body,
        }
    }

    /// Sends `body` to each of `to` on the blocking data path.
    fn send_data<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        to: impl IntoIterator<Item = NodeId>,
        body: MsgBody,
    ) {
        let msg = self.make_msg(body);
        self.send_blocking(ctx, msg, to, false);
    }

    /// The blocking data path: hands `msg` to each target in turn. On
    /// WouldBlock the node freezes on `msg` and the targets it has not
    /// reached (see [`Freeze::stall`] for `retry`). Unconnected targets
    /// are skipped; a synchronous EFAULT drops the copy.
    fn send_blocking<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        msg: PressMsg,
        targets: impl IntoIterator<Item = NodeId>,
        retry: bool,
    ) {
        let class = msg.class();
        let bytes = msg.wire_bytes();
        let mut targets = targets.into_iter();
        while let Some(peer) = targets.next() {
            let params = ctx.interposer.mangle(ctx.now, class, CallParams::default());
            match ctx
                .sub
                .send(ctx.now, peer, class, msg.clone(), bytes, params, ctx.fx)
            {
                SendStatus::Accepted | SendStatus::NotConnected => {}
                SendStatus::SyncError => self.stats.efault_drops += 1,
                SendStatus::WouldBlock => {
                    let remaining = std::iter::once(peer).chain(targets).collect();
                    let begin = self.freeze.stall(msg, remaining, retry);
                    ctx.fx.evidence(begin);
                    return;
                }
            }
        }
    }

    /// Best-effort control send: never blocks the node (a full queue
    /// just delays/drops the control message — heartbeats may be late).
    fn send_control<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        peer: NodeId,
        body: MsgBody,
    ) -> SendStatus {
        let msg = self.make_msg(body);
        let class = msg.class();
        let bytes = msg.wire_bytes();
        let params = ctx.interposer.mangle(ctx.now, class, CallParams::default());
        ctx.sub
            .send(ctx.now, peer, class, msg, bytes, params, ctx.fx)
    }

    /// Sends control `body` to `peer`, or starts connecting if it can't.
    fn send_or_open<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        peer: NodeId,
        body: MsgBody,
    ) {
        if ctx.sub.is_connected(peer) {
            self.send_control(ctx, peer, body);
        } else {
            ctx.sub.open(ctx.now, peer, ctx.fx);
        }
    }

    // ------------------------------------------------------------------
    // Client path
    // ------------------------------------------------------------------

    /// A client request arrives (this node is its *initial node*).
    pub fn client_request<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        req: Request,
    ) -> ClientAccept {
        if self.is_blocked() {
            if !self.defer(Deferred::Client(req)) {
                return ClientAccept::Dropped(DropReason::DeferOverflow);
            }
            ctx.fx.evidence(AttrEvent::Deferred { req_id: req.id });
            return ClientAccept::Accepted;
        }
        if ctx.cpu.backlog(ctx.now) > ADMISSION_BACKLOG {
            self.stats.dropped_admission += 1;
            return ClientAccept::Dropped(DropReason::Admission);
        }
        self.accept(ctx, req);
        ClientAccept::Accepted
    }

    /// Takes `req` into the server: its accept/parse CPU is queued.
    fn accept<S: ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, req: Request) {
        self.open_requests += 1;
        let done = ctx.cpu.charge(ctx.now, ACCEPT_PARSE_COST);
        ctx.schedule(done, AppEvent::Parsed(req), Stream::Cpu);
    }

    fn route<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, req: Request) {
        ctx.cpu.charge(ctx.now, ROUTE_COST);
        if self.cache.touch(req.file) {
            self.stats.served_local += 1;
            self.reply(ctx, req.id, CACHE_READ_COST);
            return;
        }
        // Pick the least-loaded live holder.
        let holder = self
            .directory
            .holders(req.file)
            .filter(|n| *n != self.id && self.view.members.contains(n) && ctx.sub.is_connected(*n))
            .min_by_key(|n| self.load_map[n.0]);
        match holder {
            Some(service) => {
                self.stats.served_remote += 1;
                let (req_id, file, peer) = (req.id, req.file, service.0 as u32);
                ctx.fx.evidence(AttrEvent::Forwarded { req_id, peer });
                self.pending_remote.insert(req_id, (req, service));
                let deadline = ctx.now + REQUEST_TIMEOUT;
                ctx.schedule(deadline, AppEvent::PendingTimeout(req_id), Stream::Timeout);
                self.send_data(ctx, [service], MsgBody::Forward { req_id, file });
            }
            None => {
                // Cached nowhere (or its holder left): serve from the
                // local disk and start caching it (§3).
                self.stats.served_disk += 1;
                let done = self.disk_read(ctx.now);
                ctx.schedule(done, AppEvent::DiskDone(DiskJob::Local(req)), Stream::Disk);
            }
        }
    }

    /// Replies to client request `req_id` after `work` more CPU (the
    /// cache read of a local serve; none for a remote one).
    fn reply<S: ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, req_id: u64, work: SimDuration) {
        let cost = work + CLIENT_REPLY_COST;
        let done = ctx.cpu.charge(ctx.now, cost);
        self.open_requests = self.open_requests.saturating_sub(1);
        ctx.app.push(AppEffect::Reply { req_id, at: done });
    }

    fn disk_read(&mut self, now: SimTime) -> SimTime {
        // The first of the earliest-free disks takes the read.
        let disk = self
            .disks
            .iter_mut()
            .min()
            .expect("node has at least one disk");
        *disk = (*disk).max(now) + DISK_SERVICE;
        *disk
    }

    /// Announces one caching action to the other members. Eager mode
    /// broadcasts immediately — O(members) frames, freezing the node on
    /// WouldBlock (§5.4). Digest mode records the delta for the next
    /// flush and never blocks.
    fn cache_sync_action<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        file: FileId,
        cached: bool,
    ) {
        if let Some(log) = &mut self.digest {
            log.record(file, cached);
            self.stats.digest_deltas += 1;
            return;
        }
        self.stats.cache_sync_frames += self.view.members.len().saturating_sub(1) as u64;
        let body = if cached {
            MsgBody::CacheAdd { file }
        } else {
            MsgBody::CacheEvict { file }
        };
        self.send_data(ctx, self.view.peers(), body);
    }

    /// Inserts `file` into the cache (pinning it for zero-copy versions)
    /// and announces the caching actions. Under pinnable-memory
    /// exhaustion VIA-PRESS-5 sheds cache entries to free pinned pages,
    /// and serves without caching if that is not enough (§5.4).
    fn cache_insert<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        file: FileId,
    ) {
        if self.cache.contains(file) {
            return;
        }
        let pages = PAGES_PER_FILE;
        if self.version.zero_copy() {
            let mut pinned = ctx.sub.register_pages(ctx.now, pages, ctx.fx).is_ok();
            if !pinned {
                // Drop cached files (and their pins) to make room.
                for _ in 0..2 {
                    let Some(victim) = self.cache.pop_lru() else {
                        break;
                    };
                    ctx.sub.deregister_pages(ctx.now, pages, ctx.fx);
                    self.directory.remove(victim, self.id);
                    self.cache_sync_action(ctx, victim, false);
                    if self.is_blocked() {
                        break;
                    }
                    if ctx.sub.register_pages(ctx.now, pages, ctx.fx).is_ok() {
                        pinned = true;
                        break;
                    }
                }
            }
            if !pinned {
                self.stats.pin_cache_skips += 1;
                return; // serve the data, but do not cache it
            }
        }
        let evicted = self.cache.insert(file);
        self.directory.add(file, self.id);
        if let Some(victim) = evicted {
            if self.version.zero_copy() {
                ctx.sub.deregister_pages(ctx.now, pages, ctx.fx);
            }
            self.directory.remove(victim, self.id);
            self.cache_sync_action(ctx, victim, false);
            if self.is_blocked() {
                // The add is never announced: a known §5.4 incoherence,
                // `eager_announcements_skipped_by_a_freeze_are_never_resent`.
                return;
            }
        }
        self.cache_sync_action(ctx, file, true);
    }

    /// One digest period. Digests ride the best-effort control path, so
    /// a flush never freezes the node. Until a delta lands, the receiver's
    /// directory is merely stale — that only costs disk fallbacks, and
    /// the rejoin / merge `CacheInfo` summaries resync in full.
    fn digest_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        // The log is out of `self` while its sends borrow the node.
        let Some(mut log) = self.digest.take() else {
            return;
        };
        let peers = self.view.peers();
        log.flush(&peers, DIGEST_FANOUT, |peer, adds, evicts| {
            let (adds, evicts) = (adds.into(), evicts.into());
            let status = self.send_control(ctx, peer, MsgBody::CacheDigest { adds, evicts });
            let accepted = status == SendStatus::Accepted;
            if accepted {
                self.stats.cache_sync_frames += 1;
                self.stats.digest_flushes += 1;
            } else {
                self.stats.digest_retries += 1;
            }
            accepted
        });
        self.digest = Some(log);
        ctx.schedule_tick(AppEvent::DigestTick, DIGEST_INTERVAL);
    }

    // ------------------------------------------------------------------
    // App events
    // ------------------------------------------------------------------

    /// Handles one of this node's scheduled continuations.
    pub fn on_app_event<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        ev: AppEvent,
    ) {
        match ev {
            AppEvent::HeartbeatTick => self.heartbeat_tick(ctx),
            AppEvent::GossipTick => self.gossip_tick(ctx),
            AppEvent::RejoinTick => self.rejoin_tick(ctx),
            AppEvent::ProbeTick => self.probe_tick(ctx),
            // Flushes ride the non-blocking control path, so the tick
            // runs even while the data path is frozen on a send.
            AppEvent::DigestTick => self.digest_tick(ctx),
            AppEvent::PendingTimeout(req_id) => {
                self.forward_lost(ctx, req_id, AttrEvent::ForwardTimeout { req_id });
            }
            ev if self.is_blocked() => _ = self.defer(Deferred::Event(ev)),
            AppEvent::Parsed(req) => self.route(ctx, req),
            AppEvent::DiskDone(job) => match job {
                DiskJob::Local(req) => {
                    self.cache_insert(ctx, req.file);
                    self.reply(ctx, req.id, CACHE_READ_COST);
                }
                DiskJob::Remote { req_id, file, from } => {
                    self.cache_insert(ctx, file);
                    if !self.is_blocked() {
                        self.send_data(ctx, [from], MsgBody::FileResp { req_id, file });
                    }
                }
            },
        }
    }

    /// Gives up on forwarded request `req_id`, if pending, citing `why`.
    fn forward_lost<S: ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, req_id: u64, why: AttrEvent) {
        if self.pending_remote.remove(&req_id).is_some() {
            self.stats.forward_timeouts += 1;
            self.open_requests = self.open_requests.saturating_sub(1);
            ctx.fx.evidence(why);
        }
    }

    /// Defers `item` behind the freeze; false, counting a drop, if the
    /// deferred queue is full.
    fn defer(&mut self, item: Deferred) -> bool {
        let queued = self.freeze.defer(item);
        if !queued {
            self.stats.dropped_deferred += 1;
        }
        queued
    }

    fn heartbeat_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        let Detector::Ring(ring) = &mut self.view.detector else {
            return;
        };
        let beat = ring.beat(&self.view.members);
        let expired = ring.expired(&self.view.members, ctx.now);
        // Beat to the ring successor (best effort; a full queue delays
        // the beat, which is precisely the HB false-positive risk).
        if let Some((succ, seq)) = beat {
            let args = [("seq", seq), ("succ", succ.0 as u64)];
            self.trace_instant(ctx, "hb.beat", &args);
            self.send_control(ctx, succ, MsgBody::Heartbeat { seq });
        }
        if let Some(pred) = expired {
            self.exclude(ctx, pred, false);
        }
        ctx.schedule_tick(AppEvent::HeartbeatTick, self.config.hb_interval);
    }

    /// One SWIM protocol period: advance suspicions, escalate stale
    /// probes, probe the next cycle peer, and carry out whatever the
    /// state machine asks for. Control-plane like the heartbeats: never
    /// blocks on the data path.
    fn gossip_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        let Detector::Gossip { swim, .. } = &mut self.view.detector else {
            return;
        };
        let mut cmds = Vec::new();
        swim.tick(&mut cmds);
        self.apply_gossip_commands(ctx, cmds);
        ctx.schedule_tick(AppEvent::GossipTick, gossip::PROBE_INTERVAL);
    }

    /// Executes the detector's commands: sends become wire messages,
    /// confirms become exclusions, suspicion transitions become trace
    /// spans.
    fn apply_gossip_commands<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        cmds: Vec<gossip::Command>,
    ) {
        for cmd in cmds {
            match cmd {
                gossip::Command::Send { to, msg } => {
                    // Probes are the front of the detection path:
                    // direct pings and their indirect escalations both
                    // land on the prober's lane.
                    let probe = match &msg {
                        gossip::GossipMsg::Ping { .. } => Some("gossip.probe"),
                        gossip::GossipMsg::PingReq { .. } => Some("gossip.probe_indirect"),
                        gossip::GossipMsg::Ack { .. } => None,
                    };
                    if let Some(name) = probe {
                        self.trace_instant(ctx, name, &[("peer", to.0 as u64)]);
                    }
                    self.send_control(ctx, to, MsgBody::Gossip(msg));
                }
                gossip::Command::Suspect { node } => {
                    self.view.detector.suspect(node, ctx.now);
                    self.trace_instant(ctx, "gossip.suspect", &[("peer", node.0 as u64)]);
                }
                gossip::Command::ClearSuspect { node } => {
                    self.end_suspicion_span(ctx, node, "cleared");
                }
                gossip::Command::Confirm { node } => {
                    self.end_suspicion_span(ctx, node, "confirmed");
                    self.exclude(ctx, node, false);
                }
                gossip::Command::Refute { incarnation } => {
                    self.trace_instant(ctx, "gossip.refute", &[("incarnation", incarnation)]);
                }
            }
        }
    }

    /// Closes an open suspicion as a trace span covering its lifetime.
    fn end_suspicion_span<S: ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        node: NodeId,
        outcome: &'static str,
    ) {
        let Some(start) = self.view.detector.end_suspicion(node) else {
            return;
        };
        let span = ctx.now.saturating_since(start);
        ctx.fx.trace(|| {
            TraceEvent::span("gossip.suspicion", "press", self.id.0 as u32, start, span)
                .arg_u64("peer", node.0 as u64)
                .arg_str("outcome", outcome)
        });
    }

    fn rejoin_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        if !self.view.rejoin_tick() {
            return;
        }
        for peer in self.view.others() {
            self.send_or_open(ctx, peer, MsgBody::RejoinRequest);
        }
        ctx.schedule_tick(AppEvent::RejoinTick, REJOIN_RETRY);
    }

    /// Membership-repair extension: periodically try to reach every
    /// node we currently exclude and, once reachable, merge the
    /// sub-clusters (§6.2: the "rigorous membership algorithm" the
    /// paper says heartbeats need).
    fn probe_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        if self.view.admits() {
            for peer in self.view.others() {
                if !self.view.members.contains(&peer) {
                    self.send_or_open(ctx, peer, MsgBody::MergeRequest);
                }
            }
        }
        ctx.schedule_tick(AppEvent::ProbeTick, REPAIR_PROBE_INTERVAL);
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Removes `peer` from the membership. `abort` says how the failure
    /// was established: `true` for a transport-level connection break
    /// (reset/abort), `false` for a failure-detector verdict — the
    /// distinction feeds root-cause attribution of flushed forwards.
    fn exclude<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        peer: NodeId,
        abort: bool,
    ) {
        if !self.view.exclude(peer, ctx.now) {
            return;
        }
        self.stats.exclusions += 1;
        let left = self.view.members.len() as u64;
        let args = [("peer", peer.0 as u64), ("members_left", left)];
        self.trace_instant(ctx, "membership.exclude", &args);
        self.directory.drop_node(peer);
        ctx.sub.close(peer);
        // Forwarded requests to the departed node will never answer.
        let dead: Vec<u64> = self
            .pending_remote
            .iter()
            .filter(|(_, (_, s))| *s == peer)
            .map(|(id, _)| *id)
            .collect();
        for req_id in dead {
            self.forward_lost(ctx, req_id, AttrEvent::ForwardFlushed { req_id, abort });
        }
        // Unfreeze anything stalled towards the departed node.
        let thawed = self.freeze.forget(peer);
        ctx.fx.evidence(thawed);
        // Propagate the reconfiguration (§3: the ring structure is
        // modified on every fault).
        self.send_data(ctx, self.view.peers(), MsgBody::MemberDown { node: peer });
        if thawed.is_some() {
            self.drain(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Upcalls
    // ------------------------------------------------------------------

    /// Handles a transport upcall.
    pub fn on_upcall<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        upcall: Upcall<PressMsg>,
    ) {
        match upcall {
            Upcall::Deliver { peer, msg, .. } => self.on_deliver(ctx, peer, msg),
            Upcall::Writable { peer } => self.on_writable(ctx, peer),
            Upcall::Connected { peer } => {
                // A restarted process identifies itself on every
                // connection it (re)establishes; peers that still think
                // it never left simply disregard the announcement.
                if self.view.announces() {
                    self.send_control(ctx, peer, MsgBody::RejoinRequest);
                }
            }
            Upcall::ConnBroken { peer, reason } => self.on_conn_broken(ctx, peer, reason),
            Upcall::CompletionError { .. } => {
                // VIA reports bad parameters as fatal descriptor errors;
                // PRESS fail-fasts (§5.5). (TCP never emits these.)
                ctx.app.push(AppEffect::ProcessExit {
                    reason: "fatal communication descriptor error",
                });
            }
        }
    }

    fn on_conn_broken<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        peer: NodeId,
        reason: BreakReason,
    ) {
        if reason == BreakReason::StreamCorrupt {
            // The byte stream lost framing: the process cannot trust any
            // further input on it and terminates (restarted clean).
            ctx.app.push(AppEffect::ProcessExit {
                reason: "intra-cluster byte stream corrupted",
            });
            return;
        }
        if self.view.members.contains(&peer) {
            // The rigorous-membership extension verifies liveness before
            // excluding: if another healthy socket to the peer exists,
            // only a stale connection died, not the node. Anything
            // stalled on the dead socket can go out on the live one.
            if self.config.membership_repair && ctx.sub.is_connected(peer) {
                self.on_writable(ctx, peer);
                return;
            }
            // PRESS's failure detector: a broken connection means the
            // peer died (§3).
            self.exclude(ctx, peer, true);
        }
    }

    /// Retries the stalled message, minus departed members, once its
    /// peer drains; a renewed WouldBlock continues the same window.
    fn on_writable<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        peer: NodeId,
    ) {
        let Some(Stalled { msg, mut remaining }) = self.freeze.take_for(peer) else {
            return;
        };
        remaining.retain(|n| self.view.members.contains(n));
        self.send_blocking(ctx, msg, remaining, true);
        let end = self.freeze.retried();
        ctx.fx.evidence(end);
        self.drain(ctx);
    }

    /// Replays deferred work after an unfreeze, stopping if the node
    /// re-freezes.
    fn drain<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        while let Some(item) = self.freeze.resume() {
            match item {
                Deferred::Client(req) => {
                    // Stale requests have already timed out at the
                    // client; processing them would be wasted work.
                    if ctx.now.saturating_since(req.issued) < REQUEST_TIMEOUT {
                        self.accept(ctx, req);
                    } else {
                        self.stats.dropped_deferred += 1;
                    }
                }
                Deferred::Event(ev) => self.on_app_event(ctx, ev),
                Deferred::Deliver { peer, msg } => self.on_deliver(ctx, peer, msg),
            }
        }
    }

    fn on_deliver<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        peer: NodeId,
        msg: PressMsg,
    ) {
        // Load information piggybacks on every message (§3).
        if peer.0 < self.load_map.len() {
            self.load_map[peer.0] = msg.load;
        }
        // Control-plane traffic is handled even while the data path is
        // frozen; data-plane traffic is deferred. `CacheDigest` counts
        // as control: applying one only mutates the directory (no
        // sends, no CPU charge), and deferring it would let a frozen,
        // overloaded node drop digests its peers believe delivered.
        // The eager per-action broadcasts stay deferrable — that is
        // the paper's §5.4 behaviour.
        let is_data = matches!(
            msg.body,
            MsgBody::Forward { .. }
                | MsgBody::FileResp { .. }
                | MsgBody::CacheAdd { .. }
                | MsgBody::CacheEvict { .. }
        );
        if self.is_blocked() && is_data {
            self.defer(Deferred::Deliver { peer, msg });
            return;
        }
        let member = self.view.members.contains(&peer);
        match msg.body {
            MsgBody::Heartbeat { .. } => {
                if let Detector::Ring(ring) = &mut self.view.detector {
                    ring.heard(peer, ctx.now);
                }
            }
            MsgBody::Gossip(g) => {
                let Detector::Gossip { swim, .. } = &mut self.view.detector else {
                    return;
                };
                if !member {
                    // An excluded (or not-yet-admitted) peer's gossip is
                    // disregarded; re-entry goes through the rejoin
                    // protocol, not the detector.
                    self.stats.ignored_foreign += 1;
                    return;
                }
                let mut cmds = Vec::new();
                swim.on_message(peer, &g, &mut cmds);
                self.apply_gossip_commands(ctx, cmds);
            }
            MsgBody::MemberDown { node } if member => self.exclude(ctx, node, false),
            // A rejoin from a member is a duplicate or stale join (§5.3,
            // the TCP-PRESS rejoin failure); a merge from one is answered.
            MsgBody::RejoinRequest if member => self.stats.rejoins_disregarded += 1,
            body @ (MsgBody::RejoinRequest | MsgBody::MergeRequest) => {
                let merge = body == MsgBody::MergeRequest;
                if !self.view.admits() || merge && !self.config.membership_repair {
                    return;
                }
                if !member {
                    self.view.admit(peer, ctx.now);
                    if merge {
                        self.send_data(ctx, self.view.peers(), MsgBody::MemberUp { node: peer });
                    }
                }
                // Admitted: the view, then this node's caching information.
                let members = self.view.members.iter().copied().collect();
                let view = if merge {
                    MsgBody::MergeAccept { members }
                } else {
                    MsgBody::RejoinInfo { members }
                };
                self.send_control(ctx, peer, view);
                self.send_control(ctx, peer, self.cache_info());
            }
            MsgBody::RejoinInfo { members } => {
                if !self.view.rejoined(&members, ctx.now) {
                    return;
                }
                self.stats.rejoined += 1;
                let n = members.len() as u64;
                let args = [("via_peer", peer.0 as u64), ("members", n)];
                self.trace_instant(ctx, "press.rejoined", &args);
                // With the configuration in hand, reestablish with every
                // member (§3): announce ourselves so each of them admits
                // us and sends its caching information.
                for m in self.view.peers() {
                    if m != peer {
                        self.send_or_open(ctx, m, MsgBody::RejoinRequest);
                    }
                }
            }
            MsgBody::CacheInfo { files } => self.learn(peer, &files, &[]),
            MsgBody::MergeAccept { members } if self.config.membership_repair => {
                let mut grew = false;
                for m in members.iter().copied() {
                    if self.view.admit_new(m, ctx.now) {
                        if !ctx.sub.is_connected(m) {
                            ctx.sub.open(ctx.now, m, ctx.fx);
                        }
                        grew = true;
                    }
                }
                if !grew {
                    return;
                }
                self.stats.merges += 1;
                let n = self.view.members.len() as u64;
                let args = [("via_peer", peer.0 as u64), ("members", n)];
                self.trace_instant(ctx, "press.merge", &args);
                // Share caching information with the whole merged
                // cluster so routing recovers immediately; the Arc'd
                // summary is built once and shared by every copy.
                let info = self.cache_info();
                for m in self.view.peers() {
                    self.send_control(ctx, m, info.clone());
                }
            }
            MsgBody::MemberUp { node }
                if member
                    && self.config.membership_repair
                    && self.view.admit_new(node, ctx.now) =>
            {
                self.send_or_open(ctx, node, self.cache_info());
            }
            MsgBody::Forward { .. } if !member => self.stats.ignored_foreign += 1,
            MsgBody::Forward { req_id, file } => {
                if self.cache.contains(file) {
                    self.cache.touch(file);
                    ctx.cpu.charge(ctx.now, CACHE_READ_COST);
                    self.send_data(ctx, [peer], MsgBody::FileResp { req_id, file });
                } else {
                    // Stale directory at the initial node: fall back to
                    // our disk (every file is replicated on all disks).
                    let done = self.disk_read(ctx.now);
                    let job = DiskJob::Remote {
                        req_id,
                        file,
                        from: peer,
                    };
                    ctx.schedule(done, AppEvent::DiskDone(job), Stream::Disk);
                }
            }
            MsgBody::FileResp { req_id, .. } if self.pending_remote.remove(&req_id).is_some() => {
                self.reply(ctx, req_id, SimDuration::ZERO);
            }
            MsgBody::CacheAdd { file } if member => self.learn(peer, &[file], &[]),
            MsgBody::CacheEvict { file } if member => self.learn(peer, &[], &[file]),
            MsgBody::CacheDigest { adds, evicts } if member => self.learn(peer, &adds, &evicts),
            // Cache and membership notices from non-members, and merge
            // traffic without the repair extension, are disregarded.
            _ => {}
        }
    }

    /// Records `peer`'s caching `adds` and `evicts` in the directory.
    fn learn(&mut self, peer: NodeId, adds: &[FileId], evicts: &[FileId]) {
        for &f in adds {
            self.directory.add(f, peer);
        }
        for &f in evicts {
            self.directory.remove(f, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DEFERRED_CAP, FILE_BYTES, REJOIN_ATTEMPTS};
    use crate::membership;
    use transport::api::CleanInterposer;
    use transport::PinFailed;

    /// A scriptable substrate: records sends, lets tests block peers or
    /// fail pin requests, and never touches a network.
    #[derive(Debug, Default)]
    struct MockSub {
        node: usize,
        connected: std::collections::BTreeSet<usize>,
        sent: Vec<(NodeId, PressMsg)>,
        opened: Vec<NodeId>,
        closed: Vec<NodeId>,
        block_to: std::collections::BTreeSet<usize>,
        pin_ok: bool,
        pinned: u32,
    }

    impl MockSub {
        fn new(node: usize) -> Self {
            MockSub {
                node,
                connected: (0..4).filter(|n| *n != node).collect(),
                pin_ok: true,
                ..MockSub::default()
            }
        }

        fn sent_to(&self, peer: usize) -> Vec<&MsgBody> {
            self.sent
                .iter()
                .filter(|(p, _)| p.0 == peer)
                .map(|(_, m)| &m.body)
                .collect()
        }
    }

    impl Substrate<PressMsg> for MockSub {
        fn node(&self) -> NodeId {
            NodeId(self.node)
        }
        fn open(&mut self, _now: SimTime, peer: NodeId, _out: &mut Effects<PressMsg>) {
            self.opened.push(peer);
        }
        fn close(&mut self, peer: NodeId) {
            self.closed.push(peer);
            self.connected.remove(&peer.0);
        }
        fn is_connected(&self, peer: NodeId) -> bool {
            self.connected.contains(&peer.0)
        }
        fn set_app_receiving(
            &mut self,
            _now: SimTime,
            _receiving: bool,
            _out: &mut Effects<PressMsg>,
        ) {
        }
        fn send(
            &mut self,
            _now: SimTime,
            peer: NodeId,
            _class: transport::MsgClass,
            msg: PressMsg,
            _bytes: u32,
            params: CallParams,
            _out: &mut Effects<PressMsg>,
        ) -> SendStatus {
            if params.ptr == transport::PtrParam::Null {
                return SendStatus::SyncError;
            }
            if self.block_to.contains(&peer.0) {
                return SendStatus::WouldBlock;
            }
            if !self.connected.contains(&peer.0) {
                return SendStatus::NotConnected;
            }
            self.sent.push((peer, msg));
            SendStatus::Accepted
        }
        fn frame_arrived(
            &mut self,
            _now: SimTime,
            _frame: simnet::fabric::Frame<transport::WirePayload<PressMsg>>,
            _out: &mut Effects<PressMsg>,
        ) {
        }
        fn transmit_failed(
            &mut self,
            _now: SimTime,
            _peer: NodeId,
            _reason: simnet::fabric::LossReason,
            _out: &mut Effects<PressMsg>,
        ) {
        }
        fn timer_fired(
            &mut self,
            _now: SimTime,
            _key: transport::TimerKey,
            _out: &mut Effects<PressMsg>,
        ) {
        }
        fn register_pages(
            &mut self,
            _now: SimTime,
            pages: u32,
            _out: &mut Effects<PressMsg>,
        ) -> Result<(), PinFailed> {
            if self.pin_ok {
                self.pinned += pages;
                Ok(())
            } else {
                Err(PinFailed)
            }
        }
        fn deregister_pages(&mut self, _now: SimTime, pages: u32, _out: &mut Effects<PressMsg>) {
            self.pinned = self.pinned.saturating_sub(pages);
        }
        fn set_alloc_fail(&mut self, _failing: bool) {}
        fn set_pin_fail(&mut self, failing: bool) {
            self.pin_ok = !failing;
        }
        fn restart(&mut self, _now: SimTime) {
            self.sent.clear();
        }
    }

    struct Rig {
        node: PressNode,
        sub: MockSub,
        cpu: CpuMeter,
        interposer: CleanInterposer,
        fx: Effects<PressMsg>,
        app: Vec<AppEffect>,
    }

    impl Rig {
        fn new(version: PressVersion) -> Self {
            let mut config = PressConfig::paper_testbed();
            config.files = 100;
            config.cache_bytes = 30 * u64::from(FILE_BYTES);
            Rig {
                node: PressNode::new(NodeId(0), version, config),
                sub: MockSub::new(0),
                cpu: CpuMeter::new(),
                interposer: CleanInterposer,
                fx: Effects::default(),
                app: Vec::new(),
            }
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut PressNode, &mut NodeCtx<'_>) -> R) -> R {
            self.with_at(SimTime::from_secs(1), f)
        }

        fn with_at<R>(
            &mut self,
            now: SimTime,
            f: impl FnOnce(&mut PressNode, &mut NodeCtx<'_>) -> R,
        ) -> R {
            let mut ctx = NodeCtx {
                now,
                cpu: &mut self.cpu,
                // Coerce to the dyn-substrate form of `NodeCtx`: the test
                // rig exercises the trait-object path the generic default
                // exists for.
                sub: &mut self.sub as &mut dyn Substrate<PressMsg>,
                interposer: &mut self.interposer,
                fx: &mut self.fx,
                app: &mut self.app,
            };
            f(&mut self.node, &mut ctx)
        }

        fn start_cold(&mut self) {
            self.with(|n, ctx| n.start(ctx, true));
            self.app.clear();
        }

        fn replies(&self) -> Vec<u64> {
            self.app
                .iter()
                .filter_map(|a| match a {
                    AppEffect::Reply { req_id, .. } => Some(*req_id),
                    _ => None,
                })
                .collect()
        }

        fn scheduled(&self) -> Vec<&AppEvent> {
            self.app
                .iter()
                .filter_map(|a| match a {
                    AppEffect::Schedule { ev, .. } => Some(ev),
                    _ => None,
                })
                .collect()
        }
    }

    fn req(id: u64, file: FileId) -> Request {
        Request {
            id,
            file,
            issued: SimTime::from_secs(1),
        }
    }

    #[test]
    fn cold_start_assumes_full_membership_and_opens_connections() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        assert_eq!(rig.node.members().len(), 4);
        assert_eq!(rig.sub.opened.len(), 3);
    }

    #[test]
    fn local_hit_serves_without_messaging() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        let assignment: Vec<NodeId> = (0..100).map(|f| NodeId((f % 4) as usize)).collect();
        rig.with(|n, ctx| n.prewarm(ctx, &assignment));
        // File 0 is cached locally at node 0.
        rig.with(|n, ctx| {
            assert_eq!(n.client_request(ctx, req(1, 0)), ClientAccept::Accepted);
        });
        let parsed = rig.scheduled().last().map(|e| (*e).clone());
        let Some(AppEvent::Parsed(r)) = parsed else {
            panic!("expected Parsed, got {:?}", rig.app)
        };
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(r)));
        assert_eq!(rig.replies(), vec![1]);
        assert!(rig.sub.sent.is_empty(), "local hits send nothing");
        assert_eq!(rig.node.stats().served_local, 1);
    }

    #[test]
    fn remote_hit_forwards_to_the_holder() {
        let mut rig = Rig::new(PressVersion::Via3);
        rig.start_cold();
        let assignment: Vec<NodeId> = (0..100).map(|f| NodeId((f % 4) as usize)).collect();
        rig.with(|n, ctx| n.prewarm(ctx, &assignment));
        // File 1 lives on node 1.
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(2, 1))));
        let fwds = rig.sub.sent_to(1);
        assert!(
            matches!(fwds.as_slice(), [MsgBody::Forward { req_id: 2, file: 1 }]),
            "{fwds:?}"
        );
        assert_eq!(rig.node.stats().served_remote, 1);
        // The answer completes the request.
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(1),
                    msg: PressMsg {
                        load: 5,
                        body: MsgBody::FileResp { req_id: 2, file: 1 },
                    },
                    class: transport::MsgClass::FileData,
                    bytes: 8192,
                },
            )
        });
        assert_eq!(rig.replies(), vec![2]);
    }

    #[test]
    fn uncached_file_goes_to_disk_then_broadcasts_cache_add() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        // Nothing prewarmed: directory empty.
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(3, 42))));
        let disk = rig
            .scheduled()
            .iter()
            .any(|e| matches!(e, AppEvent::DiskDone(DiskJob::Local(_))));
        assert!(disk, "miss must schedule a disk read: {:?}", rig.app);
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DiskDone(DiskJob::Local(req(3, 42)))));
        assert_eq!(rig.replies(), vec![3]);
        // CacheAdd broadcast to all three peers.
        for peer in 1..4 {
            assert!(
                rig.sub
                    .sent_to(peer)
                    .iter()
                    .any(|b| matches!(b, MsgBody::CacheAdd { file: 42 })),
                "peer {peer} missing CacheAdd"
            );
        }
        assert_eq!(rig.node.stats().served_disk, 1);
    }

    #[test]
    fn blocked_send_freezes_and_writable_drains() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        let assignment: Vec<NodeId> = (0..100).map(|f| NodeId((f % 4) as usize)).collect();
        rig.with(|n, ctx| n.prewarm(ctx, &assignment));
        rig.sub.block_to.insert(1);
        // Forward to node 1 blocks -> node freezes.
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(4, 1))));
        assert!(rig.node.is_blocked());
        // New work is deferred, not processed.
        rig.with(|n, ctx| {
            assert_eq!(n.client_request(ctx, req(5, 0)), ClientAccept::Accepted);
        });
        assert_eq!(rig.node.stats().served_local, 0);
        // The path clears: Writable retries the stalled send and drains.
        rig.sub.block_to.clear();
        rig.with(|n, ctx| n.on_upcall(ctx, Upcall::Writable { peer: NodeId(1) }));
        assert!(!rig.node.is_blocked());
        assert!(rig
            .sub
            .sent_to(1)
            .iter()
            .any(|b| matches!(b, MsgBody::Forward { req_id: 4, .. })));
    }

    /// The stall-window attribution marks emitted so far, in order.
    fn stall_marks(rig: &Rig) -> Vec<telemetry::AttrEvent> {
        use telemetry::AttrEvent::{StallBegin, StallEnd};
        rig.fx
            .iter()
            .filter_map(|e| match e {
                transport::Effect::Attr(a @ (StallBegin | StallEnd)) => Some(*a),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stall_windows_open_once_and_close_once() {
        use telemetry::AttrEvent::{StallBegin, StallEnd};
        let mut rig = Rig::new(PressVersion::TcpHb);
        rig.fx = Effects::new(false, true);
        rig.start_cold();
        let assignment: Vec<NodeId> = (0..100).map(|f| NodeId((f % 4) as usize)).collect();
        rig.with(|n, ctx| n.prewarm(ctx, &assignment));
        let writable = |rig: &mut Rig, peer: usize| {
            rig.with(|n, ctx| n.on_upcall(ctx, Upcall::Writable { peer: NodeId(peer) }));
        };

        // A forward that would block opens one window.
        rig.sub.block_to.insert(1);
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(4, 1))));
        assert!(rig.node.is_blocked());
        assert_eq!(stall_marks(&rig), [StallBegin]);
        // Writable while the path is still full: the same window.
        writable(&mut rig, 1);
        assert!(rig.node.is_blocked());
        assert_eq!(stall_marks(&rig), [StallBegin]);
        // Writable that clears it: exactly one end.
        rig.sub.block_to.clear();
        writable(&mut rig, 1);
        assert!(!rig.node.is_blocked());
        assert_eq!(stall_marks(&rig), [StallBegin, StallEnd]);

        // Excluding the only stalled-on peer ends the window, then the
        // deferred work drains.
        rig.fx.clear();
        rig.app.clear();
        rig.sub.block_to.insert(2);
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(5, 2))));
        rig.with(|n, ctx| assert_eq!(n.client_request(ctx, req(6, 0)), ClientAccept::Accepted));
        assert!(!rig
            .scheduled()
            .iter()
            .any(|e| matches!(e, AppEvent::Parsed(_))));
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(2),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        assert!(!rig.node.is_blocked());
        assert_eq!(stall_marks(&rig), [StallBegin, StallEnd]);
        assert!(rig
            .scheduled()
            .iter()
            .any(|e| matches!(e, AppEvent::Parsed(r) if r.id == 6)));

        // A blocking send issued while frozen (the heartbeat tick's
        // MemberDown for the silent predecessor, node 3) replaces the
        // stalled forward inside the same window.
        rig.fx.clear();
        rig.sub.sent.clear();
        rig.sub.block_to.insert(1);
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(7, 1))));
        rig.with_at(SimTime::from_secs(21), |n, ctx| {
            n.on_app_event(ctx, AppEvent::HeartbeatTick)
        });
        assert!(!rig.node.members().contains(&NodeId(3)));
        assert_eq!(stall_marks(&rig), [StallBegin]);
        rig.sub.block_to.clear();
        writable(&mut rig, 1);
        assert_eq!(stall_marks(&rig), [StallBegin, StallEnd]);
        let to1 = rig.sub.sent_to(1);
        assert!(to1
            .iter()
            .any(|b| matches!(b, MsgBody::MemberDown { node: NodeId(3) })));
        assert!(
            !to1.iter().any(|b| matches!(b, MsgBody::Forward { .. })),
            "the replaced forward is never sent: {to1:?}"
        );
    }

    #[test]
    fn the_deferred_queue_keeps_its_cap_and_drops_what_clients_gave_up() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.fx = Effects::new(false, true);
        rig.start_cold();
        let assignment: Vec<NodeId> = (0..100).map(|f| NodeId((f % 4) as usize)).collect();
        rig.with(|n, ctx| n.prewarm(ctx, &assignment));
        rig.sub.block_to.insert(1);
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(4, 1))));
        assert!(rig.node.is_blocked());
        rig.app.clear();
        // Request 5 and `DEFERRED_CAP - 1` later ones, issued a second
        // after it, fill the queue; the next arrival and a deferred event
        // overflow.
        let late: Vec<u64> = (6..).take(DEFERRED_CAP - 1).collect();
        let over = 6 + late.len() as u64;
        let arrivals = late.iter().map(|&id| Request {
            issued: SimTime::from_secs(2),
            ..req(id, 0)
        });
        let accepted: Vec<ClientAccept> = std::iter::once(req(5, 0))
            .chain(arrivals)
            .chain([req(over, 0)])
            .map(|r| rig.with(|n, ctx| n.client_request(ctx, r)))
            .collect();
        use ClientAccept::{Accepted, Dropped};
        assert_eq!(accepted.len(), DEFERRED_CAP + 1);
        assert!(accepted[..DEFERRED_CAP].iter().all(|a| *a == Accepted));
        assert_eq!(accepted[DEFERRED_CAP], Dropped(DropReason::DeferOverflow));
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(over + 1, 0))));
        assert_eq!(rig.node.stats().dropped_deferred, 2);
        let deferred: Vec<u64> = (rig.fx.iter())
            .filter_map(|e| match e {
                transport::Effect::Attr(AttrEvent::Deferred { req_id }) => Some(*req_id),
                _ => None,
            })
            .collect();
        assert_eq!(deferred[0], 5);
        assert_eq!(deferred[1..], late, "evidence only for what was queued");
        assert!(rig.scheduled().is_empty(), "nothing runs while frozen");
        // At the thaw, 6 s after it was issued, request 5 has timed out at
        // its client and is dropped; the later ones are taken in.
        rig.sub.block_to.clear();
        rig.with_at(SimTime::from_secs(7), |n, ctx| {
            n.on_upcall(ctx, Upcall::Writable { peer: NodeId(1) })
        });
        let parsed: Vec<u64> = (rig.scheduled().iter())
            .filter_map(|e| match e {
                AppEvent::Parsed(r) => Some(r.id),
                _ => None,
            })
            .collect();
        assert_eq!(parsed, late);
        assert_eq!(rig.node.stats().dropped_deferred, 3);
    }

    #[test]
    fn conn_break_excludes_peer_and_propagates() {
        let mut rig = Rig::new(PressVersion::Via0);
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(2),
                    reason: transport::BreakReason::NicError(
                        simnet::fabric::LossReason::DstLinkDown,
                    ),
                },
            )
        });
        assert!(!rig.node.members().contains(&NodeId(2)));
        assert!(rig.sub.closed.contains(&NodeId(2)));
        for peer in [1usize, 3] {
            assert!(
                rig.sub
                    .sent_to(peer)
                    .iter()
                    .any(|b| matches!(b, MsgBody::MemberDown { node: NodeId(2) })),
                "peer {peer} not told about the exclusion"
            );
        }
        assert_eq!(rig.node.stats().exclusions, 1);
    }

    #[test]
    fn stream_corruption_fail_fasts() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(1),
                    reason: transport::BreakReason::StreamCorrupt,
                },
            )
        });
        assert!(rig
            .app
            .iter()
            .any(|a| matches!(a, AppEffect::ProcessExit { .. })));
    }

    #[test]
    fn completion_error_fail_fasts() {
        let mut rig = Rig::new(PressVersion::Via5);
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::CompletionError {
                    peer: NodeId(1),
                    site: transport::ErrorSite::Remote,
                    cause: "descriptor length mismatch",
                },
            )
        });
        assert!(rig
            .app
            .iter()
            .any(|a| matches!(a, AppEffect::ProcessExit { .. })));
    }

    #[test]
    fn heartbeats_go_to_the_successor_and_catch_a_silent_predecessor() {
        let mut rig = Rig::new(PressVersion::TcpHb);
        rig.start_cold();
        let members = rig.node.members();
        assert_eq!(membership::successor(NodeId(0), members), Some(NodeId(1)));
        assert_eq!(membership::predecessor(NodeId(0), members), Some(NodeId(3)));
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::HeartbeatTick));
        assert!(rig
            .sub
            .sent_to(1)
            .iter()
            .any(|b| matches!(b, MsgBody::Heartbeat { .. })));
        // 20 simulated seconds later (> 15 s threshold) with no beat from
        // node 3: excluded.
        rig.with_at(SimTime::from_secs(21), |n, ctx| {
            n.on_app_event(ctx, AppEvent::HeartbeatTick)
        });
        assert!(!rig.node.members().contains(&NodeId(3)));
    }

    #[test]
    fn heartbeat_delivery_resets_the_deadline() {
        let mut rig = Rig::new(PressVersion::TcpHb);
        rig.start_cold();
        rig.with_at(SimTime::from_secs(14), |n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(3),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::Heartbeat { seq: 1 },
                    },
                    class: transport::MsgClass::Heartbeat,
                    bytes: 32,
                },
            )
        });
        rig.with_at(SimTime::from_secs(21), |n, ctx| {
            n.on_app_event(ctx, AppEvent::HeartbeatTick)
        });
        assert!(
            rig.node.members().contains(&NodeId(3)),
            "beat at 14s keeps node 3 in"
        );
    }

    #[test]
    fn rejoin_request_from_a_live_member_is_disregarded() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(3),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::RejoinRequest,
                    },
                    class: transport::MsgClass::Control,
                    bytes: 32,
                },
            )
        });
        assert_eq!(rig.node.stats().rejoins_disregarded, 1);
        assert!(
            rig.sub.sent_to(3).is_empty(),
            "no RejoinInfo for a live member"
        );
    }

    #[test]
    fn rejoin_request_after_exclusion_is_admitted_with_cache_info() {
        let mut rig = Rig::new(PressVersion::Via3);
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(3),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        rig.sub.sent.clear();
        rig.sub.connected.insert(3);
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(3),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::RejoinRequest,
                    },
                    class: transport::MsgClass::Control,
                    bytes: 32,
                },
            )
        });
        assert!(rig.node.members().contains(&NodeId(3)));
        let to3 = rig.sub.sent_to(3);
        assert!(to3.iter().any(|b| matches!(b, MsgBody::RejoinInfo { .. })));
        assert!(to3.iter().any(|b| matches!(b, MsgBody::CacheInfo { .. })));
    }

    #[test]
    fn an_unanswered_restart_gives_up_rejoining_and_then_admits_rejoiners() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.with(|n, ctx| n.start(ctx, false));
        let deliver = |rig: &mut Rig, peer: usize, body: MsgBody| {
            rig.with(|n, ctx| {
                let msg = PressMsg { load: 0, body };
                let (class, bytes) = (transport::MsgClass::Control, 32);
                let peer = NodeId(peer);
                n.on_upcall(
                    ctx,
                    Upcall::Deliver {
                        peer,
                        msg,
                        class,
                        bytes,
                    },
                );
            });
        };
        let tick = |rig: &mut Rig| {
            rig.app.clear();
            rig.sub.sent.clear();
            rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::RejoinTick));
            let rearmed = rig.scheduled().contains(&&AppEvent::RejoinTick);
            let asked = (1..4).filter(|p| {
                let to = rig.sub.sent_to(*p);
                matches!(to.as_slice(), [MsgBody::RejoinRequest])
            });
            (asked.count(), rearmed, rig.sub.sent.len())
        };
        for _ in 0..REJOIN_ATTEMPTS {
            assert_eq!(tick(&mut rig), (3, true, 3), "asks every peer again");
            // Still seeking: in no position to admit anyone.
            deliver(&mut rig, 2, MsgBody::RejoinRequest);
            assert_eq!(rig.node.members().len(), 1);
            assert_eq!(rig.sub.sent.len(), 3, "no reply");
        }
        // One more unanswered tick: the node gives up for good.
        assert_eq!(tick(&mut rig), (0, false, 0));
        assert_eq!(tick(&mut rig), (0, false, 0));
        assert_eq!(rig.node.stats().rejoined, 0);
        // Serving standalone, it admits a later rejoiner.
        deliver(&mut rig, 2, MsgBody::RejoinRequest);
        assert!(rig.node.members().contains(&NodeId(2)));
        let to2 = rig.sub.sent_to(2);
        assert!(
            matches!(
                to2.as_slice(),
                [MsgBody::RejoinInfo { members }, MsgBody::CacheInfo { .. }]
                    if members.as_ref() == [NodeId(0), NodeId(2)]
            ),
            "{to2:?}"
        );
        assert_eq!(rig.node.stats().rejoins_disregarded, 0);
        // A warm boot still announces itself on every new connection.
        rig.with(|n, ctx| n.on_upcall(ctx, Upcall::Connected { peer: NodeId(3) }));
        assert!(matches!(
            rig.sub.sent_to(3).as_slice(),
            [MsgBody::RejoinRequest]
        ));
    }

    #[test]
    fn a_cold_boot_does_not_announce_itself_on_connect() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        rig.with(|n, ctx| n.on_upcall(ctx, Upcall::Connected { peer: NodeId(3) }));
        assert!(rig.sub.sent.is_empty());
    }

    #[test]
    fn zero_copy_cache_insert_pins_and_sheds_on_pin_failure() {
        let mut rig = Rig::new(PressVersion::Via5);
        rig.start_cold();
        // Fill the cache (20 entries), pinning as we go.
        for f in 0..20u32 {
            rig.with(|n, ctx| {
                n.on_app_event(
                    ctx,
                    AppEvent::DiskDone(DiskJob::Local(req(100 + u64::from(f), f))),
                )
            });
        }
        assert_eq!(rig.sub.pinned, 40, "2 pages per 8 KB file");
        // Pinning stops working: the node sheds cache entries to make
        // room, and the insert still eventually succeeds or is skipped.
        rig.sub.pin_ok = false;
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DiskDone(DiskJob::Local(req(200, 99)))));
        assert!(
            rig.node.stats().pin_cache_skips >= 1 || rig.sub.pinned < 40,
            "pin failure must shed or skip"
        );
    }

    #[test]
    fn admission_control_drops_when_cpu_is_saturated() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        // Pile 2 s of backlog onto the CPU.
        rig.cpu
            .charge(SimTime::from_secs(1), simnet::SimDuration::from_secs(2));
        rig.with(|n, ctx| {
            assert_eq!(
                n.client_request(ctx, req(9, 0)),
                ClientAccept::Dropped(DropReason::Admission)
            );
        });
        assert_eq!(rig.node.stats().dropped_admission, 1);
    }

    #[test]
    fn pending_timeout_releases_the_slot() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        let assignment: Vec<NodeId> = (0..100).map(|f| NodeId((f % 4) as usize)).collect();
        rig.with(|n, ctx| n.prewarm(ctx, &assignment));
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(7, 1))));
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::PendingTimeout(7)));
        assert_eq!(rig.node.stats().forward_timeouts, 1);
        // A late response is ignored.
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(1),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::FileResp { req_id: 7, file: 1 },
                    },
                    class: transport::MsgClass::FileData,
                    bytes: 8192,
                },
            )
        });
        assert!(rig.replies().is_empty());
    }

    #[test]
    fn load_piggyback_updates_the_load_map_and_routing() {
        let mut rig = Rig::new(PressVersion::Via0);
        rig.start_cold();
        // Both node 1 and node 2 cache file 5; node 2 is less loaded.
        rig.with(|n, ctx| {
            for (peer, load) in [(1usize, 50u32), (2, 2)] {
                n.on_upcall(
                    ctx,
                    Upcall::Deliver {
                        peer: NodeId(peer),
                        msg: PressMsg {
                            load,
                            body: MsgBody::CacheAdd { file: 5 },
                        },
                        class: transport::MsgClass::CacheUpdate,
                        bytes: 32,
                    },
                );
            }
        });
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::Parsed(req(8, 5))));
        assert!(
            rig.sub
                .sent_to(2)
                .iter()
                .any(|b| matches!(b, MsgBody::Forward { req_id: 8, .. })),
            "must pick the least-loaded holder; sent: {:?}",
            rig.sub.sent
        );
        assert!(rig.sub.sent_to(1).is_empty());
    }

    #[test]
    fn merge_probe_readmits_an_excluded_peer() {
        let mut rig = Rig::new(PressVersion::TcpHb);
        rig.node.config.membership_repair = true;
        rig.start_cold();
        rig.sub.connected.remove(&3); // the node is really gone
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(3),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        assert!(!rig.node.members().contains(&NodeId(3)));
        rig.sub.sent.clear();
        // The probe fires: a MergeRequest goes to the excluded node.
        rig.sub.connected.insert(3);
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::ProbeTick));
        assert!(rig
            .sub
            .sent_to(3)
            .iter()
            .any(|b| matches!(b, MsgBody::MergeRequest)));
        // The peer accepts: full membership restored, caches shared.
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(3),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::MergeAccept {
                            members: vec![NodeId(3)].into(),
                        },
                    },
                    class: transport::MsgClass::Control,
                    bytes: 36,
                },
            )
        });
        assert!(rig.node.members().contains(&NodeId(3)));
        assert_eq!(rig.node.stats().merges, 1);
        assert!(rig
            .sub
            .sent_to(3)
            .iter()
            .any(|b| matches!(b, MsgBody::CacheInfo { .. })));
    }

    #[test]
    fn merge_request_is_ignored_without_the_extension() {
        let mut rig = Rig::new(PressVersion::Via5);
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(3),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        rig.sub.sent.clear();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(3),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::MergeRequest,
                    },
                    class: transport::MsgClass::Control,
                    bytes: 32,
                },
            )
        });
        assert!(
            !rig.node.members().contains(&NodeId(3)),
            "paper PRESS never merges"
        );
        assert!(rig.sub.sent.is_empty());
    }

    #[test]
    fn liveness_check_suppresses_stale_socket_breaks() {
        let mut rig = Rig::new(PressVersion::TcpHb);
        rig.node.config.membership_repair = true;
        rig.start_cold();
        // Peer 1 is still connected (a fresh socket exists); a stale
        // socket's reset must not trigger an exclusion.
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(1),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        assert!(rig.node.members().contains(&NodeId(1)));
        assert_eq!(rig.node.stats().exclusions, 0);
        // Without a live socket the exclusion proceeds as usual.
        rig.sub.connected.remove(&1);
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(1),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        assert!(!rig.node.members().contains(&NodeId(1)));
    }

    #[test]
    fn forwards_from_non_members_are_ignored() {
        let mut rig = Rig::new(PressVersion::Via3);
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(1),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        rig.sub.sent.clear();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(1),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::Forward {
                            req_id: 11,
                            file: 2,
                        },
                    },
                    class: transport::MsgClass::Forward,
                    bytes: 64,
                },
            )
        });
        assert_eq!(rig.node.stats().ignored_foreign, 1);
        assert!(rig.sub.sent.is_empty());
    }

    // ------------------------------------------------------------------
    // Epidemic membership (MembershipImpl::Gossip)
    // ------------------------------------------------------------------

    fn gossip_rig() -> Rig {
        let mut rig = Rig::new(PressVersion::TcpHb);
        let mut config = PressConfig::paper_testbed();
        config.files = 100;
        config.cache_bytes = 30 * u64::from(FILE_BYTES);
        config.membership = MembershipImpl::Gossip;
        config.gossip.seed = 7;
        rig.node = PressNode::new(NodeId(0), PressVersion::TcpHb, config);
        rig
    }

    /// Runs one gossip tick at `t` seconds and returns the sim time used.
    fn gossip_tick_at(rig: &mut Rig, t: u64) -> SimTime {
        let now = SimTime::from_secs(t);
        rig.with_at(now, |n, ctx| n.on_app_event(ctx, AppEvent::GossipTick));
        now
    }

    #[test]
    fn gossip_replaces_the_heartbeat_timer() {
        let mut rig = gossip_rig();
        rig.with(|n, ctx| n.start(ctx, true));
        let evs = rig.scheduled();
        assert!(evs.iter().any(|e| matches!(e, AppEvent::GossipTick)));
        assert!(
            !evs.iter().any(|e| matches!(e, AppEvent::HeartbeatTick)),
            "gossip must supplant the ring timer: {evs:?}"
        );
    }

    #[test]
    fn silent_peers_are_suspected_then_excluded() {
        let mut rig = gossip_rig();
        rig.start_cold();
        // Nobody ever answers a ping: every peer eventually runs through
        // ping → ping-req → suspect → confirm and is excluded.
        for t in 1..40 {
            gossip_tick_at(&mut rig, t);
        }
        assert_eq!(rig.node.members().len(), 1, "all silent peers excluded");
        assert_eq!(rig.node.stats().exclusions, 3);
        // Each exclusion was propagated as a reconfiguration notice.
        let downs = rig
            .sub
            .sent
            .iter()
            .filter(|(_, m)| matches!(m.body, MsgBody::MemberDown { .. }))
            .count();
        assert!(downs >= 3, "MemberDown broadcasts expected, got {downs}");
    }

    #[test]
    fn answering_peers_stay_members() {
        let mut rig = gossip_rig();
        rig.start_cold();
        for t in 1..40 {
            let now = gossip_tick_at(&mut rig, t);
            // Ack every ping the node just sent.
            let pings: Vec<(NodeId, u64)> = rig
                .sub
                .sent
                .iter()
                .filter_map(|(p, m)| match &m.body {
                    MsgBody::Gossip(gossip::GossipMsg::Ping { seq, .. }) => Some((*p, *seq)),
                    _ => None,
                })
                .collect();
            rig.sub.sent.clear();
            for (peer, seq) in pings {
                rig.with_at(now, |n, ctx| {
                    n.on_upcall(
                        ctx,
                        Upcall::Deliver {
                            peer,
                            msg: PressMsg {
                                load: 0,
                                body: MsgBody::Gossip(gossip::GossipMsg::Ack {
                                    seq,
                                    target: peer,
                                    updates: std::sync::Arc::from(&[][..]),
                                }),
                            },
                            class: transport::MsgClass::Heartbeat,
                            bytes: 32,
                        },
                    )
                });
            }
        }
        assert_eq!(rig.node.members().len(), 4, "acked peers must stay");
        assert_eq!(rig.node.stats().exclusions, 0);
        let stats = rig.node.swim_stats().expect("gossip active");
        assert!(stats.pings > 0 && stats.suspects == 0);
    }

    #[test]
    fn gossip_from_excluded_peers_is_disregarded() {
        let mut rig = gossip_rig();
        rig.start_cold();
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::ConnBroken {
                    peer: NodeId(1),
                    reason: transport::BreakReason::PeerReset,
                },
            )
        });
        assert!(!rig.node.members().contains(&NodeId(1)));
        rig.with(|n, ctx| {
            n.on_upcall(
                ctx,
                Upcall::Deliver {
                    peer: NodeId(1),
                    msg: PressMsg {
                        load: 0,
                        body: MsgBody::Gossip(gossip::GossipMsg::Ping {
                            seq: 1,
                            updates: std::sync::Arc::from(&[][..]),
                        }),
                    },
                    class: transport::MsgClass::Heartbeat,
                    bytes: 32,
                },
            )
        });
        assert_eq!(rig.node.stats().ignored_foreign, 1);
        // No ack went back: the detector never saw the message.
        assert!(rig.sub.sent_to(1).is_empty());
    }

    fn digest_rig() -> Rig {
        let mut rig = Rig::new(PressVersion::Tcp);
        let mut config = PressConfig::paper_testbed();
        config.files = 100;
        config.cache_bytes = 30 * u64::from(FILE_BYTES);
        config.cache_sync = CacheSyncImpl::Digest;
        rig.node = PressNode::new(NodeId(0), PressVersion::Tcp, config);
        rig
    }

    /// Disk-serves `file` at node 0 so it enters the cache.
    fn disk_serve(rig: &mut Rig, id: u64, file: FileId) {
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DiskDone(DiskJob::Local(req(id, file)))));
    }

    /// Runs enough digest ticks to bring all three peers up to date:
    /// `ceil(3 / DIGEST_FANOUT)`.
    fn flush_all(rig: &mut Rig) {
        for _ in 0..3usize.div_ceil(DIGEST_FANOUT) {
            rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DigestTick));
        }
    }

    #[test]
    fn digest_mode_defers_caching_broadcasts_to_the_tick() {
        let mut rig = digest_rig();
        rig.start_cold();
        assert!(
            rig.scheduled().is_empty(),
            "start_cold clears the app queue"
        );
        disk_serve(&mut rig, 1, 42);
        assert!(
            rig.sub.sent.is_empty(),
            "digest mode must not broadcast per caching action"
        );
        assert_eq!(rig.node.stats().cache_sync_frames, 0);
        assert_eq!(rig.node.stats().digest_deltas, 1);
        assert_eq!(rig.node.digest_pending(), vec![42]);
    }

    #[test]
    fn digest_tick_flushes_round_robin_until_all_peers_caught_up() {
        let mut rig = digest_rig();
        rig.start_cold();
        disk_serve(&mut rig, 1, 42);
        // First tick: the first two peers (round-robin from n1).
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DigestTick));
        let digest_to = |rig: &Rig, peer: usize| {
            rig.sub
                .sent_to(peer)
                .iter()
                .any(|b| matches!(b, MsgBody::CacheDigest { adds, .. } if adds.as_ref() == [42]))
        };
        assert!(digest_to(&rig, 1) && digest_to(&rig, 2));
        assert!(!digest_to(&rig, 3), "fanout 2 reaches two peers per tick");
        assert_eq!(rig.node.stats().digest_flushes, 2);
        assert_eq!(rig.node.digest_pending(), vec![42], "n3 still behind");
        // Second tick: n3's turn; afterwards the log is drained.
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DigestTick));
        assert!(digest_to(&rig, 3));
        assert!(rig.node.digest_pending().is_empty());
        rig.sub.sent.clear();
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DigestTick));
        assert!(rig.sub.sent.is_empty(), "nothing new to flush");
        assert_eq!(rig.node.stats().digest_flushes, 3);
        assert_eq!(rig.node.stats().cache_sync_frames, 3);
    }

    #[test]
    fn digest_coalesces_add_then_evict_into_one_entry() {
        let mut rig = digest_rig();
        rig.start_cold();
        // Fill the 30-entry cache, then one more: file 0 is evicted.
        for f in 0..31 {
            disk_serve(&mut rig, u64::from(f), f);
        }
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DigestTick));
        let to1 = rig.sub.sent_to(1);
        let Some(MsgBody::CacheDigest { adds, evicts }) = to1.first() else {
            panic!("expected a digest, got {to1:?}");
        };
        // File 0 was added then evicted between flushes: one evict
        // entry, not an add + evict pair.
        assert!(!adds.contains(&0) && evicts.as_ref() == [0]);
        assert_eq!(adds.len(), 30);
        assert_eq!(
            rig.node.stats().digest_deltas,
            32,
            "31 adds + 1 evict recorded"
        );
    }

    /// The known §5.4 incoherence of the paper's eager protocol, pinned
    /// as expected behaviour: a freeze mid-announcement drops the rest
    /// of the insert's announcements for good, while the digest log
    /// still delivers them.
    #[test]
    fn eager_announcements_skipped_by_a_freeze_are_never_resent() {
        for (sync, mut rig) in [
            (CacheSyncImpl::Eager, Rig::new(PressVersion::Tcp)),
            (CacheSyncImpl::Digest, digest_rig()),
        ] {
            rig.start_cold();
            // Fill the 30-entry cache and let every announcement out.
            for f in 0..30 {
                disk_serve(&mut rig, u64::from(f), f);
            }
            flush_all(&mut rig);
            // Caching file 30 evicts file 0 while peer 1 would block:
            // the eager node stalls on the CacheEvict, before the add.
            rig.sub.block_to.insert(1);
            disk_serve(&mut rig, 30, 30);
            assert_eq!(rig.node.is_blocked(), sync == CacheSyncImpl::Eager);
            rig.sub.block_to.clear();
            rig.with(|n, ctx| n.on_upcall(ctx, Upcall::Writable { peer: NodeId(1) }));
            assert!(!rig.node.is_blocked());
            flush_all(&mut rig);
            for peer in 1..4 {
                let sent = rig.sub.sent_to(peer);
                let evicted = sent.iter().any(|b| match b {
                    MsgBody::CacheEvict { file } => *file == 0,
                    MsgBody::CacheDigest { evicts, .. } => evicts.contains(&0),
                    _ => false,
                });
                let added = sent.iter().any(|b| match b {
                    MsgBody::CacheAdd { file } => *file == 30,
                    MsgBody::CacheDigest { adds, .. } => adds.contains(&30),
                    _ => false,
                });
                assert!(evicted, "{sync:?}: peer {peer} never told of the evict");
                assert_eq!(
                    added,
                    sync == CacheSyncImpl::Digest,
                    "{sync:?}: peer {peer} CacheAdd for file 30"
                );
            }
        }
    }

    #[test]
    fn a_cluster_at_the_directory_id_limit_is_accepted() {
        let config = PressConfig {
            nodes: MAX_NODES,
            files: 4,
            ..PressConfig::paper_testbed()
        };
        let mut node = PressNode::new(NodeId(0), PressVersion::Tcp, config);
        node.directory.add(3, NodeId(MAX_NODES - 1));
        assert!(node.directory().holders(3).eq([NodeId(MAX_NODES - 1)]));
    }

    #[test]
    #[should_panic(expected = "at most 65535 nodes")]
    fn a_cluster_beyond_the_directory_id_limit_is_rejected() {
        let config = PressConfig {
            nodes: MAX_NODES + 1,
            ..PressConfig::paper_testbed()
        };
        PressNode::new(NodeId(0), PressVersion::Tcp, config);
    }

    /// Builds a node of `version` from the test-bed config after `edit`.
    fn build(version: PressVersion, edit: impl FnOnce(&mut PressConfig)) -> PressNode {
        let mut config = PressConfig {
            files: 4,
            ..PressConfig::paper_testbed()
        };
        edit(&mut config);
        PressNode::new(NodeId(0), version, config)
    }

    #[test]
    #[should_panic(expected = "hb_interval must be positive")]
    fn a_zero_heartbeat_period_is_rejected() {
        build(PressVersion::TcpHb, |c| c.hb_interval = SimDuration::ZERO);
    }

    #[test]
    fn zero_periods_of_protocols_the_config_does_not_run_are_accepted() {
        let zero = SimDuration::ZERO;
        // No heartbeats in TCP-PRESS; SWIM does not run the ring.
        build(PressVersion::Tcp, |c| c.hb_interval = zero);
        build(PressVersion::TcpHb, |c| {
            c.membership = MembershipImpl::Gossip;
            c.hb_interval = zero;
        });
    }

    #[test]
    fn cache_digest_applies_to_the_directory_members_only() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        let deliver = |rig: &mut Rig, peer: usize| {
            rig.with(|n, ctx| {
                n.on_upcall(
                    ctx,
                    Upcall::Deliver {
                        peer: NodeId(peer),
                        msg: PressMsg {
                            load: 0,
                            body: MsgBody::CacheDigest {
                                adds: std::sync::Arc::from([7, 8].as_slice()),
                                evicts: std::sync::Arc::from([9].as_slice()),
                            },
                        },
                        class: transport::MsgClass::CacheUpdate,
                        bytes: 44,
                    },
                )
            });
        };
        rig.node.directory.add(9, NodeId(1));
        deliver(&mut rig, 1);
        assert!(rig.node.directory().holders(7).eq([NodeId(1)]));
        assert!(rig.node.directory().holders(8).eq([NodeId(1)]));
        assert_eq!(rig.node.directory().holders(9).len(), 0);
        // A digest from a non-member is ignored.
        rig.with(|n, ctx| n.exclude(ctx, NodeId(2), false));
        deliver(&mut rig, 2);
        assert!(rig.node.directory().holders(7).eq([NodeId(1)]));
    }

    #[test]
    fn eager_mode_counts_cache_sync_frames_per_peer() {
        let mut rig = Rig::new(PressVersion::Tcp);
        rig.start_cold();
        disk_serve(&mut rig, 1, 42);
        // One CacheAdd to each of the three peers.
        assert_eq!(rig.node.stats().cache_sync_frames, 3);
        assert_eq!(rig.node.stats().digest_deltas, 0);
        assert!(rig.node.digest_pending().is_empty());
    }
}
