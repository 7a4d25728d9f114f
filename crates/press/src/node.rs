//! The PRESS node: request routing, cooperative caching, reconfiguration
//! and rejoin, over any [`Substrate`].
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
//! # Blocking
//!
//! PRESS serializes intra-cluster sending; when the substrate reports
//! [`SendStatus::WouldBlock`] towards some peer the node *freezes* its
//! data path — the behaviour behind "the stalling of communication to
//! the faulty node freezes the entire cluster" (§5.4). Heartbeats,
//! membership control and rejoin handling keep running (they live on
//! their own timers/threads in real PRESS), which is exactly what lets
//! TCP-PRESS-HB splinter and recover while TCP-PRESS stays frozen.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use simnet::fabric::NodeId;
use simnet::{CpuMeter, SimTime};
use transport::{
    BreakReason, CallParams, Effects, SendInterposer, SendStatus, Substrate, Upcall,
};

use crate::cache::{Directory, LruCache, MAX_NODES};
use crate::config::{CacheSyncImpl, MembershipImpl, PressConfig};
use crate::msg::{FileId, MsgBody, PressMsg, Request};
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
    /// `now + 6 s` like the clients' request deadlines.
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

#[derive(Debug)]
struct Stalled {
    msg: PressMsg,
    remaining: VecDeque<NodeId>,
}

#[derive(Debug)]
enum Deferred {
    Client(Request),
    Event(AppEvent),
    Deliver { peer: NodeId, msg: PressMsg },
}

/// One PRESS server process.
#[derive(Debug)]
pub struct PressNode {
    id: NodeId,
    version: PressVersion,
    config: PressConfig,
    members: BTreeSet<NodeId>,
    joined: bool,
    rejoining: bool,
    announce_on_connect: bool,
    rejoin_tries: u32,
    last_hb: BTreeMap<NodeId, SimTime>,
    hb_seq: u64,
    /// The SWIM detector, present iff this version runs
    /// [`MembershipImpl::Gossip`].
    swim: Option<gossip::Swim>,
    /// When each currently open suspicion started (for trace spans).
    suspect_since: BTreeMap<NodeId, SimTime>,
    cache: LruCache,
    directory: Directory,
    /// Coalesced caching deltas awaiting digest flushes, keyed by file:
    /// whether the file is now cached here, and the generation the
    /// delta was recorded at ([`CacheSyncImpl::Digest`] only).
    digest_log: BTreeMap<FileId, (bool, u64)>,
    /// Monotonic generation stamped on each recorded delta.
    digest_gen: u64,
    /// Round-robin flush position over the sorted peer list.
    digest_cursor: usize,
    /// Highest generation each peer has been sent a digest through.
    peer_digest_gen: BTreeMap<NodeId, u64>,
    load_map: Vec<u32>,
    open_requests: u32,
    pending_remote: BTreeMap<u64, (Request, NodeId)>,
    disks: Vec<SimTime>,
    stalled: Option<Stalled>,
    deferred: VecDeque<Deferred>,
    stats: NodeStats,
    trace: bool,
    attr: bool,
}

impl PressNode {
    /// Creates a stopped node; call [`PressNode::start`] to boot it.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` exceeds [`MAX_NODES`], the most node ids
    /// the cache directory can store.
    pub fn new(id: NodeId, version: PressVersion, config: PressConfig) -> Self {
        assert!(
            config.nodes <= MAX_NODES,
            "PRESS supports at most {MAX_NODES} nodes (the cache directory stores u16 node ids); got {}",
            config.nodes
        );
        let cache = LruCache::new(config.cache_entries());
        let directory = Directory::new(config.files);
        let nodes = config.nodes;
        PressNode {
            id,
            version,
            config,
            members: BTreeSet::new(),
            joined: false,
            rejoining: false,
            announce_on_connect: false,
            rejoin_tries: 0,
            last_hb: BTreeMap::new(),
            hb_seq: 0,
            swim: None,
            suspect_since: BTreeMap::new(),
            cache,
            directory,
            digest_log: BTreeMap::new(),
            digest_gen: 0,
            digest_cursor: 0,
            peer_digest_gen: BTreeMap::new(),
            load_map: vec![0; nodes],
            open_requests: 0,
            pending_remote: BTreeMap::new(),
            disks: Vec::new(),
            stalled: None,
            deferred: VecDeque::new(),
            stats: NodeStats::default(),
            trace: false,
            attr: false,
        }
    }

    /// Enables or disables structured trace emission; traced events are
    /// appended to `ctx.fx` as [`Effect::Trace`] for the harness to
    /// collect.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace = enabled;
    }

    /// Enables or disables causal attribution evidence; evidence is
    /// appended to `ctx.fx` as [`transport::Effect::Attr`] for the
    /// cluster's attribution accumulator.
    pub fn set_attr(&mut self, enabled: bool) {
        self.attr = enabled;
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The version this node runs.
    pub fn version(&self) -> PressVersion {
        self.version
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// SWIM protocol counters, when this node runs
    /// [`MembershipImpl::Gossip`].
    pub fn swim_stats(&self) -> Option<&gossip::SwimStats> {
        self.swim.as_ref().map(|s| s.stats())
    }

    /// Whether this node runs the epidemic detector instead of the ring.
    fn gossip_active(&self) -> bool {
        self.version.heartbeats() && self.config.membership == MembershipImpl::Gossip
    }

    /// Current cooperating membership (includes self).
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// Whether the node currently cooperates with anyone besides itself.
    pub fn is_cooperating(&self) -> bool {
        self.members.len() > 1
    }

    /// Whether the data path is currently frozen on a blocked send.
    pub fn is_blocked(&self) -> bool {
        self.stalled.is_some()
    }

    /// Files currently cached (for rejoin cache-info and tests).
    pub fn cached_files(&self) -> Vec<FileId> {
        self.cache.files().collect()
    }

    /// This node's view of who caches what (for experiments and the
    /// eager-vs-digest equivalence tests).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Files with recorded caching deltas not yet flushed to every
    /// current peer ([`CacheSyncImpl::Digest`]; empty under eager).
    pub fn digest_pending(&self) -> Vec<FileId> {
        let floor = self.peer_digest_floor();
        self.digest_log
            .iter()
            .filter(|(_, (_, gen))| *gen > floor)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Whether this node batches caching actions into digests.
    fn digest_active(&self) -> bool {
        self.config.cache_sync == CacheSyncImpl::Digest
    }

    /// The highest generation every current peer has already received.
    fn peer_digest_floor(&self) -> u64 {
        self.members
            .iter()
            .filter(|p| **p != self.id)
            .map(|p| self.peer_digest_gen.get(p).copied().unwrap_or(0))
            .min()
            .unwrap_or(self.digest_gen)
    }

    /// Boots the process.
    ///
    /// `cold` start: the whole cluster is coming up together, so the
    /// node assumes full membership. Otherwise this is a restart into a
    /// running cluster: the node starts alone and runs the rejoin
    /// protocol (§3 "Reconfiguration").
    pub fn start<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, cold: bool) {
        self.members.clear();
        self.members.insert(self.id);
        self.joined = cold;
        self.rejoining = !cold;
        self.announce_on_connect = !cold;
        self.rejoin_tries = 0;
        self.open_requests = 0;
        self.pending_remote.clear();
        if self.attr && self.stalled.is_some() {
            // A restart clears a frozen data path; close the stall
            // window so attribution does not blame it forever.
            ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::StallEnd));
        }
        self.stalled = None;
        self.deferred.clear();
        self.cache.clear();
        self.directory = Directory::new(self.config.files);
        self.digest_log.clear();
        self.digest_gen = 0;
        self.digest_cursor = 0;
        self.peer_digest_gen.clear();
        self.disks = vec![ctx.now; self.config.disks_per_node];
        self.last_hb.clear();
        if cold {
            for n in 0..self.config.nodes {
                self.members.insert(NodeId(n));
            }
        }
        for n in 0..self.config.nodes {
            let peer = NodeId(n);
            if peer != self.id {
                ctx.sub.open(ctx.now, peer, ctx.fx);
                self.last_hb.insert(peer, ctx.now);
            }
        }
        self.suspect_since.clear();
        if self.gossip_active() {
            // The detector sees the same initial view the node holds: a
            // warm restart starts alone and learns peers through the
            // rejoin protocol (admit_member → readmit).
            self.swim = Some(gossip::Swim::new(
                self.config.gossip.clone(),
                self.id,
                self.members.iter().copied(),
            ));
            ctx.app.push(AppEffect::Schedule {
                at: ctx.now + self.config.gossip.probe_interval,
                ev: AppEvent::GossipTick,
                stream: Stream::Unordered,
            });
        } else if self.version.heartbeats() {
            ctx.app.push(AppEffect::Schedule {
                at: ctx.now + self.config.hb_interval,
                ev: AppEvent::HeartbeatTick,
                stream: Stream::Unordered,
            });
        }
        if !cold {
            ctx.app.push(AppEffect::Schedule {
                at: ctx.now + self.config.rejoin_retry,
                ev: AppEvent::RejoinTick,
                stream: Stream::Unordered,
            });
        }
        if self.config.membership_repair {
            ctx.app.push(AppEffect::Schedule {
                at: ctx.now + self.config.repair_probe_interval,
                ev: AppEvent::ProbeTick,
                stream: Stream::Unordered,
            });
        }
        if self.digest_active() {
            ctx.app.push(AppEffect::Schedule {
                at: ctx.now + self.config.digest_interval,
                ev: AppEvent::DigestTick,
                stream: Stream::Unordered,
            });
        }
    }

    /// Pre-populates this node's cache and cluster directory so
    /// experiments start in the steady state (skipping the multi-minute
    /// cold-cache warm-up). `assignment[f]` is the node caching file `f`.
    pub fn prewarm<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, assignment: &[NodeId]) {
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
                        .register_pages(ctx.now, self.config.pages_per_file(), ctx.fx)
                        .expect("prewarm must fit under the pinning ceiling");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Sending helpers
    // ------------------------------------------------------------------

    fn make_msg(&self, body: MsgBody) -> PressMsg {
        PressMsg {
            load: self.open_requests,
            body,
        }
    }

    /// Sends one message; on WouldBlock the node freezes with the
    /// message stalled. Returns `false` if the message could not be
    /// handed over at all (connection gone / EFAULT).
    fn send_to<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, peer: NodeId, body: MsgBody) -> bool {
        let msg = self.make_msg(body);
        let class = msg.class();
        let bytes = msg.wire_bytes(self.config.file_bytes);
        let params = ctx.interposer.mangle(ctx.now, class, CallParams::default());
        match ctx.sub.send(ctx.now, peer, class, msg.clone(), bytes, params, ctx.fx) {
            SendStatus::Accepted => true,
            SendStatus::WouldBlock => {
                if self.attr && self.stalled.is_none() {
                    ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::StallBegin));
                }
                self.stalled = Some(Stalled {
                    msg,
                    remaining: VecDeque::from([peer]),
                });
                false
            }
            SendStatus::SyncError => {
                self.stats.efault_drops += 1;
                false
            }
            SendStatus::NotConnected => false,
        }
    }

    /// Best-effort control send: never blocks the node (a full queue
    /// just delays/drops the control message — heartbeats may be late).
    fn send_control<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, peer: NodeId, body: MsgBody) -> SendStatus {
        let msg = self.make_msg(body);
        let class = msg.class();
        let bytes = msg.wire_bytes(self.config.file_bytes);
        let params = ctx.interposer.mangle(ctx.now, class, CallParams::default());
        ctx.sub.send(ctx.now, peer, class, msg, bytes, params, ctx.fx)
    }

    /// Broadcasts `body` to all other members, freezing on WouldBlock.
    fn broadcast<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, body: MsgBody) {
        let msg = self.make_msg(body);
        let class = msg.class();
        let bytes = msg.wire_bytes(self.config.file_bytes);
        let targets: VecDeque<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|p| *p != self.id)
            .collect();
        let mut remaining = targets;
        while let Some(&peer) = remaining.front() {
            let params = ctx.interposer.mangle(ctx.now, class, CallParams::default());
            match ctx
                .sub
                .send(ctx.now, peer, class, msg.clone(), bytes, params, ctx.fx)
            {
                SendStatus::WouldBlock => {
                    if self.attr && self.stalled.is_none() {
                        ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::StallBegin));
                    }
                    self.stalled = Some(Stalled { msg, remaining });
                    return;
                }
                SendStatus::SyncError => {
                    self.stats.efault_drops += 1;
                    remaining.pop_front();
                }
                SendStatus::Accepted | SendStatus::NotConnected => {
                    remaining.pop_front();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Client path
    // ------------------------------------------------------------------

    /// A client request arrives (this node is its *initial node*).
    pub fn client_request<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, req: Request) -> ClientAccept {
        if self.is_blocked() {
            if self.deferred.len() < self.config.deferred_cap {
                if self.attr {
                    ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::Deferred {
                        req_id: req.id,
                    }));
                }
                self.deferred.push_back(Deferred::Client(req));
                return ClientAccept::Accepted;
            }
            self.stats.dropped_deferred += 1;
            return ClientAccept::Dropped(DropReason::DeferOverflow);
        }
        if ctx.cpu.backlog(ctx.now) > self.config.admission_backlog {
            self.stats.dropped_admission += 1;
            return ClientAccept::Dropped(DropReason::Admission);
        }
        self.open_requests += 1;
        let done = ctx.cpu.charge(ctx.now, self.config.accept_parse_cost);
        ctx.app.push(AppEffect::Schedule {
            at: done,
            ev: AppEvent::Parsed(req),
            stream: Stream::Cpu,
        });
        ClientAccept::Accepted
    }

    fn route<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, req: Request) {
        ctx.cpu.charge(ctx.now, self.config.route_cost);
        if self.cache.touch(req.file) {
            self.stats.served_local += 1;
            self.finish_serve(ctx, req.id);
            return;
        }
        // Pick the least-loaded live holder.
        let holder = self
            .directory
            .holders(req.file)
            .filter(|n| *n != self.id && self.members.contains(n) && ctx.sub.is_connected(*n))
            .min_by_key(|n| self.load_map[n.0]);
        match holder {
            Some(service) => {
                self.stats.served_remote += 1;
                if self.attr {
                    ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::Forwarded {
                        req_id: req.id,
                        peer: service.0 as u32,
                    }));
                }
                self.pending_remote.insert(req.id, (req, service));
                ctx.app.push(AppEffect::Schedule {
                    at: ctx.now + simnet::SimDuration::from_secs(6),
                    ev: AppEvent::PendingTimeout(req.id),
                    stream: Stream::Timeout,
                });
                self.send_to(
                    ctx,
                    service,
                    MsgBody::Forward {
                        req_id: req.id,
                        file: req.file,
                    },
                );
            }
            None => {
                // Cached nowhere (or its holder left): serve from the
                // local disk and start caching it (§3).
                self.stats.served_disk += 1;
                let done = self.disk_read(ctx.now);
                ctx.app.push(AppEffect::Schedule {
                    at: done,
                    ev: AppEvent::DiskDone(DiskJob::Local(req)),
                    stream: Stream::Disk,
                });
            }
        }
    }

    fn finish_serve<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, req_id: u64) {
        let done = ctx
            .cpu
            .charge(ctx.now, self.config.cache_read_cost + self.config.client_reply_cost);
        self.open_requests = self.open_requests.saturating_sub(1);
        ctx.app.push(AppEffect::Reply { req_id, at: done });
    }

    fn disk_read(&mut self, now: SimTime) -> SimTime {
        let disk = self
            .disks
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("node has at least one disk");
        let start = self.disks[disk].max(now);
        let done = start + self.config.disk_service;
        self.disks[disk] = done;
        done
    }

    /// Announces one caching action to the other members. Eager mode
    /// broadcasts immediately — O(members) frames, freezing the node on
    /// WouldBlock (§5.4). Digest mode records the delta for the next
    /// flush and never blocks; a file cached and evicted between
    /// flushes coalesces to a single (idempotent) evict.
    fn cache_sync_action<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        file: FileId,
        cached: bool,
    ) {
        if self.digest_active() {
            self.digest_gen += 1;
            self.digest_log.insert(file, (cached, self.digest_gen));
            self.stats.digest_deltas += 1;
            return;
        }
        self.stats.cache_sync_frames += self.members.len().saturating_sub(1) as u64;
        let body = if cached {
            MsgBody::CacheAdd { file }
        } else {
            MsgBody::CacheEvict { file }
        };
        self.broadcast(ctx, body);
    }

    /// Inserts `file` into the cache (pinning it for zero-copy versions)
    /// and announces the caching actions. Under pinnable-memory
    /// exhaustion VIA-PRESS-5 sheds cache entries to free pinned pages,
    /// and serves without caching if that is not enough (§5.4).
    fn cache_insert<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, file: FileId) {
        if self.cache.contains(file) {
            return;
        }
        let pages = self.config.pages_per_file();
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
                return;
            }
        }
        self.cache_sync_action(ctx, file, true);
    }

    /// One digest period: flush pending deltas to the next
    /// `digest_fanout` peers round-robin, garbage-collect deltas every
    /// current peer has seen, and re-arm. Digests ride the best-effort
    /// control path, so a flush never freezes the node; a refused send
    /// keeps the peer's watermark in place and retries next turn.
    /// Until a delta lands, the receiver's directory is merely stale —
    /// stale entries only cost disk fallbacks, never correctness, and
    /// the rejoin / merge `CacheInfo` summaries resync in full.
    fn digest_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        if !self.digest_active() {
            return;
        }
        let peers: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|p| *p != self.id)
            .collect();
        if !peers.is_empty() && !self.digest_log.is_empty() {
            let fanout = self.config.digest_fanout.clamp(1, peers.len());
            for _ in 0..fanout {
                self.digest_cursor %= peers.len();
                let peer = peers[self.digest_cursor];
                self.digest_cursor += 1;
                self.flush_digest_to(ctx, peer);
            }
            let floor = self.peer_digest_floor();
            self.digest_log.retain(|_, (_, gen)| *gen > floor);
        }
        ctx.app.push(AppEffect::Schedule {
            at: ctx.now + self.config.digest_interval,
            ev: AppEvent::DigestTick,
            stream: Stream::Unordered,
        });
    }

    /// Sends `peer` every delta it has not seen yet as one
    /// `CacheDigest` frame (nothing if it is already caught up).
    fn flush_digest_to<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, peer: NodeId) {
        let seen = self.peer_digest_gen.get(&peer).copied().unwrap_or(0);
        let mut adds: Vec<FileId> = Vec::new();
        let mut evicts: Vec<FileId> = Vec::new();
        for (&file, &(cached, gen)) in &self.digest_log {
            if gen > seen {
                if cached {
                    adds.push(file);
                } else {
                    evicts.push(file);
                }
            }
        }
        if adds.is_empty() && evicts.is_empty() {
            // Nothing newer than the watermark; advancing it is free.
            self.peer_digest_gen.insert(peer, self.digest_gen);
            return;
        }
        let gen_at_send = self.digest_gen;
        let status = self.send_control(
            ctx,
            peer,
            MsgBody::CacheDigest {
                adds: adds.into(),
                evicts: evicts.into(),
            },
        );
        // The watermark advances only when the transport took the
        // frame: a refused digest retries in full on this peer's next
        // round-robin turn, so transient congestion or an unreachable
        // peer can delay convergence but never silently lose deltas.
        if status == SendStatus::Accepted {
            self.peer_digest_gen.insert(peer, gen_at_send);
            self.stats.cache_sync_frames += 1;
            self.stats.digest_flushes += 1;
        } else {
            self.stats.digest_retries += 1;
        }
    }

    // ------------------------------------------------------------------
    // App events
    // ------------------------------------------------------------------

    /// Handles one of this node's scheduled continuations.
    pub fn on_app_event<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, ev: AppEvent) {
        match ev {
            AppEvent::HeartbeatTick => self.heartbeat_tick(ctx),
            AppEvent::GossipTick => self.gossip_tick(ctx),
            AppEvent::RejoinTick => self.rejoin_tick(ctx),
            AppEvent::ProbeTick => self.probe_tick(ctx),
            // Flushes ride the non-blocking control path, so the tick
            // runs even while the data path is frozen on a send.
            AppEvent::DigestTick => self.digest_tick(ctx),
            AppEvent::PendingTimeout(req_id) => {
                if self.pending_remote.remove(&req_id).is_some() {
                    self.stats.forward_timeouts += 1;
                    self.open_requests = self.open_requests.saturating_sub(1);
                    if self.attr {
                        ctx.fx.push(transport::Effect::Attr(
                            telemetry::AttrEvent::ForwardTimeout { req_id },
                        ));
                    }
                }
            }
            ev if self.is_blocked() => self.defer(Deferred::Event(ev)),
            AppEvent::Parsed(req) => self.route(ctx, req),
            AppEvent::DiskDone(job) => match job {
                DiskJob::Local(req) => {
                    self.cache_insert(ctx, req.file);
                    self.finish_serve(ctx, req.id);
                }
                DiskJob::Remote { req_id, file, from } => {
                    self.cache_insert(ctx, file);
                    if !self.is_blocked() {
                        self.send_to(ctx, from, MsgBody::FileResp { req_id, file });
                    }
                }
            },
        }
    }

    fn defer(&mut self, item: Deferred) {
        if self.deferred.len() < self.config.deferred_cap {
            self.deferred.push_back(item);
        } else {
            self.stats.dropped_deferred += 1;
        }
    }

    fn heartbeat_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        if !self.version.heartbeats() {
            return;
        }
        // Send to the ring successor (best effort; a full queue delays
        // the beat, which is precisely the HB false-positive risk).
        if let Some(succ) = self.ring_successor() {
            self.hb_seq += 1;
            let seq = self.hb_seq;
            if self.trace {
                ctx.fx.push(transport::Effect::Trace(
                    telemetry::TraceEvent::instant("hb.beat", "press", self.id.0 as u32, ctx.now)
                        .arg_u64("seq", seq)
                        .arg_u64("succ", succ.0 as u64),
                ));
            }
            self.send_control(ctx, succ, MsgBody::Heartbeat { seq });
        }
        // Check the predecessor.
        if let Some(pred) = self.ring_predecessor() {
            let last = self.last_hb.get(&pred).copied().unwrap_or(ctx.now);
            if ctx.now.saturating_since(last) >= self.config.hb_detect_threshold() {
                self.exclude(ctx, pred, false);
            }
        }
        ctx.app.push(AppEffect::Schedule {
            at: ctx.now + self.config.hb_interval,
            ev: AppEvent::HeartbeatTick,
            stream: Stream::Unordered,
        });
    }

    /// One SWIM protocol period: advance suspicions, escalate stale
    /// probes, probe the next cycle peer, and carry out whatever the
    /// state machine asks for. Control-plane like the heartbeats: never
    /// blocks on the data path.
    fn gossip_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        if !self.gossip_active() {
            return;
        }
        let mut cmds = Vec::new();
        if let Some(swim) = self.swim.as_mut() {
            swim.tick(&mut cmds);
        }
        self.apply_gossip_commands(ctx, cmds);
        ctx.app.push(AppEffect::Schedule {
            at: ctx.now + self.config.gossip.probe_interval,
            ev: AppEvent::GossipTick,
            stream: Stream::Unordered,
        });
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
                    if self.trace {
                        // Probes are the front of the detection path:
                        // direct pings and their indirect escalations
                        // both land on the prober's lane.
                        let name = match &msg {
                            gossip::GossipMsg::Ping { .. } => Some("gossip.probe"),
                            gossip::GossipMsg::PingReq { .. } => Some("gossip.probe_indirect"),
                            gossip::GossipMsg::Ack { .. } => None,
                        };
                        if let Some(name) = name {
                            ctx.fx.push(transport::Effect::Trace(
                                telemetry::TraceEvent::instant(
                                    name,
                                    "press",
                                    self.id.0 as u32,
                                    ctx.now,
                                )
                                .arg_u64("peer", to.0 as u64),
                            ));
                        }
                    }
                    self.send_control(ctx, to, MsgBody::Gossip(msg));
                }
                gossip::Command::Suspect { node } => {
                    self.suspect_since.entry(node).or_insert(ctx.now);
                    if self.trace {
                        ctx.fx.push(transport::Effect::Trace(
                            telemetry::TraceEvent::instant(
                                "gossip.suspect",
                                "press",
                                self.id.0 as u32,
                                ctx.now,
                            )
                            .arg_u64("peer", node.0 as u64),
                        ));
                    }
                }
                gossip::Command::ClearSuspect { node } => {
                    self.end_suspicion_span(ctx, node, "cleared");
                }
                gossip::Command::Confirm { node } => {
                    self.end_suspicion_span(ctx, node, "confirmed");
                    self.exclude(ctx, node, false);
                }
                gossip::Command::Refute { incarnation } => {
                    if self.trace {
                        ctx.fx.push(transport::Effect::Trace(
                            telemetry::TraceEvent::instant(
                                "gossip.refute",
                                "press",
                                self.id.0 as u32,
                                ctx.now,
                            )
                            .arg_u64("incarnation", incarnation),
                        ));
                    }
                }
            }
        }
    }

    /// Closes an open suspicion as a trace span covering its lifetime.
    fn end_suspicion_span<S: Substrate<PressMsg> + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx<'_, S>,
        node: NodeId,
        outcome: &'static str,
    ) {
        let Some(start) = self.suspect_since.remove(&node) else {
            return;
        };
        if self.trace {
            ctx.fx.push(transport::Effect::Trace(
                telemetry::TraceEvent::span(
                    "gossip.suspicion",
                    "press",
                    self.id.0 as u32,
                    start,
                    ctx.now.saturating_since(start),
                )
                .arg_u64("peer", node.0 as u64)
                .arg_str("outcome", outcome),
            ));
        }
    }

    fn rejoin_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        if !self.rejoining {
            return;
        }
        self.rejoin_tries += 1;
        if self.rejoin_tries > self.config.rejoin_attempts {
            // Give up: serve standalone (§5.3).
            self.rejoining = false;
            self.joined = true;
            return;
        }
        for n in 0..self.config.nodes {
            let peer = NodeId(n);
            if peer == self.id {
                continue;
            }
            if ctx.sub.is_connected(peer) {
                self.send_control(ctx, peer, MsgBody::RejoinRequest);
            } else {
                ctx.sub.open(ctx.now, peer, ctx.fx);
            }
        }
        ctx.app.push(AppEffect::Schedule {
            at: ctx.now + self.config.rejoin_retry,
            ev: AppEvent::RejoinTick,
            stream: Stream::Unordered,
        });
    }

    /// Membership-repair extension: periodically try to reach every
    /// node we currently exclude and, once reachable, merge the
    /// sub-clusters (§6.2: the "rigorous membership algorithm" the
    /// paper says heartbeats need).
    fn probe_tick<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        if !self.config.membership_repair {
            return;
        }
        if self.joined && !self.rejoining {
            for n in 0..self.config.nodes {
                let peer = NodeId(n);
                if peer == self.id || self.members.contains(&peer) {
                    continue;
                }
                if ctx.sub.is_connected(peer) {
                    self.send_control(ctx, peer, MsgBody::MergeRequest);
                } else {
                    ctx.sub.open(ctx.now, peer, ctx.fx);
                }
            }
        }
        ctx.app.push(AppEffect::Schedule {
            at: ctx.now + self.config.repair_probe_interval,
            ev: AppEvent::ProbeTick,
            stream: Stream::Unordered,
        });
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    fn sorted_members(&self) -> Vec<NodeId> {
        self.members.iter().copied().collect()
    }

    /// The node this node sends heartbeats to.
    pub fn ring_successor(&self) -> Option<NodeId> {
        let m = self.sorted_members();
        if m.len() < 2 {
            return None;
        }
        let i = m.iter().position(|n| *n == self.id)?;
        Some(m[(i + 1) % m.len()])
    }

    /// The node this node expects heartbeats from.
    pub fn ring_predecessor(&self) -> Option<NodeId> {
        let m = self.sorted_members();
        if m.len() < 2 {
            return None;
        }
        let i = m.iter().position(|n| *n == self.id)?;
        Some(m[(i + m.len() - 1) % m.len()])
    }

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
        if peer == self.id || !self.members.remove(&peer) {
            return;
        }
        self.stats.exclusions += 1;
        // Tombstone the peer in the detector so stale gossip cannot
        // resurrect it; the suspicion span (if any) is over.
        if let Some(swim) = self.swim.as_mut() {
            swim.remove(peer);
        }
        self.suspect_since.remove(&peer);
        if self.trace {
            ctx.fx.push(transport::Effect::Trace(
                telemetry::TraceEvent::instant(
                    "membership.exclude",
                    "press",
                    self.id.0 as u32,
                    ctx.now,
                )
                .arg_u64("peer", peer.0 as u64)
                .arg_u64("members_left", self.members.len() as u64),
            ));
        }
        self.directory.drop_node(peer);
        ctx.sub.close(peer);
        // Forwarded requests to the departed node will never answer.
        let dead: Vec<u64> = self
            .pending_remote
            .iter()
            .filter(|(_, (_, s))| *s == peer)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.pending_remote.remove(&id);
            self.stats.forward_timeouts += 1;
            self.open_requests = self.open_requests.saturating_sub(1);
            if self.attr {
                ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::ForwardFlushed {
                    req_id: id,
                    abort,
                }));
            }
        }
        // Reset the heartbeat view of the (possibly new) predecessor so
        // a ring change does not trigger an instant cascade.
        if let Some(pred) = self.ring_predecessor() {
            self.last_hb.insert(pred, ctx.now);
        }
        // Unfreeze anything stalled towards the departed node.
        let mut unblocked = false;
        if let Some(stalled) = &mut self.stalled {
            stalled.remaining.retain(|n| *n != peer);
            if stalled.remaining.is_empty() {
                self.stalled = None;
                unblocked = true;
                if self.attr {
                    ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::StallEnd));
                }
            }
        }
        // Propagate the reconfiguration (§3: the ring structure is
        // modified on every fault).
        self.broadcast(ctx, MsgBody::MemberDown { node: peer });
        if unblocked && !self.is_blocked() {
            self.drain(ctx);
        }
    }

    fn admit_member<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, peer: NodeId) {
        self.members.insert(peer);
        self.last_hb.insert(peer, ctx.now);
        // Re-arm the detector at a fresh incarnation so assertions from
        // the peer's previous life cannot immediately re-kill it.
        if let Some(swim) = self.swim.as_mut() {
            swim.readmit(peer);
        }
        if let Some(pred) = self.ring_predecessor() {
            self.last_hb.entry(pred).or_insert(ctx.now);
            let e = self.last_hb.get_mut(&pred).expect("just inserted");
            *e = (*e).max(ctx.now);
        }
    }

    // ------------------------------------------------------------------
    // Upcalls
    // ------------------------------------------------------------------

    /// Handles a transport upcall.
    pub fn on_upcall<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, upcall: Upcall<PressMsg>) {
        match upcall {
            Upcall::Deliver { peer, msg, .. } => self.on_deliver(ctx, peer, msg),
            Upcall::Writable { peer } => self.on_writable(ctx, peer),
            Upcall::Connected { peer } => {
                // A restarted process identifies itself on every
                // connection it (re)establishes; peers that still think
                // it never left simply disregard the announcement.
                if self.rejoining || self.announce_on_connect {
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

    fn on_conn_broken<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, peer: NodeId, reason: BreakReason) {
        if reason == BreakReason::StreamCorrupt {
            // The byte stream lost framing: the process cannot trust any
            // further input on it and terminates (restarted clean).
            ctx.app.push(AppEffect::ProcessExit {
                reason: "intra-cluster byte stream corrupted",
            });
            return;
        }
        if self.members.contains(&peer) {
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

    fn on_writable<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, peer: NodeId) {
        let Some(stalled) = &self.stalled else {
            return;
        };
        if stalled.remaining.front() != Some(&peer) {
            return;
        }
        // Retry the stalled transmission(s).
        let Stalled { msg, mut remaining } = self.stalled.take().expect("checked");
        let class = msg.class();
        let bytes = msg.wire_bytes(self.config.file_bytes);
        while let Some(&target) = remaining.front() {
            if !self.members.contains(&target) {
                remaining.pop_front();
                continue;
            }
            let params = ctx.interposer.mangle(ctx.now, class, CallParams::default());
            match ctx
                .sub
                .send(ctx.now, target, class, msg.clone(), bytes, params, ctx.fx)
            {
                SendStatus::WouldBlock => {
                    // The same logical stall continues; no new window.
                    self.stalled = Some(Stalled { msg, remaining });
                    return;
                }
                SendStatus::SyncError => {
                    self.stats.efault_drops += 1;
                    remaining.pop_front();
                }
                SendStatus::Accepted | SendStatus::NotConnected => {
                    remaining.pop_front();
                }
            }
        }
        if self.attr {
            ctx.fx.push(transport::Effect::Attr(telemetry::AttrEvent::StallEnd));
        }
        self.drain(ctx);
    }

    /// Replays deferred work after an unfreeze, stopping if the node
    /// re-freezes.
    fn drain<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>) {
        while !self.is_blocked() {
            let Some(item) = self.deferred.pop_front() else {
                return;
            };
            match item {
                Deferred::Client(req) => {
                    // Stale requests have already timed out at the
                    // client; processing them would be wasted work.
                    if ctx.now.saturating_since(req.issued)
                        < simnet::SimDuration::from_secs(6)
                    {
                        self.open_requests += 1;
                        let done = ctx.cpu.charge(ctx.now, self.config.accept_parse_cost);
                        ctx.app.push(AppEffect::Schedule {
                            at: done,
                            ev: AppEvent::Parsed(req),
                            stream: Stream::Cpu,
                        });
                    } else {
                        self.stats.dropped_deferred += 1;
                    }
                }
                Deferred::Event(ev) => self.on_app_event(ctx, ev),
                Deferred::Deliver { peer, msg } => self.on_deliver(ctx, peer, msg),
            }
        }
    }

    fn on_deliver<S: Substrate<PressMsg> + ?Sized>(&mut self, ctx: &mut NodeCtx<'_, S>, peer: NodeId, msg: PressMsg) {
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
        let is_control = matches!(
            msg.body,
            MsgBody::Heartbeat { .. }
                | MsgBody::Gossip(_)
                | MsgBody::RejoinRequest
                | MsgBody::RejoinInfo { .. }
                | MsgBody::CacheInfo { .. }
                | MsgBody::CacheDigest { .. }
                | MsgBody::MemberDown { .. }
                | MsgBody::MergeRequest
                | MsgBody::MergeAccept { .. }
                | MsgBody::MemberUp { .. }
        );
        if self.is_blocked() && !is_control {
            self.defer(Deferred::Deliver { peer, msg });
            return;
        }
        match msg.body {
            MsgBody::Heartbeat { .. } => {
                self.last_hb.insert(peer, ctx.now);
            }
            MsgBody::Gossip(g) => {
                if !self.gossip_active() {
                    return;
                }
                if !self.members.contains(&peer) {
                    // An excluded (or not-yet-admitted) peer's gossip is
                    // disregarded; re-entry goes through the rejoin
                    // protocol, not the detector.
                    self.stats.ignored_foreign += 1;
                    return;
                }
                let mut cmds = Vec::new();
                if let Some(swim) = self.swim.as_mut() {
                    swim.on_message(peer, &g, &mut cmds);
                }
                self.apply_gossip_commands(ctx, cmds);
            }
            MsgBody::MemberDown { node } => {
                if self.members.contains(&peer) && node != self.id {
                    self.exclude(ctx, node, false);
                }
            }
            MsgBody::RejoinRequest => {
                if self.members.contains(&peer) {
                    // We still believe the peer is alive: a duplicate or
                    // stale join — disregard (§5.3, the TCP-PRESS rejoin
                    // failure).
                    self.stats.rejoins_disregarded += 1;
                    return;
                }
                if !self.joined {
                    return; // we are not in a position to admit anyone
                }
                self.admit_member(ctx, peer);
                let members = self.sorted_members().into();
                self.send_control(ctx, peer, MsgBody::RejoinInfo { members });
                let files = self.cached_files().into();
                self.send_control(ctx, peer, MsgBody::CacheInfo { files });
            }
            MsgBody::RejoinInfo { members } => {
                if !self.rejoining {
                    return;
                }
                for m in members.iter().copied() {
                    if m != self.id {
                        self.admit_member(ctx, m);
                    }
                }
                self.rejoining = false;
                self.joined = true;
                self.stats.rejoined += 1;
                if self.trace {
                    ctx.fx.push(transport::Effect::Trace(
                        telemetry::TraceEvent::instant(
                            "press.rejoined",
                            "press",
                            self.id.0 as u32,
                            ctx.now,
                        )
                        .arg_u64("via_peer", peer.0 as u64)
                        .arg_u64("members", members.len() as u64),
                    ));
                }
                // With the configuration in hand, reestablish with every
                // member (§3): announce ourselves so each of them admits
                // us and sends its caching information.
                let others: Vec<NodeId> = self
                    .members
                    .iter()
                    .copied()
                    .filter(|m| *m != self.id && *m != peer)
                    .collect();
                for m in others {
                    if ctx.sub.is_connected(m) {
                        self.send_control(ctx, m, MsgBody::RejoinRequest);
                    } else {
                        ctx.sub.open(ctx.now, m, ctx.fx);
                    }
                }
            }
            MsgBody::CacheInfo { files } => {
                for f in files.iter().copied() {
                    self.directory.add(f, peer);
                }
            }
            MsgBody::MergeRequest => {
                if !self.config.membership_repair || !self.joined {
                    return;
                }
                if !self.members.contains(&peer) {
                    self.admit_member(ctx, peer);
                    self.broadcast(ctx, MsgBody::MemberUp { node: peer });
                }
                let members = self.sorted_members().into();
                self.send_control(ctx, peer, MsgBody::MergeAccept { members });
                let files = self.cached_files().into();
                self.send_control(ctx, peer, MsgBody::CacheInfo { files });
            }
            MsgBody::MergeAccept { members } => {
                if !self.config.membership_repair {
                    return;
                }
                let mut grew = false;
                for m in members.iter().copied() {
                    if m != self.id && !self.members.contains(&m) {
                        self.admit_member(ctx, m);
                        if !ctx.sub.is_connected(m) {
                            ctx.sub.open(ctx.now, m, ctx.fx);
                        }
                        grew = true;
                    }
                }
                if grew {
                    self.stats.merges += 1;
                    if self.trace {
                        ctx.fx.push(transport::Effect::Trace(
                            telemetry::TraceEvent::instant(
                                "press.merge",
                                "press",
                                self.id.0 as u32,
                                ctx.now,
                            )
                            .arg_u64("via_peer", peer.0 as u64)
                            .arg_u64("members", self.members.len() as u64),
                        ));
                    }
                    // Share caching information with the whole merged
                    // cluster so routing recovers immediately; the Arc'd
                    // summary is built once and shared by every copy.
                    let files: std::sync::Arc<[FileId]> = self.cached_files().into();
                    let members = self.sorted_members();
                    for m in members {
                        if m != self.id {
                            self.send_control(ctx, m, MsgBody::CacheInfo { files: files.clone() });
                        }
                    }
                }
            }
            MsgBody::MemberUp { node } => {
                if self.config.membership_repair
                    && self.members.contains(&peer)
                    && node != self.id
                    && !self.members.contains(&node)
                {
                    self.admit_member(ctx, node);
                    if ctx.sub.is_connected(node) {
                        let files = self.cached_files().into();
                        self.send_control(ctx, node, MsgBody::CacheInfo { files });
                    } else {
                        ctx.sub.open(ctx.now, node, ctx.fx);
                    }
                }
            }
            MsgBody::Forward { req_id, file } => {
                if !self.members.contains(&peer) {
                    self.stats.ignored_foreign += 1;
                    return;
                }
                if self.cache.contains(file) {
                    self.cache.touch(file);
                    ctx.cpu.charge(ctx.now, self.config.cache_read_cost);
                    self.send_to(ctx, peer, MsgBody::FileResp { req_id, file });
                } else {
                    // Stale directory at the initial node: fall back to
                    // our disk (every file is replicated on all disks).
                    let done = self.disk_read(ctx.now);
                    ctx.app.push(AppEffect::Schedule {
                        at: done,
                        ev: AppEvent::DiskDone(DiskJob::Remote {
                            req_id,
                            file,
                            from: peer,
                        }),
                        stream: Stream::Disk,
                    });
                }
            }
            MsgBody::FileResp { req_id, .. } => {
                if self.pending_remote.remove(&req_id).is_some() {
                    let done = ctx.cpu.charge(ctx.now, self.config.client_reply_cost);
                    self.open_requests = self.open_requests.saturating_sub(1);
                    ctx.app.push(AppEffect::Reply { req_id, at: done });
                }
            }
            MsgBody::CacheAdd { file } => {
                if self.members.contains(&peer) {
                    self.directory.add(file, peer);
                }
            }
            MsgBody::CacheEvict { file } => {
                if self.members.contains(&peer) {
                    self.directory.remove(file, peer);
                }
            }
            MsgBody::CacheDigest { adds, evicts } => {
                if self.members.contains(&peer) {
                    for f in adds.iter().copied() {
                        self.directory.add(f, peer);
                    }
                    for f in evicts.iter().copied() {
                        self.directory.remove(f, peer);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        fn timer_fired(&mut self, _now: SimTime, _key: transport::TimerKey, _out: &mut Effects<PressMsg>) {}
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
            config.cache_bytes = 30 * u64::from(config.file_bytes);
            Rig {
                node: PressNode::new(NodeId(0), version, config),
                sub: MockSub::new(0),
                cpu: CpuMeter::new(),
                interposer: CleanInterposer,
                fx: Vec::new(),
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
        assert!(rig.node.is_cooperating());
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
        rig.with(|n, ctx| {
            n.on_app_event(ctx, AppEvent::DiskDone(DiskJob::Local(req(3, 42))))
        });
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
        assert_eq!(rig.node.ring_successor(), Some(NodeId(1)));
        assert_eq!(rig.node.ring_predecessor(), Some(NodeId(3)));
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
        assert!(rig.node.members().contains(&NodeId(3)), "beat at 14s keeps node 3 in");
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
        assert!(rig.sub.sent_to(3).is_empty(), "no RejoinInfo for a live member");
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
    fn zero_copy_cache_insert_pins_and_sheds_on_pin_failure() {
        let mut rig = Rig::new(PressVersion::Via5);
        rig.start_cold();
        // Fill the cache (20 entries), pinning as we go.
        for f in 0..20u32 {
            rig.with(|n, ctx| {
                n.on_app_event(ctx, AppEvent::DiskDone(DiskJob::Local(req(100 + u64::from(f), f))))
            });
        }
        assert_eq!(rig.sub.pinned, 40, "2 pages per 8 KB file");
        // Pinning stops working: the node sheds cache entries to make
        // room, and the insert still eventually succeeds or is skipped.
        rig.sub.pin_ok = false;
        rig.with(|n, ctx| {
            n.on_app_event(ctx, AppEvent::DiskDone(DiskJob::Local(req(200, 99))))
        });
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
        rig.cpu.charge(SimTime::from_secs(1), simnet::SimDuration::from_secs(2));
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
        assert!(!rig.node.members().contains(&NodeId(3)), "paper PRESS never merges");
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
                        body: MsgBody::Forward { req_id: 11, file: 2 },
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
        config.cache_bytes = 30 * u64::from(config.file_bytes);
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
        rig.with(|n, ctx| n.on_upcall(ctx, Upcall::ConnBroken {
            peer: NodeId(1),
            reason: transport::BreakReason::PeerReset,
        }));
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

    fn digest_rig(fanout: usize) -> Rig {
        let mut rig = Rig::new(PressVersion::Tcp);
        let mut config = PressConfig::paper_testbed();
        config.files = 100;
        config.cache_bytes = 30 * u64::from(config.file_bytes);
        config.cache_sync = CacheSyncImpl::Digest;
        config.digest_fanout = fanout;
        rig.node = PressNode::new(NodeId(0), PressVersion::Tcp, config);
        rig
    }

    /// Disk-serves `file` at node 0 so it enters the cache.
    fn disk_serve(rig: &mut Rig, id: u64, file: FileId) {
        rig.with(|n, ctx| n.on_app_event(ctx, AppEvent::DiskDone(DiskJob::Local(req(id, file)))));
    }

    #[test]
    fn digest_mode_defers_caching_broadcasts_to_the_tick() {
        let mut rig = digest_rig(2);
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
        let mut rig = digest_rig(2);
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
        let mut rig = digest_rig(4);
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
