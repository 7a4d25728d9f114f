//! Intra-cluster message types and the client request record.
//!
//! Variable-length payloads (membership views, cache summaries) are
//! `Arc`-shared slices: fanning one logical message out to N peers
//! clones the `PressMsg` N times, and with `Arc` payloads each clone is
//! a reference-count bump instead of a fresh heap allocation.

use std::sync::Arc;

use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime};

/// Identifies a file in the (static) document set.
pub type FileId = u32;

/// One client HTTP request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Globally unique request id (assigned by the client pool).
    pub id: u64,
    /// The file requested.
    pub file: FileId,
    /// When the client issued it.
    pub issued: SimTime,
}

/// How long a client waits for its response (§5.1). PRESS gives up on a
/// request at the same horizon: a forward's watchdog fires then, and a
/// deferred request that old is dropped unserved.
pub const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(6);

/// An intra-cluster message. Every message piggybacks the sender's
/// current load ("each node piggy-backs its current load onto any
/// intra-cluster message", §3).
#[derive(Debug, Clone, PartialEq)]
pub struct PressMsg {
    /// Sender's open-connection count at send time.
    pub load: u32,
    /// The payload.
    pub body: MsgBody,
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgBody {
    /// Initial node asks the service node for a file.
    Forward {
        /// The request being served.
        req_id: u64,
        /// The file wanted.
        file: FileId,
    },
    /// Service node returns the file contents to the initial node.
    FileResp {
        /// The request being served.
        req_id: u64,
        /// The file (its bytes ride in the frame's size accounting).
        file: FileId,
    },
    /// The sender started caching `file` (§3: broadcast on caching).
    CacheAdd {
        /// The file now cached at the sender.
        file: FileId,
    },
    /// The sender evicted `file` from its cache.
    CacheEvict {
        /// The file no longer cached at the sender.
        file: FileId,
    },
    /// Batched cache deltas (`CacheSyncImpl::Digest`): everything the
    /// sender's cache gained and lost since the receiver's last digest,
    /// coalesced to at most one entry per file — a file cached and
    /// evicted between digests collapses to a single (idempotent)
    /// evict.
    CacheDigest {
        /// Files now cached at the sender that the receiver hasn't
        /// been told about.
        adds: Arc<[FileId]>,
        /// Files evicted at the sender since the receiver's last
        /// digest.
        evicts: Arc<[FileId]>,
    },
    /// Heartbeat to the ring successor (TCP-PRESS-HB).
    Heartbeat {
        /// Monotonic per-sender sequence number.
        seq: u64,
    },
    /// SWIM epidemic-membership traffic (ping/ping-req/ack with
    /// piggybacked updates), when `MembershipImpl::Gossip` replaces the
    /// heartbeat ring.
    Gossip(gossip::GossipMsg),
    /// Reconfiguration notice: the sender excluded `node` from the
    /// cooperating cluster (the ring is modified on every fault, §3).
    MemberDown {
        /// The excluded node.
        node: NodeId,
    },
    /// A restarted node asks to re-enter the cluster.
    RejoinRequest,
    /// Reply to a rejoin: the current membership view.
    RejoinInfo {
        /// Nodes the responder currently cooperates with.
        members: Arc<[NodeId]>,
    },
    /// Cache contents summary sent to a rejoining node so it can route.
    CacheInfo {
        /// Files cached at the sender.
        files: Arc<[FileId]>,
    },
    /// Membership-repair extension (§6.2 future work): probe asking a
    /// non-member to merge back.
    MergeRequest,
    /// Membership-repair extension: accept a merge, sharing the view.
    MergeAccept {
        /// Nodes the responder currently cooperates with.
        members: Arc<[NodeId]>,
    },
    /// Membership-repair extension: a previously excluded node is back.
    MemberUp {
        /// The re-admitted node.
        node: NodeId,
    },
}

impl PressMsg {
    /// Wire size of the message payload in bytes, using era-appropriate
    /// encodings (fixed small control records, 4-byte file ids, and the
    /// configured file size for file data).
    pub fn wire_bytes(&self, file_bytes: u32) -> u32 {
        match &self.body {
            MsgBody::Forward { .. } => 64,
            MsgBody::FileResp { .. } => file_bytes,
            MsgBody::CacheAdd { .. } | MsgBody::CacheEvict { .. } => 32,
            MsgBody::CacheDigest { adds, evicts } => 32 + 4 * (adds.len() + evicts.len()) as u32,
            MsgBody::Heartbeat { .. } => 32,
            // Fixed header plus (node, incarnation, state) triples.
            MsgBody::Gossip(g) => 32 + 16 * g.updates().len() as u32,
            MsgBody::MemberDown { .. } => 32,
            MsgBody::MergeRequest | MsgBody::MemberUp { .. } => 32,
            MsgBody::MergeAccept { members } => 32 + 4 * members.len() as u32,
            MsgBody::RejoinRequest => 32,
            MsgBody::RejoinInfo { members } => 32 + 4 * members.len() as u32,
            MsgBody::CacheInfo { files } => 32 + 4 * files.len() as u32,
        }
    }

    /// The transport-level class of this message, used for cost
    /// accounting and fault interposition targeting.
    pub fn class(&self) -> transport::MsgClass {
        use transport::MsgClass;
        match &self.body {
            MsgBody::Forward { .. } => MsgClass::Forward,
            MsgBody::FileResp { .. } => MsgClass::FileData,
            MsgBody::CacheAdd { .. } | MsgBody::CacheEvict { .. } | MsgBody::CacheDigest { .. } => {
                MsgClass::CacheUpdate
            }
            MsgBody::Heartbeat { .. } | MsgBody::Gossip(_) => MsgClass::Heartbeat,
            MsgBody::MemberDown { .. }
            | MsgBody::RejoinRequest
            | MsgBody::RejoinInfo { .. }
            | MsgBody::CacheInfo { .. }
            | MsgBody::MergeRequest
            | MsgBody::MergeAccept { .. }
            | MsgBody::MemberUp { .. } => MsgClass::Control,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_data_uses_the_configured_file_size() {
        let m = PressMsg {
            load: 0,
            body: MsgBody::FileResp { req_id: 1, file: 2 },
        };
        assert_eq!(m.wire_bytes(8192), 8192);
        assert_eq!(m.class(), transport::MsgClass::FileData);
    }

    #[test]
    fn control_messages_are_small() {
        for body in [
            MsgBody::Forward { req_id: 1, file: 2 },
            MsgBody::CacheAdd { file: 3 },
            MsgBody::CacheEvict { file: 3 },
            MsgBody::Heartbeat { seq: 9 },
            MsgBody::RejoinRequest,
        ] {
            let m = PressMsg { load: 0, body };
            assert!(m.wire_bytes(8192) <= 64);
        }
    }

    #[test]
    fn cache_info_scales_with_entries() {
        let m = PressMsg {
            load: 0,
            body: MsgBody::CacheInfo {
                files: (0..1000).collect(),
            },
        };
        assert_eq!(m.wire_bytes(8192), 32 + 4000);
        assert_eq!(m.class(), transport::MsgClass::Control);
    }
}
