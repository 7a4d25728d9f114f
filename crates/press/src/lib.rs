//! A model of **PRESS**, the cluster-based locality-conscious web server
//! the paper evaluates (§3).
//!
//! Any node can receive a client request (round-robin DNS) and becomes
//! the *initial node*; based on cooperative caching information it
//! either serves the file itself or forwards the request to the *service
//! node* that caches it. Caching actions are broadcast; load information
//! piggybacks on every intra-cluster message.
//!
//! The five versions of Table 1 are selected with [`PressVersion`]:
//! TCP-PRESS, TCP-PRESS-HB (heartbeats), VIA-PRESS-0 (regular user-level
//! messages), VIA-PRESS-3 (remote writes + polling), VIA-PRESS-5
//! (zero-copy, dynamically pinned file cache).
//!
//! [`PressNode`] is transport-agnostic: it drives any
//! [`transport::Substrate`] and reacts to its upcalls, so behavioural
//! differences between the versions *emerge* from the substrates' fault
//! models rather than being scripted.

pub mod cache;
pub mod config;
pub mod msg;
pub mod node;
pub mod version;

pub use cache::{Directory, LruCache};
pub use config::{CacheSyncImpl, MembershipImpl, PressConfig};
pub use msg::{MsgBody, PressMsg, Request};
pub use node::{AppEffect, AppEvent, ClientAccept, DropReason, NodeCtx, PressNode, Stream};
pub use version::PressVersion;
