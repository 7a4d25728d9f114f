//! Protocol models of the two intra-cluster communication substrates the
//! paper compares: kernel-style **TCP** and user-level **VIA**.
//!
//! Both substrates implement the [`Substrate`] trait: the application
//! (PRESS) calls [`Substrate::send`]; the composition layer feeds frames
//! and timers back in; every call returns [`Effect`]s (frames to
//! transmit, timers to arm, CPU to charge, upcalls to the application).
//! The protocol cores are therefore pure state machines, unit-testable
//! without an event loop.
//!
//! The substrates differ exactly along the axes the paper identifies:
//!
//! | | [`tcp::TcpStack`] | [`via::ViaNic`] |
//! |---|---|---|
//! | Abstraction | byte stream (framing on top) | messages |
//! | Loss reaction | silent retransmit, ~13 min abort | fail-stop: connection breaks |
//! | Buffers | dynamic kernel skbufs (can fail) | pre-allocated, registered/pinned |
//! | Copies | both sides + interrupt | single/zero copy, polling |
//! | Bad pointer | synchronous `EFAULT` | async completion error (fatal) |
//! | Bad offset/size | corrupts the rest of the stream | error at one (or both, RDMA) ends |

pub mod api;
pub mod cost;
mod peers;
pub mod substrate_impl;
pub mod tcp;
pub mod via;

pub use api::{
    BreakReason, CallParams, Effect, Effects, ErrorSite, MsgClass, PinFailed, PtrParam,
    SendInterposer, SendStatus, Substrate, TimerKey, TimerKind, Upcall, WirePayload,
};
pub use cost::CostModel;
pub use substrate_impl::SubstrateImpl;
pub use tcp::{TcpConfig, TcpStack};
pub use via::{ViaConfig, ViaMode, ViaNic};

#[cfg(test)]
mod ferry;
