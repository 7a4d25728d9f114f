//! Closed-world, statically dispatched union of the two substrates.
//!
//! The cluster composition layer only ever instantiates [`TcpStack`] or
//! [`ViaNic`]; holding them as `Box<dyn Substrate>` puts a virtual call
//! (and a pointer chase) on every frame, timer, and send of the
//! simulation hot path. [`SubstrateImpl`] is the devirtualized
//! alternative: a two-variant enum whose method bodies are a `match`
//! that the compiler can inline per call site. The [`Substrate`] trait
//! itself stays — tests still mock it — and `SubstrateImpl` implements
//! it too, so generic code accepts either form.

use simnet::fabric::{Frame, LossReason, NodeId};
use simnet::SimTime;

use crate::api::{
    CallParams, Effects, MsgClass, PinFailed, SendStatus, Substrate, TimerKey, WirePayload,
};
use crate::tcp::TcpStack;
use crate::via::ViaNic;

/// One of the two concrete communication substrates, dispatched
/// statically. See the module docs for why this exists.
#[derive(Debug)]
pub enum SubstrateImpl<M> {
    /// Kernel-style TCP ([`TcpStack`]).
    Tcp(TcpStack<M>),
    /// User-level VIA ([`ViaNic`]).
    Via(ViaNic<M>),
}

/// Expands to a `match` forwarding one call to whichever variant is
/// live. Every arm is the same expression with `s` bound to the
/// concrete transport, so calls compile to direct (inlinable) calls.
macro_rules! dispatch {
    ($self:expr, $s:ident => $call:expr) => {
        match $self {
            SubstrateImpl::Tcp($s) => $call,
            SubstrateImpl::Via($s) => $call,
        }
    };
}

impl<M: Clone> Substrate<M> for SubstrateImpl<M> {
    #[inline]
    fn node(&self) -> NodeId {
        dispatch!(self, s => Substrate::node(s))
    }

    #[inline]
    fn open(&mut self, now: SimTime, peer: NodeId, out: &mut Effects<M>) {
        dispatch!(self, s => Substrate::open(s, now, peer, out))
    }

    #[inline]
    fn close(&mut self, peer: NodeId) {
        dispatch!(self, s => Substrate::close(s, peer))
    }

    #[inline]
    fn is_connected(&self, peer: NodeId) -> bool {
        dispatch!(self, s => Substrate::is_connected(s, peer))
    }

    #[inline]
    fn register_pages(
        &mut self,
        now: SimTime,
        pages: u32,
        out: &mut Effects<M>,
    ) -> Result<(), PinFailed> {
        dispatch!(self, s => Substrate::register_pages(s, now, pages, out))
    }

    #[inline]
    fn deregister_pages(&mut self, now: SimTime, pages: u32, out: &mut Effects<M>) {
        dispatch!(self, s => Substrate::deregister_pages(s, now, pages, out))
    }

    #[inline]
    fn send(
        &mut self,
        now: SimTime,
        peer: NodeId,
        class: MsgClass,
        msg: M,
        bytes: u32,
        params: CallParams,
        out: &mut Effects<M>,
    ) -> SendStatus {
        dispatch!(self, s => Substrate::send(s, now, peer, class, msg, bytes, params, out))
    }

    #[inline]
    fn frame_arrived(&mut self, now: SimTime, frame: Frame<WirePayload<M>>, out: &mut Effects<M>) {
        dispatch!(self, s => Substrate::frame_arrived(s, now, frame, out))
    }

    #[inline]
    fn transmit_failed(
        &mut self,
        now: SimTime,
        peer: NodeId,
        reason: LossReason,
        out: &mut Effects<M>,
    ) {
        dispatch!(self, s => Substrate::transmit_failed(s, now, peer, reason, out))
    }

    #[inline]
    fn timer_fired(&mut self, now: SimTime, key: TimerKey, out: &mut Effects<M>) {
        dispatch!(self, s => Substrate::timer_fired(s, now, key, out))
    }

    #[inline]
    fn set_app_receiving(&mut self, now: SimTime, receiving: bool, out: &mut Effects<M>) {
        dispatch!(self, s => Substrate::set_app_receiving(s, now, receiving, out))
    }

    #[inline]
    fn set_alloc_fail(&mut self, failing: bool) {
        dispatch!(self, s => Substrate::set_alloc_fail(s, failing))
    }

    #[inline]
    fn set_pin_fail(&mut self, failing: bool) {
        dispatch!(self, s => Substrate::set_pin_fail(s, failing))
    }

    #[inline]
    fn restart(&mut self, now: SimTime) {
        dispatch!(self, s => Substrate::restart(s, now))
    }

    fn export_metrics(&self, reg: &mut telemetry::MetricsRegistry) {
        dispatch!(self, s => Substrate::export_metrics(s, reg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::via::ViaMode;

    fn tcp(node: usize) -> SubstrateImpl<u64> {
        SubstrateImpl::Tcp(TcpStack::new(NodeId(node), CostModel::tcp()))
    }

    fn via(node: usize) -> SubstrateImpl<u64> {
        SubstrateImpl::Via(ViaNic::new(
            NodeId(node),
            ViaMode::Messaging,
            CostModel::via0(),
        ))
    }

    #[test]
    fn enum_delegates_to_the_wrapped_substrate() {
        let t = tcp(3);
        assert_eq!(t.node(), NodeId(3));
        let v = via(7);
        assert_eq!(v.node(), NodeId(7));
    }

    #[test]
    fn open_produces_effects_through_the_enum() {
        let mut fx = Effects::default();
        let mut t = tcp(0);
        t.open(SimTime::ZERO, NodeId(1), &mut fx);
        assert!(!fx.is_empty(), "TCP open should emit SYN + timer effects");
        fx.clear();
        let mut v = via(0);
        v.open(SimTime::ZERO, NodeId(1), &mut fx);
        assert!(!fx.is_empty(), "VIA open should emit connect effects");
    }
}
