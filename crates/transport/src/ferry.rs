//! A test harness shared by the substrate unit tests: carries frames
//! between endpoints until the network is quiet.

use crate::api::{Effect, Effects, Substrate, Upcall};
use simnet::SimTime;

/// Ferries every `Transmit` effect (and those its delivery causes) to
/// the endpoint it is addressed to, at `now`, and hands every other
/// effect to `seen`. Deliveries append to `effects`, so they trace and
/// attribute exactly when its switches say.
pub(crate) fn ferry<M: Clone, S: Substrate<M>>(
    now: SimTime,
    endpoints: &mut [&mut S],
    mut effects: Effects<M>,
    mut seen: impl FnMut(Effect<M>),
) {
    let mut queue: Vec<Effect<M>> = effects.drain().collect();
    while let Some(e) = queue.pop() {
        match e {
            Effect::Transmit(frame) => {
                let dst = frame.dst;
                if let Some(s) = endpoints.iter_mut().find(|s| s.node() == dst) {
                    s.frame_arrived(now, frame, &mut effects);
                }
                queue.extend(effects.drain());
            }
            other => seen(other),
        }
    }
}

/// [`ferry`], returning every upcall seen on the way. Timers, CPU
/// charges and observations are dropped.
pub(crate) fn exchange<M: Clone, S: Substrate<M>>(
    now: SimTime,
    endpoints: &mut [&mut S],
    effects: Effects<M>,
) -> Vec<Upcall<M>> {
    let mut upcalls = Vec::new();
    ferry(now, endpoints, effects, |e| {
        if let Effect::Upcall(u) = e {
            upcalls.push(u);
        }
    });
    upcalls
}
