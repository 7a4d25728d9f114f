//! A test harness shared by the substrate unit tests: carries frames
//! between endpoints until the network is quiet.

use crate::api::{Effect, Substrate, Upcall};
use simnet::SimTime;

/// Ferries every `Transmit` effect (and those its delivery causes) to
/// the endpoint it is addressed to, at `now`, and returns every upcall
/// seen on the way. Timers and CPU charges are dropped.
pub(crate) fn exchange<M: Clone, S: Substrate<M>>(
    now: SimTime,
    endpoints: &mut [&mut S],
    mut effects: Vec<Effect<M>>,
) -> Vec<Upcall<M>> {
    let mut upcalls = Vec::new();
    while let Some(e) = effects.pop() {
        match e {
            Effect::Transmit(frame) => {
                let mut out = Vec::new();
                let dst = frame.dst;
                if let Some(s) = endpoints.iter_mut().find(|s| s.node() == dst) {
                    s.frame_arrived(now, frame, &mut out);
                }
                effects.extend(out);
            }
            Effect::Upcall(u) => upcalls.push(u),
            Effect::SetTimer { .. } | Effect::ChargeCpu(_) | Effect::Trace(_) | Effect::Attr(_) => {
            }
        }
    }
    upcalls
}
