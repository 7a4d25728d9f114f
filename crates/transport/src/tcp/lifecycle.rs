//! Connection establishment: a socket's handshake state and the SYN
//! retry and give-up policy.

use simnet::{SimDuration, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Lifecycle {
    /// This end opened the socket at `opened_at`; its SYN is out.
    SynSent { opened_at: SimTime },
    /// Handshake complete (or the peer opened the socket).
    Established,
}

/// What a firing of the connect timer calls for.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum ConnectStep {
    /// The handshake already completed.
    Ignore,
    /// Establishment took too long: drop the socket.
    GiveUp,
    /// Resend the SYN and re-arm.
    Retry,
}

impl Lifecycle {
    /// A SYN-ACK arrived; `true` when it completes the handshake.
    pub(super) fn on_syn_ack(&mut self) -> bool {
        std::mem::replace(self, Lifecycle::Established) != Lifecycle::Established
    }

    /// The connect timer fired at `now`; the handshake is abandoned once
    /// `give_up` has passed since the socket opened.
    pub(super) fn on_connect_timer(self, now: SimTime, give_up: SimDuration) -> ConnectStep {
        match self {
            Lifecycle::Established => ConnectStep::Ignore,
            Lifecycle::SynSent { opened_at } if now.saturating_since(opened_at) >= give_up => {
                ConnectStep::GiveUp
            }
            Lifecycle::SynSent { .. } => ConnectStep::Retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_retries_until_give_up_then_stops_once_established() {
        let give_up = SimDuration::from_secs(12);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let mut l = Lifecycle::SynSent { opened_at: t(0) };
        assert_eq!(l.on_connect_timer(t(1), give_up), ConnectStep::Retry);
        assert_eq!(l.on_connect_timer(t(12), give_up), ConnectStep::GiveUp);
        assert!(l.on_syn_ack());
        assert!(!l.on_syn_ack(), "a duplicate SYN-ACK completes nothing");
        assert_eq!(l.on_connect_timer(t(13), give_up), ConnectStep::Ignore);
    }
}
