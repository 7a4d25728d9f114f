//! Connection establishment, shared by both substrates: whether a TCP
//! socket or a VIA VI is still being set up, and the retry and give-up
//! policy its connect timer follows.

use simnet::{SimDuration, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lifecycle {
    /// This end opened the connection at `opened_at`; its request (SYN
    /// or VIA connection request) is out.
    Opening { opened_at: SimTime },
    /// The peer accepted (or the peer opened the connection).
    Established,
}

/// What a firing of the connect timer calls for.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ConnectStep {
    /// The connection is already established.
    Ignore,
    /// Establishment took too long: drop the connection.
    GiveUp,
    /// Resend the request and re-arm.
    Retry,
}

impl Lifecycle {
    /// The peer accepted (a SYN-ACK or a VIA connection accept arrived);
    /// `true` when that completes establishment.
    pub(crate) fn on_accepted(&mut self) -> bool {
        std::mem::replace(self, Lifecycle::Established) != Lifecycle::Established
    }

    /// The connect timer fired at `now`; establishment is abandoned once
    /// `give_up` has passed since the connection opened.
    pub(crate) fn on_connect_timer(self, now: SimTime, give_up: SimDuration) -> ConnectStep {
        match self {
            Lifecycle::Established => ConnectStep::Ignore,
            Lifecycle::Opening { opened_at } if now.saturating_since(opened_at) >= give_up => {
                ConnectStep::GiveUp
            }
            Lifecycle::Opening { .. } => ConnectStep::Retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_retries_until_give_up_then_stops_once_established() {
        let give_up = SimDuration::from_secs(12);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let mut l = Lifecycle::Opening { opened_at: t(0) };
        assert_eq!(l.on_connect_timer(t(1), give_up), ConnectStep::Retry);
        assert_eq!(l.on_connect_timer(t(12), give_up), ConnectStep::GiveUp);
        assert!(l.on_accepted());
        assert!(!l.on_accepted(), "a duplicate accept completes nothing");
        assert_eq!(l.on_connect_timer(t(13), give_up), ConnectStep::Ignore);
    }
}
