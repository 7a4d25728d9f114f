//! The §5.4 freeze. PRESS serializes intra-cluster sending; when a send
//! towards some peer would block, the node *freezes* its data path, the
//! behaviour behind "the stalling of communication to the faulty node
//! freezes the entire cluster". Heartbeats, membership control and
//! rejoin handling keep running (they live on their own timers/threads
//! in real PRESS), which is exactly what lets TCP-PRESS-HB splinter and
//! recover while TCP-PRESS stays frozen. Each change of the freeze
//! returns the stall-window attribution mark it makes, for the node to
//! record.

use std::collections::VecDeque;

use simnet::fabric::NodeId;
use telemetry::AttrEvent;

use crate::msg::{PressMsg, Request};
use crate::node::AppEvent;

/// The message the data path is frozen on, and the peers it has yet to reach.
#[derive(Debug)]
pub(crate) struct Stalled {
    pub msg: PressMsg,
    pub remaining: VecDeque<NodeId>,
}

/// Data-path work held back by the freeze, replayed in order on the thaw.
#[derive(Debug)]
pub(crate) enum Deferred {
    Client(Request),
    Event(AppEvent),
    Deliver { peer: NodeId, msg: PressMsg },
}

/// The stalled message and the work deferred behind it, at most `cap`
/// items.
#[derive(Debug)]
pub(crate) struct Freeze {
    stalled: Option<Stalled>,
    deferred: VecDeque<Deferred>,
    cap: usize,
}

impl Freeze {
    pub fn new(cap: usize) -> Self {
        Freeze {
            stalled: None,
            deferred: VecDeque::new(),
            cap,
        }
    }

    pub fn is_frozen(&self) -> bool {
        self.stalled.is_some()
    }

    /// Freezes on `msg` and the peers it has not reached, replacing any
    /// message stalled before. A stall window opens unless one is open:
    /// the path was frozen, or this is a `retry` of the stalled message.
    pub fn stall(
        &mut self,
        msg: PressMsg,
        remaining: VecDeque<NodeId>,
        retry: bool,
    ) -> Option<AttrEvent> {
        let opens = !retry && !self.is_frozen();
        self.stalled = Some(Stalled { msg, remaining });
        opens.then_some(AttrEvent::StallBegin)
    }

    /// Takes the stalled message out for a retry if it waits on `peer`.
    pub fn take_for(&mut self, peer: NodeId) -> Option<Stalled> {
        self.stalled.take_if(|s| s.remaining.front() == Some(&peer))
    }

    /// After a retry the window closes, unless the path froze again.
    pub fn retried(&self) -> Option<AttrEvent> {
        (!self.is_frozen()).then_some(AttrEvent::StallEnd)
    }

    /// `peer` left the view and is owed nothing; the window closes if it
    /// was the last peer owed.
    pub fn forget(&mut self, peer: NodeId) -> Option<AttrEvent> {
        let owed_none = |s: &mut Stalled| {
            s.remaining.retain(|n| *n != peer);
            s.remaining.is_empty()
        };
        self.stalled.take_if(owed_none).map(|_| AttrEvent::StallEnd)
    }

    /// A restart drops the freeze and its deferred work; closing the
    /// window keeps attribution from blaming it forever.
    pub fn reset(&mut self) -> Option<AttrEvent> {
        self.deferred.clear();
        self.stalled.take().map(|_| AttrEvent::StallEnd)
    }

    /// Defers `item` to the thaw; false if the queue is full.
    pub fn defer(&mut self, item: Deferred) -> bool {
        let room = self.deferred.len() < self.cap;
        if room {
            self.deferred.push_back(item);
        }
        room
    }

    /// The next deferred item, unless the path froze again.
    pub fn resume(&mut self) -> Option<Deferred> {
        if self.is_frozen() {
            return None;
        }
        self.deferred.pop_front()
    }
}
