//! The send queue of one connection: sequence space, unacknowledged
//! messages, the send-buffer limit behind `WouldBlock`/`Writable`, the
//! peer's window, skbuf waits, and bad-parameter poisoning.

use std::collections::VecDeque;

use super::segment::MsgRec;
use crate::api::{CallParams, MsgClass, SendStatus};

#[derive(Debug)]
pub(super) struct SendQueue<M> {
    /// Send-buffer size in bytes.
    capacity: u64,
    next_seq: u64,
    snd_una: u64,
    snd_sent: u64,
    /// Messages not wholly acknowledged, in stream order (ends never
    /// decrease): pushed at `next_seq`, popped by cumulative ACKs.
    retained: VecDeque<MsgRec<M>>,
    /// Where a mangled send desynchronised the framing.
    poisoned_from: Option<u64>,
    /// A send was refused: `Writable` is owed.
    blocked: bool,
    /// An skbuf allocation failed; its retry timer is pending.
    alloc_waiting: bool,
    peer_window_open: bool,
}

impl<M: Clone> SendQueue<M> {
    pub(super) fn new(capacity: u64) -> Self {
        SendQueue {
            capacity,
            next_seq: 0,
            snd_una: 0,
            snd_sent: 0,
            retained: VecDeque::new(),
            poisoned_from: None,
            blocked: false,
            alloc_waiting: false,
            peer_window_open: true,
        }
    }

    /// Bytes queued and not yet acknowledged.
    pub(super) fn buffered(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    /// Whether transmitted bytes await acknowledgement.
    pub(super) fn outstanding(&self) -> bool {
        self.snd_una < self.snd_sent
    }

    /// Queues a message unless it would overflow a non-empty buffer. A
    /// mangled send poisons the framing from its first byte on.
    ///
    /// Every message takes at least one stream byte, its length prefix,
    /// so each ends past the one before: some segment's `records` always
    /// carries it, and no two share the end offset the receiver keys
    /// them by.
    pub(super) fn push(
        &mut self,
        msg: M,
        class: MsgClass,
        bytes: u32,
        params: CallParams,
    ) -> SendStatus {
        let len =
            (i64::from(bytes) + i64::from(params.size_delta)).clamp(1, i64::from(u32::MAX)) as u64;
        if self.buffered() + len > self.capacity && self.buffered() > 0 {
            self.blocked = true;
            return SendStatus::WouldBlock;
        }
        let start = self.next_seq;
        let end = start + len;
        self.next_seq = end;
        if !params.is_clean() && self.poisoned_from.is_none() {
            self.poisoned_from = Some(start);
        }
        let poisoned = self.poisoned_from.is_some_and(|p| end > p);
        let rec = MsgRec {
            end,
            msg,
            class,
            bytes,
            poisoned,
        };
        self.retained.push_back(rec);
        SendStatus::Accepted
    }

    /// The range of the next new segment, at most `mss` bytes, if the
    /// peer's window admits unsent data.
    pub(super) fn next_range(&self, mss: u64) -> Option<(u64, u64)> {
        (self.peer_window_open && self.snd_sent < self.next_seq)
            .then(|| (self.snd_sent, self.next_seq.min(self.snd_sent + mss)))
    }

    pub(super) fn sent_up_to(&mut self, end: u64) {
        self.snd_sent = end;
    }

    /// The range a retransmission resends: the oldest segment's worth.
    pub(super) fn unacked_range(&self, mss: u64) -> (u64, u64) {
        (self.snd_una, self.snd_sent.min(self.snd_una + mss))
    }

    /// The messages whose last byte lies in `[seq, end)`.
    pub(super) fn records(&self, seq: u64, end: u64) -> Vec<MsgRec<M>> {
        let lo = self.retained.partition_point(|r| r.end <= seq);
        let hi = self.retained.partition_point(|r| r.end <= end);
        self.retained.range(lo..hi).cloned().collect()
    }

    /// Applies the peer's cumulative `ack` and window: `None` if nothing
    /// new is acknowledged, else whether a refused sender may write
    /// again (the buffer drained to half).
    pub(super) fn on_ack(&mut self, ack: u64, window_open: bool) -> Option<bool> {
        self.peer_window_open = window_open;
        if ack <= self.snd_una {
            return None;
        }
        self.snd_una = ack;
        while self.retained.front().is_some_and(|r| r.end <= ack) {
            self.retained.pop_front();
        }
        let writable = self.blocked && self.buffered() <= self.capacity / 2;
        self.blocked &= !writable;
        Some(writable)
    }

    /// An skbuf allocation failed: `true` if a wait (and its timer) starts.
    pub(super) fn start_alloc_wait(&mut self) -> bool {
        !std::mem::replace(&mut self.alloc_waiting, true)
    }

    pub(super) fn end_alloc_wait(&mut self) {
        self.alloc_waiting = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PtrParam;

    const CLEAN: CallParams = CallParams {
        ptr: PtrParam::Valid,
        size_delta: 0,
    };

    fn queue_of(sizes: &[u32]) -> SendQueue<usize> {
        let mut q = SendQueue::new(u64::MAX);
        for (i, &n) in sizes.iter().enumerate() {
            assert_eq!(q.push(i, MsgClass::Forward, n, CLEAN), SendStatus::Accepted);
        }
        q
    }

    fn msgs(recs: &[MsgRec<usize>]) -> Vec<usize> {
        recs.iter().map(|r| r.msg).collect()
    }

    #[test]
    fn segments_carry_the_messages_ending_inside_them() {
        // Messages end at 100, 300, 301 (an empty message's length
        // prefix) and 1001.
        let mut q = queue_of(&[100, 200, 0, 700]);
        let (seq, end) = q.next_range(256).expect("data to send");
        assert_eq!((seq, end), (0, 256));
        assert_eq!(msgs(&q.records(seq, end)), [0]);
        q.sent_up_to(end);
        assert_eq!(q.next_range(256), Some((256, 512)));
        assert_eq!(msgs(&q.records(256, 512)), [1, 2]);
        assert_eq!(msgs(&q.records(512, 768)), Vec::<usize>::new());
        assert_eq!(msgs(&q.records(768, 1001)), [3]);
        q.sent_up_to(1001);
        assert_eq!(q.next_range(256), None, "nothing left unsent");
    }

    #[test]
    fn cumulative_acks_pop_whole_messages_only() {
        let mut q = queue_of(&[100, 200, 700]);
        q.sent_up_to(1000);
        assert!(q.outstanding());
        assert_eq!(q.on_ack(150, true), Some(false));
        // The message ending at 300 is only partly acknowledged: kept.
        assert_eq!(msgs(&q.records(150, 1000)), [1, 2]);
        assert_eq!(q.unacked_range(256), (150, 406));
        assert_eq!(q.on_ack(150, true), None, "duplicate ACK");
        assert_eq!(q.on_ack(1000, true), Some(false));
        assert!(!q.outstanding());
        assert_eq!(q.buffered(), 0);
    }

    #[test]
    fn a_full_buffer_refuses_until_half_drains() {
        let mut q: SendQueue<u8> = SendQueue::new(40);
        // An empty buffer takes any one message, however large.
        assert_eq!(
            q.push(0, MsgClass::FileData, 50, CLEAN),
            SendStatus::Accepted
        );
        assert_eq!(
            q.push(1, MsgClass::FileData, 1, CLEAN),
            SendStatus::WouldBlock
        );
        q.sent_up_to(50);
        assert_eq!(q.on_ack(20, true), Some(false), "30 bytes left > 20");
        assert_eq!(q.on_ack(30, true), Some(true), "20 bytes left: writable");
        assert_eq!(q.on_ack(50, true), Some(false), "writable only once");
    }

    #[test]
    fn a_mangled_send_poisons_it_and_everything_after() {
        let mut q: SendQueue<u8> = SendQueue::new(u64::MAX);
        let short = CallParams {
            ptr: PtrParam::Valid,
            size_delta: -4,
        };
        q.push(0, MsgClass::Forward, 10, CLEAN);
        q.push(1, MsgClass::Forward, 10, short);
        q.push(2, MsgClass::Forward, 10, CLEAN);
        let recs = q.records(0, 26);
        let ends: Vec<u64> = recs.iter().map(|r| r.end).collect();
        assert_eq!(
            ends,
            [10, 16, 26],
            "the wrong size is what goes on the stream"
        );
        let poisoned: Vec<bool> = recs.iter().map(|r| r.poisoned).collect();
        assert_eq!(poisoned, [false, true, true]);
    }

    #[test]
    fn a_closed_window_holds_data_back() {
        let mut q = queue_of(&[100]);
        assert_eq!(q.on_ack(0, false), None);
        assert_eq!(q.next_range(256), None);
        q.on_ack(0, true);
        assert_eq!(q.next_range(256), Some((0, 100)));
    }

    #[test]
    fn one_alloc_retry_per_wait() {
        let mut q: SendQueue<u8> = SendQueue::new(u64::MAX);
        assert!(q.start_alloc_wait());
        assert!(!q.start_alloc_wait(), "already waiting");
        q.end_alloc_wait();
        assert!(q.start_alloc_wait());
    }
}
