//! The receive side of one connection: reassembles the stream from
//! segments arriving out of order or twice, and releases its messages
//! in order up to the first whose framing a bad parameter garbled.

use std::collections::BTreeMap;

use super::segment::MsgRec;

#[derive(Debug)]
pub(super) struct Reassembly<M> {
    /// Every byte before this offset has arrived.
    rcv_next: u64,
    /// End offset of the last message released.
    delivered_up_to: u64,
    /// Byte ranges received past a gap, unordered.
    ooo: Vec<(u64, u64)>,
    /// Messages received but not yet released, keyed by end offset.
    pending_msgs: BTreeMap<u64, MsgRec<M>>,
}

impl<M> Reassembly<M> {
    pub(super) fn new() -> Self {
        Reassembly {
            rcv_next: 0,
            delivered_up_to: 0,
            ooo: Vec::new(),
            pending_msgs: BTreeMap::new(),
        }
    }

    /// The cumulative acknowledgement: every byte before it has arrived.
    pub(super) fn rcv_next(&self) -> u64 {
        self.rcv_next
    }

    /// Takes in a segment's bytes and the messages ending in it.
    pub(super) fn accept(&mut self, seq: u64, len: u32, msgs: Vec<MsgRec<M>>) {
        self.ooo.push((seq, seq + u64::from(len)));
        while let Some(i) = self.ooo.iter().position(|&(s, _)| s <= self.rcv_next) {
            self.rcv_next = self.rcv_next.max(self.ooo.swap_remove(i).1);
        }
        for rec in msgs {
            if rec.end > self.delivered_up_to {
                self.pending_msgs.insert(rec.end, rec);
            }
        }
    }

    /// Moves the completed messages into `ready`, in order; `true` on a
    /// framing error (a poisoned message was next).
    pub(super) fn release(&mut self, ready: &mut Vec<MsgRec<M>>) -> bool {
        while let Some(entry) = self.pending_msgs.first_entry() {
            if *entry.key() > self.rcv_next {
                break;
            }
            let rec = entry.remove();
            self.delivered_up_to = rec.end;
            if rec.poisoned {
                return true;
            }
            ready.push(rec);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MsgClass;

    fn rec(msg: u8, start: u64, end: u64, poisoned: bool) -> MsgRec<u8> {
        MsgRec {
            end,
            msg,
            class: MsgClass::Forward,
            bytes: (end - start) as u32,
            poisoned,
        }
    }

    fn released(r: &mut Reassembly<u8>) -> (Vec<u8>, bool) {
        let mut ready = Vec::new();
        let corrupt = r.release(&mut ready);
        (ready.into_iter().map(|m| m.msg).collect(), corrupt)
    }

    #[test]
    fn out_of_order_segments_release_in_stream_order_once() {
        let mut r = Reassembly::new();
        r.accept(100, 100, vec![rec(2, 100, 200, false)]);
        assert_eq!(r.rcv_next(), 0, "gap before 100");
        assert_eq!(released(&mut r), (vec![], false));
        r.accept(0, 100, vec![rec(1, 0, 100, false)]);
        assert_eq!(r.rcv_next(), 200);
        assert_eq!(released(&mut r), (vec![1, 2], false));
        // A duplicate of a released segment changes nothing.
        r.accept(100, 100, vec![rec(2, 100, 200, false)]);
        assert_eq!((r.rcv_next(), released(&mut r)), (200, (vec![], false)));
    }

    #[test]
    fn a_message_spanning_segments_waits_for_its_last_byte() {
        let mut r = Reassembly::new();
        r.accept(0, 64, vec![]);
        assert_eq!(released(&mut r), (vec![], false));
        r.accept(64, 36, vec![rec(1, 0, 100, false)]);
        assert_eq!(released(&mut r), (vec![1], false));
    }

    #[test]
    fn a_poisoned_message_is_a_framing_error() {
        let mut r = Reassembly::new();
        let msgs = vec![
            rec(1, 0, 10, false),
            rec(2, 10, 20, true),
            rec(3, 20, 30, true),
        ];
        r.accept(0, 30, msgs);
        // The clean prefix is released, then framing fails.
        assert_eq!(released(&mut r), (vec![1], true));
    }

    #[test]
    fn overlapping_and_adjacent_ranges_merge_into_the_cumulative_ack() {
        let mut r: Reassembly<u8> = Reassembly::new();
        r.accept(10, 10, vec![]);
        r.accept(30, 10, vec![]);
        r.accept(15, 20, vec![]);
        assert_eq!(r.rcv_next(), 0, "[10, 40) waits behind the gap");
        r.accept(0, 5, vec![]);
        assert_eq!(r.rcv_next(), 5);
        r.accept(5, 5, vec![]);
        assert_eq!(r.rcv_next(), 40, "the gap filled: everything up to 40");
        r.accept(35, 10, vec![]);
        assert_eq!(r.rcv_next(), 45, "an overlapping tail extends it");
    }
}
