//! The receive side of one connection: reassembles the stream from
//! segments arriving out of order or twice, and releases its messages
//! in order up to the first whose framing a bad parameter garbled.
//!
//! Messages are staged in stream order and released from the front.
//! Nearly every segment arrives in order, so staging one is an append.

use std::collections::VecDeque;

use super::segment::MsgRec;

#[derive(Debug)]
pub(super) struct Reassembly<M> {
    /// Every byte before this offset has arrived.
    rcv_next: u64,
    /// End offset of the last message released.
    delivered_up_to: u64,
    /// Byte ranges received past a gap, unordered.
    ooo: Vec<(u64, u64)>,
    /// Messages received but not released yet, sorted by end offset
    /// (one per offset): released from the front.
    staged: VecDeque<MsgRec<M>>,
}

impl<M> Reassembly<M> {
    pub(super) fn new() -> Self {
        Reassembly {
            rcv_next: 0,
            delivered_up_to: 0,
            ooo: Vec::new(),
            staged: VecDeque::new(),
        }
    }

    /// The cumulative acknowledgement: every byte before it has arrived.
    pub(super) fn rcv_next(&self) -> u64 {
        self.rcv_next
    }

    /// Takes in a segment's bytes and the messages ending in it (in
    /// stream order), and moves every message now complete into
    /// `ready`, in order. Returns `true` on a framing error: a poisoned
    /// message was next. It is consumed, and what follows it stays
    /// staged.
    pub(super) fn receive(
        &mut self,
        seq: u64,
        len: u32,
        msgs: Vec<MsgRec<M>>,
        ready: &mut Vec<MsgRec<M>>,
    ) -> bool {
        self.ooo.push((seq, seq + u64::from(len)));
        while let Some(i) = self.ooo.iter().position(|&(s, _)| s <= self.rcv_next) {
            self.rcv_next = self.rcv_next.max(self.ooo.swap_remove(i).1);
        }
        for rec in msgs {
            // A message that ends at or before the last one released is
            // a duplicate.
            if rec.end > self.delivered_up_to {
                self.stage(rec);
            }
        }
        while self.staged.front().is_some_and(|r| r.end <= self.rcv_next) {
            let rec = self.staged.pop_front().expect("front checked");
            self.delivered_up_to = rec.end;
            if rec.poisoned {
                return true;
            }
            ready.push(rec);
        }
        false
    }

    /// Keeps `rec` in end-offset order; a copy of a staged message
    /// (a retransmission) replaces it.
    fn stage(&mut self, rec: MsgRec<M>) {
        if self.staged.back().is_none_or(|last| last.end < rec.end) {
            self.staged.push_back(rec);
        } else {
            match self.staged.binary_search_by_key(&rec.end, |r| r.end) {
                Ok(i) => self.staged[i] = rec,
                Err(i) => self.staged.insert(i, rec),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use simnet::SimRng;

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

    fn receive(
        r: &mut Reassembly<u8>,
        seq: u64,
        len: u32,
        msgs: Vec<MsgRec<u8>>,
    ) -> (Vec<u8>, bool) {
        let mut ready = Vec::new();
        let corrupt = r.receive(seq, len, msgs, &mut ready);
        (ready.into_iter().map(|m| m.msg).collect(), corrupt)
    }

    #[test]
    fn out_of_order_segments_release_in_stream_order_once() {
        let mut r = Reassembly::new();
        let got = receive(&mut r, 100, 100, vec![rec(2, 100, 200, false)]);
        assert_eq!((r.rcv_next(), got), (0, (vec![], false)), "gap before 100");
        let got = receive(&mut r, 0, 100, vec![rec(1, 0, 100, false)]);
        assert_eq!((r.rcv_next(), got), (200, (vec![1, 2], false)));
        // A duplicate of a released segment changes nothing.
        let got = receive(&mut r, 100, 100, vec![rec(2, 100, 200, false)]);
        assert_eq!((r.rcv_next(), got), (200, (vec![], false)));
        assert!(r.staged.is_empty());
    }

    #[test]
    fn a_message_spanning_segments_waits_for_its_last_byte() {
        let mut r = Reassembly::new();
        assert_eq!(receive(&mut r, 0, 64, vec![]), (vec![], false));
        let got = receive(&mut r, 64, 36, vec![rec(1, 0, 100, false)]);
        assert_eq!(got, (vec![1], false));
    }

    #[test]
    fn a_poisoned_message_is_a_framing_error() {
        let mut r = Reassembly::new();
        let msgs = vec![
            rec(1, 0, 10, false),
            rec(2, 10, 20, true),
            rec(3, 20, 30, true),
        ];
        // The clean prefix is released, then framing fails; what
        // follows the poisoned message stays staged.
        assert_eq!(receive(&mut r, 0, 30, msgs), (vec![1], true));
        assert_eq!(r.staged.len(), 1);
    }

    #[test]
    fn overlapping_and_adjacent_ranges_merge_into_the_cumulative_ack() {
        let mut r: Reassembly<u8> = Reassembly::new();
        receive(&mut r, 10, 10, vec![]);
        receive(&mut r, 30, 10, vec![]);
        receive(&mut r, 15, 20, vec![]);
        assert_eq!(r.rcv_next(), 0, "[10, 40) waits behind the gap");
        receive(&mut r, 0, 5, vec![]);
        assert_eq!(r.rcv_next(), 5);
        receive(&mut r, 5, 5, vec![]);
        assert_eq!(r.rcv_next(), 40, "the gap filled: everything up to 40");
        receive(&mut r, 35, 10, vec![]);
        assert_eq!(r.rcv_next(), 45, "an overlapping tail extends it");
    }

    /// The earlier receive side, kept as the reference: every message
    /// goes through a map keyed by end offset, and a second call
    /// releases the completed prefix.
    struct Model {
        rcv_next: u64,
        delivered_up_to: u64,
        ooo: Vec<(u64, u64)>,
        pending: BTreeMap<u64, MsgRec<u32>>,
    }

    impl Model {
        fn accept(&mut self, seq: u64, len: u32, msgs: Vec<MsgRec<u32>>) {
            self.ooo.push((seq, seq + u64::from(len)));
            while let Some(i) = self.ooo.iter().position(|&(s, _)| s <= self.rcv_next) {
                self.rcv_next = self.rcv_next.max(self.ooo.swap_remove(i).1);
            }
            for rec in msgs {
                if rec.end > self.delivered_up_to {
                    self.pending.insert(rec.end, rec);
                }
            }
        }

        fn release(&mut self, ready: &mut Vec<MsgRec<u32>>) -> bool {
            while let Some(entry) = self.pending.first_entry() {
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

    /// A random stream cut into segments at random points: `(seq, len,
    /// messages ending inside)`. Now and then a message is poisoned.
    fn segments(rng: &mut SimRng) -> Vec<(u64, u32, Vec<MsgRec<u32>>)> {
        let mut ends = Vec::new();
        let mut end = 0;
        for _ in 0..rng.between(1, 40) {
            end += rng.between(1, 3_000);
            ends.push(end);
        }
        let mut segs = Vec::new();
        let (mut seq, mut next) = (0, 0);
        while seq < end {
            let seg_end = end.min(seq + rng.between(1, 4_000));
            let mut msgs = Vec::new();
            while next < ends.len() && ends[next] <= seg_end {
                msgs.push(MsgRec {
                    end: ends[next],
                    msg: next as u32,
                    class: MsgClass::FileData,
                    bytes: 0,
                    poisoned: rng.chance(0.02),
                });
                next += 1;
            }
            segs.push((seq, (seg_end - seq) as u32, msgs));
            seq = seg_end;
        }
        segs
    }

    #[test]
    fn reordered_and_duplicated_segments_match_the_map_model() {
        let mut rng = SimRng::seed_from(2003);
        let (mut staged_peak, mut corruptions) = (0, 0);
        for case in 0..2_000 {
            let segs = segments(&mut rng);
            // A delivery order: every segment at least once, some twice
            // (a retransmission may carry a different copy), shuffled
            // within a random window.
            let mut order: Vec<_> = (0..segs.len()).map(|i| (i, false)).collect();
            for i in 0..segs.len() {
                if rng.chance(0.2) {
                    order.push((i, rng.chance(0.5)));
                }
            }
            let window = rng.between(1, 6) as usize;
            for i in 0..order.len() {
                let j = (i + rng.below(window as u64) as usize).min(order.len() - 1);
                order.swap(i, j);
            }
            let mut model = Model {
                rcv_next: 0,
                delivered_up_to: 0,
                ooo: Vec::new(),
                pending: BTreeMap::new(),
            };
            let mut r = Reassembly::new();
            for (step, &(i, altered)) in order.iter().enumerate() {
                let (seq, len, mut msgs) = segs[i].clone();
                if altered {
                    for m in &mut msgs {
                        m.msg += 1_000;
                    }
                }
                let (mut want, mut got) = (Vec::new(), Vec::new());
                model.accept(seq, len, msgs.clone());
                let want_corrupt = model.release(&mut want);
                let got_corrupt = r.receive(seq, len, msgs, &mut got);
                assert_eq!(
                    (got, got_corrupt, r.rcv_next()),
                    (want, want_corrupt, model.rcv_next),
                    "case {case}, step {step}"
                );
                staged_peak = staged_peak.max(r.staged.len());
                corruptions += usize::from(got_corrupt);
            }
            let staged: Vec<_> = r.staged.iter().map(|m| (m.end, m.msg)).collect();
            let pending: Vec<_> = model.pending.values().map(|m| (m.end, m.msg)).collect();
            assert_eq!(staged, pending, "case {case}: what is left waiting");
        }
        // The loop exercised both staging and framing errors.
        assert!(
            staged_peak > 3 && corruptions > 100,
            "{staged_peak} {corruptions}"
        );
    }
}
