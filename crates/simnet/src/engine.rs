//! The discrete-event engine.
//!
//! [`Engine`] is a priority queue of `(time, event)` pairs. Events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO), which keeps simulations deterministic without
//! requiring the event type to be ordered.
//!
//! Every push consumes one sequence number, and delivery follows the
//! total `(time, seq)` order, whichever structure holds the event. The
//! queue is built from two parts:
//!
//! - **a 4-ary min-heap of keys.** A hand-rolled heap rather than
//!   `std::collections::BinaryHeap`: the heap holds 24-byte
//!   `(time, seq, slot, idx)` keys while the payloads sit still in a
//!   free-listed [`Slab`], so sifts move only small `Copy` values. The
//!   comparator reads `(time, seq)` as one `u128`, which makes it
//!   branch-free, and the 4-ary layout halves the depth of a binary
//!   heap while keeping sibling comparisons inside one cache line.
//! - **monotone lanes** ([`Engine::add_lane`], [`Engine::schedule_lane`]).
//!   A lane is a FIFO of `(time, seq, event)` entries for one event
//!   stream whose timestamps never decrease: a node's CPU completions,
//!   its disk completions, fixed-offset timeouts. A backed-up stream
//!   would otherwise fill the heap with tens of thousands of far-future
//!   keys and make every sift deep. Each non-empty lane keeps exactly
//!   one key in the heap, its head, marked by a reserved slot value;
//!   popping that key takes the lane's front and, if more remain,
//!   overwrites the heap root with the next head and sifts it down once.
//!   The heap root is therefore always the global minimum, and the pop
//!   path never merges two sources. A push earlier than its lane's tail
//!   goes to the heap instead, so monotonicity is a performance hint,
//!   never a correctness obligation. Lane payloads are stored inline:
//!   an event parked for a long time is then read back in sequence
//!   with its neighbours instead of from a slab cell written long ago,
//!   which costs a cache miss per event when the backlog outgrows the
//!   cache.
//!
//! Around that core:
//!
//! - heap, lanes, slab and free lists all recycle their storage, so the
//!   steady-state schedule/dispatch cycle performs no heap allocation;
//! - the batch primitives ([`Engine::pop_batch`],
//!   [`Engine::pop_batch_before`]) let driver loops dispatch
//!   same-instant bursts without re-checking the deadline per event;
//! - [`Engine::schedule_cancellable`] returns a [`CancelToken`] that
//!   removes an event before delivery (lazy tombstones plus periodic
//!   compaction when dead entries outnumber live ones), so superseded
//!   retransmit timers stop transiting the queue.
//!
//! This queue is the hottest structure in the whole simulation — every
//! frame, timer, CPU completion, and client arrival passes through it.

use std::collections::VecDeque;

use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Sentinel slot id for ordinary (non-cancellable) events.
const NO_SLOT: u32 = u32::MAX;

/// Slot id marking a heap key as the head of a lane; the key's `idx`
/// then names the lane rather than a slab cell.
const LANE_HEAD: u32 = u32::MAX - 1;

/// Slot value meaning "no live entry": cancelled or already delivered.
const SLOT_DEAD: u64 = u64::MAX;

/// Handle to a cancellable event returned by
/// [`Engine::schedule_cancellable`]. Passing it to [`Engine::cancel`]
/// removes the event before it is ever delivered; a token whose event
/// already fired (or was already cancelled) cancels nothing. Tokens are
/// cheap value types — storing a stale one is harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelToken {
    slot: u32,
    seq: u64,
}

/// Handle to a monotone lane registered with [`Engine::add_lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane(u32);

/// A deterministic discrete-event queue over events of type `E`.
///
/// The engine tracks the current simulated time: popping an event advances
/// the clock to that event's timestamp. Scheduling an event in the past is
/// a programming error and panics.
///
/// # Example
///
/// ```
/// use simnet::{Engine, SimDuration};
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_secs(1), 42u32);
/// engine.schedule_in(SimDuration::from_secs(1), 43u32);
///
/// // Same timestamp: FIFO order.
/// assert_eq!(engine.pop().unwrap().1, 42);
/// assert_eq!(engine.pop().unwrap().1, 43);
/// assert!(engine.pop().is_none());
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    /// 4-ary min-heap of keys: ordinary events, cancellable events and
    /// one head key per non-empty lane.
    heap: Vec<HeapEntry>,
    /// Monotone lanes, each sorted by `(time, seq)` by construction,
    /// payloads inline. A non-empty lane's front is also its head key
    /// in `heap`.
    lanes: Vec<VecDeque<LaneEntry<E>>>,
    /// Lane entries behind their lane's head, i.e. queued events that
    /// have no key in `heap`.
    lane_backlog: usize,
    /// Payloads of heap-resident events, named by `HeapEntry::idx`.
    slab: Slab<E>,
    dispatched: u64,
    /// `slot -> seq` of the live cancellable entry occupying the slot
    /// ([`SLOT_DEAD`] when free). Liveness of a popped entry is
    /// `slots[entry.slot] == entry.seq`; seqs are globally unique, so a
    /// recycled slot can never resurrect a cancelled entry.
    slots: Vec<u64>,
    free_slots: Vec<u32>,
    /// Cancelled entries still sitting in the heap (discarded, without
    /// being delivered or counted, when they reach the root).
    dead_pending: usize,
}

/// One heap key: 24 bytes, `Copy`, so sift operations never move a
/// payload.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    /// [`NO_SLOT`] for ordinary events, [`LANE_HEAD`] for a lane's head,
    /// otherwise the cancellation slot this entry is registered under.
    slot: u32,
    /// Slab cell holding the payload, or the lane for a lane head.
    idx: u32,
}

/// One lane-resident event, payload inline.
#[derive(Debug)]
struct LaneEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl HeapEntry {
    /// Min-heap priority: earlier time first, ties broken by insertion
    /// order so simultaneous events stay FIFO.
    #[inline(always)]
    fn before(&self, other: &Self) -> bool {
        self.key() < other.key()
    }

    /// `(time, seq)` as one integer, so a comparison is branch-free.
    #[inline(always)]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine::with_capacity(0)
    }

    /// Creates an empty engine with pre-allocated queue storage, so the
    /// first burst of scheduling does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: Vec::with_capacity(capacity),
            lanes: Vec::new(),
            lane_backlog: 0,
            slab: Slab::with_capacity(capacity),
            dispatched: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            dead_pending: 0,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events queued but not yet delivered (cancelled
    /// events are not counted, even while their heap entry lingers).
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len() - self.dead_pending + self.lane_backlog
    }

    /// Total events delivered so far.
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Consumes the next sequence number.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    #[inline]
    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "scheduled event at {at} before current time {}",
            self.now
        );
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.push_entry(at, NO_SLOT, event);
    }

    /// Registers a new, empty monotone lane for
    /// [`Engine::schedule_lane`]. Lanes live as long as the engine;
    /// [`Engine::clear`] empties them but keeps them registered.
    pub fn add_lane(&mut self) -> Lane {
        let id = u32::try_from(self.lanes.len()).expect("lane ids exhausted");
        self.lanes.push(VecDeque::new());
        Lane(id)
    }

    /// Schedules `event` at `at` on `lane`: an alternative to
    /// [`Engine::schedule_at`] for an event stream whose timestamps
    /// never decrease from one push to the next (a CPU's completions,
    /// fixed-offset timeouts stamped `now + T`). Such events are already
    /// sorted, so only the lane's head sits in the heap — every sift
    /// stays shallow however far the stream is backed up, and the
    /// push itself is O(1) once the lane is non-empty. Delivery order
    /// relative to every other event is unchanged: ties at one instant
    /// are still FIFO by schedule order.
    ///
    /// ```
    /// use simnet::{Engine, SimTime};
    ///
    /// let mut engine = Engine::new();
    /// let lane = engine.add_lane();
    /// engine.schedule_at(SimTime::from_secs(2), "heap");
    /// engine.schedule_lane(lane, SimTime::from_secs(1), "early");
    /// engine.schedule_lane(lane, SimTime::from_secs(3), "late");
    /// let order: Vec<_> = std::iter::from_fn(|| engine.pop()).map(|(_, e)| e).collect();
    /// assert_eq!(order, ["early", "heap", "late"]);
    /// ```
    ///
    /// An event breaking monotonicity (earlier than the lane's newest
    /// entry) is placed on the heap instead — same delivery order,
    /// ordinary cost — so monotonicity is a performance hint, never a
    /// correctness obligation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, or if `lane`
    /// was not registered with this engine.
    pub fn schedule_lane(&mut self, lane: Lane, at: SimTime, event: E) {
        if self.lanes[lane.0 as usize]
            .back()
            .is_some_and(|tail| at < tail.at)
        {
            self.push_entry(at, NO_SLOT, event);
            return;
        }
        self.assert_not_past(at);
        let seq = self.next_seq();
        let queue = &mut self.lanes[lane.0 as usize];
        queue.push_back(LaneEntry { at, seq, event });
        if queue.len() == 1 {
            self.heap.push(HeapEntry {
                at,
                seq,
                slot: LANE_HEAD,
                idx: lane.0,
            });
            self.sift_up(self.heap.len() - 1);
        } else {
            self.lane_backlog += 1;
        }
    }

    /// Schedules `event` at `at` like [`Engine::schedule_at`], returning
    /// a token that can later [`Engine::cancel`] it. A cancelled event
    /// is never delivered and never counts as dispatched — this is how
    /// superseded transport timers are kept out of the dispatch path.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> CancelToken {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                assert!(
                    self.slots.len() < LANE_HEAD as usize,
                    "cancellable slots exhausted"
                );
                self.slots.push(SLOT_DEAD);
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.seq; // push_entry consumes this seq
        self.slots[slot as usize] = seq;
        self.push_entry(at, slot, event);
        CancelToken { slot, seq }
    }

    /// Cancels a pending event scheduled with
    /// [`Engine::schedule_cancellable`]. Returns `true` if the event was
    /// still pending (it will now never be delivered); `false` if it had
    /// already fired or been cancelled. O(1): the heap entry is
    /// tombstoned and silently discarded when it surfaces.
    pub fn cancel(&mut self, token: CancelToken) -> bool {
        let live = self
            .slots
            .get(token.slot as usize)
            .is_some_and(|&s| s == token.seq);
        if live {
            self.release_slot(token.slot);
            self.dead_pending += 1;
            // Keep the heap at most half tombstones: workloads that
            // cancel nearly everything they schedule (request deadlines
            // superseded by completions milliseconds later) would
            // otherwise drag a mostly-dead heap around for the full
            // timer horizon, paying deep sifts on every live pop.
            if self.dead_pending * 2 > self.heap.len() && self.heap.len() >= 64 {
                self.compact();
            }
        }
        live
    }

    /// Drops every tombstoned entry and restores the heap property over
    /// the survivors (lane heads are never tombstoned). O(len),
    /// amortized O(1) per cancellation by the half-dead trigger in
    /// [`Engine::cancel`]. Pop order is a total order on `(time, seq)`,
    /// so rebuilding cannot reorder deliveries.
    fn compact(&mut self) {
        let Engine {
            heap, slab, slots, ..
        } = self;
        heap.retain(|s| {
            let live = s.slot >= LANE_HEAD || slots[s.slot as usize] == s.seq;
            if !live {
                drop(slab.take(s.idx));
            }
            live
        });
        self.dead_pending = 0;
        if self.heap.len() > 1 {
            for i in (0..=(self.heap.len() - 2) / 4).rev() {
                self.sift_down(i);
            }
        }
    }

    fn push_entry(&mut self, at: SimTime, slot: u32, event: E) {
        self.assert_not_past(at);
        let seq = self.next_seq();
        let idx = self.slab.insert(event);
        self.heap.push(HeapEntry { at, seq, slot, idx });
        self.sift_up(self.heap.len() - 1);
    }

    /// Marks `slot` free for reuse (on cancellation or delivery).
    #[inline]
    fn release_slot(&mut self, slot: u32) {
        self.slots[slot as usize] = SLOT_DEAD;
        self.free_slots.push(slot);
    }

    /// Whether a heap entry is still deliverable.
    #[inline(always)]
    fn is_live(&self, s: &HeapEntry) -> bool {
        s.slot >= LANE_HEAD || self.slots[s.slot as usize] == s.seq
    }

    /// Discards cancelled entries sitting at the heap root, so the root
    /// (if any) is a deliverable event.
    #[inline]
    fn prune_dead_roots(&mut self) {
        while let Some(s) = self.heap.first() {
            if self.is_live(s) {
                break;
            }
            let s = self.pop_root().expect("peeked root exists");
            drop(self.slab.take(s.idx));
            self.dead_pending -= 1;
        }
    }

    /// Schedules `event` after a delay relative to the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Ordering key `(time, seq)` of the next deliverable event. Prunes
    /// cancelled heap entries, so the root is live afterwards.
    #[inline]
    fn next_key(&mut self) -> Option<(SimTime, u64)> {
        self.prune_dead_roots();
        self.heap.first().map(|s| (s.at, s.seq))
    }

    /// Removes the event behind the heap root. Caller must have just
    /// called [`Engine::next_key`], so the root exists and is live.
    #[inline]
    fn take_next(&mut self) -> E {
        let root = self.heap[0];
        debug_assert!(self.is_live(&root));
        if root.slot == LANE_HEAD {
            let queue = &mut self.lanes[root.idx as usize];
            let head = queue.pop_front().expect("lane head queued");
            debug_assert_eq!(head.seq, root.seq);
            match queue.front() {
                Some(next) => {
                    // The lane's next head is no earlier than the key it
                    // replaces: one sift-down restores the heap.
                    self.heap[0] = HeapEntry {
                        at: next.at,
                        seq: next.seq,
                        ..root
                    };
                    self.lane_backlog -= 1;
                    self.sift_down(0);
                }
                None => {
                    self.pop_root();
                }
            }
            return head.event;
        }
        self.pop_root();
        if root.slot != NO_SLOT {
            self.release_slot(root.slot);
        }
        self.slab.take(root.idx)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Cancelled entries are discarded silently.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, _) = self.next_key()?;
        let event = self.take_next();
        debug_assert!(at >= self.now);
        self.now = at;
        self.dispatched += 1;
        Some((at, event))
    }

    /// Pops the entire burst of events sharing the earliest timestamp
    /// into `buf` (appended in FIFO order), advances the clock to that
    /// instant, and returns it. Returns `None` (leaving `buf` untouched)
    /// when the queue is empty.
    ///
    /// ```
    /// use simnet::{Engine, SimTime};
    ///
    /// let mut engine = Engine::new();
    /// engine.schedule_at(SimTime::from_secs(1), "a");
    /// engine.schedule_at(SimTime::from_secs(1), "b");
    /// engine.schedule_at(SimTime::from_secs(2), "c");
    /// let mut burst = Vec::new();
    /// assert_eq!(engine.pop_batch(&mut burst), Some(SimTime::from_secs(1)));
    /// assert_eq!(burst, ["a", "b"]);
    /// ```
    pub fn pop_batch(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        let (t, _) = self.next_key()?;
        buf.push(self.take_next());
        self.dispatched += 1;
        while let Some((at, _)) = self.next_key() {
            if at != t {
                break;
            }
            buf.push(self.take_next());
            self.dispatched += 1;
        }
        self.now = t;
        Some(t)
    }

    /// Like [`Engine::pop_batch`], but only takes a burst at or before
    /// `deadline`; when the next deliverable event lies beyond it (or
    /// the queue is empty) the clock advances to `deadline` and `None`
    /// is returned. This is the driver-loop primitive:
    ///
    /// ```
    /// use simnet::{Engine, SimTime};
    ///
    /// let mut engine = Engine::new();
    /// engine.schedule_at(SimTime::from_secs(1), "a");
    /// engine.schedule_at(SimTime::from_secs(1), "b");
    /// engine.schedule_at(SimTime::from_secs(9), "late");
    /// let deadline = SimTime::from_secs(5);
    /// let mut burst = Vec::new();
    /// assert_eq!(engine.pop_batch_before(deadline, &mut burst), Some(SimTime::from_secs(1)));
    /// assert_eq!(burst, ["a", "b"]);
    /// burst.clear();
    /// assert_eq!(engine.pop_batch_before(deadline, &mut burst), None);
    /// assert_eq!(engine.now(), deadline);
    /// assert_eq!(engine.pending(), 1);
    /// ```
    pub fn pop_batch_before(&mut self, deadline: SimTime, buf: &mut Vec<E>) -> Option<SimTime> {
        match self.next_key() {
            Some((at, _)) if at <= deadline => self.pop_batch(buf),
            _ => {
                if self.now < deadline {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Discards all queued events without delivering them. Lanes stay
    /// registered, and the backing allocations are retained for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
        for queue in &mut self.lanes {
            queue.clear();
        }
        self.lane_backlog = 0;
        self.slab.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.dead_pending = 0;
    }

    /// Removes the minimum element, restoring the heap property.
    #[inline]
    fn pop_root(&mut self) -> Option<HeapEntry> {
        let len = self.heap.len();
        if len == 0 {
            return None;
        }
        let root = self.heap.swap_remove(0);
        if self.heap.len() > 1 {
            self.sift_down(0);
        }
        Some(root)
    }

    /// Moves `heap[idx]` towards the root until its parent is no later.
    /// Hole technique: parents shift down into the hole and the entry is
    /// written once at its final position.
    #[inline]
    fn sift_up(&mut self, mut idx: usize) {
        let entry = self.heap[idx];
        while idx > 0 {
            let parent = (idx - 1) / 4;
            if entry.before(&self.heap[parent]) {
                self.heap[idx] = self.heap[parent];
                idx = parent;
            } else {
                break;
            }
        }
        self.heap[idx] = entry;
    }

    /// Moves `heap[idx]` towards the leaves until no child is earlier.
    /// 4-ary: half the depth of a binary heap, and the up-to-four child
    /// keys scanned per level sit adjacent in memory.
    #[inline]
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.heap.len();
        let entry = self.heap[idx];
        loop {
            let first = 4 * idx + 1;
            if first >= len {
                break;
            }
            let best = if first + 4 <= len {
                // All four children: a two-round tournament, which the
                // branch-free key compares turn into conditional moves.
                let h = &self.heap[first..first + 4];
                let l = usize::from(h[1].before(&h[0]));
                let r = 2 + usize::from(h[3].before(&h[2]));
                first + if h[r].before(&h[l]) { r } else { l }
            } else {
                let mut best = first;
                for c in first + 1..len {
                    if self.heap[c].before(&self.heap[best]) {
                        best = c;
                    }
                }
                best
            };
            if self.heap[best].before(&entry) {
                self.heap[idx] = self.heap[best];
                idx = best;
            } else {
                break;
            }
        }
        self.heap[idx] = entry;
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(3), "c");
        e.schedule_at(SimTime::from_secs(1), "a");
        e.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut e = Engine::new();
        for i in 0..100 {
            e.schedule_at(SimTime::from_secs(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(9), ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs(9));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(5), ());
        e.pop();
        e.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_batch_before_respects_deadline_and_advances_clock() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), 1);
        e.schedule_at(SimTime::from_secs(3), 3);
        e.schedule_at(SimTime::from_secs(10), 2);
        let deadline = SimTime::from_secs(5);
        let mut seen = vec![];
        while e.pop_batch_before(deadline, &mut seen).is_some() {}
        assert_eq!(seen, [1, 3]);
        assert_eq!(e.now(), deadline);
        assert_eq!(e.pending(), 1);
        // The remaining event is still deliverable later.
        seen.clear();
        assert_eq!(
            e.pop_batch_before(SimTime::from_secs(20), &mut seen),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(seen, [2]);
        // A deadline behind the clock leaves it where it is.
        assert_eq!(e.pop_batch_before(deadline, &mut seen), None);
        assert_eq!(e.now(), SimTime::from_secs(10));
    }

    #[test]
    fn dispatched_counts_deliveries() {
        let mut e = Engine::new();
        e.schedule_in(SimDuration::from_secs(1), ());
        e.schedule_in(SimDuration::from_secs(2), ());
        e.pop();
        assert_eq!(e.dispatched(), 1);
        e.pop();
        assert_eq!(e.dispatched(), 2);
    }

    #[test]
    fn pop_batch_takes_exactly_the_earliest_instant() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(2), 20);
        e.schedule_at(SimTime::from_secs(1), 10);
        e.schedule_at(SimTime::from_secs(1), 11);
        e.schedule_at(SimTime::from_secs(1), 12);
        let mut burst = Vec::new();
        assert_eq!(e.pop_batch(&mut burst), Some(SimTime::from_secs(1)));
        assert_eq!(burst, [10, 11, 12]);
        assert_eq!(e.now(), SimTime::from_secs(1));
        assert_eq!(e.pending(), 1);
        assert_eq!(e.dispatched(), 3);
        burst.clear();
        assert_eq!(e.pop_batch(&mut burst), Some(SimTime::from_secs(2)));
        assert_eq!(burst, [20]);
        assert_eq!(e.pop_batch(&mut burst), None);
    }

    #[test]
    fn cancelled_event_is_never_delivered() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), "a");
        let tok = e.schedule_cancellable(SimTime::from_secs(2), "cancelled");
        e.schedule_at(SimTime::from_secs(3), "c");
        assert_eq!(e.pending(), 3);
        assert!(e.cancel(tok));
        assert_eq!(e.pending(), 2);
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, ["a", "c"]);
        assert_eq!(e.dispatched(), 2);
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut e = Engine::new();
        let tok = e.schedule_cancellable(SimTime::from_secs(1), ());
        assert_eq!(e.pop().unwrap().0, SimTime::from_secs(1));
        assert!(!e.cancel(tok));
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut e = Engine::new();
        let tok = e.schedule_cancellable(SimTime::from_secs(1), ());
        assert!(e.cancel(tok));
        assert!(!e.cancel(tok));
        assert_eq!(e.pending(), 0);
        assert!(e.pop().is_none());
    }

    #[test]
    fn stale_token_does_not_cancel_slot_reuser() {
        let mut e = Engine::new();
        let old = e.schedule_cancellable(SimTime::from_secs(1), "old");
        assert!(e.cancel(old));
        // The freed slot is reused by the next cancellable entry; the old
        // token must not be able to kill it.
        let _new = e.schedule_cancellable(SimTime::from_secs(2), "new");
        assert!(!e.cancel(old));
        assert_eq!(e.pop().unwrap().1, "new");
    }

    #[test]
    fn fifo_order_is_unaffected_by_interleaved_cancellations() {
        let mut e = Engine::new();
        let t = SimTime::from_secs(4);
        let mut tokens = Vec::new();
        for i in 0..20 {
            if i % 3 == 0 {
                tokens.push(e.schedule_cancellable(t, i));
            } else {
                e.schedule_at(t, i);
            }
        }
        for tok in tokens {
            assert!(e.cancel(tok));
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        let expect: Vec<_> = (0..20).filter(|i| i % 3 != 0).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn pop_batch_and_drain_skip_cancelled_entries() {
        let build = |cancel: bool| {
            let mut e = Engine::new();
            e.schedule_at(SimTime::from_secs(1), 0);
            let tok = e.schedule_cancellable(SimTime::from_secs(1), 99);
            e.schedule_at(SimTime::from_secs(1), 1);
            let tok2 = e.schedule_cancellable(SimTime::from_secs(2), 98);
            e.schedule_at(SimTime::from_secs(3), 2);
            if cancel {
                assert!(e.cancel(tok));
                assert!(e.cancel(tok2));
            }
            e
        };
        let mut e = build(true);
        let mut burst = Vec::new();
        assert_eq!(e.pop_batch(&mut burst), Some(SimTime::from_secs(1)));
        assert_eq!(burst, [0, 1]);
        // The instant-2 entry is cancelled, so the next burst is at t=3.
        burst.clear();
        assert_eq!(e.pop_batch(&mut burst), Some(SimTime::from_secs(3)));
        assert_eq!(burst, [2]);
        assert_eq!(e.dispatched(), 3);

        let mut d = build(true);
        let mut seen = Vec::new();
        let mut instants = Vec::new();
        while let Some(t) = d.pop_batch_before(SimTime::from_secs(10), &mut seen) {
            instants.push(t);
        }
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!(instants, [SimTime::from_secs(1), SimTime::from_secs(3)]);
        assert_eq!(d.now(), SimTime::from_secs(10));
    }

    #[test]
    fn pop_batch_before_advances_past_cancelled_tail() {
        let mut e = Engine::new();
        let tok = e.schedule_cancellable(SimTime::from_secs(1), ());
        assert!(e.cancel(tok));
        let mut burst = Vec::new();
        let deadline = SimTime::from_secs(5);
        assert_eq!(e.pop_batch_before(deadline, &mut burst), None);
        assert!(burst.is_empty());
        assert_eq!(e.now(), deadline);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn uncancelled_cancellable_events_deliver_normally() {
        let mut e = Engine::new();
        let _tok = e.schedule_cancellable(SimTime::from_secs(1), "kept");
        assert_eq!(e.pop(), Some((SimTime::from_secs(1), "kept")));
        assert_eq!(e.dispatched(), 1);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut e = Engine::with_capacity(64);
        for i in 0..40 {
            e.schedule_at(SimTime::from_secs(i), i);
        }
        let cap = e.heap.capacity();
        e.clear();
        assert_eq!(e.pending(), 0);
        assert!(e.heap.capacity() >= cap);
    }

    #[test]
    fn lane_merges_with_heap_in_global_order() {
        // Interleave heap and lane scheduling; delivery must follow the
        // single global (time, insertion-seq) order exactly as if
        // everything had gone through the heap.
        let mut e = Engine::new();
        let lane = e.add_lane();
        e.schedule_at(SimTime::from_secs(2), "heap-2");
        e.schedule_lane(lane, SimTime::from_secs(1), "lane-1");
        e.schedule_at(SimTime::from_secs(3), "heap-3a");
        e.schedule_lane(lane, SimTime::from_secs(3), "lane-3");
        e.schedule_at(SimTime::from_secs(3), "heap-3b");
        assert_eq!(e.pending(), 5);
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, ["lane-1", "heap-2", "heap-3a", "lane-3", "heap-3b"]);
        assert_eq!(e.dispatched(), 5);
    }

    #[test]
    fn lane_out_of_order_push_falls_back_to_heap() {
        // A lane is a performance hint, not a contract: a timestamp
        // below the lane's tail is routed to the heap and still
        // delivers in time order.
        let mut e = Engine::new();
        let lane = e.add_lane();
        e.schedule_lane(lane, SimTime::from_secs(10), "late");
        e.schedule_lane(lane, SimTime::from_secs(5), "early");
        assert_eq!(e.lanes[0].len(), 1);
        assert_eq!(e.pending(), 2);
        assert_eq!(e.pop(), Some((SimTime::from_secs(5), "early")));
        assert_eq!(e.pop(), Some((SimTime::from_secs(10), "late")));
    }

    #[test]
    fn lane_ties_preserve_submission_order() {
        let mut e = Engine::new();
        let lanes = [e.add_lane(), e.add_lane()];
        let t = SimTime::from_secs(4);
        for i in 0..60 {
            match i % 3 {
                0 => e.schedule_at(t, i),
                k => e.schedule_lane(lanes[k - 1], t, i),
            }
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn each_nonempty_lane_keeps_exactly_its_head_in_the_heap() {
        let mut e = Engine::new();
        let lanes: Vec<_> = (0..4).map(|_| e.add_lane()).collect();
        for (k, lane) in lanes.iter().enumerate() {
            for i in 0..100u64 {
                e.schedule_lane(*lane, SimTime::from_nanos(i * 10 + k as u64), (k, i));
            }
        }
        e.schedule_at(SimTime::from_nanos(5), (9, 0));
        assert_eq!(e.heap.len(), 5, "four lane heads plus one heap event");
        assert_eq!(e.pending(), 401);
        assert_eq!(e.next_key().map(|(at, _)| at), Some(SimTime::ZERO));
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((at, _)) = e.pop() {
            assert!(at >= last);
            last = at;
            n += 1;
            assert_eq!(e.pending(), 401 - n);
            assert!(e.heap.len() <= 5);
        }
        assert_eq!(n, 401);
        assert!(e.heap.is_empty());
        assert_eq!(e.lane_backlog, 0);
    }

    #[test]
    fn batch_and_drain_cover_lanes() {
        let mut e = Engine::new();
        let lane = e.add_lane();
        e.schedule_lane(lane, SimTime::from_secs(1), 1);
        e.schedule_at(SimTime::from_secs(1), 2);
        e.schedule_lane(lane, SimTime::from_secs(2), 3);
        let mut burst = Vec::new();
        assert_eq!(e.pop_batch(&mut burst), Some(SimTime::from_secs(1)));
        assert_eq!(burst, [1, 2]);
        let mut rest = Vec::new();
        while e
            .pop_batch_before(SimTime::from_secs(5), &mut rest)
            .is_some()
        {}
        assert_eq!(rest, [3]);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn compaction_keeps_lane_heads() {
        let mut e = Engine::new();
        let lane = e.add_lane();
        for i in 0..10u64 {
            e.schedule_lane(lane, SimTime::from_secs(i), i);
        }
        let tokens: Vec<_> = (0..200u64)
            .map(|i| e.schedule_cancellable(SimTime::from_nanos(i), 1_000 + i))
            .collect();
        for t in tokens {
            assert!(e.cancel(t));
        }
        // The mass cancel compacted the heap (it stops below 64 keys);
        // the lane head survived every rebuild.
        assert!(e.heap.len() < 64);
        assert_eq!(e.pending(), 10);
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clear_empties_lanes_but_keeps_them_registered() {
        let mut e = Engine::new();
        let lane = e.add_lane();
        e.schedule_lane(lane, SimTime::from_secs(1), 1);
        e.schedule_lane(lane, SimTime::from_secs(2), 2);
        e.schedule_at(SimTime::from_secs(2), 3);
        e.clear();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.pop(), None);
        e.schedule_lane(lane, SimTime::from_secs(3), 4);
        assert_eq!(e.pop(), Some((SimTime::from_secs(3), 4)));
    }

    mod model {
        //! The engine against a `BTreeMap<(time, seq), event>` model:
        //! random interleavings of every scheduling, cancelling and
        //! popping primitive, lanes included.

        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const LANES: usize = 3;

        /// The reference queue: live events keyed by `(time, seq)`;
        /// the payload is the event's seq.
        #[derive(Default)]
        struct Model {
            queue: BTreeMap<(SimTime, u64), u64>,
            now: SimTime,
            seq: u64,
            dispatched: u64,
        }

        impl Model {
            fn push(&mut self, at: SimTime) -> (SimTime, u64) {
                let key = (at, self.seq);
                self.queue.insert(key, self.seq);
                self.seq += 1;
                key
            }

            fn pop(&mut self) -> Option<(SimTime, u64)> {
                let ((at, _), v) = self.queue.pop_first()?;
                self.now = at;
                self.dispatched += 1;
                Some((at, v))
            }

            fn next_time(&self) -> Option<SimTime> {
                self.queue.keys().next().map(|k| k.0)
            }
        }

        proptest! {
            #[test]
            fn engine_matches_a_sorted_map_model(
                ops in prop::collection::vec((0u8..10, 0u64..1_000, 0u64..1_000), 1..400),
            ) {
                let mut e: Engine<u64> = Engine::new();
                let lanes: Vec<Lane> = (0..LANES).map(|_| e.add_lane()).collect();
                let mut tails = [SimTime::ZERO; LANES];
                let mut m = Model::default();
                let mut tokens: Vec<(CancelToken, (SimTime, u64))> = Vec::new();
                for (op, a, b) in ops {
                    let now = e.now();
                    prop_assert_eq!(now, m.now);
                    match op {
                        0 => {
                            let at = now + SimDuration::from_nanos(a % 50);
                            e.schedule_at(at, m.seq);
                            m.push(at);
                        }
                        1 | 2 => {
                            // One timer, or a burst of sixteen that a
                            // later mass cancel turns into tombstones.
                            let n = if op == 1 { 1 } else { 16 };
                            for i in 0..n {
                                let at = now + SimDuration::from_nanos((a + i * b) % 50);
                                let tok = e.schedule_cancellable(at, m.seq);
                                tokens.push((tok, m.push(at)));
                            }
                        }
                        3 if !tokens.is_empty() => {
                            let (tok, key) = tokens[(b as usize) % tokens.len()];
                            let live = m.queue.remove(&key).is_some();
                            prop_assert_eq!(e.cancel(tok), live);
                        }
                        4 => {
                            // Mass cancel: drives the tombstone count past
                            // half the heap, so `compact` runs.
                            for (tok, key) in tokens.drain(..) {
                                let live = m.queue.remove(&key).is_some();
                                prop_assert_eq!(e.cancel(tok), live);
                            }
                        }
                        5 | 6 => {
                            // Monotone lane push; every eighth one is
                            // deliberately earlier than the lane's tail.
                            let k = (b as usize) % LANES;
                            let at = if a % 8 == 0 {
                                now + SimDuration::from_nanos(a % 13)
                            } else {
                                tails[k].max(now) + SimDuration::from_nanos(a % 20)
                            };
                            tails[k] = tails[k].max(at);
                            e.schedule_lane(lanes[k], at, m.seq);
                            m.push(at);
                        }
                        7 => {
                            prop_assert_eq!(e.pop(), m.pop());
                        }
                        8 => {
                            let deadline = now + SimDuration::from_nanos(a % 30);
                            let mut burst = Vec::new();
                            let got = e.pop_batch_before(deadline, &mut burst);
                            match m.next_time().filter(|t| *t <= deadline) {
                                Some(t) => {
                                    let mut expect = Vec::new();
                                    while m.next_time() == Some(t) {
                                        expect.push(m.pop().unwrap().1);
                                    }
                                    prop_assert_eq!(got, Some(t));
                                    prop_assert_eq!(&burst, &expect);
                                }
                                None => {
                                    prop_assert_eq!(got, None);
                                    prop_assert!(burst.is_empty());
                                    m.now = m.now.max(deadline);
                                }
                            }
                        }
                        _ => {
                            // The driver loop: bursts until the deadline.
                            let deadline = now + SimDuration::from_nanos(a % 30);
                            let mut expect = Vec::new();
                            while m.next_time().is_some_and(|t| t <= deadline) {
                                expect.push(m.pop().unwrap());
                            }
                            m.now = m.now.max(deadline);
                            let mut got = Vec::new();
                            let mut burst = Vec::new();
                            while let Some(t) = e.pop_batch_before(deadline, &mut burst) {
                                got.extend(burst.drain(..).map(|v| (t, v)));
                            }
                            prop_assert_eq!(&got, &expect);
                        }
                    }
                    prop_assert_eq!(e.pending(), m.queue.len());
                    prop_assert_eq!(e.dispatched(), m.dispatched);
                }
                // Whatever is left drains in model order.
                while let Some(expect) = m.pop() {
                    prop_assert_eq!(e.pop(), Some(expect));
                }
                prop_assert_eq!(e.pop(), None);
                prop_assert_eq!(e.pending(), 0);
            }
        }
    }
}
