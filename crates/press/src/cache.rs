//! Cooperative caching: the per-node LRU file cache, the cluster-wide
//! caching directory each node maintains from its peers' announcements,
//! and the [`DigestLog`] that batches this node's own announcements
//! under [`CacheSyncImpl::Digest`](crate::CacheSyncImpl::Digest).
//!
//! Both structures sit on the request path of every node, and the
//! directory holds one slot per file of the whole document set, so both
//! are flat: the directory is one zero-initialised 4-byte slot per file
//! (allocated as zeroed memory, so pages no file has touched never
//! become resident), and the cache is a slab of `u32`-linked list nodes
//! indexed by file id.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use simnet::fabric::NodeId;

use crate::msg::FileId;

/// Largest cluster the directory can describe: a holder is stored as
/// its id + 1 in a `u16`.
pub const MAX_NODES: usize = u16::MAX as usize;

/// Hasher for simulator-chosen integer file ids: one multiply
/// (Fibonacci hashing) instead of SipHash's rounds. The keys are never
/// adversarial, and the maps using it are only looked up by key, never
/// iterated, so the hash cannot leak into any output.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(FIBONACCI);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<V> = HashMap<FileId, V, BuildHasherDefault<IdHasher>>;

/// End-of-list marker for [`LruCache`] links.
const NIL: u32 = u32::MAX;

/// One cached file in the [`LruCache`] slab, linked towards the least
/// (`prev`) and most (`next`) recently used ends. A freed slot is
/// chained to the next free one through `next`.
#[derive(Debug, Clone, Copy)]
struct Link {
    file: FileId,
    prev: u32,
    next: u32,
}

/// A least-recently-used cache of equally sized files.
///
/// Capacity is expressed in entries (the trace normalizes all files to
/// the same size, §5.1).
///
/// # Example
///
/// ```
/// use press::cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// assert_eq!(cache.insert(1), None);
/// assert_eq!(cache.insert(2), None);
/// cache.touch(1); // 1 is now most recent
/// assert_eq!(cache.insert(3), Some(2)); // 2 was least recent
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    links: Vec<Link>,
    /// Head of the free-slot chain.
    free: u32,
    /// Least recently used file's slot.
    head: u32,
    /// Most recently used file's slot.
    tail: u32,
    index: IdMap<u32>,
}

impl LruCache {
    /// A cache holding up to `capacity` files.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the `u32` links.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "cache capacity must be below {NIL} entries (got {capacity})"
        );
        LruCache {
            capacity,
            links: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            index: IdMap::default(),
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `file` is cached (does not refresh recency).
    pub fn contains(&self, file: FileId) -> bool {
        self.index.contains_key(&file)
    }

    /// Marks `file` most recently used. Returns `false` if absent.
    pub fn touch(&mut self, file: FileId) -> bool {
        let Some(&slot) = self.index.get(&file) else {
            return false;
        };
        if slot != self.tail {
            self.unlink(slot);
            self.push_back(slot);
        }
        true
    }

    /// Inserts `file` as most recently used, returning the evicted file
    /// if the cache was full. Re-inserting refreshes recency and evicts
    /// nothing.
    pub fn insert(&mut self, file: FileId) -> Option<FileId> {
        if self.touch(file) {
            return None;
        }
        let evicted = if self.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let slot = if self.free == NIL {
            self.links.push(Link {
                file,
                prev: NIL,
                next: NIL,
            });
            (self.links.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.links[slot as usize].next;
            self.links[slot as usize].file = file;
            slot
        };
        self.push_back(slot);
        self.index.insert(file, slot);
        evicted
    }

    /// Removes `file`; returns whether it was present.
    pub fn remove(&mut self, file: FileId) -> bool {
        let Some(slot) = self.index.remove(&file) else {
            return false;
        };
        self.unlink(slot);
        self.release(slot);
        true
    }

    /// Removes and returns the least recently used file.
    pub fn pop_lru(&mut self) -> Option<FileId> {
        let slot = self.head;
        if slot == NIL {
            return None;
        }
        let file = self.links[slot as usize].file;
        self.unlink(slot);
        self.release(slot);
        self.index.remove(&file);
        Some(file)
    }

    /// All cached files, least recently used first.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            // `NIL` lies past the end of any slab `new` allows.
            let link = self.links.get(at as usize)?;
            at = link.next;
            Some(link.file)
        })
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.links.clear();
        self.index.clear();
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let Link { prev, next, .. } = self.links[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
    }

    fn push_back(&mut self, slot: u32) {
        let link = &mut self.links[slot as usize];
        link.prev = self.tail;
        link.next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.links[self.tail as usize].next = slot;
        }
        self.tail = slot;
    }

    fn release(&mut self, slot: u32) {
        self.links[slot as usize].next = self.free;
        self.free = slot;
    }
}

/// Holder ids a directory slot stores inline.
const INLINE: usize = 2;

/// The slot of a file whose holders live in the spill map. No inline
/// slot takes this pattern: inline cells fill front to back, so an
/// empty first cell always has an empty cell after it.
const SPILLED: [u16; INLINE] = [0, u16::MAX];

/// A node's view of who caches what, maintained from `CacheAdd` /
/// `CacheEvict` broadcasts and digests.
///
/// Each file owns one 4-byte slot of two `u16` cells, each holding a
/// holder's id + 1, with 0 meaning empty. A file with more than two
/// holders keeps all of them in a side map instead, which is only ever
/// looked up by file id, and its slot holds the `SPILLED` marker.
/// Holders are kept in insertion order; removal preserves the order of
/// the rest.
///
/// # Example
///
/// ```
/// use press::cache::Directory;
/// use simnet::fabric::NodeId;
///
/// let mut d = Directory::new(10);
/// d.add(5, NodeId(2));
/// d.add(5, NodeId(0));
/// assert!(d.holders(5).eq([NodeId(2), NodeId(0)]));
/// assert_eq!(d.entries(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    /// Per file: up to [`INLINE`] cells of id + 1, filled front to back
    /// with zeros after them, or [`SPILLED`].
    slots: Vec<[u16; INLINE]>,
    /// The cells of every file with more than [`INLINE`] holders.
    spill: IdMap<Vec<u16>>,
    entries: usize,
}

impl Directory {
    /// An empty directory over `files` file ids.
    pub fn new(files: u32) -> Self {
        Directory {
            // An all-zero array element makes this one zeroed
            // allocation, not a per-slot fill.
            slots: vec![[0; INLINE]; files as usize],
            spill: IdMap::default(),
            entries: 0,
        }
    }

    /// Records that `node` caches `file`.
    ///
    /// # Panics
    ///
    /// Panics if `node`'s id is not below [`MAX_NODES`].
    pub fn add(&mut self, file: FileId, node: NodeId) {
        let cell = cell(node).unwrap_or_else(|| {
            panic!(
                "node id {} does not fit the cache directory, which holds at most {MAX_NODES} nodes",
                node.0
            )
        });
        let slot = &mut self.slots[file as usize];
        if *slot == SPILLED {
            let cells = self
                .spill
                .get_mut(&file)
                .expect("a spilled file has a spill entry");
            if cells.contains(&cell) {
                return;
            }
            cells.push(cell);
        } else if let Some(at) = slot.iter().position(|&c| c == 0 || c == cell) {
            if slot[at] == cell {
                return;
            }
            slot[at] = cell;
        } else {
            let mut cells = Vec::with_capacity(2 * INLINE);
            cells.extend_from_slice(slot);
            cells.push(cell);
            *slot = SPILLED;
            self.spill.insert(file, cells);
        }
        self.entries += 1;
    }

    /// Records that `node` no longer caches `file`.
    pub fn remove(&mut self, file: FileId, node: NodeId) {
        if let Some(cell) = cell(node) {
            self.remove_cell(file, cell);
        }
    }

    /// Nodes believed to cache `file`, in the order they were added.
    pub fn holders(&self, file: FileId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.cells(file).iter().map(|&c| NodeId(usize::from(c) - 1))
    }

    /// Forgets everything a departed node cached, in one pass over the
    /// slots: inline cells are cleared in place, and only spilled files
    /// go through the spill map.
    pub fn drop_node(&mut self, node: NodeId) {
        let Some(cell) = cell(node) else {
            return;
        };
        for file in 0..self.slots.len() {
            let slot = &mut self.slots[file];
            if slot[0] == cell {
                *slot = [slot[1], 0];
            } else if slot[1] == cell && slot[0] != 0 {
                // `slot[0] != 0` tells an inline second holder from the
                // largest id's cell in the spill marker.
                slot[1] = 0;
            } else {
                if *slot == SPILLED {
                    self.remove_cell(file as FileId, cell);
                }
                continue;
            }
            self.entries -= 1;
        }
    }

    /// Total (file, holder) entries — diagnostics.
    pub fn entries(&self) -> usize {
        self.entries
    }

    fn cells(&self, file: FileId) -> &[u16] {
        let slot = &self.slots[file as usize];
        if *slot == SPILLED {
            &self.spill[&file]
        } else {
            let len = slot.iter().take_while(|&&c| c != 0).count();
            &slot[..len]
        }
    }

    fn remove_cell(&mut self, file: FileId, cell: u16) {
        let slot = &mut self.slots[file as usize];
        if *slot == SPILLED {
            let cells = self
                .spill
                .get_mut(&file)
                .expect("a spilled file has a spill entry");
            let Some(at) = cells.iter().position(|&c| c == cell) else {
                return;
            };
            cells.remove(at);
            if cells.len() == INLINE {
                slot.copy_from_slice(cells);
                self.spill.remove(&file);
            }
        } else {
            let Some(at) = slot.iter().position(|&c| c == cell) else {
                return;
            };
            slot.copy_within(at + 1.., at);
            slot[INLINE - 1] = 0;
        }
        self.entries -= 1;
    }
}

/// `node`'s cell value, or `None` if no directory can hold it.
fn cell(node: NodeId) -> Option<u16> {
    (node.0 < MAX_NODES).then(|| node.0 as u16 + 1)
}

/// Caching deltas awaiting digest flushes.
#[derive(Debug, Default)]
pub struct DigestLog {
    /// Coalesced deltas keyed by file: whether the file is now cached
    /// here, and the generation the delta was recorded at.
    deltas: BTreeMap<FileId, (bool, u64)>,
    /// Monotonic generation stamped on each recorded delta.
    gen: u64,
    /// Round-robin flush position over the sorted peer list.
    cursor: usize,
    /// Highest generation each peer has been sent a digest through.
    seen: BTreeMap<NodeId, u64>,
}

impl DigestLog {
    /// Records one caching action. A file cached and evicted between
    /// flushes coalesces to a single (idempotent) evict.
    pub fn record(&mut self, file: FileId, cached: bool) {
        self.gen += 1;
        self.deltas.insert(file, (cached, self.gen));
    }

    /// One digest period over `peers` (sorted): offers each of the next
    /// `fanout` of them, round-robin, every delta it has not seen as one
    /// batch of adds and evicts, then drops the deltas every peer has
    /// seen. `send` reports whether the transport took the batch. Only
    /// then does the watermark advance: a refused batch retries in full
    /// on the peer's next turn, so congestion or an unreachable peer can
    /// delay convergence but never silently lose deltas.
    pub fn flush(
        &mut self,
        peers: &[NodeId],
        fanout: usize,
        mut send: impl FnMut(NodeId, Vec<FileId>, Vec<FileId>) -> bool,
    ) {
        if peers.is_empty() || self.deltas.is_empty() {
            return;
        }
        for _ in 0..fanout.clamp(1, peers.len()) {
            self.cursor %= peers.len();
            let peer = peers[self.cursor];
            self.cursor += 1;
            let seen = self.seen_by(peer);
            let (mut adds, mut evicts) = (Vec::new(), Vec::new());
            for (&file, &(cached, gen)) in &self.deltas {
                if gen > seen {
                    (if cached { &mut adds } else { &mut evicts }).push(file);
                }
            }
            // With nothing newer than the watermark, advancing it is free.
            let caught_up = adds.is_empty() && evicts.is_empty();
            if caught_up || send(peer, adds, evicts) {
                self.seen.insert(peer, self.gen);
            }
        }
        let floor = self.floor(peers);
        self.deltas.retain(|_, (_, gen)| *gen > floor);
    }

    /// Files with deltas not yet sent to every one of `peers`.
    pub fn pending(&self, peers: &[NodeId]) -> Vec<FileId> {
        let floor = self.floor(peers);
        self.deltas
            .iter()
            .filter(|(_, (_, gen))| *gen > floor)
            .map(|(f, _)| *f)
            .collect()
    }

    fn seen_by(&self, peer: NodeId) -> u64 {
        self.seen.get(&peer).copied().unwrap_or(0)
    }

    /// The highest generation every one of `peers` has been sent.
    fn floor(&self, peers: &[NodeId]) -> u64 {
        peers
            .iter()
            .map(|p| self.seen_by(*p))
            .min()
            .unwrap_or(self.gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(3);
        for f in [1, 2, 3] {
            assert_eq!(c.insert(f), None);
        }
        assert_eq!(c.insert(4), Some(1));
        assert!(c.contains(4) && !c.contains(1));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.touch(1));
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn remove_and_pop_lru() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert!(c.remove(2));
        assert!(!c.remove(2));
        assert_eq!(c.pop_lru(), Some(1));
        assert_eq!(c.pop_lru(), Some(3));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn touch_on_absent_is_false() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(7));
    }

    #[test]
    fn files_iterates_in_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1);
        let order: Vec<FileId> = c.files().collect();
        assert_eq!(order, [2, 3, 1]);
    }

    #[test]
    fn directory_tracks_holders() {
        let mut d = Directory::new(10);
        d.add(5, NodeId(0));
        d.add(5, NodeId(2));
        d.add(5, NodeId(0)); // duplicate ignored
        assert!(d.holders(5).eq([NodeId(0), NodeId(2)]));
        d.remove(5, NodeId(0));
        assert!(d.holders(5).eq([NodeId(2)]));
        assert_eq!(d.entries(), 1);
    }

    #[test]
    fn directory_drop_node_clears_all_entries() {
        let mut d = Directory::new(4);
        for f in 0..4 {
            d.add(f, NodeId(1));
            d.add(f, NodeId(3));
        }
        d.drop_node(NodeId(3));
        for f in 0..4 {
            assert!(d.holders(f).eq([NodeId(1)]));
        }
        assert_eq!(d.entries(), 4);
    }

    #[test]
    fn directory_drop_node_clears_first_second_and_spilled_cells() {
        let top = NodeId(MAX_NODES - 1);
        let mut d = Directory::new(5);
        d.add(0, NodeId(2)); // first cell of two
        d.add(0, NodeId(1));
        d.add(1, NodeId(1)); // second cell of two
        d.add(1, NodeId(2));
        d.add(2, NodeId(2)); // sole holder
        for n in [NodeId(4), NodeId(2), NodeId(5)] {
            d.add(3, n); // three holders: spilled
        }
        d.add(4, NodeId(3)); // untouched
        d.add(4, top);
        d.drop_node(NodeId(2));
        assert!(d.holders(0).eq([NodeId(1)]));
        assert!(d.holders(1).eq([NodeId(1)]));
        assert_eq!(d.holders(2).len(), 0);
        assert!(d.holders(3).eq([NodeId(4), NodeId(5)]));
        assert!(d.spill.is_empty(), "two holders go back inline");
        assert_eq!(d.slots[3], [5, 6]);
        assert!(d.holders(4).eq([NodeId(3), top]));
        assert_eq!(d.entries(), 6);
        // The largest id is never mistaken for the spill marker's cell.
        for n in [NodeId(7), NodeId(8), top] {
            d.add(2, n);
        }
        d.drop_node(top);
        assert!(d.holders(2).eq([NodeId(7), NodeId(8)]));
        assert!(d.holders(4).eq([NodeId(3)]));
        assert!(d.spill.is_empty());
        assert_eq!(d.entries(), 7);
    }

    #[test]
    fn directory_spills_and_returns_inline_in_order() {
        let mut d = Directory::new(2);
        for n in [4, 1, 7, 0, 9] {
            d.add(1, NodeId(n));
        }
        assert!(d.holders(1).eq([4, 1, 7, 0, 9].map(NodeId)));
        d.remove(1, NodeId(1));
        d.remove(1, NodeId(9));
        assert!(d.holders(1).eq([4, 7, 0].map(NodeId)));
        assert_eq!(d.spill.len(), 1, "three holders stay spilled");
        d.remove(1, NodeId(7));
        assert!(d.holders(1).eq([4, 0].map(NodeId)));
        assert!(d.spill.is_empty());
        assert_eq!(d.entries(), 2);
        assert_eq!(d.holders(0).len(), 0);
    }

    /// The largest id's cell, 65,535, is the spill marker's second cell:
    /// it must still read back as a holder wherever it sits.
    #[test]
    fn directory_accepts_the_largest_node_id() {
        let top = NodeId(MAX_NODES - 1);
        let mut d = Directory::new(1);
        d.add(0, top);
        assert!(d.holders(0).eq([top]));
        d.remove(0, top);
        d.add(0, NodeId(0));
        d.add(0, top);
        assert!(d.holders(0).eq([NodeId(0), top]));
        d.remove(0, NodeId(0));
        assert!(d.holders(0).eq([top]));
        assert!(d.spill.is_empty());
        assert_eq!(d.entries(), 1);
    }

    #[test]
    fn directory_slots_take_four_bytes_per_file() {
        for n in [0, 1, 240_000] {
            let d = Directory::new(n);
            assert_eq!(std::mem::size_of_val(d.slots.as_slice()), 4 * n as usize);
            assert_eq!(d.slots.capacity(), n as usize);
        }
    }

    #[test]
    #[should_panic(expected = "at most 65535 nodes")]
    fn directory_rejects_a_node_id_beyond_u16() {
        Directory::new(1).add(0, NodeId(MAX_NODES));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_cache_is_rejected() {
        LruCache::new(0);
    }

    /// The directory as it was first written: one vector per file.
    struct ModelDirectory(Vec<Vec<NodeId>>);

    impl ModelDirectory {
        fn add(&mut self, file: FileId, node: NodeId) {
            let h = &mut self.0[file as usize];
            if !h.contains(&node) {
                h.push(node);
            }
        }

        fn remove(&mut self, file: FileId, node: NodeId) {
            self.0[file as usize].retain(|n| *n != node);
        }

        fn drop_node(&mut self, node: NodeId) {
            for h in &mut self.0 {
                h.retain(|n| *n != node);
            }
        }
    }

    /// The cache as it was first written: recency ticks in a hash map
    /// and a B-tree ordered by tick.
    struct ModelLru {
        capacity: usize,
        tick: u64,
        by_file: HashMap<FileId, u64>,
        by_age: BTreeMap<u64, FileId>,
    }

    impl ModelLru {
        fn new(capacity: usize) -> Self {
            ModelLru {
                capacity,
                tick: 0,
                by_file: HashMap::new(),
                by_age: BTreeMap::new(),
            }
        }

        fn touch(&mut self, file: FileId) -> bool {
            let Some(age) = self.by_file.get(&file).copied() else {
                return false;
            };
            self.by_age.remove(&age);
            self.tick += 1;
            self.by_age.insert(self.tick, file);
            self.by_file.insert(file, self.tick);
            true
        }

        fn insert(&mut self, file: FileId) -> Option<FileId> {
            if self.touch(file) {
                return None;
            }
            let evicted = if self.by_file.len() >= self.capacity {
                let (_, victim) = self.by_age.pop_first().expect("full, so nonempty");
                self.by_file.remove(&victim);
                Some(victim)
            } else {
                None
            };
            self.tick += 1;
            self.by_age.insert(self.tick, file);
            self.by_file.insert(file, self.tick);
            evicted
        }

        fn remove(&mut self, file: FileId) -> bool {
            match self.by_file.remove(&file) {
                Some(age) => self.by_age.remove(&age).is_some(),
                None => false,
            }
        }

        fn pop_lru(&mut self) -> Option<FileId> {
            let (_, victim) = self.by_age.pop_first()?;
            self.by_file.remove(&victim);
            Some(victim)
        }

        fn files(&self) -> Vec<FileId> {
            self.by_age.values().copied().collect()
        }

        fn clear(&mut self) {
            self.by_file.clear();
            self.by_age.clear();
        }
    }

    const FILES: u32 = 6;

    proptest! {
        /// Random add/remove/drop_node sequences give the same holders,
        /// in the same order, and the same entry count as one vector per
        /// file. Few files and up to 64 nodes push files well past the
        /// inline capacity; the second half of each sequence is
        /// removal-heavy, so they shrink back inline too. One pick in
        /// eight names one of the three largest ids instead, so the
        /// largest, whose cell equals the spill marker's, goes through
        /// every operation.
        #[test]
        fn directory_matches_vec_per_file_model(
            nodes in 2usize..=64,
            ops in prop::collection::vec((0u32..10, 0u32..FILES, any::<u32>()), 1..400),
        ) {
            let mut d = Directory::new(FILES);
            let mut model = ModelDirectory(vec![Vec::new(); FILES as usize]);
            let half = ops.len() / 2;
            for (i, (kind, file, pick)) in ops.into_iter().enumerate() {
                let adds = if i < half { 7 } else { 3 };
                let held = &model.0[file as usize];
                // Removals usually name a current holder, so they bite.
                let node = if kind >= adds && !held.is_empty() && pick % 4 != 0 {
                    held[pick as usize % held.len()]
                } else if pick % 8 == 0 {
                    NodeId(MAX_NODES - 1 - (pick / 8) as usize % 3)
                } else {
                    NodeId(pick as usize % nodes)
                };
                if kind == 9 {
                    d.drop_node(node);
                    model.drop_node(node);
                } else if kind < adds {
                    d.add(file, node);
                    model.add(file, node);
                } else {
                    d.remove(file, node);
                    model.remove(file, node);
                }
                for f in 0..FILES {
                    let got: Vec<NodeId> = d.holders(f).collect();
                    prop_assert_eq!(&got, &model.0[f as usize]);
                }
                let total: usize = model.0.iter().map(Vec::len).sum();
                prop_assert_eq!(d.entries(), total);
                let spilled = model.0.iter().filter(|h| h.len() > INLINE).count();
                prop_assert_eq!(d.spill.len(), spilled);
            }
        }

        /// Every operation returns what the tick-ordered cache returned,
        /// and iteration order agrees after each step.
        #[test]
        fn lru_matches_tick_ordered_model(
            capacity in 1usize..12,
            ops in prop::collection::vec((0u32..20, 0u32..30), 1..400),
        ) {
            let mut c = LruCache::new(capacity);
            let mut model = ModelLru::new(capacity);
            for (kind, file) in ops {
                match kind {
                    0..=8 => prop_assert_eq!(c.insert(file), model.insert(file)),
                    9..=13 => prop_assert_eq!(c.touch(file), model.touch(file)),
                    14..=16 => prop_assert_eq!(c.remove(file), model.remove(file)),
                    17 | 18 => prop_assert_eq!(c.pop_lru(), model.pop_lru()),
                    _ => {
                        c.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(c.files().collect::<Vec<_>>(), model.files());
                prop_assert_eq!(c.len(), model.by_file.len());
                prop_assert_eq!(c.contains(file), model.by_file.contains_key(&file));
            }
        }
    }

    fn peers(ids: &[usize]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    /// Runs one flush, recording each offered digest as `(peer, adds,
    /// evicts)`; peers in `refuse` turn theirs down.
    fn flush(
        log: &mut DigestLog,
        to: &[NodeId],
        fanout: usize,
        refuse: &[NodeId],
    ) -> Vec<(NodeId, Vec<FileId>, Vec<FileId>)> {
        let mut offered = Vec::new();
        log.flush(to, fanout, |peer, adds, evicts| {
            offered.push((peer, adds, evicts));
            !refuse.contains(&peer)
        });
        offered
    }

    #[test]
    fn an_add_then_evict_coalesces_into_one_evict() {
        let mut log = DigestLog::default();
        log.record(4, true);
        log.record(5, true);
        log.record(4, false);
        let sent = flush(&mut log, &peers(&[1]), 1, &[]);
        assert_eq!(sent, [(NodeId(1), vec![5], vec![4])]);
        assert!(log.pending(&peers(&[1])).is_empty());
    }

    #[test]
    fn fanout_rotates_round_robin_and_gc_waits_for_every_peer() {
        let mut log = DigestLog::default();
        let all = peers(&[1, 2, 3]);
        log.record(7, true);
        let first = flush(&mut log, &all, 2, &[]);
        assert_eq!(
            first.iter().map(|d| d.0).collect::<Vec<_>>(),
            peers(&[1, 2])
        );
        assert_eq!(log.pending(&all), [7], "node 3 has not seen it");
        let second = flush(&mut log, &all, 2, &[]);
        // Node 3 gets the delta; node 1, caught up, needs no frame.
        assert_eq!(second, [(NodeId(3), vec![7], vec![])]);
        assert!(log.pending(&all).is_empty());
        // Fully collected: nothing is offered any more.
        assert!(flush(&mut log, &all, 3, &[]).is_empty());
    }

    #[test]
    fn a_refused_digest_is_offered_again_in_full() {
        let mut log = DigestLog::default();
        let all = peers(&[1, 2]);
        log.record(1, true);
        flush(&mut log, &all, 2, &[NodeId(2)]);
        assert_eq!(log.pending(&all), [1]);
        log.record(2, true);
        let retry = flush(&mut log, &all, 2, &[]);
        assert_eq!(
            retry,
            [
                (NodeId(1), vec![2], vec![]),
                (NodeId(2), vec![1, 2], vec![])
            ]
        );
        assert!(log.pending(&all).is_empty());
    }

    #[test]
    fn without_peers_nothing_is_pending_or_sent() {
        let mut log = DigestLog::default();
        log.record(3, false);
        assert!(flush(&mut log, &[], 2, &[]).is_empty());
        assert!(log.pending(&[]).is_empty());
        // A peer that joins later still gets the delta.
        assert_eq!(log.pending(&peers(&[2])), [3]);
    }
}
