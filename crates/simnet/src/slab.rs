//! A free-listed arena addressed by `u32` handles.
//!
//! [`Slab`] parks values that would otherwise be moved around inside a
//! larger structure: the engine keeps event payloads here while only
//! small `Copy` keys move through its heap and lanes, and the cluster
//! keeps in-flight frames here while its events carry a handle. Vacated
//! cells are reused before the slab grows, so a warm slab stores and
//! takes values without allocating.

/// A free-listed arena of `T` with `u32` handles.
///
/// ```
/// use simnet::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("a");
/// let b = slab.insert("b");
/// assert_eq!(slab.take(a), "a");
/// // The vacated cell is reused before the slab grows.
/// assert_eq!(slab.insert("c"), a);
/// assert_eq!(slab.len(), 2);
/// assert_eq!(slab.take(b), "b");
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    /// `None` marks a vacant cell (listed in `free`).
    cells: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab::with_capacity(0)
    }

    /// An empty slab with room for `capacity` values before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            cells: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Stores `value` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` values would be held at once.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.cells[i as usize] = Some(value);
                i
            }
            None => {
                let i = u32::try_from(self.cells.len()).expect("slab handles exhausted");
                self.cells.push(Some(value));
                i
            }
        }
    }

    /// Removes and returns the value behind `idx`, freeing the cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is vacant (the handle was already taken).
    #[inline]
    pub fn take(&mut self, idx: u32) -> T {
        let value = self.cells[idx as usize].take().expect("slab cell occupied");
        self.free.push(idx);
        value
    }

    /// Number of values held.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len() - self.free.len()
    }

    /// Whether the slab holds no value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every value, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.free.clear();
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_reused_lifo() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        let c = s.insert(3);
        assert_eq!(s.take(a), 1);
        assert_eq!(s.take(c), 3);
        assert_eq!(s.insert(4), c);
        assert_eq!(s.insert(5), a);
        assert_eq!(s.insert(6), 3);
        assert_eq!(s.len(), 4);
        assert_eq!(s.take(b), 2);
    }

    #[test]
    #[should_panic(expected = "slab cell occupied")]
    fn double_take_panics() {
        let mut s = Slab::new();
        let a = s.insert(());
        s.take(a);
        s.take(a);
    }

    #[test]
    fn clear_empties_and_restarts_handles() {
        let mut s = Slab::with_capacity(8);
        for i in 0..5 {
            s.insert(i);
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.insert(9), 0);
    }
}
