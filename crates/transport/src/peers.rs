//! Per-peer endpoint state, indexed densely by [`NodeId`].
//!
//! Cluster nodes are numbered `0..N`, so both substrates keep what they
//! know about each peer in a vector slot rather than a search tree.

use simnet::fabric::NodeId;

/// One `T` per peer, in a vector indexed by [`NodeId`] and grown with
/// `T::default()` on first write. Iteration runs in node order.
#[derive(Debug)]
pub(crate) struct PeerSlots<T>(Vec<T>);

impl<T> Default for PeerSlots<T> {
    fn default() -> Self {
        PeerSlots(Vec::new())
    }
}

impl<T: Default> PeerSlots<T> {
    /// The slot of `peer`, if it was ever written.
    pub(crate) fn get(&self, peer: NodeId) -> Option<&T> {
        self.0.get(peer.0)
    }

    /// Mutable access to the slot of `peer`, if it was ever written.
    pub(crate) fn get_mut(&mut self, peer: NodeId) -> Option<&mut T> {
        self.0.get_mut(peer.0)
    }

    /// The slot of `peer`, growing the vector to reach it.
    pub(crate) fn slot(&mut self, peer: NodeId) -> &mut T {
        if peer.0 >= self.0.len() {
            self.0.resize_with(peer.0 + 1, T::default);
        }
        &mut self.0[peer.0]
    }

    /// Every slot with its peer, in node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.0.iter().enumerate().map(|(i, t)| (NodeId(i), t))
    }

    /// Forgets every peer.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_on_write_and_iterate_in_node_order() {
        let mut s: PeerSlots<Vec<u32>> = PeerSlots::default();
        assert!(s.get(NodeId(3)).is_none());
        s.slot(NodeId(3)).push(7);
        s.slot(NodeId(1)).push(5);
        assert_eq!(s.get(NodeId(3)), Some(&vec![7]));
        assert_eq!(s.get(NodeId(0)), Some(&vec![]));
        let seen: Vec<_> = s
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(p, _)| p)
            .collect();
        assert_eq!(seen, [NodeId(1), NodeId(3)]);
        s.clear();
        assert!(s.get_mut(NodeId(1)).is_none());
    }
}
