//! Structural analyses: gate sets, cones and distances.
//!
//! The cones bound what a fault or a correction can reach
//! ([`fanin_cone`], [`fanout_cone`]); the *quality metrics* of Table 3
//! need the shortest structural distance from a candidate gate to the
//! nearest injected error site ([`undirected_distances`]).

use crate::circuit::Circuit;
use crate::gate::GateId;
use std::collections::VecDeque;

/// A dense gate-indexed bit set.
///
/// # Examples
///
/// ```
/// use gatediag_netlist::{GateId, GateSet};
/// let mut s = GateSet::new(8);
/// s.insert(GateId::new(3));
/// assert!(s.contains(GateId::new(3)));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GateSet {
    bits: Vec<u64>,
    universe: usize,
}

impl GateSet {
    /// Creates an empty set over a universe of `universe` gates.
    pub fn new(universe: usize) -> Self {
        GateSet {
            bits: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Inserts a gate; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: GateId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let fresh = self.bits[w] & (1 << b) == 0;
        self.bits[w] |= 1 << b;
        fresh
    }

    /// Removes a gate; returns `true` if it was present.
    pub fn remove(&mut self, id: GateId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let present = self.bits[w] & (1 << b) != 0;
        self.bits[w] &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: GateId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.bits[w] & (1 << b) != 0
    }

    /// Number of gates in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = GateId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(GateId::new(w * 64 + b))
                }
            })
        })
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &GateSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }
}

impl FromIterator<GateId> for GateSet {
    /// Collects gates into a set sized to the maximum id seen.
    ///
    /// Prefer [`GateSet::new`] + inserts when the circuit size is known.
    fn from_iter<T: IntoIterator<Item = GateId>>(iter: T) -> Self {
        let ids: Vec<GateId> = iter.into_iter().collect();
        let universe = ids.iter().map(|g| g.index() + 1).max().unwrap_or(0);
        let mut set = GateSet::new(universe);
        for id in ids {
            set.insert(id);
        }
        set
    }
}

impl Extend<GateId> for GateSet {
    fn extend<T: IntoIterator<Item = GateId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Transitive fan-in cone of `roots` (including the roots themselves).
pub fn fanin_cone(circuit: &Circuit, roots: &[GateId]) -> GateSet {
    let mut seen = GateSet::new(circuit.len());
    let mut stack: Vec<GateId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if seen.insert(id) {
            stack.extend(circuit.gate(id).fanins().iter().copied());
        }
    }
    seen
}

/// Transitive fan-out cone of `roots` (including the roots themselves).
pub fn fanout_cone(circuit: &Circuit, roots: &[GateId]) -> GateSet {
    let mut seen = GateSet::new(circuit.len());
    let mut stack: Vec<GateId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if seen.insert(id) {
            stack.extend(circuit.fanouts(id).iter().copied());
        }
    }
    seen
}

/// Multi-source BFS distance (in gates) over the *undirected* gate graph.
///
/// `distance[g] == 0` for gates in `sources`; unreachable gates get
/// `u32::MAX`. This is the paper's quality metric: "the number of gates on a
/// shortest path to any error".
pub fn undirected_distances(circuit: &Circuit, sources: &[GateId]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; circuit.len()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] != 0 {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(id) = queue.pop_front() {
        let d = dist[id.index()];
        let neighbours = circuit
            .gate(id)
            .fanins()
            .iter()
            .copied()
            .chain(circuit.fanouts(id).iter().copied());
        for n in neighbours {
            if dist[n.index()] == u32::MAX {
                dist[n.index()] = d + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::gate::GateKind;

    /// a, b -> g1=AND(a,b); g2=NOT(g1); g3=OR(g1, b); outputs g2, g3
    fn diamondish() -> (Circuit, Vec<GateId>) {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let bb = b.input("b");
        let g1 = b.gate(GateKind::And, vec![a, bb], "g1");
        let g2 = b.gate(GateKind::Not, vec![g1], "g2");
        let g3 = b.gate(GateKind::Or, vec![g1, bb], "g3");
        b.output(g2);
        b.output(g3);
        let c = b.finish().unwrap();
        (c, vec![a, bb, g1, g2, g3])
    }

    #[test]
    fn gateset_basics() {
        let mut s = GateSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(GateId::new(0)));
        assert!(s.insert(GateId::new(129)));
        assert!(!s.insert(GateId::new(129)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(GateId::new(129)));
        assert!(!s.contains(GateId::new(64)));
        let members: Vec<GateId> = s.iter().collect();
        assert_eq!(members, vec![GateId::new(0), GateId::new(129)]);
        assert!(s.remove(GateId::new(0)));
        assert!(!s.remove(GateId::new(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn gateset_union() {
        let mut a = GateSet::new(10);
        a.insert(GateId::new(1));
        let mut b = GateSet::new(10);
        b.insert(GateId::new(2));
        a.union_with(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn gateset_from_iter() {
        let s: GateSet = vec![GateId::new(2), GateId::new(5)].into_iter().collect();
        assert!(s.contains(GateId::new(5)));
        assert_eq!(s.universe(), 6);
    }

    #[test]
    fn cones() {
        let (c, ids) = diamondish();
        let (a, b, g1, g2, g3) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let fi = fanin_cone(&c, &[g2]);
        assert!(fi.contains(g2) && fi.contains(g1) && fi.contains(a) && fi.contains(b));
        assert!(!fi.contains(g3));
        let fo = fanout_cone(&c, &[a]);
        assert!(fo.contains(a) && fo.contains(g1) && fo.contains(g2) && fo.contains(g3));
        assert!(!fo.contains(b));
    }

    #[test]
    fn distances() {
        let (c, ids) = diamondish();
        let (a, b, g1, g2, g3) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let d = undirected_distances(&c, &[g1]);
        assert_eq!(d[g1.index()], 0);
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[b.index()], 1);
        assert_eq!(d[g2.index()], 1);
        assert_eq!(d[g3.index()], 1);
        // Multi-source takes the nearest.
        let d2 = undirected_distances(&c, &[a, g3]);
        assert_eq!(d2[g1.index()], 1);
        assert_eq!(d2[b.index()], 1);
        assert_eq!(d2[g2.index()], 2);
    }

    #[test]
    fn distances_unreachable() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let g = b.gate(GateKind::Not, vec![a], "g");
        b.output(g);
        b.output(x); // x is isolated from a/g
        let c = b.finish().unwrap();
        let d = undirected_distances(&c, &[a]);
        assert_eq!(d[x.index()], u32::MAX);
    }
}
