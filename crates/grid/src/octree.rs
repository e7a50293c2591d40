//! Locality-preserving octree over the domain lattice.
//!
//! The paper's multigrid and global reductions ride on "the locality
//! preserving octree data structure" (§3.2, Fig 1(a)): domain-level data is
//! combined pairwise-per-axis up a tree whose upper levels carry
//! progressively less data — the property that makes the algorithm
//! *metascalable* on tree networks (§7). This module provides that tree over
//! an `n³` domain lattice (n a power of two) together with its hierarchical
//! reduction.

/// An octree over an `n × n × n` lattice of cells, `n` a power of two.
#[derive(Clone, Debug)]
pub struct Octree {
    n: usize,
    levels: usize,
}

impl Octree {
    /// Builds the octree for an `n³` lattice.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "octree lattice must be a power of two, got {n}"
        );
        Self {
            n,
            levels: n.trailing_zeros() as usize,
        }
    }

    /// Lattice side length.
    pub fn lattice(&self) -> usize {
        self.n
    }

    /// Number of levels below the root (root = level `levels()`, leaves =
    /// level 0).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of nodes at a given level (level 0 = leaves).
    pub fn nodes_at_level(&self, level: usize) -> usize {
        assert!(level <= self.levels);
        let side = self.n >> level;
        side * side * side
    }

    /// Hierarchical reduction: folds leaf values up the tree with `combine`,
    /// returning the root value. `leaves` must be in Morton (Z-)order, so
    /// the eight children of each node are adjacent.
    pub fn reduce<T: Clone>(&self, leaves: &[T], combine: impl Fn(&T, &T) -> T) -> T {
        assert_eq!(leaves.len(), self.nodes_at_level(0), "leaf count mismatch");
        let mut level: Vec<T> = leaves.to_vec();
        while level.len() > 1 {
            level = level
                .chunks(8)
                .map(|c| {
                    let mut acc = c[0].clone();
                    for v in &c[1..] {
                        acc = combine(&acc, v);
                    }
                    acc
                })
                .collect();
        }
        level
            .into_iter()
            .next()
            .expect("octree has at least one node")
    }

    /// Tree depth a message travels from leaf to root — the latency chain
    /// length for the machine model.
    pub fn depth(&self) -> usize {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts() {
        let t = Octree::new(4);
        assert_eq!(t.levels(), 2);
        assert_eq!(t.nodes_at_level(0), 64);
        assert_eq!(t.nodes_at_level(1), 8);
        assert_eq!(t.nodes_at_level(2), 1);
    }

    #[test]
    fn reduce_sums_all_leaves() {
        let t = Octree::new(4);
        let leaves: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let total = t.reduce(&leaves, |a, b| a + b);
        assert_eq!(total, (0..64).sum::<i32>() as f64);
    }

    #[test]
    fn reduce_max_matches_iterator() {
        let t = Octree::new(2);
        let leaves: Vec<i64> = vec![3, -1, 7, 2, 9, 0, -5, 4];
        assert_eq!(t.reduce(&leaves, |a, b| *a.max(b)), 9);
    }

    #[test]
    fn trivial_tree() {
        let t = Octree::new(1);
        assert_eq!(t.levels(), 0);
        assert_eq!(t.reduce(&[42.0], |a, b| a + b), 42.0);
    }

    #[test]
    #[should_panic]
    fn non_pow2_rejected() {
        Octree::new(3);
    }
}
