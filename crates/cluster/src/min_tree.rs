//! The driver's tournament tree: the smallest `(key, index)` over a fixed
//! set of slots, kept at the root and updated in O(log n) per changed slot.
//! Keyed routing keeps one over the router's per-server keys, and the event
//! loop keeps one over the servers' next event times.

/// A tournament tree over `n` keyed slots, one per server.
#[derive(Debug)]
pub(crate) struct MinTree<K> {
    /// `nodes[n + i]` is slot `i`'s leaf; every node `j` in `1..n` holds
    /// the smaller of nodes `2j` and `2j + 1`, so node 1 is the minimum
    /// over all leaves (for any `n`, since the minimum of a total order
    /// does not care about the tree's shape). `nodes[0]` is unused.
    nodes: Vec<(K, u32)>,
}

impl<K: Ord + Copy> MinTree<K> {
    /// A tree whose slot `i` holds `key(i)`, for `i` in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not fit a `u32`.
    pub(crate) fn from_fn(n: usize, mut key: impl FnMut(usize) -> K) -> Self {
        assert!(
            n > 0 && u32::try_from(n).is_ok(),
            "a tournament tree needs 1 to 2^32 - 1 slots, not {n}"
        );
        let mut nodes = Vec::with_capacity(2 * n);
        nodes.extend((0..n).map(|i| (key(i), i as u32)));
        // The leaves, then every inner node from the bottom up over the
        // copies in `0..n` (node 0 keeps slot 0's copy, unused).
        nodes.extend_from_within(..);
        for j in (1..n).rev() {
            nodes[j] = nodes[2 * j].min(nodes[2 * j + 1]);
        }
        Self { nodes }
    }

    /// Sets slot `i`'s key and restores the minimum on its path to the
    /// root, stopping at the first node the change leaves as it was.
    pub(crate) fn set(&mut self, i: usize, key: K) {
        let mut j = self.nodes.len() / 2 + i;
        self.nodes[j] = (key, i as u32);
        while j > 1 {
            j /= 2;
            let best = self.nodes[2 * j].min(self.nodes[2 * j + 1]);
            if self.nodes[j] == best {
                break; // nothing above this node changes either
            }
            self.nodes[j] = best;
        }
    }

    /// The smallest `(key, slot)`: lowest slot first among equal keys.
    pub(crate) fn min(&self) -> (K, usize) {
        let (key, i) = self.nodes[1];
        (key, i as usize)
    }
}

/// Maps `x` to a `u64` whose unsigned order is [`f64::total_cmp`]'s order.
pub(crate) fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The `f64` whose [`total_order_bits`] are `key`.
pub(crate) fn from_total_order_bits(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_stats::DeterministicRng;

    /// The smallest `(key, slot)` by brute force.
    fn argmin(keys: &[u64]) -> (u64, usize) {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, i))
            .min()
            .expect("non-empty")
    }

    #[test]
    fn the_root_is_the_argmin_through_random_updates() {
        let mut rng = DeterministicRng::new(18);
        // A small key range makes ties common; `u64::MAX` stands in for a
        // slot with no key (the event loop's +∞).
        let draw = |rng: &mut DeterministicRng| match rng.index(8) {
            0 => u64::MAX,
            _ => rng.index(6) as u64,
        };
        for n in [1usize, 2, 3, 5, 64, 1000] {
            let mut keys: Vec<u64> = (0..n).map(|_| draw(&mut rng)).collect();
            let mut tree = MinTree::from_fn(n, |i| keys[i]);
            assert_eq!(tree.min(), argmin(&keys), "built, n = {n}");
            for step in 0..4 * n.max(200) {
                let i = match rng.index(3) {
                    0 => tree.min().1, // the root's slot, as a drained event
                    _ => rng.index(n),
                };
                keys[i] = match rng.index(4) {
                    0 => keys[i].saturating_add(1 + rng.index(3) as u64),
                    1 => keys[i].saturating_sub(1 + rng.index(3) as u64),
                    2 => keys[i], // rewritten unchanged
                    _ => draw(&mut rng),
                };
                tree.set(i, keys[i]);
                assert_eq!(tree.min(), argmin(&keys), "n = {n}, step {step}");
            }
        }
    }

    #[test]
    fn f64_keys_order_as_total_cmp_and_map_back() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            assert_eq!(
                from_total_order_bits(total_order_bits(a)).to_bits(),
                a.to_bits()
            );
            for b in xs {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
