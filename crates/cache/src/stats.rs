//! Hit/miss/eviction counters shared by the cache structures.

/// Counters accumulated by a [`crate::CacheArray`] (and reused by the victim cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found the block resident.
    pub hits: u64,
    /// Probes that did not find the block.
    pub misses: u64,
    /// Fills of blocks that were not previously resident.
    pub fills: u64,
    /// Blocks displaced by fills into full sets.
    pub evictions: u64,
    /// Blocks removed by explicit invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total probes (hits + misses).
    pub fn probes(&self) -> u64 {
        self.hits + self.misses
    }

    /// Adds another set of counters to this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.fills += other.fills;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_count_hits_and_misses() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.probes(), 4);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            fills: 3,
            evictions: 4,
            invalidations: 5,
        };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            fills: 30,
            evictions: 40,
            invalidations: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CacheStats {
                hits: 11,
                misses: 22,
                fills: 33,
                evictions: 44,
                invalidations: 55
            }
        );
    }
}
