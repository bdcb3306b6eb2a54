//! Batch-shape classes of block-diagonal mega-batches.
//!
//! A [`BatchShapeClass`] summarizes a packed window's composition: a
//! quantized histogram of per-graph sizes (the class hash) and an exact
//! hash of the `(rows, nnz, structure_hash)` sequence (the fingerprint).
//! Nothing in the engine keys on it:
//! [`ExecEngine::plan_batch_cached`](crate::ExecEngine::plan_batch_cached)
//! builds each window's row-span plan from its row pointers and takes a
//! class only for its signature's sake.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    h ^= word;
    h.wrapping_mul(FNV_PRIME)
}

/// Histogram buckets for per-graph nnz: `0, 1, 2-3, 4-7, …, 2^22+`.
const NNZ_BUCKETS: usize = 24;

fn log2_bucket(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        ((usize::BITS - n.leading_zeros()) as usize).min(NNZ_BUCKETS - 1)
    }
}

/// The two-level plan-cache key of one packed batch: a quantized
/// composition class (the cache slot) and an exact structural
/// fingerprint (the reuse gate). See the module docs for the split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchShapeClass {
    class_hash: u64,
    fingerprint: u64,
    graphs: usize,
}

impl BatchShapeClass {
    /// Classifies a batch from per-constituent `(rows, nnz,
    /// structure_hash)` triples, in pack order.
    ///
    /// The order matters for the fingerprint (the packed matrix depends
    /// on it) but not for the class hash (a histogram), so reordering
    /// the same graphs lands on the same slot and rebuilds once.
    pub fn from_graphs(graphs: impl IntoIterator<Item = (usize, usize, u64)>) -> Self {
        let mut hist = [0u64; NNZ_BUCKETS];
        let mut total_rows = 0usize;
        let mut total_nnz = 0usize;
        let mut count = 0usize;
        let mut fingerprint = FNV_OFFSET;
        for (rows, nnz, structure) in graphs {
            hist[log2_bucket(nnz)] += 1;
            total_rows += rows;
            total_nnz += nnz;
            count += 1;
            fingerprint = fnv(fingerprint, rows as u64);
            fingerprint = fnv(fingerprint, nnz as u64);
            fingerprint = fnv(fingerprint, structure);
        }
        let mut class_hash = FNV_OFFSET;
        for c in hist {
            class_hash = fnv(class_hash, log2_bucket(c as usize) as u64);
        }
        class_hash = fnv(class_hash, log2_bucket(count) as u64);
        class_hash = fnv(class_hash, log2_bucket(total_rows) as u64);
        class_hash = fnv(class_hash, log2_bucket(total_nnz) as u64);
        Self {
            class_hash,
            fingerprint,
            graphs: count,
        }
    }

    /// The quantized composition hash — which cache slot this batch
    /// shares with similarly composed windows.
    pub fn class_hash(&self) -> u64 {
        self.class_hash
    }

    /// The exact structural fingerprint — whether a resident plan in the
    /// slot is valid for this batch.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of constituent graphs classified.
    pub fn num_graphs(&self) -> usize {
        self.graphs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_batches_share_class_and_fingerprint() {
        let a = BatchShapeClass::from_graphs([(10, 40, 1), (12, 60, 2)]);
        let b = BatchShapeClass::from_graphs([(10, 40, 1), (12, 60, 2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn similar_composition_shares_slot_but_not_fingerprint() {
        // Same log2 buckets (40 and 44 nnz are both in 2^5..2^6), two
        // graphs each, similar totals — one slot, different plans.
        let a = BatchShapeClass::from_graphs([(10, 40, 1), (12, 60, 2)]);
        let b = BatchShapeClass::from_graphs([(11, 44, 3), (12, 60, 4)]);
        assert_eq!(a.class_hash(), b.class_hash());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn value_only_swap_keeps_fingerprint_structural_swap_changes_it() {
        // The structure hash stands in for the constituent; a value-only
        // swap keeps it, so the class is byte-identical.
        let before = BatchShapeClass::from_graphs([(10, 40, 7), (12, 60, 8)]);
        let value_swap = BatchShapeClass::from_graphs([(10, 40, 7), (12, 60, 8)]);
        let structural_swap = BatchShapeClass::from_graphs([(10, 40, 9), (12, 60, 8)]);
        assert_eq!(before, value_swap);
        assert_eq!(before.class_hash(), structural_swap.class_hash());
        assert_ne!(before.fingerprint(), structural_swap.fingerprint());
    }

    #[test]
    fn different_composition_changes_slot() {
        let small = BatchShapeClass::from_graphs((0..4).map(|i| (10, 50, i)));
        let large = BatchShapeClass::from_graphs((0..4096).map(|i| (10, 5000, i)));
        assert_ne!(small.class_hash(), large.class_hash());
        assert_eq!(small.num_graphs(), 4);
    }

    #[test]
    fn empty_and_zero_nnz_graphs_classify() {
        let c = BatchShapeClass::from_graphs([(0, 0, 1), (5, 0, 2)]);
        assert_eq!(c.num_graphs(), 2);
        let empty = BatchShapeClass::from_graphs(std::iter::empty());
        assert_eq!(empty.num_graphs(), 0);
        assert_ne!(c.fingerprint(), empty.fingerprint());
    }
}
