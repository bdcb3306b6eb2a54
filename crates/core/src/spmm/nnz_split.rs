//! Nnz-splitting baseline: the GNNAdvisor decomposition (§II).
//!
//! GNNAdvisor partitions each node's neighbor list into fixed-size
//! *neighbor groups* (NGs) of `ng_size` non-zeros; every NG becomes an
//! independent unit of work (mapped to a GPU warp). Because several NGs of
//! the same row execute concurrently and no NG knows how many siblings its
//! row has, **every** output update must be atomic — the "indiscriminate
//! use of atomic operations" the paper sets out to fix.
//!
//! The paper's default NG size is the graph's average degree.

use mpspmm_sparse::CsrMatrix;

use crate::plan::{Flush, KernelPlan, Segment, ThreadPlan};

use super::SpmmKernel;

/// GNNAdvisor-style nnz-splitting SpMM: fixed-size neighbor groups, all
/// output updates atomic.
///
/// # Example
///
/// ```
/// use mpspmm_core::{NnzSplitSpmm, SpmmKernel};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0f32), (0, 1, 1.0)])?;
/// let b = DenseMatrix::from_fn(2, 2, |r, c| (r + c) as f32);
/// let c = NnzSplitSpmm::with_ng_size(1).spmm(&a, &b)?;
/// assert_eq!(c.get(0, 1), 3.0); // B[0,1] + B[1,1]
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NnzSplitSpmm {
    ng_size: Option<usize>,
}

impl NnzSplitSpmm {
    /// Default GNNAdvisor configuration: NG size = the graph's average
    /// degree (computed per input matrix, at least 1).
    pub fn new() -> Self {
        Self { ng_size: None }
    }

    /// Fixed neighbor-group size.
    ///
    /// # Panics
    ///
    /// Panics if `ng_size == 0`.
    pub fn with_ng_size(ng_size: usize) -> Self {
        assert!(ng_size > 0, "neighbor-group size must be positive");
        Self {
            ng_size: Some(ng_size),
        }
    }

    /// The NG size used for a given matrix.
    pub fn ng_size_for(&self, a: &CsrMatrix<f32>) -> usize {
        match self.ng_size {
            Some(s) => s,
            None => {
                // Average degree, rounded to nearest, at least 1.
                let rows = a.rows().max(1);
                ((a.nnz() + rows / 2) / rows).max(1)
            }
        }
    }
}

impl Default for NnzSplitSpmm {
    fn default() -> Self {
        Self::new()
    }
}

impl SpmmKernel for NnzSplitSpmm {
    fn name(&self) -> &'static str {
        "GNNAdvisor"
    }

    fn plan(&self, a: &CsrMatrix<f32>, _dim: usize) -> KernelPlan {
        NeighborPartitionIndex::build(a, self.ng_size_for(a)).to_plan()
    }
}

/// GNNAdvisor's preprocessed neighbor-partition metadata — the
/// "extension to the compressed sparse row format" the paper contrasts
/// with MergePath-SpMM's preprocessing-free operation (§I).
///
/// Each entry fixes one neighbor group's `(row, nz_start, nz_end)`. The
/// index must be rebuilt whenever the adjacency matrix changes and
/// occupies memory proportional to the number of groups —
/// [`memory_bytes`](Self::memory_bytes) quantifies that overhead (the
/// `ablation_preprocessing` harness compares it against the merge-path
/// schedule's footprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborPartitionIndex {
    ng_size: usize,
    rows: usize,
    nnz: usize,
    partitions: Vec<Segment>,
}

impl NeighborPartitionIndex {
    /// Builds the partition index for `a` with groups of `ng_size`
    /// non-zeros (the preprocessing GNNAdvisor performs before any kernel
    /// runs; its cost is excluded from the paper's kernel timings).
    ///
    /// # Panics
    ///
    /// Panics if `ng_size == 0`.
    pub fn build(a: &CsrMatrix<f32>, ng_size: usize) -> Self {
        assert!(ng_size > 0, "neighbor-group size must be positive");
        let rp = a.row_ptr();
        let mut partitions = Vec::with_capacity(a.nnz() / ng_size + a.rows() / 2);
        for row in 0..a.rows() {
            let (start, end) = (rp[row], rp[row + 1]);
            let mut lo = start;
            while lo < end {
                let hi = (lo + ng_size).min(end);
                partitions.push(Segment {
                    row,
                    nz_start: lo,
                    nz_end: hi,
                    flush: Flush::Atomic,
                });
                lo = hi;
            }
        }
        Self {
            ng_size,
            rows: a.rows(),
            nnz: a.nnz(),
            partitions,
        }
    }

    /// Configured neighbor-group size.
    pub fn ng_size(&self) -> usize {
        self.ng_size
    }

    /// Number of neighbor groups (the GPU warp count).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Approximate memory footprint of the index: three words per group
    /// (row id, start, end), the paper's CSR extension.
    pub fn memory_bytes(&self) -> usize {
        self.partitions.len() * 3 * std::mem::size_of::<usize>()
    }

    /// Whether the index still matches the matrix shape (it is stale the
    /// moment the graph evolves — the online-setting cost GNNAdvisor pays
    /// that merge-path does not, §III-D).
    pub fn matches(&self, a: &CsrMatrix<f32>) -> bool {
        self.rows == a.rows() && self.nnz == a.nnz()
    }

    /// Lowers the prebuilt index to a kernel plan (one logical thread per
    /// neighbor group, every update atomic).
    pub fn to_plan(&self) -> KernelPlan {
        KernelPlan {
            threads: self
                .partitions
                .iter()
                .map(|&seg| ThreadPlan {
                    segments: vec![seg],
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_kernel, check_spmm_is_row_sum, random_matrix};
    use super::*;

    #[test]
    fn matches_oracle() {
        for seed in 0..3 {
            let a = random_matrix(50, 50, 300, seed);
            for ng in [1, 2, 5, 100] {
                check_kernel(&NnzSplitSpmm::with_ng_size(ng), &a, 8);
            }
            check_kernel(&NnzSplitSpmm::new(), &a, 16);
        }
    }

    #[test]
    fn spmm_equals_the_row_sum() {
        let a = random_matrix(50, 50, 300, 32);
        for dim in [1, 5, 16, 33] {
            // ng 2 keeps every segment in the gather regime; ng 100 forces
            // the streaming kernel on the evil row.
            check_spmm_is_row_sum(&NnzSplitSpmm::with_ng_size(2), &a, dim);
            check_spmm_is_row_sum(&NnzSplitSpmm::with_ng_size(100), &a, dim);
        }
    }

    #[test]
    fn every_update_is_atomic() {
        let a = random_matrix(64, 64, 400, 1);
        let plan = NnzSplitSpmm::new().plan(&a, 16);
        let stats = plan.write_stats();
        assert_eq!(stats.regular_row_writes, 0);
        assert_eq!(stats.atomic_nnz, a.nnz());
    }

    #[test]
    fn groups_never_cross_rows() {
        let a = random_matrix(40, 40, 250, 2);
        let rp = a.row_ptr();
        let plan = NnzSplitSpmm::with_ng_size(3).plan(&a, 16);
        plan.validate(&a).unwrap();
        for (_, seg) in plan.iter_segments() {
            assert!(seg.nz_start >= rp[seg.row] && seg.nz_end <= rp[seg.row + 1]);
            assert!(seg.len() <= 3);
        }
    }

    #[test]
    fn group_count_matches_ceil_division() {
        // Row lengths 5, 3, 0, 1 with NG size 2 → 3 + 2 + 0 + 1 groups.
        let mut triplets = Vec::new();
        for c in 0..5 {
            triplets.push((0usize, c, 1.0f32));
        }
        for c in 0..3 {
            triplets.push((1, c, 1.0));
        }
        triplets.push((3, 0, 1.0));
        let a = CsrMatrix::from_triplets(4, 5, &triplets).unwrap();
        let plan = NnzSplitSpmm::with_ng_size(2).plan(&a, 16);
        assert_eq!(plan.num_threads(), 6);
    }

    #[test]
    fn default_ng_size_is_average_degree() {
        let a = random_matrix(100, 100, 510, 5);
        // avg = 5.1 → rounds to 5.
        assert_eq!(NnzSplitSpmm::new().ng_size_for(&a), 5);
        assert_eq!(NnzSplitSpmm::with_ng_size(7).ng_size_for(&a), 7);
    }

    #[test]
    fn partition_index_matches_direct_plan() {
        let a = random_matrix(50, 50, 300, 4);
        let kernel = NnzSplitSpmm::with_ng_size(4);
        let index = NeighborPartitionIndex::build(&a, 4);
        assert_eq!(index.to_plan(), kernel.plan(&a, 16));
        assert_eq!(index.num_partitions(), kernel.plan(&a, 16).num_threads());
        assert!(index.matches(&a));
        assert_eq!(index.ng_size(), 4);
        assert_eq!(index.memory_bytes(), index.num_partitions() * 24);
    }

    #[test]
    fn partition_index_goes_stale_when_graph_changes() {
        let a = random_matrix(50, 50, 300, 4);
        let grown = random_matrix(50, 50, 310, 4);
        let index = NeighborPartitionIndex::build(&a, 4);
        assert!(!index.matches(&grown));
    }

    #[test]
    fn evil_rows_are_finely_sharded() {
        let mut triplets: Vec<(usize, usize, f32)> = (0..64).map(|c| (0, c, 1.0)).collect();
        triplets.push((1, 0, 1.0));
        let a = CsrMatrix::from_triplets(2, 64, &triplets).unwrap();
        let plan = NnzSplitSpmm::with_ng_size(4).plan(&a, 16);
        let row0_groups = plan.iter_segments().filter(|(_, s)| s.row == 0).count();
        assert_eq!(row0_groups, 16);
    }
}
