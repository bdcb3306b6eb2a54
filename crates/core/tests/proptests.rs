//! Property-based tests for the merge-path decomposition and every SpMM
//! kernel: arbitrary sparse matrices, arbitrary thread counts, checked
//! against the dense oracle and the plan-validity rules.

use mpspmm_core::{
    merge_path_search, plan_from_schedule, Epilogue, ExecEngine, MergePathSerialFixup,
    MergePathSpmm, NnzSplitSpmm, RowSplitSpmm, Schedule, SerialSpmm, SpmmKernel,
};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::collection::btree_set;
use proptest::prelude::*;

fn arb_csr(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix<f32>> {
    (2..=max_dim).prop_flat_map(move |n| {
        btree_set((0..n, 0..n), 0..=max_nnz.min(n * n)).prop_map(move |coords| {
            let triplets: Vec<(usize, usize, f32)> = coords
                .into_iter()
                .enumerate()
                .map(|(k, (r, c))| (r, c, ((k % 13) as f32 - 6.0) * 0.5))
                .collect();
            CsrMatrix::from_triplets(n, n, &triplets).unwrap()
        })
    })
}

fn dense_oracle(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        let row = a.row(r);
        for (&c, &v) in row.cols.iter().zip(row.vals) {
            for d in 0..b.cols() {
                out.set(r, d, out.get(r, d) + v * b.get(c, d));
            }
        }
    }
    out
}

fn input_for(a: &CsrMatrix<f32>, dim: usize) -> DenseMatrix<f32> {
    DenseMatrix::from_fn(a.cols(), dim, |r, c| {
        ((r * 7 + c * 3) % 11) as f32 * 0.25 - 1.0
    })
}

proptest! {
    #[test]
    fn search_is_consistent_with_item_consumption(
        m in arb_csr(24, 80),
        frac in 0.0f64..=1.0,
    ) {
        let nnz = m.nnz();
        let merge_items = m.merge_items();
        let d = (frac * merge_items as f64) as usize;
        let coord = merge_path_search(d, &m.row_ptr()[1..], nnz);
        prop_assert_eq!(coord.row + coord.nnz, d);
        // All non-zeros before coord.nnz belong to rows < coord.row + 1:
        prop_assert!(coord.nnz >= m.row_ptr()[coord.row]);
        if coord.row < m.rows() {
            prop_assert!(coord.nnz <= m.row_ptr()[coord.row + 1]);
        }
    }

    #[test]
    fn schedule_partitions_tile_exactly(m in arb_csr(24, 80), threads in 1usize..40) {
        let s = Schedule::build(&m, threads);
        // Contiguity + completeness.
        prop_assert_eq!(s.assignments()[0].start.diagonal(), 0);
        for w in s.assignments().windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        prop_assert_eq!(
            s.assignments().last().unwrap().end.diagonal(),
            m.merge_items()
        );
        // Load bound: nobody exceeds the per-thread budget.
        for a in s.assignments() {
            prop_assert!(a.merge_items() <= s.items_per_thread());
        }
        // All non-zeros distributed exactly once.
        let nnz_sum: usize = s.assignments().iter().map(|a| a.nnz()).sum();
        prop_assert_eq!(nnz_sum, m.nnz());
    }

    #[test]
    fn mergepath_plan_is_valid_and_correct(
        m in arb_csr(20, 60),
        threads in 1usize..32,
        dim in 1usize..9,
    ) {
        let kernel = MergePathSpmm::with_threads(threads);
        let plan = kernel.plan(&m, dim);
        prop_assert!(plan.validate(&m).is_ok());
        let b = input_for(&m, dim);
        let oracle = dense_oracle(&m, &b);
        let (seq, stats) = kernel.spmm_sequential(&m, &b).unwrap();
        prop_assert!(seq.max_abs_diff(&oracle).unwrap() <= 1e-4);
        prop_assert_eq!(stats.total_nnz(), m.nnz());
        let par = ExecEngine::global().spmm(&m, &[&b], &Epilogue::None).unwrap().remove(0);
        prop_assert!(par.max_abs_diff(&oracle).unwrap() <= 1e-4);
    }

    #[test]
    fn all_kernels_agree_with_oracle(m in arb_csr(16, 48), dim in 1usize..6) {
        let b = input_for(&m, dim);
        let oracle = dense_oracle(&m, &b);
        let kernels: Vec<Box<dyn SpmmKernel>> = vec![
            Box::new(SerialSpmm),
            Box::new(RowSplitSpmm::with_threads(5)),
            Box::new(NnzSplitSpmm::with_ng_size(3)),
            Box::new(MergePathSpmm::with_threads(6)),
            Box::new(MergePathSerialFixup::with_threads(6)),
        ];
        for k in &kernels {
            let plan = k.plan(&m, dim);
            prop_assert!(plan.validate(&m).is_ok(), "{} invalid plan", k.name());
            let (out, stats) = k.spmm_sequential(&m, &b).unwrap();
            prop_assert!(
                out.max_abs_diff(&oracle).unwrap() <= 1e-4,
                "{} diverges",
                k.name()
            );
            prop_assert_eq!(stats.total_nnz(), m.nnz());
        }
    }

    #[test]
    fn mergepath_atomics_at_most_two_per_thread(
        m in arb_csr(20, 60),
        threads in 1usize..32,
    ) {
        let plan = MergePathSpmm::with_threads(threads).plan(&m, 16);
        for tp in &plan.threads {
            let atomics = tp
                .segments
                .iter()
                .filter(|s| s.flush == mpspmm_core::Flush::Atomic && !s.is_empty())
                .count();
            prop_assert!(atomics <= 2);
        }
    }

    #[test]
    fn gnnadvisor_atomic_fraction_is_one(m in arb_csr(20, 60), ng in 1usize..8) {
        let plan = NnzSplitSpmm::with_ng_size(ng).plan(&m, 16);
        let stats = plan.write_stats();
        if m.nnz() > 0 {
            prop_assert!((stats.atomic_update_fraction() - 1.0).abs() < 1e-12);
            prop_assert_eq!(stats.atomic_nnz, m.nnz());
        }
    }

    #[test]
    fn serial_fixup_never_atomic(m in arb_csr(20, 60), threads in 1usize..32) {
        let plan = MergePathSerialFixup::with_threads(threads).plan(&m, 16);
        prop_assert_eq!(plan.write_stats().atomic_row_updates, 0);
        prop_assert!(plan.validate(&m).is_ok());
    }

    #[test]
    fn schedule_is_deterministic_and_serializable(
        m in arb_csr(16, 40),
        threads in 1usize..16,
    ) {
        let s1 = Schedule::build(&m, threads);
        let s2 = Schedule::build(&m, threads);
        prop_assert_eq!(&s1, &s2);
        let plan1 = plan_from_schedule(&s1, &m);
        let plan2 = plan_from_schedule(&s2, &m);
        prop_assert_eq!(plan1, plan2);
    }
}
