//! SpGEMM oracle suite: [`ExecEngine::spgemm`] must be **bit-identical**
//! to [`spgemm_sequential`] for every accumulator strategy and worker
//! count, on every graph shape the classifier can route differently —
//! power-law (evil rows → dense scratch), uniform short rows (merge),
//! empty rows, duplicate-column collision storms (hash probe chains),
//! and `A = B` squaring. The tier-1 script sweeps `MPSPMM_WORKERS` over
//! {1, 2, 8}.

use mpspmm_core::{
    classify_row, default_workers, spgemm_sequential, AccumKind, ExecEngine, SpgemmStrategy,
};
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::testing::assert_csr_eq;
use mpspmm_sparse::CsrMatrix;

const STRATEGIES: [SpgemmStrategy; 4] = [
    SpgemmStrategy::Adaptive,
    SpgemmStrategy::Dense,
    SpgemmStrategy::Hash,
    SpgemmStrategy::Merge,
];

/// The worker counts the tier-1 `MPSPMM_WORKERS` matrix pins — exercised
/// here explicitly so a single test run still covers all three.
const WORKER_MATRIX: [usize; 3] = [1, 2, 8];

/// A matrix with an empty-row band: rows `2..5` and the last row carry
/// nothing, row 1 carries a negative zero (the bit-equality canary),
/// and row 5 references B rows that are themselves empty.
fn empty_row_matrix() -> CsrMatrix<f32> {
    let mut rows: Vec<Vec<(usize, f32)>> = vec![Vec::new(); 12];
    rows[0] = vec![(0, 1.0), (7, 2.0)];
    rows[1] = vec![(3, -0.0), (11, 0.5)];
    rows[5] = vec![(2, 1.5), (3, -1.0), (4, 0.25)];
    rows[6] = (0..12).map(|c| (c, 0.125 * (c as f32 + 1.0))).collect();
    rows[8] = vec![(9, -3.0)];
    CsrMatrix::from_sorted_rows(12, &rows).unwrap()
}

/// A collision storm: every A row combines many B rows, and every B row
/// lands on the same four output columns, so the hash accumulator
/// probes long chains and signed contributions partially cancel
/// (`+x + -x` must stay an explicit `0.0` entry, and a leading `-0.0`
/// must survive first-touch assignment).
fn collision_pair() -> (CsrMatrix<f32>, CsrMatrix<f32>) {
    let k = 32;
    let a_rows: Vec<Vec<(usize, f32)>> = (0..8)
        .map(|r| {
            (0..k)
                .map(|j| (j, if (r + j) % 2 == 0 { 1.0 } else { -1.0 }))
                .collect()
        })
        .collect();
    let b_rows: Vec<Vec<(usize, f32)>> = (0..k)
        .map(|r| {
            vec![
                (0, if r == 0 { -0.0 } else { 0.5 }),
                (1, 1.0),
                (2, -0.5),
                (3, (r as f32) * 0.25),
            ]
        })
        .collect();
    (
        CsrMatrix::from_sorted_rows(k, &a_rows).unwrap(),
        CsrMatrix::from_sorted_rows(4, &b_rows).unwrap(),
    )
}

/// The named case suite: `(label, A, B)` pairs whose shapes chain.
fn cases() -> Vec<(&'static str, CsrMatrix<f32>, CsrMatrix<f32>)> {
    let pl =
        gcn_normalize(&DatasetSpec::custom("pl", GraphClass::PowerLaw, 120, 600, 40).synthesize(3));
    let pl_b = gcn_normalize(
        &DatasetSpec::custom("plb", GraphClass::PowerLaw, 120, 480, 25).synthesize(5),
    );
    let uniform = gcn_normalize(
        &DatasetSpec::custom("uni", GraphClass::Structured, 96, 384, 8).synthesize(2),
    );
    let empty = empty_row_matrix();
    let (coll_a, coll_b) = collision_pair();
    vec![
        ("power-law", pl.clone(), pl_b),
        ("uniform", uniform.clone(), uniform.clone()),
        ("empty-rows", empty.clone(), empty),
        ("collision", coll_a, coll_b),
        ("squaring", pl.clone(), pl),
    ]
}

/// Every case × strategy × worker count is bit-equal to the sequential
/// oracle — the tentpole's determinism contract, end to end.
#[test]
fn engine_bit_matches_oracle_for_every_strategy_and_worker_count() {
    for (label, a, b) in cases() {
        let want = spgemm_sequential(&a, &b).unwrap();
        for strategy in STRATEGIES {
            for workers in WORKER_MATRIX {
                let engine = ExecEngine::new(workers).with_spgemm_strategy(strategy);
                let got = engine.spgemm(&a, &b).unwrap();
                // assert_csr_eq panics with a structured diff; the label
                // in a wrapping message would be lost, so pin context
                // first with a cheap shape probe.
                assert_eq!(
                    (got.rows(), got.cols()),
                    (want.rows(), want.cols()),
                    "case={label} strategy={strategy:?} workers={workers}"
                );
                assert_csr_eq(&got, &want);
                let stats = engine.stats().spgemm;
                assert_eq!(
                    stats.rows,
                    a.rows() as u64,
                    "case={label}: every row classified exactly once"
                );
                assert_eq!(stats.classified_rows(), stats.rows);
            }
        }
    }
}

/// The engine at the resolved worker count — honouring `MPSPMM_WORKERS`,
/// which the tier-1 script sweeps over 1/2/8 — matches the oracle on
/// every case at the default `Adaptive` strategy, and repeated runs are
/// bit-equal to each other (worker-count-independent determinism).
#[test]
fn resolved_worker_count_matches_oracle_and_is_deterministic() {
    let engine = ExecEngine::new(default_workers());
    for (label, a, b) in cases() {
        let want = spgemm_sequential(&a, &b).unwrap();
        let first = engine.spgemm(&a, &b).unwrap();
        assert_csr_eq(&first, &want);
        for run in 0..3 {
            let again = engine.spgemm(&a, &b).unwrap();
            assert_eq!(
                (again.row_ptr(), again.col_indices()),
                (first.row_ptr(), first.col_indices()),
                "case={label} run={run} structure diverged"
            );
            assert_csr_eq(&again, &first);
        }
    }
}

/// A default engine takes the static [`classify_row`] heuristic
/// ([`SpgemmStrategy::Adaptive`]), and its output is byte-identical to
/// the sequential oracle.
#[test]
fn default_engine_takes_static_heuristic() {
    let (_, a, b) = cases().swap_remove(0);
    let want = spgemm_sequential(&a, &b).unwrap();

    let engine = ExecEngine::new(2);
    assert_eq!(engine.spgemm_strategy(), SpgemmStrategy::Adaptive);
    let got = engine.spgemm(&a, &b).unwrap();
    assert_csr_eq(&got, &want);

    // The per-class row counts are exactly the static heuristic's tally.
    let mut expect = [0u64; 3];
    for (arow, ub) in a.iter_rows().zip(per_row_upper_bounds(&a, &b)) {
        expect[classify_row(arow.cols.len(), ub, b.cols()) as usize] += 1;
    }
    let stats = engine.stats().spgemm;
    assert_eq!(
        [stats.accum_merge, stats.accum_dense, stats.accum_hash],
        [
            expect[AccumKind::Merge as usize],
            expect[AccumKind::Dense as usize],
            expect[AccumKind::Hash as usize]
        ]
    );
}

/// Per-row flop upper bounds (Σ nnz of the combined B rows) — the same
/// figure the symbolic phase computes, re-derived independently here.
fn per_row_upper_bounds(a: &CsrMatrix<f32>, b: &CsrMatrix<f32>) -> Vec<usize> {
    a.iter_rows()
        .map(|arow| arow.cols.iter().map(|&k| b.row_nnz(k)).sum())
        .collect()
}

/// Shape mismatches are reported, not panicked, through the engine.
#[test]
fn shape_mismatch_is_an_error() {
    let a = CsrMatrix::<f32>::zeros(3, 4);
    let b = CsrMatrix::<f32>::zeros(5, 2);
    let engine = ExecEngine::new(2);
    assert!(engine.spgemm(&a, &b).is_err());
    assert!(spgemm_sequential(&a, &b).is_err());
}
