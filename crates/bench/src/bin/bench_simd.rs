//! SIMD data-path benchmark — vectorized vs scalar-oracle engine paths.
//!
//! For the same Table II spread as `bench_engine`, times the scalar
//! oracle path ([`DataPath::Scalar`]) against the vectorized path
//! ([`DataPath::Vector`]) on the same graph, single-core, at
//! dimensions 16 and 32 and at `ppi-gcn`'s served SpMM widths 121 and
//! 128, alternating the two round by round. Both sides
//! run through [`ExecEngine::spmm`] on one-worker engines, so
//! the comparison isolates the inner data path: one row fold per block
//! through a column-tile plan of wide-lane register tiles, fixed once per
//! run (at 16 and 32 columns, a single tile under AVX-512F, so the whole
//! span folds at that const width; 121 and 128 run two 64-column tiles
//! each). The engine runs the same row spans
//! whatever the kernel, so there is one record per (dataset, dim), not
//! one per kernel. Writes `BENCH_simd.json` with one record per
//! (dataset, dim): `{dataset, dim, ns_per_nnz, vs_scalar}`
//! (medians), and names the instruction set the vectorized kernels ran
//! compiled for (`"isa"`: `avx512f`, `avx2` or `baseline`, see
//! [`DataPath::isa`]).

use mpspmm_bench::{alternate, banner, full_size_requested, json_array, load, write_artifact};
use mpspmm_core::{DataPath, Epilogue, ExecEngine};
use mpspmm_sparse::DenseMatrix;

const DATASETS: [&str; 6] = [
    "Cora",
    "Citeseer",
    "Pubmed",
    "Wiki-Vote",
    "PPI",
    "PROTEINS_full",
];

fn main() {
    let full = full_size_requested();
    banner(
        "BENCH simd",
        "scalar oracle vs vectorized data path, single-core, dims {16, 32, 121, 128}",
        full,
    );

    let scalar = ExecEngine::with_data_path(1, DataPath::Scalar);
    let vector = ExecEngine::with_data_path(1, DataPath::Vector);
    let isa = DataPath::Vector.isa();
    println!("vectorized kernels compiled for: {isa}");

    println!(
        "\n{:<16} {:>4} {:>11} {:>11} {:>10}",
        "Graph", "dim", "scalar/nnz", "simd/nnz", "vs scalar"
    );
    let mut records = Vec::new();
    let mut pairs = Vec::new();
    for name in DATASETS {
        let spec = find(name);
        let (used, a) = load(spec, full);
        for dim in [16usize, 32, 121, 128] {
            let b = DenseMatrix::from_fn(a.cols(), dim, |r, c| {
                ((r * 31 + c * 7) % 17) as f32 * 0.125 - 1.0
            });
            let (scalar_t, simd_t) = alternate(
                2,
                7,
                || {
                    let _ = scalar.spmm(&a, &[&b], &Epilogue::NONE).unwrap();
                    1
                },
                || {
                    let _ = vector.spmm(&a, &[&b], &Epilogue::NONE).unwrap();
                    1
                },
            );
            let ns_per_nnz = simd_t.median_ns / a.nnz() as f64;
            let vs_scalar = scalar_t.median_ns / simd_t.median_ns;
            println!(
                "{:<16} {:>4} {:>11.2} {:>11.2} {:>9.2}x",
                used.name,
                dim,
                scalar_t.median_ns / a.nnz() as f64,
                ns_per_nnz,
                vs_scalar,
            );
            pairs.push((scalar_t, simd_t));
            records.push(format!(
                "{{\"dataset\": \"{}\", \"dim\": {}, \"ns_per_nnz\": {:.3}, \"vs_scalar\": {:.3}}}",
                used.name, dim, ns_per_nnz, vs_scalar,
            ));
        }
    }

    write_artifact(
        "simd",
        "scalar oracle data path, one-worker engine, same graph",
        &pairs,
        vector.workers(),
        &[
            ("isa", format!("\"{isa}\"")),
            ("results", json_array(&records)),
        ],
    );
}

fn find(name: &str) -> &'static mpspmm_graphs::DatasetSpec {
    mpspmm_graphs::find_dataset(name).expect("Table II dataset")
}
