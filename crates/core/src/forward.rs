//! The GCN layer loop on the engine: [`Layer`], [`Adjacency`] and
//! [`ExecEngine::forward`].
//!
//! A layer is `σ(Â · (H · W) + b)`: a dense GEMM, then the aggregation
//! SpMM with the bias and activation fused at its store stage. On one
//! graph the loop stitches the engine's own calls together, one GEMM per
//! block and one [`ExecEngine::spmm`] per layer. A packed window of small
//! graphs instead runs its whole forward as **one** pool dispatch: the
//! window is cut once at graph boundaries by merge items, and each worker
//! runs every layer over its own graphs, a cache-sized group of
//! consecutive graphs at a time, in worker-local scratch (DESIGN.md
//! §2.12). Every element is still one ascending-`k` sum from `0.0` and
//! every row one ascending fold followed by its epilogue, so each graph's
//! reply is bit for bit its own one-graph forward.

use std::ops::Range;

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::datapath::{gemm_band, ResolvedPath};
use crate::engine::ExecEngine;
use crate::epilogue::{Activation, Epilogue};
use crate::packed::{fold_rows, PackedGraphs, Piece};

/// Rows a span's job runs through every layer at a time: it fills a
/// group of consecutive graphs up to this many rows (a longer graph is a
/// group of its own). A group's product and activation then stay in this
/// core's L1 and L2 between the GEMM, the fold and the next layer. Picked
/// by a sweep over 128 to 2,048 rows on `molecule-pack`-shaped windows
/// (DESIGN.md §2.12).
const GROUP_ROWS: usize = 256;

/// One graph-convolution layer: `H' = σ(Â · H · W + b)`.
///
/// A layer holds parameters only; [`ExecEngine::forward`] runs it. It
/// computes the dense combination `H × W` first, then the sparse
/// aggregation `Â × (HW)` — the `A × (X × W)` multiplication order all
/// the paper's accelerators implement (§II). The optional per-column
/// bias `b` and the activation `σ` form the layer's [`Epilogue`], which
/// the engine applies at the aggregation's store stage instead of
/// re-streaming the output; every activation fuses.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    weight: DenseMatrix<f32>,
    epilogue: Epilogue,
}

impl Layer {
    /// Creates a layer from a trained/initialized weight matrix.
    pub fn new(weight: DenseMatrix<f32>, activation: Activation) -> Self {
        Self {
            weight,
            epilogue: Epilogue {
                bias: None,
                activation,
            },
        }
    }

    /// Creates a layer with a per-output-column bias: `σ(Â·H·W + b)`.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.cols()`.
    pub fn with_bias(weight: DenseMatrix<f32>, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(
            bias.len(),
            weight.cols(),
            "bias width must match output features"
        );
        Self {
            weight,
            epilogue: Epilogue {
                bias: Some(bias),
                activation,
            },
        }
    }

    /// The layer's input feature width.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// The layer's output feature width (the SpMM dense dimension).
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's per-column bias, if any.
    pub fn bias(&self) -> Option<&[f32]> {
        self.epilogue.bias.as_deref()
    }

    /// The store-stage form of this layer's bias + activation. Always
    /// `Some`, since every activation fuses: the `Option` stays only
    /// because the serving benchmark (`servebench/`) calls `.expect` on
    /// it.
    pub fn epilogue(&self) -> Option<&Epilogue> {
        Some(&self.epilogue)
    }
}

/// The graph side of an [`ExecEngine::spmm`] or [`ExecEngine::forward`]:
/// one graph whose every block is a request's features, or a packed
/// window of graphs whose blocks are the graphs' own features.
#[derive(Debug, Clone, Copy)]
pub enum Adjacency<'a> {
    /// One normalized adjacency `Â`.
    Graph(&'a CsrMatrix<f32>),
    /// A packed window: one block per graph, holding that graph's
    /// feature rows.
    Packed(&'a PackedGraphs<'a>),
}

impl<'a> From<&'a CsrMatrix<f32>> for Adjacency<'a> {
    fn from(a: &'a CsrMatrix<f32>) -> Self {
        Adjacency::Graph(a)
    }
}

impl<'a> From<&'a PackedGraphs<'a>> for Adjacency<'a> {
    fn from(p: &'a PackedGraphs<'a>) -> Self {
        Adjacency::Packed(p)
    }
}

impl ExecEngine {
    /// Runs `layers` over `blocks` and returns one output per block, in
    /// order. Each layer is its GEMMs plus its aggregation with the
    /// layer's bias/activation epilogue fused into the store stage. A
    /// 2-layer model on one block is the "2 kernel invocations" scenario
    /// of the paper's Figure 8. `a_hat` picks how the layers run:
    ///
    /// * [`Adjacency::Graph`] (or a plain `&CsrMatrix`): several
    ///   independent feature blocks on the *same* graph, a single request
    ///   being `&[&x]`. Each layer runs one [`gemm`](Self::gemm) per block
    ///   and one [`spmm`](Self::spmm) that aggregates `Â × H_iW` for every
    ///   block, each into its own output — the dense-column batching of
    ///   Batched SpMM for GCN serving, valid because `Â (H_i W)` only ever
    ///   reads `H_i W`'s own columns. Each activation goes back to the
    ///   arena at its last read: a layer's input as soon as every block's
    ///   GEMM has read it, the GEMM products once the aggregation has read
    ///   them. A layer therefore holds at most two full-size buffers per
    ///   block, and a steady-state forward whose caller recycles its
    ///   outputs allocates no fresh engine buffers; every output is a
    ///   buffer sized for the widest activation (DESIGN.md §2.9).
    /// * [`Adjacency::Packed`]: a window of small graphs, one block per
    ///   graph, run as **one** pool dispatch. The window is cut once at
    ///   graph boundaries, into one span per worker of about equal
    ///   `rows + nnz`; a window too small to pay for a dispatch runs
    ///   inline. Each span's job walks its graphs in groups of
    ///   consecutive graphs of up to a fixed row budget, and runs every
    ///   layer over a group before the next: the GEMM over the group's
    ///   rows (layer 0 reads each graph's features where they lie), then
    ///   each graph's fold and epilogue into the job's scratch, then the
    ///   next layer. The last layer stores each graph's rows straight
    ///   into that graph's reply, a fresh buffer of its own size. No
    ///   block-diagonal matrix is built, no window-sized activation
    ///   exists, and nothing is stacked or scattered.
    ///
    /// Every output element sums its products in ascending `k` from
    /// `0.0` and every row is one ascending fold followed by the
    /// epilogue, so each graph's reply equals its own one-graph forward
    /// under f32 `==`, at any worker count and in any window, and each
    /// block's output equals its own one-block forward.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when `a_hat` or any
    /// block's shape is inconsistent with the layers, or consecutive
    /// layers' widths do not chain. A packed window checks every shape
    /// before it checks anything out.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn forward<'a>(
        &self,
        a_hat: impl Into<Adjacency<'a>>,
        blocks: &[&DenseMatrix<f32>],
        layers: &[Layer],
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        assert!(!layers.is_empty(), "a forward needs at least one layer");
        for w in layers.windows(2) {
            if w[0].out_features() != w[1].in_features() {
                return Err(SparseFormatError::ShapeMismatch {
                    left: (w[0].in_features(), w[0].out_features()),
                    right: (w[1].in_features(), w[1].out_features()),
                });
            }
        }
        if blocks.is_empty() {
            return Ok(Vec::new());
        }
        match a_hat.into() {
            Adjacency::Graph(a) => self.forward_graph(a, blocks, layers),
            Adjacency::Packed(p) => self.forward_packed(p, blocks, layers),
        }
    }

    /// The [`Adjacency::Graph`] layer loop.
    fn forward_graph(
        &self,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
        layers: &[Layer],
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        let mut hs: Vec<DenseMatrix<f32>> = Vec::new();
        for (i, layer) in layers.iter().enumerate() {
            let mut products = Vec::with_capacity(blocks.len());
            for j in 0..blocks.len() {
                let h = if i == 0 { blocks[j] } else { &hs[j] };
                products.push(self.gemm(h, &layer.weight)?);
            }
            // Every GEMM has read the previous layer's activations: hand
            // them back now, so this layer's aggregation writes into them
            // instead of checking out a third full-size buffer per block.
            for old in hs.drain(..) {
                self.recycle(old);
            }
            let refs: Vec<&DenseMatrix<f32>> = products.iter().collect();
            // Every block in a model batch has this layer's output width,
            // and the engine applies a batch epilogue per block, so the
            // layer's epilogue fuses into the one aggregation run as is.
            let aggregated = self.spmm(a, &refs, &layer.epilogue)?;
            drop(refs);
            // The per-request products are dead now: the next layer's
            // GEMMs (and the next batch) reuse them.
            for p in products {
                self.recycle(p);
            }
            hs = aggregated;
        }
        Ok(hs)
    }

    /// The [`Adjacency::Packed`] forward: one span of whole graphs per
    /// worker, one pool dispatch (none when the window runs inline).
    /// Checks out, before the dispatch, each layer's packed weight, one
    /// scratch buffer per span and one fresh reply per graph.
    fn forward_packed(
        &self,
        p: &PackedGraphs<'_>,
        blocks: &[&DenseMatrix<f32>],
        layers: &[Layer],
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        let (features, k) = p.operand_rows(blocks)?;
        let first = &layers[0];
        // Past layer 0 a graph's activation rows are the next product's
        // operand rows, so a deeper model needs square graphs.
        let square = layers.len() == 1 || p.graphs().iter().all(|g| g.rows() == g.cols());
        if k != first.in_features() || !square {
            return Err(SparseFormatError::ShapeMismatch {
                left: (p.rows(), p.cols()),
                right: (k, first.in_features()),
            });
        }
        for layer in layers {
            layer.epilogue.validate(layer.out_features())?;
        }
        let rp = self.data_path.resolve();
        for layer in layers {
            self.start_run(&layer.epilogue);
        }
        let packs: Vec<Vec<f32>> = layers
            .iter()
            .map(|l| self.pack_weight(&l.weight, &rp))
            .collect();
        let width = layers.iter().map(Layer::out_features).max().unwrap_or(0);
        let out_dim = layers[layers.len() - 1].out_features();
        let mut replies: Vec<Vec<f32>> = p
            .graphs()
            .iter()
            .map(|g| self.arena.fresh(g.rows() * out_dim))
            .collect();
        let ctx = SpanCtx {
            layers,
            packs: &packs,
            rp,
        };
        // One scratch buffer per span, a product and an activation of its
        // largest group at the widest layer.
        let scratch = p.run_graph_spans(
            self.workers,
            &features,
            &mut replies,
            |graphs| self.arena.take(2 * widest_group(graphs) * width),
            |graphs, features, replies, buf| ctx.run(graphs, features, replies, buf),
        );
        for buf in scratch.into_iter().chain(packs) {
            self.arena.put(buf);
        }
        Ok(p.replies(replies, out_dim))
    }
}

/// The rows of `graphs`' largest group ([`groups`]): a product or an
/// activation of any group fits that many rows.
fn widest_group(graphs: &[&CsrMatrix<f32>]) -> usize {
    groups(graphs)
        .map(|r| graphs[r].iter().map(|g| g.rows().max(g.cols())).sum())
        .max()
        .unwrap_or(0)
}

/// Consecutive runs of `graphs`, each filled up to [`GROUP_ROWS`] rows
/// (a graph's rows or columns, whichever is more); a longer graph runs
/// alone.
fn groups<'g>(graphs: &'g [&CsrMatrix<f32>]) -> impl Iterator<Item = Range<usize>> + 'g {
    let mut lo = 0;
    std::iter::from_fn(move || {
        if lo == graphs.len() {
            return None;
        }
        let (start, mut rows) = (lo, 0);
        while let Some(g) = graphs.get(lo) {
            let r = g.rows().max(g.cols());
            if lo > start && rows + r > GROUP_ROWS {
                break;
            }
            rows += r;
            lo += 1;
        }
        Some(start..lo)
    })
}

/// What every span's job of one packed forward shares: the layers, each
/// layer's packed weight and the resolved data path.
struct SpanCtx<'a> {
    layers: &'a [Layer],
    packs: &'a [Vec<f32>],
    rp: ResolvedPath,
}

impl SpanCtx<'_> {
    /// Runs every layer over `graphs`, one group at a time: `features`
    /// holds each graph's layer-0 rows, `replies` each graph's output.
    /// `scratch` holds a product and an activation of the largest group.
    fn run(
        &self,
        graphs: &[&CsrMatrix<f32>],
        features: &[&[f32]],
        replies: &mut [Vec<f32>],
        scratch: &mut [f32],
    ) {
        let (product, act) = scratch.split_at_mut(scratch.len() / 2);
        for r in groups(graphs) {
            self.run_group(
                &graphs[r.clone()],
                &features[r.clone()],
                &mut replies[r],
                product,
                act,
            );
        }
    }

    /// One group through every layer. Layer `l`'s GEMM stores the
    /// group's product into `product`, reading layer 0's rows from each
    /// graph's features and later layers' rows from `act`; each graph's
    /// fold then stores its rows with the layer's epilogue into `act`, or
    /// into its reply at the last layer.
    fn run_group(
        &self,
        graphs: &[&CsrMatrix<f32>],
        features: &[&[f32]],
        replies: &mut [Vec<f32>],
        product: &mut [f32],
        act: &mut [f32],
    ) {
        let rows: usize = graphs.iter().map(|g| g.rows()).sum();
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            let (k, n) = (layer.in_features(), layer.out_features());
            let w = &layer.weight;
            let pack = &self.packs[l];
            if l == 0 {
                let cols: usize = graphs.iter().map(|g| g.cols()).sum();
                let arows = graphs
                    .iter()
                    .zip(features)
                    .flat_map(|(g, x)| (0..g.cols()).map(move |r| &x[r * k..][..k]));
                gemm_band(arows, k, w, pack, &self.rp, &mut product[..cols * n]);
            } else {
                let arows = (0..rows).map(|r| &act[r * k..][..k]);
                gemm_band(arows, k, w, pack, &self.rp, &mut product[..rows * n]);
            }
            // Each graph's rows of the product, folded into its rows of
            // the next activation, or into its reply at the last layer.
            let mut operands = &product[..];
            let mut acts = &mut act[..rows * n];
            let mut outs = replies.iter_mut();
            let mut pieces: Vec<Piece<'_>> = graphs
                .iter()
                .map(|a| {
                    let (b, tail) = operands.split_at(a.cols() * n);
                    operands = tail;
                    let out = if l == last {
                        outs.next().expect("one reply per graph").as_mut_slice()
                    } else {
                        let (out, tail) = std::mem::take(&mut acts).split_at_mut(a.rows() * n);
                        acts = tail;
                        out
                    };
                    Piece {
                        a,
                        first: 0,
                        b,
                        out,
                    }
                })
                .collect();
            fold_rows(&mut pieces, n, &self.rp, &layer.epilogue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::DataPath;
    use crate::packed::PACKED_MIN_ITEMS;
    use crate::pool::SCOPE_RUNS;
    use crate::spmm::test_support::{random_dense, random_matrix};

    /// A square graph of `rows` rows and about `nnz` non-zeros, its first
    /// row evil; `nnz == 0` is a graph with rows and no edges.
    fn graph(rows: usize, nnz: usize, seed: u64) -> CsrMatrix<f32> {
        random_matrix(rows, rows, nnz, seed)
    }

    /// The windows the packed forward is checked on:
    /// * graphs with no rows and with no non-zeros among small ones, whose
    ///   sizes cut 16-row GEMM tiles and groups at odd rows;
    /// * a one-graph window;
    /// * a graph longer than the row budget and than a span's share at
    ///   two workers, between small ones;
    /// * a window under the inline minimum.
    fn windows() -> Vec<Vec<CsrMatrix<f32>>> {
        let small = |i: usize| graph(5 + (i * 7) % 40, 30 + (i * 13) % 120, 300 + i as u64);
        let mixed: Vec<CsrMatrix<f32>> = (0..40)
            .map(|i| match i % 9 {
                3 => graph(0, 0, 0),
                7 => graph(11, 0, 0),
                _ => small(i),
            })
            .collect();
        let long = vec![
            small(1),
            graph(GROUP_ROWS + 190, 5000, 7),
            small(2),
            small(3),
        ];
        let tiny = vec![small(4), graph(0, 0, 0), small(5)];
        vec![mixed, vec![small(6)], long, tiny]
    }

    /// `n` layers from width `widths[0]`, alternating no bias and a bias,
    /// under `acts` in turn.
    fn layers(widths: &[usize], acts: &[Activation], seed: u64) -> Vec<Layer> {
        widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let weight = random_dense(w[0], w[1], seed + i as u64);
                let act = acts[i % acts.len()];
                if (i + seed as usize).is_multiple_of(2) {
                    Layer::new(weight, act)
                } else {
                    let bias = (0..w[1]).map(|j| j as f32 * 0.125 - 0.75).collect();
                    Layer::with_bias(weight, bias, act)
                }
            })
            .collect()
    }

    /// Every graph's reply of a packed forward is `==` its own one-graph
    /// forward on a 1-worker engine of the same data path: at workers
    /// {1, 2, 7, 64}, on both data paths, for 1-, 2- and 3-layer models
    /// with and without bias under every activation, and output widths
    /// that run the rows-in-lanes tile (1, 2, 8), the 9–16 body (12, 16)
    /// and the packed sweep (17, 32, 40).
    #[test]
    fn packed_forward_equals_each_graphs_own_forward() {
        use Activation::{Identity, Relu, Sigmoid};
        let models = [
            layers(&[6, 2], &[Identity], 1),
            layers(&[6, 40], &[Sigmoid], 2),
            layers(&[16, 32, 2], &[Relu, Identity], 3),
            layers(&[16, 32, 2], &[Relu, Identity], 4),
            layers(&[5, 12, 8, 17], &[Sigmoid, Relu, Identity], 5),
            layers(&[9, 1, 16, 3], &[Relu, Sigmoid, Relu], 6),
        ];
        for (w, graphs) in windows().iter().enumerate() {
            let window = PackedGraphs::new(graphs);
            for (m, model) in models.iter().enumerate() {
                let k = model[0].in_features();
                let feats: Vec<DenseMatrix<f32>> = graphs
                    .iter()
                    .enumerate()
                    .map(|(i, g)| random_dense(g.cols(), k, (100 * w + i) as u64))
                    .collect();
                let blocks: Vec<&DenseMatrix<f32>> = feats.iter().collect();
                for path in [DataPath::Scalar, DataPath::Vector] {
                    let one = ExecEngine::with_data_path(1, path);
                    let want: Vec<DenseMatrix<f32>> = graphs
                        .iter()
                        .zip(&feats)
                        .map(|(g, x)| one.forward(g, &[x], model).unwrap().remove(0))
                        .collect();
                    for workers in [1, 2, 7, 64] {
                        let engine = ExecEngine::with_data_path(workers, path);
                        let got = engine.forward(&window, &blocks, model).unwrap();
                        let at = format!("window {w} model {m} {path:?} workers={workers}");
                        assert_eq!(got, want, "{at}");
                    }
                }
            }
        }
    }

    /// The number of pool dispatches `run` makes from this thread.
    fn dispatches(run: impl FnOnce()) -> usize {
        let before = SCOPE_RUNS.with(|n| n.get());
        run();
        SCOPE_RUNS.with(|n| n.get()) - before
    }

    /// Features of width `k` for every graph of `window`.
    fn features(window: &PackedGraphs<'_>, k: usize) -> Vec<DenseMatrix<f32>> {
        let graphs = window.graphs();
        graphs
            .iter()
            .map(|g| random_dense(g.cols(), k, 3))
            .collect()
    }

    /// A packed forward at two workers makes exactly one pool dispatch,
    /// whatever its depth, and so does a packed aggregation; a window
    /// under the inline minimum makes none, and neither does a one-worker
    /// engine.
    #[test]
    fn a_packed_forward_dispatches_the_pool_once() {
        let graphs = windows();
        let model = layers(&[16, 32, 2], &[Activation::Relu, Activation::Identity], 9);
        let deep = layers(&[5, 12, 8, 17], &[Activation::Relu], 10);
        let (long, tiny) = (PackedGraphs::new(&graphs[2]), PackedGraphs::new(&graphs[3]));
        assert!(long.items() >= 2 * PACKED_MIN_ITEMS);
        assert!(tiny.items() < 2 * PACKED_MIN_ITEMS);
        let (one, two) = (ExecEngine::new(1), ExecEngine::new(2));
        let forward = |engine: &ExecEngine, window: &PackedGraphs<'_>, model: &[Layer]| {
            let x = features(window, model[0].in_features());
            let blocks: Vec<&DenseMatrix<f32>> = x.iter().collect();
            dispatches(|| drop(engine.forward(window, &blocks, model).unwrap()))
        };
        assert_eq!(forward(&two, &long, &model), 1);
        assert_eq!(forward(&two, &long, &deep), 1);
        assert_eq!(forward(&two, &tiny, &model), 0);
        assert_eq!(forward(&one, &long, &model), 0);
        let spmm = |engine: &ExecEngine, window: &PackedGraphs<'_>| {
            let x = features(window, 16);
            let blocks: Vec<&DenseMatrix<f32>> = x.iter().collect();
            dispatches(|| drop(engine.spmm(window, &blocks, &Epilogue::NONE).unwrap()))
        };
        assert_eq!(spmm(&two, &long), 1);
        assert_eq!(spmm(&two, &tiny), 0);
        assert_eq!(spmm(&one, &long), 0);
    }

    /// A packed forward rejects, before it checks anything out, features
    /// of the wrong width, one block of every graph's rows stacked, a
    /// bias of the wrong width, layers whose widths do not chain, and a
    /// non-square graph under more than one layer; a non-square graph
    /// runs one layer. An empty block list returns no outputs.
    #[test]
    fn packed_forward_checks_shapes_before_any_checkout() {
        let graphs = [graph(6, 12, 1), graph(4, 5, 2)];
        let window = PackedGraphs::new(&graphs);
        let feats: Vec<DenseMatrix<f32>> = graphs
            .iter()
            .map(|g| random_dense(g.cols(), 3, 4))
            .collect();
        let blocks: Vec<&DenseMatrix<f32>> = feats.iter().collect();
        let engine = ExecEngine::new(2);
        let two = layers(&[3, 4, 2], &[Activation::Relu], 0);
        let wide = layers(&[5, 4, 2], &[Activation::Relu], 0);
        let mut bad_bias = two.clone();
        bad_bias[1].epilogue.bias = Some(vec![0.0; 3]);
        let unchained = vec![
            two[0].clone(),
            layers(&[3, 2], &[Activation::Relu], 0).remove(0),
        ];
        let rejected = |ls: &[Layer]| {
            matches!(
                engine.forward(&window, &blocks, ls),
                Err(SparseFormatError::ShapeMismatch { .. })
            )
        };
        assert!(rejected(&wide));
        let stacked = random_dense(window.cols(), 3, 4);
        assert!(matches!(
            engine.forward(&window, &[&stacked], &two),
            Err(SparseFormatError::ShapeMismatch { .. })
        ));
        assert!(rejected(&bad_bias));
        assert!(rejected(&unchained));
        let rect = [random_matrix(3, 5, 6, 7)];
        let rect_window = PackedGraphs::new(&rect);
        let x = random_dense(5, 3, 8);
        assert!(matches!(
            engine.forward(&rect_window, &[&x], &two),
            Err(SparseFormatError::ShapeMismatch { .. })
        ));
        let stats = engine.stats();
        assert_eq!((stats.arena_reuses, stats.arena_misses), (0, 0));
        let one = &two[..1];
        let got = engine.forward(&rect_window, &[&x], one).unwrap();
        assert_eq!(got, engine.forward(&rect[0], &[&x], one).unwrap());
        assert!(engine.forward(&window, &[], &two).unwrap().is_empty());
    }

    /// Groups fill up to the row budget with whole graphs, a longer graph
    /// runs alone, and every graph lands in exactly one group, in order.
    #[test]
    fn groups_fill_the_row_budget_with_whole_graphs() {
        for graphs in windows() {
            let refs: Vec<&CsrMatrix<f32>> = graphs.iter().collect();
            let mut next = 0;
            for r in groups(&refs) {
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                let rows: usize = refs[r.clone()].iter().map(|g| g.rows()).sum();
                assert!(rows <= GROUP_ROWS || r.len() == 1, "{r:?}: {rows} rows");
                if let Some(g) = refs.get(r.end) {
                    assert!(
                        rows + g.rows() > GROUP_ROWS,
                        "{r:?} could take the next graph"
                    );
                }
                next = r.end;
            }
            assert_eq!(next, refs.len());
        }
    }
}
