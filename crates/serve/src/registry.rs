//! Named, versioned graphs and their warmed execution state.
//!
//! A serving process owns a set of graphs by name. Each registration
//! builds a [`ServedGraph`]: the adjacency matrix, a [`PreparedPlan`]
//! (the structure's row count and write statistics; the engine cuts its
//! row spans at every run) warmed through the engine's plan cache
//! *before* the first request, and optionally a [`GcnModel`] for
//! full-inference requests.
//!
//! # Hot swap
//!
//! Replacing a graph is `register` on an existing name: the registry
//! swaps the `Arc` in its map and bumps the version. Requests admitted
//! *before* the swap keep their `Arc<ServedGraph>` and complete against
//! the old version — nothing is drained, nothing blocks — while requests
//! admitted after resolve to the new one. The batching scheduler keys
//! batches on `(name, version)`, so the two versions never mix in one
//! batch. Retired versions are freed when the last in-flight request
//! drops its `Arc`; their cached plans age out of the engine's LRU plan
//! cache (each version gets a fresh epoch, so keys never collide).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpspmm_core::{ExecEngine, PreparedPlan, SpmmKernel};
use mpspmm_gcn::GcnModel;
use mpspmm_sparse::CsrMatrix;

/// Dense dimension a model-less graph's plan is cached under. A
/// [`PreparedPlan`] is width-independent, so the value seeds no plan; it
/// only completes the plan-cache key. 32 is the middle of the paper's
/// evaluated dimension range.
pub const DEFAULT_PLAN_DIM: usize = 32;

/// One registered graph version: adjacency, warmed plan, optional model.
///
/// Immutable once built — hot swap replaces the whole `Arc` rather than
/// mutating in place, so in-flight requests are never torn.
#[derive(Debug)]
pub struct ServedGraph {
    name: String,
    version: u64,
    epoch: u64,
    adjacency: Arc<CsrMatrix<f32>>,
    /// [`CsrMatrix::structure_hash`] of `adjacency`, computed once at
    /// registration: a value-only hot swap (same structure, new weights)
    /// keeps it, a structural swap changes it.
    structure_hash: u64,
    prep: Arc<PreparedPlan>,
    model: Option<Arc<GcnModel>>,
}

impl ServedGraph {
    /// The name this version is (or was) registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registry-wide monotonic version; a replacement always observes a
    /// larger version than what it replaced.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Plan-cache epoch of this version (unique per version).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Node count — the row count every feature block must match.
    pub fn nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// The (normalized) adjacency matrix requests aggregate over.
    pub fn adjacency(&self) -> &Arc<CsrMatrix<f32>> {
        &self.adjacency
    }

    /// Cached sparsity-structure hash of the adjacency (values
    /// excluded), for callers that key on a graph's structure.
    pub fn structure_hash(&self) -> u64 {
        self.structure_hash
    }

    /// The warmed, width-independent prepared plan.
    pub fn prep(&self) -> &Arc<PreparedPlan> {
        &self.prep
    }

    /// The model served for [`Workload::Gcn`](crate::Workload::Gcn)
    /// requests, if one was registered.
    pub fn model(&self) -> Option<&Arc<GcnModel>> {
        self.model.as_ref()
    }
}

/// Owner of all named graphs a server can route requests to.
pub struct GraphRegistry {
    engine: Arc<ExecEngine>,
    kernel: Box<dyn SpmmKernel>,
    graphs: Mutex<HashMap<String, Arc<ServedGraph>>>,
    next_version: AtomicU64,
}

impl GraphRegistry {
    /// A registry that warms plans on `engine` through `kernel`.
    pub fn new(engine: Arc<ExecEngine>, kernel: Box<dyn SpmmKernel>) -> Self {
        Self {
            engine,
            kernel,
            graphs: Mutex::new(HashMap::new()),
            next_version: AtomicU64::new(0),
        }
    }

    /// The engine this registry warms plans on.
    pub fn engine(&self) -> &Arc<ExecEngine> {
        &self.engine
    }

    /// Registers (or hot-swaps) `name`: plans the aggregation SpMM and
    /// publishes the new version atomically. Returns the published
    /// [`ServedGraph`].
    ///
    /// The plan is cached under the model's widest layer (or
    /// [`DEFAULT_PLAN_DIM`] without a model); see the module docs for the
    /// in-flight semantics of a swap.
    ///
    /// # Panics
    ///
    /// Panics if a model is supplied whose input width can never be
    /// served (zero layers is impossible by `GcnModel` construction, so
    /// this only guards adjacency/model node-count agreement indirectly —
    /// mismatched feature widths are rejected per request, not here).
    pub fn register(
        &self,
        name: &str,
        adjacency: CsrMatrix<f32>,
        model: Option<GcnModel>,
    ) -> Arc<ServedGraph> {
        self.register_shared(name, adjacency, model.map(Arc::new))
    }

    /// [`register`](Self::register) with an already-shared model `Arc` —
    /// the registration path for mega-batched serving, where thousands
    /// of small graphs serve inference through **one** model and the
    /// packing scheduler batches across graphs that share it (models are
    /// compared by pointer, so each graph must hold the *same* `Arc`).
    pub fn register_shared(
        &self,
        name: &str,
        adjacency: CsrMatrix<f32>,
        model: Option<Arc<GcnModel>>,
    ) -> Arc<ServedGraph> {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        let plan_dim = model
            .as_deref()
            .map(GcnModel::max_features)
            .unwrap_or(DEFAULT_PLAN_DIM)
            .max(1);
        let prep = self
            .engine
            .plan_cached(self.kernel.as_ref(), &adjacency, plan_dim, version);
        let graph = Arc::new(ServedGraph {
            name: name.to_string(),
            version,
            epoch: version,
            structure_hash: adjacency.structure_hash(),
            adjacency: Arc::new(adjacency),
            prep,
            model,
        });
        self.graphs
            .lock()
            .unwrap()
            .insert(name.to_string(), Arc::clone(&graph));
        graph
    }

    /// Builds an **anonymous** served graph for a single ad-hoc request:
    /// planned like a registration, but never inserted
    /// into the routing table and — deliberately — never put through the
    /// engine's LRU plan cache: ad-hoc graphs are one-shot, and minting
    /// a cache key per request would evict the plans of the graphs that
    /// *are* long-lived. The plan still matters: if the packing window
    /// ends up executing the request alone, it runs through this plan.
    pub fn inline_graph(&self, adjacency: CsrMatrix<f32>) -> Arc<ServedGraph> {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        let prep = Arc::new(PreparedPlan::new(&adjacency));
        Arc::new(ServedGraph {
            name: String::new(),
            version,
            epoch: version,
            structure_hash: adjacency.structure_hash(),
            adjacency: Arc::new(adjacency),
            prep,
            model: None,
        })
    }

    /// Removes `name` from the routing table. In-flight requests holding
    /// the version complete normally; new submissions get
    /// [`ServeError::UnknownGraph`](crate::ServeError::UnknownGraph).
    /// Returns the retired version, if any.
    pub fn retire(&self, name: &str) -> Option<Arc<ServedGraph>> {
        self.graphs.lock().unwrap().remove(name)
    }

    /// The currently routed version of `name`.
    pub fn get(&self, name: &str) -> Option<Arc<ServedGraph>> {
        self.graphs.lock().unwrap().get(name).cloned()
    }

    /// Resolves a whole burst of names under **one** table lock — the
    /// bulk-admission counterpart of [`get`](Self::get). Slot `i` of the
    /// result is the routed version of the `i`-th name (or `None`). The
    /// burst sees a single consistent snapshot of the routing table: a
    /// concurrent hot-swap lands either before every slot or after
    /// every slot, never between two of them.
    pub fn get_many<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Vec<Option<Arc<ServedGraph>>> {
        let graphs = self.graphs.lock().unwrap();
        names.into_iter().map(|n| graphs.get(n).cloned()).collect()
    }

    /// Number of currently registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.lock().unwrap().len()
    }

    /// Whether no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered names, unordered.
    pub fn names(&self) -> Vec<String> {
        self.graphs.lock().unwrap().keys().cloned().collect()
    }
}

impl std::fmt::Debug for GraphRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphRegistry")
            .field("graphs", &self.names())
            .field("next_version", &self.next_version.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpspmm_core::MergePathSpmm;

    fn tiny(seed: f32) -> CsrMatrix<f32> {
        CsrMatrix::from_triplets(4, 4, &[(0, 1, seed), (1, 0, 0.5), (3, 2, 2.0)]).unwrap()
    }

    fn registry() -> GraphRegistry {
        GraphRegistry::new(
            Arc::new(ExecEngine::new(1)),
            Box::new(MergePathSpmm::with_threads(3)),
        )
    }

    #[test]
    fn register_get_retire_roundtrip() {
        let reg = registry();
        assert!(reg.is_empty());
        let g = reg.register("cora", tiny(1.0), None);
        assert_eq!(g.name(), "cora");
        assert_eq!(g.nodes(), 4);
        assert_eq!(
            reg.engine().stats().plan_cache_misses,
            1,
            "plan warmed at registration"
        );
        assert!(Arc::ptr_eq(&reg.get("cora").unwrap(), &g));
        assert_eq!(reg.names(), vec!["cora".to_string()]);
        let retired = reg.retire("cora").unwrap();
        assert!(Arc::ptr_eq(&retired, &g));
        assert!(reg.get("cora").is_none());
        assert!(reg.retire("cora").is_none());
    }

    #[test]
    fn replace_bumps_version_and_keeps_old_version_alive() {
        let reg = registry();
        let v1 = reg.register("g", tiny(1.0), None);
        let v2 = reg.register("g", tiny(9.0), None);
        assert!(v2.version() > v1.version());
        assert_eq!(reg.len(), 1);
        assert!(Arc::ptr_eq(&reg.get("g").unwrap(), &v2));
        // The old version's state is untouched for in-flight holders.
        assert_eq!(v1.adjacency().row(0).vals, &[1.0]);
        assert_eq!(v2.adjacency().row(0).vals, &[9.0]);
        assert_ne!(v1.epoch(), v2.epoch());
    }

    #[test]
    fn model_graphs_plan_at_widest_layer() {
        let reg = registry();
        let model = GcnModel::two_layer(8, 16, 3, 7);
        let g = reg.register("m", tiny(1.0), Some(model));
        assert!(g.model().is_some());
        assert_eq!(g.model().unwrap().max_features(), 16);
    }
}
