//! Named, versioned graphs and their execution state.
//!
//! A serving process owns a set of graphs by name. Each registration
//! builds a [`ServedGraph`]: the adjacency matrix and optionally a
//! [`GcnModel`] for full-inference requests. Nothing is derived ahead:
//! the engine cuts its row spans from the adjacency at every run, so a
//! registration or a hot swap reads nothing of the structure.
//!
//! # Hot swap
//!
//! Replacing a graph is `register` on an existing name: the registry
//! swaps the `Arc` in its map and bumps the version. Requests admitted
//! *before* the swap keep their `Arc<ServedGraph>` and complete against
//! the old version — nothing is drained, nothing blocks — while requests
//! admitted after resolve to the new one. The batching scheduler keys
//! batches on `(name, version)`, so the two versions never mix in one
//! batch. A retired version is freed when the last in-flight request
//! drops its `Arc`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

use mpspmm_gcn::GcnModel;
use mpspmm_sparse::CsrMatrix;

/// One registered graph version: adjacency and optional model.
///
/// Immutable once built — hot swap replaces the whole `Arc` rather than
/// mutating in place, so in-flight requests are never torn.
#[derive(Debug)]
pub struct ServedGraph {
    name: String,
    version: u64,
    adjacency: Arc<CsrMatrix<f32>>,
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

    /// Node count: the adjacency's row count, which is also every
    /// reply's row count. Feature blocks must match the adjacency's
    /// column count instead, which differs for a rectangular adjacency.
    pub fn nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// The (normalized) adjacency matrix requests aggregate over.
    pub fn adjacency(&self) -> &Arc<CsrMatrix<f32>> {
        &self.adjacency
    }

    /// The model served for [`Workload::Gcn`](crate::Workload::Gcn)
    /// requests, if one was registered.
    pub fn model(&self) -> Option<&Arc<GcnModel>> {
        self.model.as_ref()
    }
}

/// Owner of all named graphs a server can route requests to.
#[derive(Default)]
pub struct GraphRegistry {
    graphs: Mutex<HashMap<String, Arc<ServedGraph>>>,
    next_version: AtomicU64,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or hot-swaps) `name`: publishes the new version
    /// atomically. Returns the published
    /// [`ServedGraph`]. See the module docs for the in-flight semantics
    /// of a swap.
    ///
    /// Registration accepts any model. A model with more than one layer
    /// needs a square adjacency, since each layer's output (one row per
    /// adjacency row) is the next aggregation's operand (one row per
    /// adjacency column); on a rectangular one, GCN requests are refused
    /// at admission with
    /// [`ServeError::RectangularGraph`](crate::ServeError::RectangularGraph).
    /// Feature blocks of the wrong shape are likewise rejected per
    /// request, not here.
    pub fn register(
        &self,
        name: &str,
        adjacency: CsrMatrix<f32>,
        model: Option<GcnModel>,
    ) -> Arc<ServedGraph> {
        self.register_shared(name, adjacency, model.map(Arc::new))
    }

    /// [`register`](Self::register) with an already-shared model `Arc` —
    /// the registration path for packed serving, where thousands
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
        let graph = Arc::new(ServedGraph {
            name: name.to_string(),
            version,
            adjacency: Arc::new(adjacency),
            model,
        });
        self.table().insert(name.to_string(), Arc::clone(&graph));
        graph
    }

    /// The routing table. A holder panicking under the lock poisons it,
    /// which is taken as it is: each holder does one `HashMap` lookup,
    /// insert, remove or key copy, or reads names from a caller's
    /// iterator between lookups, so no holder can leave the table half
    /// changed. Without this, one caller's panic inside
    /// [`get_many`](Self::get_many) would fail every later admission for
    /// every tenant.
    fn table(&self) -> MutexGuard<'_, HashMap<String, Arc<ServedGraph>>> {
        self.graphs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Removes `name` from the routing table. In-flight requests holding
    /// the version complete normally; new submissions get
    /// [`ServeError::UnknownGraph`](crate::ServeError::UnknownGraph).
    /// Returns the retired version, if any.
    pub fn retire(&self, name: &str) -> Option<Arc<ServedGraph>> {
        self.table().remove(name)
    }

    /// The currently routed version of `name`.
    pub fn get(&self, name: &str) -> Option<Arc<ServedGraph>> {
        self.table().get(name).cloned()
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
        let graphs = self.table();
        names.into_iter().map(|n| graphs.get(n).cloned()).collect()
    }

    /// Number of currently registered graphs.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// Whether no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered names, unordered.
    pub fn names(&self) -> Vec<String> {
        self.table().keys().cloned().collect()
    }
}

/// Names the serving benchmark (`servebench/`) still calls, kept until it
/// stops planning (ROADMAP item 1a deletes them). The root `clippy.toml`
/// denies `prep` and `structure_hash` to the workspace; clippy cannot deny
/// a constant.
#[doc(hidden)]
pub const DEFAULT_PLAN_DIM: usize = 32;

#[doc(hidden)]
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
impl ServedGraph {
    pub fn prep(&self) -> &Arc<mpspmm_core::PreparedPlan> {
        static EMPTY: LazyLock<Arc<mpspmm_core::PreparedPlan>> = LazyLock::new(Arc::default);
        &EMPTY
    }

    pub fn structure_hash(&self) -> u64 {
        self.adjacency.structure_hash()
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

    fn tiny(seed: f32) -> CsrMatrix<f32> {
        CsrMatrix::from_triplets(4, 4, &[(0, 1, seed), (1, 0, 0.5), (3, 2, 2.0)]).unwrap()
    }

    #[test]
    fn register_get_retire_roundtrip() {
        let reg = GraphRegistry::new();
        assert!(reg.is_empty());
        let g = reg.register("cora", tiny(1.0), None);
        assert_eq!(g.name(), "cora");
        assert_eq!(g.nodes(), 4);
        assert!(Arc::ptr_eq(&reg.get("cora").unwrap(), &g));
        assert_eq!(reg.names(), vec!["cora".to_string()]);
        let retired = reg.retire("cora").unwrap();
        assert!(Arc::ptr_eq(&retired, &g));
        assert!(reg.get("cora").is_none());
        assert!(reg.retire("cora").is_none());
    }

    #[test]
    fn replace_bumps_version_and_keeps_old_version_alive() {
        let reg = GraphRegistry::new();
        let v1 = reg.register("g", tiny(1.0), None);
        let v2 = reg.register("g", tiny(9.0), None);
        assert!(v2.version() > v1.version());
        assert_eq!(reg.len(), 1);
        assert!(Arc::ptr_eq(&reg.get("g").unwrap(), &v2));
        // The old version's state is untouched for in-flight holders.
        assert_eq!(v1.adjacency().row(0).vals, &[1.0]);
        assert_eq!(v2.adjacency().row(0).vals, &[9.0]);
    }

    #[test]
    fn model_graphs_keep_their_model() {
        let reg = GraphRegistry::new();
        let model = GcnModel::two_layer(8, 16, 3, 7);
        let g = reg.register("m", tiny(1.0), Some(model));
        assert!(g.model().is_some());
        assert_eq!(g.model().unwrap().max_features(), 16);
    }
}
