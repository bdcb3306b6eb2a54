//! The online setting end-to-end: an evolving graph invalidates per-graph
//! structures; MergePath-SpMM reschedules cheaply and keeps producing
//! correct results (§III-D).

use merge_path_spmm::core::{
    ExecEngine, MergePathSpmm, NeighborPartitionIndex, NnzSplitSpmm, SerialSpmm, SpmmKernel,
};
use merge_path_spmm::gcn::ops::random_features;
use merge_path_spmm::gcn::GcnModel;
use merge_path_spmm::graphs::{gcn_normalize, DatasetSpec, GraphClass, GraphStream};

fn spec() -> DatasetSpec {
    DatasetSpec::custom("live", GraphClass::PowerLaw, 400, 1_600, 60)
}

#[test]
fn evolving_graph_invalidates_and_rebuilds() {
    let mut stream = GraphStream::new(&spec(), 11);
    let kernel = MergePathSpmm::with_threads(32);
    let x = random_features(400, 16, 0.5, 1);

    let mut schedule = kernel.schedule(stream.snapshot(), 16);
    let mut ng_index = NeighborPartitionIndex::build(stream.snapshot(), 4);

    for step in 0..4 {
        let a = stream.step(25, 10).clone();
        // Both per-graph structures are stale now.
        assert!(!schedule.matches(&a), "step {step}: schedule must be stale");
        assert!(!ng_index.matches(&a), "step {step}: NG index must be stale");

        // Online rebuild + correct execution on the new snapshot.
        schedule = kernel.schedule(&a, 16);
        ng_index = NeighborPartitionIndex::build(&a, 4);
        assert!(schedule.matches(&a));
        assert!(ng_index.matches(&a));

        let (want, _) = SerialSpmm.spmm_sequential(&a, &x).expect("serial");
        let (got, _) = kernel.spmm_sequential(&a, &x).expect("mergepath");
        assert!(got.approx_eq(&want, 1e-3).expect("same shape"));
        let plan = ng_index.to_plan();
        plan.validate(&a).expect("rebuilt NG plan is valid");
    }
    assert_eq!(stream.generation(), 4);
}

#[test]
fn gnn_zoo_runs_on_each_snapshot() {
    // The GCN aggregates through the SpMM engine as the graph evolves.
    let mut stream = GraphStream::new(&spec(), 13);
    let engine = ExecEngine::new(24);
    let gcn_model = GcnModel::two_layer(12, 16, 4, 2);
    let x = random_features(400, 12, 0.5, 7);

    for _ in 0..3 {
        let a = stream.step(20, 20).clone();
        let gcn_out = gcn_model
            .forward(&gcn_normalize(&a), &x, &engine)
            .expect("gcn forward");
        assert_eq!(gcn_out.cols(), 4);
        assert!(gcn_out.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn gnnadvisor_also_stays_correct_under_churn() {
    let mut stream = GraphStream::new(&spec(), 17);
    let x = random_features(400, 8, 0.5, 9);
    for _ in 0..3 {
        let a = stream.step(15, 15).clone();
        let (want, _) = SerialSpmm.spmm_sequential(&a, &x).expect("serial");
        let (got, stats) = NnzSplitSpmm::new()
            .spmm_sequential(&a, &x)
            .expect("gnnadvisor");
        assert!(got.approx_eq(&want, 1e-3).expect("same shape"));
        assert_eq!(stats.atomic_nnz, a.nnz(), "GNNAdvisor is all-atomic");
    }
}
