//! Property tests for the (SCC × anomaly class) cycle search: the
//! early-acyclic certificate must not change the **bytes** of the
//! anomaly report, on randomly generated histories with real anomalies
//! (weak isolation levels, faults, contention).

use elle_core::datatype::run;
use elle_core::list_append::ListAppend;
use elle_core::{
    add_process_edges, add_realtime_edges, find_cycle_anomalies_frozen, CycleSearchOptions,
    DataType, KeyTypes, ProvenanceIndex,
};
use elle_dbsim::{DbConfig, FaultPlan, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use elle_history::History;
use proptest::prelude::*;

fn arb_history() -> impl Strategy<Value = History> {
    (
        any::<u64>(),  // seed
        1usize..=6,    // processes
        40usize..=120, // txns
        1usize..=4,    // active keys — few keys, high contention
        prop_oneof![
            Just(IsolationLevel::ReadUncommitted),
            Just(IsolationLevel::ReadCommitted),
            Just(IsolationLevel::SnapshotIsolation),
            Just(IsolationLevel::Serializable),
        ],
        prop::bool::ANY, // faults
    )
        .prop_map(|(seed, procs, n, keys, iso, faults)| {
            let params = GenParams {
                n_txns: n,
                min_txn_len: 1,
                max_txn_len: 5,
                active_keys: keys,
                writes_per_key: 16,
                read_prob: 0.5,
                kind: ObjectKind::ListAppend,
                seed,
                final_reads: true,
            };
            let db = DbConfig::new(iso, ObjectKind::ListAppend)
                .with_processes(procs)
                .with_seed(seed ^ 0x5eed)
                .with_faults(if faults {
                    FaultPlan::typical()
                } else {
                    FaultPlan::none()
                });
            run_workload(params, db).expect("history pairs")
        })
}

/// Assemble the IDSG the same way the checker does: datatype inference
/// plus derived orders.
fn idsg(h: &History) -> elle_core::DepGraph {
    let elems = ProvenanceIndex::build(h);
    let keys = KeyTypes::infer(h).keys_of(DataType::List);
    let out = run::<ListAppend>(h, &elems, &keys, ());
    let mut deps = out.deps;
    add_process_edges(&mut deps, h);
    add_realtime_edges(&mut deps, h);
    deps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The early-acyclic certificate (and the region-restricted
    /// per-class passes it enables) must not change what is found:
    /// reports with and without it are byte-identical.
    #[test]
    fn certificate_is_invisible_in_reports(h in arb_history()) {
        let mut deps = idsg(&h);
        let csr = deps.freeze();
        let base = CycleSearchOptions::default();
        let with = find_cycle_anomalies_frozen(
            &deps, &csr, &h,
            CycleSearchOptions { certificate: true, ..base },
        );
        let without = find_cycle_anomalies_frozen(
            &deps, &csr, &h,
            CycleSearchOptions { certificate: false, ..base },
        );
        prop_assert_eq!(
            serde_json::to_string(&with).unwrap(),
            serde_json::to_string(&without).unwrap()
        );
    }
}
