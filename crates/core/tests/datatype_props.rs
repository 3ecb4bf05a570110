//! Property tests for the key-partitioned [`elle_core::datatype`]
//! pipeline, end to end: repeated checker runs over the same randomly
//! generated history must produce identical reports.

use elle_core::{CheckOptions, Checker};
use elle_dbsim::{DbConfig, FaultPlan, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use elle_history::History;
use proptest::prelude::*;

fn arb_history() -> impl Strategy<Value = History> {
    (
        prop_oneof![
            Just(ObjectKind::ListAppend),
            Just(ObjectKind::Register),
            Just(ObjectKind::Set),
            Just(ObjectKind::Counter),
        ],
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
        .prop_map(|(kind, seed, procs, n, keys, iso, faults)| {
            let params = GenParams {
                n_txns: n,
                min_txn_len: 1,
                max_txn_len: 5,
                active_keys: keys,
                writes_per_key: 16,
                read_prob: 0.5,
                kind,
                seed,
                final_reads: true,
            };
            let db = DbConfig::new(iso, kind)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End to end: two full checker runs over the same history produce
    /// byte-identical reports, for every datatype.
    #[test]
    fn checker_reports_are_stable(h in arb_history()) {
        let opts = CheckOptions::strict_serializable();
        let r1 = Checker::new(opts).check(&h);
        let r2 = Checker::new(opts).check(&h);
        prop_assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }
}
