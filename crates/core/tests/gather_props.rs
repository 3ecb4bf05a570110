//! Differential property tests for the flat sort-based gather: on
//! arbitrary histories — poisoned keys, duplicate elements, aborted and
//! info transactions, garbage reads — [`analyze_keys`] (packed
//! `(slot, occurrence)` buffer + counting sort) must be **byte-for-byte**
//! identical to [`analyze_keys_ref`], the retained hash-map grouping it
//! replaced (`FxHashMap<Key, Vec<Occ>>` + explicit key sort over the
//! same occurrence stream): same key order, same anomaly vector
//! (explanation strings included), same edges and witnesses, same
//! version orders, cyclic flags, and observed elements — for all four
//! datatypes. The streaming side of the
//! differential (flat gather under random epoch splits == batch on
//! every prefix) lives in `crates/stream/tests/stream_props.rs`.

use elle_core::counter::Counter;
use elle_core::datatype::{
    analyze_keys, analyze_keys_ref, duplicate_anomalies, AnalysisCtx, DatatypeAnalysis, KeySink,
};
use elle_core::list_append::ListAppend;
use elle_core::rw_register::{RegisterOptions, RwRegister};
use elle_core::set_add::SetAdd;
use elle_core::{KeyTypes, ProvenanceIndex};
use elle_dbsim::{DbConfig, FaultPlan, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use elle_history::{History, Key};
use proptest::prelude::*;

fn arb_history(kind: ObjectKind) -> impl Strategy<Value = History> {
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
        prop::bool::ANY, // faults (dirty reads, aborts, duplicate writes…)
    )
        .prop_map(move |(seed, procs, n, keys, iso, faults)| {
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

/// Byte-for-byte equality of two `(key, sink)` streams: every field of
/// every sink, in the same key order.
fn assert_sinks_identical(new: &[(Key, KeySink)], seed: &[(Key, KeySink)]) -> Result<(), String> {
    prop_assert_eq!(new.len(), seed.len(), "occupied key counts diverge");
    for ((nk, ns), (sk, ss)) in new.iter().zip(seed) {
        prop_assert_eq!(nk, sk, "key order diverges");
        prop_assert_eq!(&ns.anomalies, &ss.anomalies, "anomalies diverge on {}", nk);
        prop_assert_eq!(&ns.edges, &ss.edges, "edges diverge on {}", nk);
        prop_assert_eq!(
            &ns.version_order,
            &ss.version_order,
            "version order diverges on {}",
            nk
        );
        prop_assert_eq!(ns.cyclic, ss.cyclic, "cyclic flag diverges on {}", nk);
        prop_assert_eq!(
            &ns.observed_elems,
            &ss.observed_elems,
            "observed elems diverge on {}",
            nk
        );
    }
    Ok(())
}

/// Run one datatype through both pipelines.
fn assert_flat_matches_ref<D: DatatypeAnalysis>(
    h: &History,
    config: D::Config,
) -> Result<(), String> {
    let elems = ProvenanceIndex::build(h);
    let keys = KeyTypes::infer(h).keys_of(D::DATATYPE);
    let cx = AnalysisCtx {
        history: h,
        elems: &elems,
        keys: keys.iter().copied().collect(),
        config,
        scope: None,
    };
    let (_, poisoned) = duplicate_anomalies(&cx, &D::VOCAB);
    let (new, _gather) = analyze_keys::<D>(&cx, &poisoned);
    let seed = analyze_keys_ref::<D>(&cx, &poisoned);
    assert_sinks_identical(&new, &seed)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn list_flat_gather_matches_hash_map_ref(h in arb_history(ObjectKind::ListAppend)) {
        assert_flat_matches_ref::<ListAppend>(&h, ())?;
    }

    #[test]
    fn set_flat_gather_matches_hash_map_ref(h in arb_history(ObjectKind::Set)) {
        assert_flat_matches_ref::<SetAdd>(&h, ())?;
    }

    #[test]
    fn register_flat_gather_matches_hash_map_ref(
        h in arb_history(ObjectKind::Register),
        sequential_keys in prop::bool::ANY,
        linearizable_keys in prop::bool::ANY,
    ) {
        let opts = RegisterOptions {
            sequential_keys,
            linearizable_keys,
            ..RegisterOptions::default()
        };
        assert_flat_matches_ref::<RwRegister>(&h, opts)?;
    }

    #[test]
    fn counter_flat_gather_matches_hash_map_ref(h in arb_history(ObjectKind::Counter)) {
        assert_flat_matches_ref::<Counter>(&h, ())?;
    }
}
