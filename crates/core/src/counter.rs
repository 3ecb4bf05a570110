//! Counter analysis (§3 of the paper) — deliberately modest.
//!
//! Counters are traceability's worst case: any non-trivial increment
//! history is non-recoverable, because we cannot tell *which* increment
//! produced a given value. What survives:
//!
//! * **rr ordering**: when every increment is positive, versions are
//!   monotonically increasing, so committed reads order by value;
//! * **bounds checking**: a read below 0 or above the sum of all positive
//!   increments can never have been produced — a garbage read;
//! * **internal consistency**: within one transaction, a read must equal
//!   the previous read plus the transaction's own increments since.
//!
//! That is a smaller contribution to the same [`DatatypeAnalysis`]
//! pipeline the other datatypes use: the shared internal pass, a flat
//! gather, and a per-key pass — so the batch and streaming drivers
//! handle counters with the same generic calls. Counters have no
//! element-carrying writes, hence no duplicate-write or coverage
//! contribution.
//!
//! Increments and read values are external input, so their arithmetic
//! never wraps: the reachable bound saturates, and an internal
//! expectation that overflows is not checked.

use crate::anomaly::{AnomalyType, Witness};
use crate::datatype::{
    internal_pass, AnalysisCtx, DatatypeAnalysis, InternalMismatch, KeySink, Vocab,
};
use crate::gather::GatherBuf;
use crate::observation::DataType;
use elle_history::{Elem, Key, Mop, ReadValue, TxnId, TxnStatus};

/// One counter-key event from the flat gather scan.
#[derive(Debug, Clone, Copy)]
pub enum CounterOcc {
    /// An increment (any status); `may_commit` mirrors
    /// `TxnStatus::may_have_committed` for the bound computation.
    Inc {
        /// The increment amount.
        amount: i64,
        /// Whether the incrementing transaction may have committed.
        may_commit: bool,
    },
    /// A committed read `(txn, value)`.
    Read(TxnId, i64),
}

/// Increment counters: bounds-checked reads ordered by value.
pub struct Counter;

impl DatatypeAnalysis for Counter {
    type Config = ();
    type Aux<'h> = ();
    type Occ<'h> = CounterOcc;

    const DATATYPE: DataType = DataType::Counter;
    const VOCAB: Vocab = Vocab {
        object: "counter",
        item: "value",
        wrote: "incremented",
        written: "incremented",
        wrote_to: "incremented",
        rmw: "incremented",
        garbage_per_reader: true,
        element_writes: false,
    };

    /// Internal consistency: a read must equal the previous read plus
    /// the transaction's own increments since. The state is the value
    /// the next read must return — unknown before the first read and
    /// after an increment overflows.
    fn check_internal(cx: &AnalysisCtx<'_, ()>, sink: &mut KeySink) {
        #[derive(Default)]
        struct St {
            expected: Option<i64>,
        }
        internal_pass(cx, sink, |_t, m, key, st: &mut St| match m {
            Mop::Increment { amount, .. } => {
                st.expected = st.expected.and_then(|e| e.checked_add(*amount));
                None
            }
            Mop::Read {
                value: Some(ReadValue::Counter(v)),
                ..
            } => {
                let mismatch = st.expected.filter(|e| e != v).map(|e| InternalMismatch {
                    message: format!("read {v} of counter {key}, but prior operations imply {e}"),
                });
                st.expected = Some(*v);
                mismatch
            }
            _ => None,
        });
    }

    fn gather<'h>(cx: &AnalysisCtx<'h, ()>, buf: &mut GatherBuf<CounterOcc>) {
        for t in cx.scoped_txns() {
            for m in &t.mops {
                match m {
                    Mop::Increment { key, amount } => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(
                                slot,
                                CounterOcc::Inc {
                                    amount: *amount,
                                    may_commit: t.status.may_have_committed(),
                                },
                            );
                        }
                    }
                    Mop::Read {
                        key,
                        value: Some(ReadValue::Counter(v)),
                    } if t.status == TxnStatus::Committed => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(slot, CounterOcc::Read(t.id, *v));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn observed_elems(_occs: &[CounterOcc]) -> Vec<Elem> {
        Vec::new()
    }

    /// Bounds-check the key's committed reads and derive the `rr`
    /// chain over their distinct values.
    fn analyze_key<'h>(
        cx: &AnalysisCtx<'h, ()>,
        _aux: &(),
        key: Key,
        occs: &[CounterOcc],
        _poisoned: bool,
        sink: &mut KeySink,
    ) {
        // Vacuously true until a non-positive increment shows up.
        let mut all_positive = true;
        // Sum of positive increments by may-have-committed transactions.
        let mut bound = 0i64;
        // Committed reads `(txn, value)`, in invocation order.
        let mut reads: Vec<(TxnId, i64)> = Vec::new();
        for occ in occs {
            match *occ {
                CounterOcc::Inc { amount, may_commit } => {
                    all_positive = all_positive && amount > 0;
                    if may_commit && amount > 0 {
                        bound = bound.saturating_add(amount);
                    }
                }
                CounterOcc::Read(t, v) => reads.push((t, v)),
            }
        }
        if reads.is_empty() || !all_positive {
            // Mixed-sign increments: no ordering or bounds inference.
            return;
        }
        for &(t, v) in &reads {
            if v < 0 || v > bound {
                sink.anomaly(
                    AnomalyType::GarbageRead,
                    vec![t],
                    key,
                    format!(
                        "{}\n  read {v} of counter {key}, outside the reachable range \
                         [0, {bound}]",
                        cx.history.get(t).to_notation()
                    ),
                );
            }
        }
        // rr chain over distinct observed values.
        reads.sort_by_key(|&(_, v)| v);
        reads.dedup();
        for w in reads.windows(2) {
            let ((ta, va), (tb, vb)) = (w[0], w[1]);
            if va < vb && ta != tb {
                sink.edge(ta, tb, Witness::Rr { key });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{self, DriverOutput};
    use crate::observation::{ElemIndex, KeyTypes};
    use elle_graph::EdgeClass;
    use elle_history::{History, HistoryBuilder};

    fn run(h: &History) -> DriverOutput {
        let keys = KeyTypes::infer(h).keys_of(DataType::Counter);
        datatype::run::<Counter>(h, &ElemIndex::build(h), &keys, ())
    }

    fn types(a: &DriverOutput) -> Vec<AnomalyType> {
        let mut t: Vec<AnomalyType> = a.anomalies.iter().map(|x| x.typ).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    #[test]
    fn rr_ordering_by_value() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 1).commit();
        b.txn(1).increment(1, 1).commit();
        let t2 = b.txn(2).read_counter(1, 1).commit();
        let t3 = b.txn(3).read_counter(1, 2).commit();
        let a = run(&b.build());
        assert!(a.deps.edge_mask(t2.0, t3.0).contains(EdgeClass::Rr));
        assert!(!a.deps.edge_mask(t3.0, t2.0).contains(EdgeClass::Rr));
    }

    #[test]
    fn out_of_range_read_is_garbage() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 2).commit();
        b.txn(1).read_counter(1, 5).commit();
        b.txn(2).read_counter(1, -1).commit();
        let a = run(&b.build());
        assert_eq!(
            a.anomalies
                .iter()
                .filter(|x| x.typ == AnomalyType::GarbageRead)
                .count(),
            2
        );
    }

    #[test]
    fn aborted_increments_do_not_raise_bound() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 2).commit();
        b.txn(1).increment(1, 10).abort();
        b.txn(2).read_counter(1, 12).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::GarbageRead));
    }

    #[test]
    fn mixed_sign_disables_inference() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 5).commit();
        b.txn(1).increment(1, -3).commit();
        b.txn(2).read_counter(1, 99).commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty());
        assert_eq!(a.deps.edge_count(), 0);
    }

    #[test]
    fn internal_inconsistency() {
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .read_counter(1, 0)
            .increment(1, 2)
            .read_counter(1, 5)
            .commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::Internal));
    }

    #[test]
    fn internal_consistency_holds() {
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .read_counter(1, 0)
            .increment(1, 2)
            .read_counter(1, 2)
            .commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    }

    #[test]
    fn reachable_bound_saturates_instead_of_wrapping() {
        // Two maximal increments exceed i64; a wrapped bound (-2) would
        // turn the in-range read of 5 into a garbage read.
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, i64::MAX).commit();
        b.txn(1).increment(1, i64::MAX).commit();
        b.txn(2).read_counter(1, 5).commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    }

    #[test]
    fn overflowing_internal_expectation_is_not_checked() {
        // The expected value i64::MAX + 1 is not representable, so the
        // read cannot be shown inconsistent.
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .read_counter(1, i64::MAX)
            .increment(1, 1)
            .read_counter(1, 0)
            .commit();
        let a = run(&b.build());
        assert!(!types(&a).contains(&AnomalyType::Internal), "{a:?}");
    }

    #[test]
    fn conflicted_key_reports_no_foreign_duplicates() {
        // Key 1 is typed a counter (counter and set usage conflict); the
        // duplicated set add is not a counter write.
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 1).commit();
        b.txn(1).add_to_set(1, 5).commit();
        b.txn(2).add_to_set(1, 5).commit();
        let h = b.build();
        assert_eq!(KeyTypes::infer(&h).get(Key(1)), Some(DataType::Counter));
        assert_eq!(ElemIndex::build(&h).duplicates.len(), 1);
        let a = run(&h);
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    }
}
