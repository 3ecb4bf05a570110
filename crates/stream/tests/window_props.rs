//! Windowed-retirement differentials: a bounded-memory checker must be
//! **exactly** the unbounded checker wherever its window says `exact`,
//! must say `Indeterminate(window-evicted)` — never silence, never
//! fabrication — where it is not, and must actually hold resident
//! memory flat under a byte budget while the unbounded checker grows.

use elle_core::{AnomalyType, CheckOptions};
use elle_history::{events_from_ndjson, history_to_ndjson, Event, History, HistoryBuilder};
use elle_stream::{StreamChecker, WindowCarry, WindowPolicy};
use proptest::prelude::*;

/// SplitMix64: deterministic per-index randomness without an RNG dep.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A key-rotating history: every `span` transactions the active key
/// advances and the previous key is never touched again — the
/// Jepsen-style workload shape windowed retirement is built for (a hot
/// key pins its touchers; a rotated-away key quiesces and can be
/// retired). Key `k` is a list, register, set or counter by `k % 4`,
/// so retirement, stashing and restore run for every datatype. Reads
/// observe the serial state, except on the first counter key (key 3):
/// its first transaction reads negative values (two garbage reads) and
/// one that disagrees with its own increment (an internal
/// inconsistency), so those anomalies must survive that key's
/// retirement.
fn rotating_history(seed: u64, n_txns: usize, span: usize, procs: u32) -> History {
    let span = span.max(1);
    let mut b = HistoryBuilder::new();
    let mut seen: Vec<u64> = Vec::new(); // the active key's writes so far
    let mut sum = 0i64; // the active counter's committed total
    for i in 0..n_txns {
        let key = (i / span) as u64;
        if i % span == 0 {
            seen.clear();
            sum = 0;
        }
        let r = mix(seed, i as u64);
        let p = (r % u64::from(procs.max(1))) as u32;
        let observe = r & 2 != 0;
        let e = i as u64;
        let t = b.txn(p);
        let t = match key % 4 {
            0 => {
                seen.push(e);
                let t = t.append(key, e);
                if observe {
                    t.read_list(key, seen.iter().copied())
                } else {
                    t.read(key)
                }
            }
            1 => {
                let t = if observe {
                    t.read_register(key, seen.last().copied())
                } else {
                    t
                };
                seen.push(e);
                t.write(key, e)
            }
            2 => {
                seen.push(e);
                let t = t.add_to_set(key, e);
                if observe {
                    t.read_set(key, seen.iter().copied())
                } else {
                    t
                }
            }
            _ if key == 3 && i % span == 0 => {
                sum += 1;
                t.read_counter(key, -2)
                    .increment(key, 1)
                    .read_counter(key, -3)
            }
            _ => {
                sum += 1 + (r >> 8) as i64 % 3;
                let t = t.increment(key, 1 + (r >> 8) as i64 % 3);
                if observe {
                    t.read_counter(key, sum)
                } else {
                    t
                }
            }
        };
        t.commit();
    }
    b.build()
}

fn events_of(h: &History) -> Vec<Event> {
    events_from_ndjson(&history_to_ndjson(h))
        .expect("builder histories round-trip")
        .into_events()
}

/// Feed both checkers the same events with seals every `per_epoch`
/// transactions (2 events per builder transaction). Wherever the
/// windowed checker claims `exact`, its report must serialize to the
/// unbounded checker's bytes; wherever it does not, it must carry the
/// `window-evicted` marker. Returns the transactions retired in total.
fn assert_windowed_differential(
    events: &[Event],
    opts: CheckOptions,
    window: WindowPolicy,
    per_epoch: usize,
) -> Result<usize, String> {
    let mut windowed = StreamChecker::with_window(opts, window);
    let mut unbounded = StreamChecker::new(opts);
    let mut since = 0usize;
    let mut retired = 0usize;
    let check = |w: &mut StreamChecker, u: &mut StreamChecker| -> Result<usize, String> {
        let ew = w.seal_epoch();
        let eu = u.seal_epoch();
        prop_assert!(eu.window.is_none(), "unbounded epochs carry no window");
        let stats = ew.window.expect("windowed epochs carry window stats");
        prop_assert_eq!(stats.retained_txns + stats.retired_txns, eu.txns);
        if stats.exact {
            prop_assert_eq!(
                serde_json::to_string(&ew.report).unwrap(),
                serde_json::to_string(&eu.report).unwrap(),
                "exact windowed epoch {} diverged (retired {})",
                ew.epoch,
                stats.retired_txns
            );
        } else {
            prop_assert!(
                ew.report
                    .anomaly_counts
                    .contains_key(&AnomalyType::WindowEvicted),
                "inexact epoch must say window-evicted"
            );
        }
        Ok(stats.retired_txns)
    };
    for ev in events {
        windowed.ingest_event(ev).expect("well-formed");
        unbounded.ingest_event(ev).expect("well-formed");
        since += 1;
        if since >= per_epoch * 2 {
            retired = check(&mut windowed, &mut unbounded)?;
            since = 0;
        }
    }
    retired = retired.max(check(&mut windowed, &mut unbounded)?);
    Ok(retired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rotating workloads under txn-count windows: every epoch stays
    /// exact (no retired key is ever touched again), so every verdict
    /// must be byte-identical to the unbounded checker's.
    #[test]
    fn windowed_equals_unbounded_on_rotating_keys(
        seed in any::<u64>(),
        n in 40usize..140,
        span in 2usize..6,
        window in 8usize..48,
        per_epoch in 3usize..9,
        derived in 0usize..3,
    ) {
        let h = rotating_history(seed, n, span, 4);
        let events = events_of(&h);
        let mut opts = CheckOptions::strict_serializable();
        if derived >= 1 {
            opts = opts.with_process_edges(true);
        }
        if derived >= 2 {
            opts = opts.with_realtime_edges(true);
        }
        let retired = assert_windowed_differential(
            &events, opts, WindowPolicy::TxnCount(window), per_epoch)?;
        // The differential must actually exercise retirement when the
        // window is much smaller than the history.
        if n > 2 * window + 2 * span {
            prop_assert!(retired > 0, "window {} never retired over {} txns", window, n);
        }
    }

    /// Byte budgets: same exactness contract, driven by resident size
    /// instead of a count.
    #[test]
    fn byte_budget_stays_exact_on_rotating_keys(
        seed in any::<u64>(),
        n in 60usize..140,
        span in 2usize..5,
        budget in 8usize..64,
    ) {
        let h = rotating_history(seed, n, span, 4);
        let events = events_of(&h);
        let opts = CheckOptions::strict_serializable();
        assert_windowed_differential(
            &events, opts, WindowPolicy::Bytes(budget * 1024), 5)?;
    }
}

/// A retired key that is touched again: the checker must *say* it can
/// no longer judge that key — a sticky `Indeterminate(window-evicted)`
/// marker — rather than silently rejudging from partial evidence.
#[test]
fn evicted_witness_reports_window_evicted() {
    let mut b = HistoryBuilder::new();
    for i in 0..6u64 {
        b.txn(0).append(1, i).commit();
    }
    for i in 6..30u64 {
        b.txn(0).append(2, i).commit();
    }
    // The late toucher of the retired key 1.
    b.txn(0).append(1, 99).read(1).commit();
    b.txn(0).append(3, 100).commit();
    let events = events_of(&b.build());
    let opts = CheckOptions::strict_serializable();
    let mut checker = StreamChecker::with_window(opts, WindowPolicy::TxnCount(8));
    // Epoch 0: everything before the late toucher. Key 1 quiesced at
    // txn 5, so the retirement watermark can pass it.
    for ev in &events[..60] {
        checker.ingest_event(ev).expect("well-formed");
    }
    let e0 = checker.seal_epoch();
    let w0 = e0.window.expect("windowed");
    assert!(w0.exact, "nothing evicted yet");
    assert!(
        w0.retired_txns >= 6,
        "key 1's touchers must be retired, got {}",
        w0.retired_txns
    );
    assert!(checker.retired_txns() >= 6);
    // Epoch 1: key 1 comes back. Its version evidence is gone.
    for ev in &events[60..] {
        checker.ingest_event(ev).expect("well-formed");
    }
    let e1 = checker.seal_epoch();
    let w1 = e1.window.expect("windowed");
    assert!(!w1.exact, "touching a retired key makes the epoch inexact");
    assert_eq!(
        e1.report
            .anomaly_counts
            .get(&AnomalyType::WindowEvicted)
            .copied(),
        Some(1),
        "exactly one compromised key"
    );
    // Never fabricated: the marker is indeterminate, not a violation.
    assert!(e1.report.ok(), "window-evicted must not fail the model");
    // Sticky: later epochs that never touch key 1 still disclose it.
    let e2 = checker.seal_epoch();
    assert!(!e2.window.expect("windowed").exact);
    assert_eq!(
        e2.report
            .anomaly_counts
            .get(&AnomalyType::WindowEvicted)
            .copied(),
        Some(1)
    );
}

/// Timestamp edges admit id-backward ordering, so retirement is
/// disabled under them: the window reports but never retires.
#[test]
fn timestamps_disable_retirement() {
    let mut b = HistoryBuilder::new();
    for i in 0..40u64 {
        b.txn(0)
            .append(i / 4, i)
            .timestamps(2 * i, 2 * i + 1)
            .commit();
    }
    let events = events_of(&b.build());
    let opts = CheckOptions::strict_serializable().with_timestamp_edges(true);
    let mut checker = StreamChecker::with_window(opts, WindowPolicy::TxnCount(4));
    for ev in &events {
        checker.ingest_event(ev).expect("well-formed");
    }
    let e = checker.seal_epoch();
    let w = e.window.expect("windowed");
    assert_eq!(w.retired_txns, 0);
    assert!(w.exact);
}

/// The long-run soak the tentpole exists for: ≥500 epochs of a
/// key-rotating stream under a tight byte budget. The windowed
/// checker's residency must stay flat (within 2× of its post-warmup
/// floor) while the unbounded checker grows without bound.
#[test]
fn soak_resident_bytes_stays_flat_over_500_epochs() {
    let n_txns = 1500usize;
    let span = 3usize;
    let per_epoch = 3usize; // 500 epochs
    let budget = 48 * 1024usize;
    let h = rotating_history(0xE11E_50A7, n_txns, span, 4);
    let events = events_of(&h);
    let opts = CheckOptions::strict_serializable();
    let mut windowed = StreamChecker::with_window(opts, WindowPolicy::Bytes(budget));
    let mut unbounded = StreamChecker::new(opts);
    let mut since = 0usize;
    let mut epochs = 0usize;
    let mut floor = usize::MAX;
    let mut peak_after_warmup = 0usize;
    for ev in &events {
        windowed.ingest_event(ev).expect("well-formed");
        unbounded.ingest_event(ev).expect("well-formed");
        since += 1;
        if since >= per_epoch * 2 {
            since = 0;
            let ew = windowed.seal_epoch();
            unbounded.seal_epoch();
            epochs += 1;
            let stats = ew.window.expect("windowed");
            assert!(stats.exact, "rotating keys never compromise the window");
            // Warmup: let the window fill and the first retirements
            // land before measuring flatness.
            if epochs > 50 {
                floor = floor.min(stats.resident_bytes);
                peak_after_warmup = peak_after_warmup.max(stats.resident_bytes);
            }
        }
    }
    assert!(epochs >= 500, "soak must cover 500 epochs, got {epochs}");
    assert!(
        windowed.retired_txns() > n_txns / 2,
        "the soak must retire most of the stream, retired {}",
        windowed.retired_txns()
    );
    // Byte-budget retirement keeps half the retained set, so residency
    // oscillates inside [budget/2, ~budget]: flat means the peak never
    // escapes 2× the configured budget, epoch after epoch.
    assert!(
        peak_after_warmup <= 2 * budget,
        "windowed residency not flat: budget {budget}, floor {floor}, peak {peak_after_warmup}"
    );
    assert!(
        floor >= budget / 4,
        "floor {floor} suspiciously low — retirement overshooting"
    );
    let final_windowed = windowed.resident_bytes();
    let final_unbounded = unbounded.resident_bytes();
    assert!(
        final_unbounded > 4 * final_windowed,
        "unbounded ({final_unbounded}) must dwarf windowed ({final_windowed})"
    );
}

/// Snapshot + restore under an active window: the carry must bring
/// back everything retirement folded out, so the restored checker's
/// next verdicts are byte-identical to the uninterrupted checker's.
#[test]
fn windowed_snapshot_restore_is_byte_identical() {
    let h = rotating_history(77, 90, 3, 4);
    let events = events_of(&h);
    let opts = CheckOptions::strict_serializable().with_process_edges(true);
    let mut original = StreamChecker::with_window(opts, WindowPolicy::TxnCount(12));
    let split = 120usize; // 60 txns in, mid-stream
    let mut since = 0usize;
    for ev in &events[..split] {
        original.ingest_event(ev).expect("well-formed");
        since += 1;
        if since >= 20 {
            since = 0;
            original.seal_epoch();
        }
    }
    assert!(
        original.retired_txns() > 0,
        "the snapshot must span retirement"
    );
    let snap = original.snapshot();
    let carry = snap.window.as_ref().expect("windowed snapshots carry");
    // The carry is what elle-serve persists: it must survive the wire.
    let wire = serde_json::to_string(carry).expect("carry serializes");
    let back: WindowCarry = serde_json::from_str(&wire).expect("carry parses");
    assert_eq!(carry, &back);
    let mut restored = StreamChecker::restore(opts, &snap);
    assert_eq!(restored.window_policy(), WindowPolicy::TxnCount(12));
    assert_eq!(restored.retired_txns(), original.retired_txns());
    for ev in &events[split..] {
        original.ingest_event(ev).expect("well-formed");
        restored.ingest_event(ev).expect("well-formed");
    }
    let eo = original.seal_epoch();
    let er = restored.seal_epoch();
    assert_eq!(
        serde_json::to_string(&eo.report).unwrap(),
        serde_json::to_string(&er.report).unwrap(),
        "restored verdict must be byte-identical"
    );
    assert_eq!(eo.window, er.window);
    // The early counter key's anomalies were found before it retired
    // and must still be reported from the stash.
    assert!(original.retired_txns() > 12, "key 3 (txns 9..12) retired");
    let counts = &er.report.anomaly_counts;
    assert_eq!(counts.get(&AnomalyType::Internal).copied(), Some(1));
    assert_eq!(counts.get(&AnomalyType::GarbageRead).copied(), Some(2));
}
