//! Generated inputs. Everything the program sees is made here from the
//! workload seed; the same seed gives the same bytes.

use elle::core::CheckOptions;
use elle::dbsim::{DbConfig, IsolationLevel, ObjectKind};
use elle::gen::GenParams;
use elle::history::{Event, EventKind, EventLog};

/// The options `elle-check`, `elle-stream` and `elle-serve` check with
/// when given no flags.
pub fn default_opts() -> CheckOptions {
    CheckOptions::strict_serializable()
        .with_process_edges(false)
        .with_realtime_edges(false)
}

/// A §7.5-shaped history (1–5 mops per txn, 100 active keys, 100
/// writes per key) of `kind` objects from 20 clients of a serializable
/// simulated database. Serializable means the oracle verdict is `ok`.
pub fn paper_log(n_txns: usize, kind: ObjectKind, seed: u64) -> EventLog {
    let params = GenParams {
        kind,
        ..GenParams::paper_perf(n_txns)
    }
    .with_seed(seed);
    let db = DbConfig::new(IsolationLevel::Serializable, kind)
        .with_processes(20)
        .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(20));
    elle::gen::run_workload_log(params, db)
}

/// One serialized event per line, without the newline.
pub fn event_lines(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|ev| serde_json::to_string(ev).expect("events serialize"))
        .collect()
}

/// Index of the line holding the `n`-th invocation (1-based), or the
/// line count when there are fewer: the split point before which
/// exactly `n - 1` transactions were invoked.
pub fn nth_invoke(events: &[Event], n: usize) -> usize {
    events
        .iter()
        .enumerate()
        .filter(|(_, ev)| ev.kind == EventKind::Invoke)
        .nth(n.saturating_sub(1))
        .map_or(events.len(), |(i, _)| i)
}
