//! The top-level checker: orchestrates the per-datatype analyses, assembles
//! the IDSG, runs cycle search, and reasons about consistency models.

use crate::anomaly::{Anomaly, AnomalyType};
use crate::counter::Counter;
use crate::cycle_search::{find_cycle_anomalies_frozen, CycleSearchOptions};
use crate::datatype;
use crate::deps::DepGraph;
use crate::list_append;
use crate::models::{strongest_satisfiable, violated_models, ConsistencyModel};
use crate::observation::{DataType, ElemIndex, KeyTypes};
use crate::orders;
use crate::reference;
use crate::rw_register::{self, RegisterOptions};
use crate::set_add;
use elle_history::History;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// The isolation level the database claims; [`Report::ok`] is judged
    /// against it.
    pub expected: ConsistencyModel,
    /// Derive session-order edges and search for `-process` cycles.
    pub process_edges: bool,
    /// Derive real-time edges and search for `-realtime` cycles.
    pub realtime_edges: bool,
    /// Derive time-precedes edges from database-exposed transaction
    /// timestamps and search the start-ordered serialization graph (§5.1).
    pub timestamp_edges: bool,
    /// Register-mode version-order inference assumptions.
    pub registers: RegisterOptions,
    /// Cap on reported cycles per anomaly type.
    pub max_cycles_per_type: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions::strict_serializable()
    }
}

impl CheckOptions {
    fn base(expected: ConsistencyModel) -> Self {
        CheckOptions {
            expected,
            process_edges: false,
            realtime_edges: false,
            timestamp_edges: false,
            registers: RegisterOptions::default(),
            max_cycles_per_type: 4,
        }
    }

    /// Expect strict serializability: all edge sources enabled.
    pub fn strict_serializable() -> Self {
        CheckOptions {
            process_edges: true,
            realtime_edges: true,
            ..CheckOptions::base(ConsistencyModel::StrictSerializable)
        }
    }

    /// Expect serializability (no session / real-time obligations).
    pub fn serializable() -> Self {
        CheckOptions::base(ConsistencyModel::Serializable)
    }

    /// Expect snapshot isolation.
    pub fn snapshot_isolation() -> Self {
        CheckOptions::base(ConsistencyModel::SnapshotIsolation)
    }

    /// Expect repeatable read.
    pub fn repeatable_read() -> Self {
        CheckOptions::base(ConsistencyModel::RepeatableRead)
    }

    /// Expect read committed.
    pub fn read_committed() -> Self {
        CheckOptions::base(ConsistencyModel::ReadCommitted)
    }

    /// Expect read uncommitted.
    pub fn read_uncommitted() -> Self {
        CheckOptions::base(ConsistencyModel::ReadUncommitted)
    }

    /// Builder-style: toggle session edges.
    pub fn with_process_edges(mut self, on: bool) -> Self {
        self.process_edges = on;
        self
    }

    /// Builder-style: toggle real-time edges.
    pub fn with_realtime_edges(mut self, on: bool) -> Self {
        self.realtime_edges = on;
        self
    }

    /// Builder-style: toggle database-timestamp edges (§5.1).
    pub fn with_timestamp_edges(mut self, on: bool) -> Self {
        self.timestamp_edges = on;
        self
    }

    /// Builder-style: register inference assumptions.
    pub fn with_registers(mut self, r: RegisterOptions) -> Self {
        self.registers = r;
        self
    }

    /// Builder-style: cycle cap per anomaly type.
    pub fn with_max_cycles(mut self, n: usize) -> Self {
        self.max_cycles_per_type = n;
        self
    }
}

/// Statistics gathered during a check.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CheckStats {
    /// Transactions in the history.
    pub txns: usize,
    /// Micro-operations in the history.
    pub mops: usize,
    /// Committed / aborted / indeterminate counts.
    pub committed: usize,
    /// Aborted transactions.
    pub aborted: usize,
    /// Indeterminate transactions.
    pub indeterminate: usize,
    /// Distinct IDSG edges by class label.
    pub edges: BTreeMap<String, usize>,
    /// Element-carrying writes by may-have-committed transactions.
    pub committed_writes: usize,
    /// Of those, how many were observed by at least one committed read —
    /// the paper's §3 caveat: unobserved writes leave the tail of each
    /// version order unknown, so a low fraction means weak coverage.
    pub observed_writes: usize,
}

/// The result of checking a history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Everything found, ordered by type then size. Interned behind
    /// [`Arc`] so the streaming checker's per-epoch report assembly
    /// clones pointers, not explanation strings; serializes exactly
    /// like a plain `Vec<Anomaly>`.
    pub anomalies: Vec<Arc<Anomaly>>,
    /// Count per anomaly type.
    pub anomaly_counts: BTreeMap<AnomalyType, usize>,
    /// Models ruled out by the anomalies.
    pub violated: BTreeSet<ConsistencyModel>,
    /// The frontier of models still tenable.
    pub strongest_satisfiable: Vec<ConsistencyModel>,
    /// The model the check was judged against.
    pub expected: ConsistencyModel,
    /// Workload statistics.
    pub stats: CheckStats,
    /// Non-fatal oddities (key type conflicts, etc.).
    pub warnings: Vec<String>,
}

impl Report {
    /// Did the history satisfy the expected model?
    pub fn ok(&self) -> bool {
        !self.violated.contains(&self.expected)
    }

    /// Anomalies of a given type.
    pub fn of_type(&self, t: AnomalyType) -> impl Iterator<Item = &Anomaly> + '_ {
        self.anomalies
            .iter()
            .map(|a| a.as_ref())
            .filter(move |a| a.typ == t)
    }

    /// The distinct anomaly types found.
    pub fn types(&self) -> Vec<AnomalyType> {
        self.anomaly_counts.keys().copied().collect()
    }

    /// Render a human-readable summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "checked {} txns ({} ok / {} failed / {} info), {} mops",
            self.stats.txns,
            self.stats.committed,
            self.stats.aborted,
            self.stats.indeterminate,
            self.stats.mops
        );
        if self.anomalies.is_empty() {
            let _ = writeln!(s, "no anomalies found; {} holds", self.expected);
        } else {
            let _ = writeln!(s, "anomalies:");
            for (t, n) in &self.anomaly_counts {
                let _ = writeln!(s, "  {t}: {n}");
            }
            let frontier: Vec<String> = self
                .strongest_satisfiable
                .iter()
                .map(|m| m.to_string())
                .collect();
            let _ = writeln!(
                s,
                "strongest tenable model(s): {}",
                if frontier.is_empty() {
                    "none".to_string()
                } else {
                    frontier.join(", ")
                }
            );
            let _ = writeln!(
                s,
                "expected {}: {}",
                self.expected,
                if self.ok() { "holds" } else { "VIOLATED" }
            );
        }
        s
    }
}

/// Per-stage wall-clock breakdown of one check, for `elle-check
/// --timing` and perf-regression triage without a criterion run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// `(stage name, seconds)` in execution order.
    pub stages: Vec<(String, f64)>,
    /// Peak length the flat edge buffer reached before its sort-based
    /// build (0 when no edges were buffered) — the observability hook
    /// for the hash-free EdgeBuf → CSR pipeline.
    pub edge_buf_peak: usize,
    /// Peak flat gather-buffer footprint in bytes across the datatype
    /// passes (0 when nothing was gathered) — the counterpart gauge for
    /// the sort-based gather pipeline.
    pub gather_buf_peak: usize,
    /// Peak bytes parked in the thread-local scratch-buffer pool, i.e.
    /// how much pre-faulted memory later runs get to recycle.
    pub pool_peak: usize,
    /// Events quarantined by the ingest recovery policy so far (0 in
    /// strict runs and on clean streams).
    #[serde(default)]
    pub quarantined_events: usize,
    /// Epoch seals forced by a resource budget (`--max-epoch-ms`)
    /// rather than a watermark (0 in batch runs and unbudgeted streams).
    #[serde(default)]
    pub forced_seals: usize,
    /// Bytes resident in the carried checker state after the seal (0 in
    /// batch runs and unwindowed streams, which don't meter residency).
    #[serde(default)]
    pub resident_bytes: usize,
    /// Transactions retired from the window so far (0 outside windowed
    /// streaming).
    #[serde(default)]
    pub retired_txns: usize,
}

impl StageTimings {
    fn record(&mut self, name: &str, since: Instant) -> Instant {
        self.stages
            .push((name.to_string(), since.elapsed().as_secs_f64()));
        Instant::now()
    }

    /// Total seconds across all recorded stages.
    pub fn total(&self) -> f64 {
        self.stages.iter().map(|(_, s)| s).sum()
    }

    /// Render an aligned human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let width = self
            .stages
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max("total".len());
        let mut s = String::new();
        for (name, secs) in &self.stages {
            let _ = writeln!(s, "  {name:<width$}  {:>9.3} ms", secs * 1e3);
        }
        let _ = writeln!(s, "  {:<width$}  {:>9.3} ms", "total", self.total() * 1e3);
        if self.edge_buf_peak > 0 {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>9} edges",
                "edge buf peak", self.edge_buf_peak
            );
        }
        if self.gather_buf_peak > 0 {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>9} bytes",
                "gather buf peak", self.gather_buf_peak
            );
        }
        if self.pool_peak > 0 {
            let _ = writeln!(s, "  {:<width$}  {:>9} bytes", "pool peak", self.pool_peak);
        }
        if self.quarantined_events > 0 {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>9} events",
                "quarantined", self.quarantined_events
            );
        }
        if self.forced_seals > 0 {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>9} seals",
                "forced seals", self.forced_seals
            );
        }
        if self.resident_bytes > 0 {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>9} bytes",
                "resident", self.resident_bytes
            );
        }
        if self.retired_txns > 0 {
            let _ = writeln!(s, "  {:<width$}  {:>9} txns", "retired", self.retired_txns);
        }
        s
    }
}

/// An internal checker failure: a panic captured on the check path.
///
/// Distinct from ingest errors (the *input* was bad) — this means the
/// checker itself failed; CLIs map it to exit code 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalError {
    /// The captured panic payload, if it was a string.
    pub message: String,
}

impl std::fmt::Display for InternalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "internal checker error: {}", self.message)
    }
}

impl std::error::Error for InternalError {}

/// Extract a human-readable message from a captured panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The Elle checker.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checker {
    opts: CheckOptions,
}

/// Output of the shared inference front half (datatype passes merged
/// into one graph, plus everything the report path needs from them).
struct InferredDeps {
    anomalies: Vec<Anomaly>,
    observed: rustc_hash::FxHashSet<(elle_history::Key, elle_history::Elem)>,
    deps: DepGraph,
    warnings: Vec<String>,
}

impl Checker {
    /// A checker with the given options.
    pub fn new(opts: CheckOptions) -> Self {
        Checker { opts }
    }

    /// Check a history, producing a [`Report`].
    pub fn check(&self, history: &History) -> Report {
        self.check_inner(history, false, None)
    }

    /// Check a history with panic isolation: a panic anywhere on the
    /// check path (a checker bug, a pathological history) is caught and
    /// returned as a typed [`InternalError`] instead of unwinding into
    /// the caller — one bad tenant history must not take down a process
    /// checking many.
    pub fn try_check(&self, history: &History) -> Result<Report, InternalError> {
        let me = *self;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || me.check(history))).map_err(
            |payload| InternalError {
                message: panic_message(payload.as_ref()),
            },
        )
    }

    /// Check a history, also returning the per-stage wall-clock
    /// breakdown (parse time is the caller's to measure).
    pub fn check_timed(&self, history: &History) -> (Report, StageTimings) {
        let mut t = StageTimings::default();
        let report = self.check_inner(history, false, Some(&mut t));
        (report, t)
    }

    /// Check a history through the preserved **seed per-read datatype
    /// passes** ([`crate::reference`]) instead of the version-interned
    /// ones. Differential-testing plumbing, not a supported API.
    #[doc(hidden)]
    pub fn check_seed_reference(&self, history: &History) -> Report {
        self.check_inner(history, true, None)
    }

    /// Run only the inference half of [`Checker::check`]: the
    /// per-datatype analyses plus the configured derived-order passes,
    /// returning the assembled IDSG sealed with [`DepGraph::build`] —
    /// no cycle search, no report. This is the export hook external
    /// engines (the `elle-sat` cross-checker) encode from: every edge
    /// in the returned graph is a sound inference about the history,
    /// so a solver may assert each as a unit ordering constraint.
    pub fn infer_idsg(&self, history: &History) -> DepGraph {
        let mut timings = None;
        let mut clock = Instant::now();
        let inferred = self.infer_deps(history, false, &mut timings, &mut clock);
        let mut deps = inferred.deps;
        if self.opts.process_edges {
            orders::add_process_edges(&mut deps, history);
        }
        if self.opts.realtime_edges {
            orders::add_realtime_edges(&mut deps, history);
        }
        if self.opts.timestamp_edges {
            orders::add_timestamp_edges(&mut deps, history);
        }
        deps.build();
        // The datatype drivers charged their scratch to the shared
        // pool gauge; an inference-only caller must not leak that into
        // the next `check()`'s peak reading.
        let _ = crate::pool::take_peak_bytes();
        deps
    }

    /// The shared inference front half: key typing, element index, and
    /// the per-datatype analysis passes, merged into one [`DepGraph`]
    /// (not yet sealed, no derived-order edges). Both [`Checker::check`]
    /// and [`Checker::infer_idsg`] build on this.
    fn infer_deps(
        &self,
        history: &History,
        seed_reference: bool,
        timings: &mut Option<&mut StageTimings>,
        clock: &mut Instant,
    ) -> InferredDeps {
        let opts = self.opts;
        let kt = KeyTypes::infer(history);
        let elems = ElemIndex::build(history);
        if let Some(t) = timings.as_deref_mut() {
            *clock = t.record("key typing + element index", *clock);
        }

        let mut warnings = Vec::new();
        for k in &kt.conflicts {
            warnings.push(format!(
                "key {k} is used as more than one datatype; its inferences are unreliable"
            ));
        }

        let mut anomalies: Vec<Anomaly> = Vec::new();
        let mut observed: rustc_hash::FxHashSet<(elle_history::Key, elle_history::Elem)> =
            rustc_hash::FxHashSet::with_capacity_and_hasher(elems.len(), Default::default());
        let mut gather = datatype::GatherStats::default();
        let mut deps = DepGraph::with_txns(history.len());
        // The first datatype's graph is adopted wholesale; later ones
        // merge into it via a sorted spine merge (cheap: keys partition
        // edges across datatypes).
        let absorb = |deps: &mut DepGraph, other: DepGraph| {
            if deps.edge_count() == 0 {
                let floor = std::mem::replace(deps, other);
                deps.ensure_txns(floor.txns_floor());
            } else {
                deps.merge(other);
            }
        };

        let list_keys = kt.keys_of(DataType::List);
        if !list_keys.is_empty() {
            let out = if seed_reference {
                datatype::run::<reference::ListAppendRef>(history, &elems, &list_keys, ())
            } else {
                datatype::run::<list_append::ListAppend>(history, &elems, &list_keys, ())
            };
            anomalies.extend(out.anomalies);
            observed.extend(out.observed);
            gather.absorb(out.gather);
            absorb(&mut deps, out.deps);
        }
        let reg_keys = kt.keys_of(DataType::Register);
        if !reg_keys.is_empty() {
            let out = if seed_reference {
                datatype::run::<reference::RwRegisterRef>(
                    history,
                    &elems,
                    &reg_keys,
                    opts.registers,
                )
            } else {
                datatype::run::<rw_register::RwRegister>(history, &elems, &reg_keys, opts.registers)
            };
            anomalies.extend(out.anomalies);
            observed.extend(out.observed);
            gather.absorb(out.gather);
            absorb(&mut deps, out.deps);
        }
        let set_keys = kt.keys_of(DataType::Set);
        if !set_keys.is_empty() {
            let out = if seed_reference {
                datatype::run::<reference::SetAddRef>(history, &elems, &set_keys, ())
            } else {
                datatype::run::<set_add::SetAdd>(history, &elems, &set_keys, ())
            };
            anomalies.extend(out.anomalies);
            observed.extend(out.observed);
            gather.absorb(out.gather);
            absorb(&mut deps, out.deps);
        }
        let counter_keys = kt.keys_of(DataType::Counter);
        if !counter_keys.is_empty() {
            let out = datatype::run::<Counter>(history, &elems, &counter_keys, ());
            anomalies.extend(out.anomalies);
            observed.extend(out.observed);
            gather.absorb(out.gather);
            absorb(&mut deps, out.deps);
        }
        // The gather scans ran inside the datatype drivers; split their
        // share out of the inference lap so both stages read true.
        if let Some(t) = timings.as_deref_mut() {
            t.stages.push(("gather".to_string(), gather.secs));
            t.stages.push((
                "datatype inference".to_string(),
                (clock.elapsed().as_secs_f64() - gather.secs).max(0.0),
            ));
            t.gather_buf_peak = gather.buf_bytes;
            *clock = Instant::now();
        }

        InferredDeps {
            anomalies,
            observed,
            deps,
            warnings,
        }
    }

    fn check_inner(
        &self,
        history: &History,
        seed_reference: bool,
        mut timings: Option<&mut StageTimings>,
    ) -> Report {
        let opts = self.opts;
        let mut clock = Instant::now();
        let inferred = self.infer_deps(history, seed_reference, &mut timings, &mut clock);
        let InferredDeps {
            mut anomalies,
            observed,
            mut deps,
            warnings,
        } = inferred;
        fn lap(timings: &mut Option<&mut StageTimings>, name: &str, clock: &mut Instant) {
            if let Some(t) = timings.as_deref_mut() {
                *clock = t.record(name, *clock);
            }
        }

        if opts.process_edges {
            orders::add_process_edges(&mut deps, history);
        }
        if opts.realtime_edges {
            orders::add_realtime_edges(&mut deps, history);
        }
        if opts.timestamp_edges {
            orders::add_timestamp_edges(&mut deps, history);
        }
        lap(&mut timings, "derived orders", &mut clock);

        // Seal the flat edge buffer: one sort-based dedup merge instead
        // of a hash probe per edge.
        deps.build();
        if let Some(t) = timings.as_deref_mut() {
            t.edge_buf_peak = deps.edge_buf_peak();
        }
        lap(&mut timings, "edge build", &mut clock);

        // Freeze the assembled IDSG once; every per-class search walks
        // the same immutable CSR snapshot.
        let frozen = deps.freeze();
        lap(&mut timings, "freeze", &mut clock);
        let cycles = find_cycle_anomalies_frozen(
            &deps,
            &frozen,
            history,
            CycleSearchOptions {
                process_edges: opts.process_edges,
                realtime_edges: opts.realtime_edges,
                timestamp_edges: opts.timestamp_edges,
                max_per_type: opts.max_cycles_per_type,
                certificate: true,
            },
        );
        lap(&mut timings, "cycle search", &mut clock);
        anomalies.extend(cycles);

        // Observation coverage (§3): which committed writes were ever
        // read? The observed-pair sets were computed inside the datatype
        // drivers' per-key passes (no second walk over read payloads);
        // here we only count writes against them.
        let mut committed_writes = 0usize;
        let mut observed_writes = 0usize;
        for t in history.txns() {
            if !t.status.may_have_committed() {
                continue;
            }
            for (_, key, e) in t.elem_writes() {
                committed_writes += 1;
                if observed.contains(&(key, e)) {
                    observed_writes += 1;
                }
            }
        }

        let stats = CheckStats {
            txns: history.len(),
            mops: history.mop_count(),
            committed: history
                .txns()
                .iter()
                .filter(|t| t.status.is_committed())
                .count(),
            aborted: history
                .txns()
                .iter()
                .filter(|t| t.status.is_aborted())
                .count(),
            indeterminate: history
                .txns()
                .iter()
                .filter(|t| !t.status.is_committed() && !t.status.is_aborted())
                .count(),
            edges: BTreeMap::new(), // filled by assemble_report
            committed_writes,
            observed_writes,
        };

        let report = assemble_report(
            opts.expected,
            anomalies.into_iter().map(Arc::new).collect(),
            &deps,
            stats,
            warnings,
        );
        lap(&mut timings, "report assembly", &mut clock);
        if let Some(t) = timings {
            t.pool_peak = crate::pool::take_peak_bytes();
        }
        report
    }
}

/// Assemble a [`Report`] from independently produced parts: sort the
/// anomalies the way [`Checker::check`] does, derive the per-type
/// counts, the violated-model set and the tenable frontier, and fill
/// the per-class edge statistics from the graph's counters.
///
/// Shared by the batch checker path above and by `elle_stream`'s
/// epoch sealing, so a streamed prefix assembles its report through
/// the *same* code — a precondition for the byte-for-byte streaming
/// differential.
#[doc(hidden)]
pub fn assemble_report(
    expected: ConsistencyModel,
    mut anomalies: Vec<Arc<Anomaly>>,
    deps: &DepGraph,
    stats: CheckStats,
    warnings: Vec<String>,
) -> Report {
    anomalies.sort_by(|a, b| a.typ.cmp(&b.typ).then(a.txns.cmp(&b.txns)));
    let mut anomaly_counts: BTreeMap<AnomalyType, usize> = BTreeMap::new();
    for a in &anomalies {
        *anomaly_counts.entry(a.typ).or_insert(0) += 1;
    }
    let typs: Vec<AnomalyType> = anomaly_counts.keys().copied().collect();
    let violated = violated_models(typs.iter());
    let strongest = strongest_satisfiable(typs.iter());
    let mut edges: BTreeMap<String, usize> = BTreeMap::new();
    for (c, n) in deps.class_counts() {
        edges.insert(c.label().to_string(), n);
    }
    let stats = CheckStats { edges, ..stats };
    Report {
        anomalies,
        anomaly_counts,
        violated,
        strongest_satisfiable: strongest,
        expected,
        stats,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_history::HistoryBuilder;

    #[test]
    fn clean_history_ok() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(1, 2).read_list(1, [1, 2]).commit();
        b.txn(2).read_list(1, [1, 2]).commit();
        let r = Checker::new(CheckOptions::strict_serializable()).check(&b.build());
        assert!(r.ok(), "{}", r.summary());
        assert!(r.anomalies.is_empty());
        assert_eq!(
            r.strongest_satisfiable,
            vec![ConsistencyModel::StrictSerializable]
        );
        assert!(r.stats.edges.contains_key("ww"));
    }

    #[test]
    fn paper_tidb_g_single_detected_end_to_end() {
        // §7.1's trio plus seed appends.
        let mut b = HistoryBuilder::new();
        b.txn(9).append(34, 2).commit();
        b.txn(9).append(34, 1).commit();
        b.txn(0)
            .read_list(34, [2, 1])
            .append(36, 5)
            .append(34, 4)
            .at(4, Some(20))
            .commit();
        b.txn(1).append(34, 5).at(5, Some(19)).commit();
        b.txn(2)
            .read_list(34, [2, 1, 5, 4])
            .at(21, Some(22))
            .commit();
        let r = Checker::new(CheckOptions::snapshot_isolation()).check(&b.build());
        assert!(!r.ok(), "{}", r.summary());
        assert!(r.anomaly_counts.contains_key(&AnomalyType::GSingle));
        let a = r.of_type(AnomalyType::GSingle).next().unwrap();
        assert!(
            a.explanation.contains("did not observe"),
            "{}",
            a.explanation
        );
    }

    #[test]
    fn realtime_violation_needs_realtime_edges() {
        // T0 writes, completes; T1 then reads the initial state — stale.
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).at(0, Some(1)).commit();
        b.txn(1).read_list(1, []).at(2, Some(3)).commit();
        b.txn(2).read_list(1, [1]).at(4, Some(5)).commit();
        let h = b.build();
        let strict = Checker::new(CheckOptions::strict_serializable()).check(&h);
        assert!(!strict.ok(), "{}", strict.summary());
        assert!(strict
            .anomaly_counts
            .contains_key(&AnomalyType::GSingleRealtime));
        // Plain serializability is satisfied: the same history passes.
        let ser = Checker::new(CheckOptions::serializable()).check(&h);
        assert!(ser.ok(), "{}", ser.summary());
    }

    #[test]
    fn process_violation() {
        // One process observes, then un-observes, a write.
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).at(0, Some(9)).commit();
        b.txn(1).read_list(1, [1]).at(1, Some(2)).commit(); // p1 sees 1
        b.txn(1).read_list(1, []).at(10, Some(11)).commit(); // p1 unsees
        b.txn(2).append(1, 2).at(12, Some(13)).commit();
        b.txn(3).read_list(1, [1, 2]).at(14, Some(15)).commit();
        let h = b.build();
        let opts = CheckOptions::serializable()
            .with_process_edges(true)
            .with_realtime_edges(false);
        let r = Checker::new(opts).check(&h);
        assert!(
            r.anomaly_counts
                .keys()
                .any(|t| matches!(t, AnomalyType::GSingleProcess | AnomalyType::G1cProcess)),
            "{}",
            r.summary()
        );
    }

    #[test]
    fn mixed_datatypes_merge_into_one_graph() {
        let mut b = HistoryBuilder::new();
        // List cycle half…
        b.txn(0).append(1, 1).read_register(2, Some(7)).commit();
        // …register half: t1 writes 7 but reads list [1] from t0? Build a
        // wr cycle: t0 -> t1 via list, t1 -> t0 via register.
        b.txn(1).write(2, 7).read_list(1, [1]).commit();
        let r = Checker::new(CheckOptions::serializable()).check(&b.build());
        assert!(!r.ok(), "{}", r.summary());
        assert!(r.anomaly_counts.contains_key(&AnomalyType::G1c));
    }

    #[test]
    fn report_serializes() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        let r = Checker::new(CheckOptions::default()).check(&b.build());
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"expected\""));
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stats.txns, 1);
    }

    #[test]
    fn warnings_on_type_conflicts() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).write(1, 2).commit();
        let r = Checker::new(CheckOptions::default()).check(&b.build());
        assert_eq!(r.warnings.len(), 1);
    }

    #[test]
    fn expected_model_gates_ok() {
        // Write skew: legal under SI, illegal under serializable.
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(2, 2).commit();
        b.txn(2)
            .read_list(1, [1])
            .read_list(2, [])
            .append(3, 1)
            .commit();
        b.txn(3)
            .read_list(2, [2])
            .read_list(1, [])
            .append(4, 1)
            .commit();
        b.txn(4).read_list(3, [1]).read_list(4, [1]).commit();
        let h = b.build();
        let si = Checker::new(CheckOptions::snapshot_isolation()).check(&h);
        let ser = Checker::new(CheckOptions::serializable()).check(&h);
        assert!(si.ok(), "{}", si.summary());
        assert!(!ser.ok(), "{}", ser.summary());
        assert!(ser.anomaly_counts.contains_key(&AnomalyType::G2Item));
    }
}
