//! The incremental epoch-based stream checker.
//!
//! [`StreamChecker`] ingests events continuously and, at each epoch
//! seal, produces a [`Report`] **byte-identical** to running the batch
//! [`Checker`](elle_core::Checker) over the full prefix ingested so far
//! — while paying, per epoch, for the epoch's *delta* rather than for
//! the history's length. See the module docs in [`crate`] for the
//! frontier-state contract.
//!
//! ## How incrementality works
//!
//! * **Pairing** — a [`StreamingPairer`] resolves invocations in place;
//!   raw events are dropped at ingest.
//! * **Indexes** — [`KeyTypes`] and [`ElemIndex`] are folded forward
//!   per event.
//! * **Datatype analysis** — per-key results ([`KeySink`]s) are cached.
//!   A key is *dirty* in an epoch iff a new or changed transaction
//!   touched it; only dirty keys are re-analyzed, with the gather pass
//!   scoped to their posting lists (the **gather-delta** phase), through
//!   exactly the same [`analyze_keys`] driver the batch checker uses
//!   (the **finalize** phase).
//! * **Graph** — the accumulated [`DepGraph`] spine is carried across
//!   epochs. A dirty key's new edge multiset is diffed against its
//!   cached one: pure growth (the overwhelmingly common case for
//!   traceable workloads) pushes just the delta into the flat pending
//!   buffer; any retraction (new duplicate poisoning a key, a register
//!   version order changing shape, a counter's `rr` chain re-linking)
//!   falls back to rebuilding the graph from the cached sinks — still
//!   never re-running per-key analysis for clean keys. Canonical
//!   witness presentation ([`DepGraph::present`]) makes the carried
//!   graph report exactly like a batch-built one.
//! * **Seal** — [`DepGraph::build`] sorts the epoch's delta and
//!   two-way-merges it into the carried sorted spine (untouched runs
//!   block-copied, witnesses carried by arena address — no hash
//!   probes); the CSR snapshot is then re-frozen linearly from the
//!   spine.
//! * **Cycle search** — the same certificate-gated search as batch:
//!   one Tarjan pass under the full mask; per-class passes only over
//!   the cyclic region.
//!
//! Derived orders append incrementally too: process chains extend at
//! the frontier, and the real-time interval-order reduction is computed
//! per newly-committed transaction from the completion frontier —
//! event indices are monotone, so earlier edges never change.
//! Database-timestamp edges are appended likewise while commit
//! timestamps arrive in order, and trigger a rebuild when they do not.

use elle_core::counter::Counter;
use elle_core::datatype::{
    self, analyze_keys, duplicate_anomalies, AnalysisCtx, DatatypeAnalysis, GatherStats, KeySink,
};
use elle_core::list_append::ListAppend;
use elle_core::rw_register::RwRegister;
use elle_core::set_add::SetAdd;
use elle_core::AnomalyType;
use elle_core::{
    assemble_report, find_cycle_anomalies_frozen, Anomaly, CheckOptions, CheckStats,
    CycleSearchOptions, DataType, DepGraph, ElemIndex, KeySlots, KeyTypes, Report, StageTimings,
    Witness,
};
use elle_graph::{EdgeMask, Scratch};
use elle_history::{
    Elem, Event, EventKind, History, Ingest, Key, Mop, PairingError, ProcessId, Recovered,
    RecoveryPolicy, StreamingPairer, Transaction, TxnId, TxnStatus,
};
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

type Edge = (TxnId, TxnId, Witness);

/// How the checker bounds its resident state (§bounded-memory
/// streaming). Retirement is *provably cycle-safe*: only closed
/// transactions outside every live SCC whose keys are fully quiescent
/// are retired, so every verdict over the retained window remains
/// byte-identical to the unbounded run as long as no needed witness
/// crossed the retirement boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WindowPolicy {
    /// Never retire (the classic unbounded checker).
    #[default]
    Unbounded,
    /// After each seal, retire down to at most this many retained
    /// transactions (subject to the safety clamps).
    TxnCount(usize),
    /// Retire (geometrically) whenever
    /// [`StreamChecker::resident_bytes`] exceeds this budget.
    Bytes(usize),
}

/// Per-epoch window gauges, reported when a [`WindowPolicy`] other
/// than [`WindowPolicy::Unbounded`] is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Transactions retired from the window since stream start.
    pub retired_txns: usize,
    /// Transactions still resident (open ones included).
    pub retained_txns: usize,
    /// Deterministic resident-state estimate, in bytes.
    pub resident_bytes: usize,
    /// `false` once any retired key was re-touched: anomalies needing
    /// the evicted evidence are indeterminate (marked
    /// [`AnomalyType::WindowEvicted`]), never fabricated.
    pub exact: bool,
}

/// The smallest retained suffix a byte-budget retirement will keep;
/// prevents a tiny budget from thrashing the window down to nothing.
const MIN_RETAIN_TXNS: usize = 16;

/// A cached per-key analysis result with its anomalies **interned**
/// behind [`Arc`]: epoch report assembly clones pointers, not
/// explanation strings, so sealing no longer pays O(total anomalies)
/// in string copies on anomaly-dense (e.g. read-uncommitted) streams.
#[derive(Debug)]
struct CachedSink {
    anomalies: Vec<Arc<Anomaly>>,
    edges: Vec<Edge>,
    observed_elems: Vec<elle_history::Elem>,
}

impl From<KeySink> for CachedSink {
    fn from(sink: KeySink) -> CachedSink {
        CachedSink {
            anomalies: sink.anomalies.into_iter().map(Arc::new).collect(),
            edges: sink.edges,
            observed_elems: sink.observed_elems,
        }
    }
}

fn intern(anomalies: Vec<Anomaly>) -> Vec<Arc<Anomaly>> {
    anomalies.into_iter().map(Arc::new).collect()
}

/// Per-datatype cached analysis state.
#[derive(Debug, Default)]
struct DtCache {
    /// Internal-consistency anomalies per transaction (only transactions
    /// that produced any).
    internal: BTreeMap<TxnId, Vec<Arc<Anomaly>>>,
    /// The latest per-key sink, keyed and iterated in sorted key order.
    sinks: BTreeMap<Key, CachedSink>,
    /// Retired-prefix summaries (windowed mode): anomalies whose
    /// evidence left the window are kept as finished facts, so
    /// cumulative reports never lose them. Internal anomalies of
    /// retired transactions, in id order.
    retired_internal: Vec<Arc<Anomaly>>,
    /// Duplicate-write anomalies of retired keys.
    retired_dups: BTreeMap<Key, Vec<Arc<Anomaly>>>,
    /// Sink anomalies of retired keys (their edges were folded into the
    /// retired edge counts).
    retired_sinks: BTreeMap<Key, Vec<Arc<Anomaly>>>,
}

impl DtCache {
    fn has_retired(&self) -> bool {
        !self.retired_internal.is_empty()
            || !self.retired_dups.is_empty()
            || !self.retired_sinks.is_empty()
    }
}

/// Incremental coverage statistics (§3): which committed writes were
/// ever observed. `observed` only grows (observation contributions are
/// monotone in the read set), so counts update in O(delta).
#[derive(Debug, Default)]
struct Coverage {
    observed: FxHashSet<(Key, Elem)>,
    /// Multiplicity of element-carrying writes by may-have-committed
    /// transactions, per `(key, elem)`.
    pairs: FxHashMap<(Key, Elem), u32>,
    committed_writes: usize,
    observed_writes: usize,
}

impl Coverage {
    fn add_write(&mut self, key: Key, e: Elem) {
        self.committed_writes += 1;
        *self.pairs.entry((key, e)).or_insert(0) += 1;
        if self.observed.contains(&(key, e)) {
            self.observed_writes += 1;
        }
    }

    fn retract_write(&mut self, key: Key, e: Elem) {
        self.committed_writes -= 1;
        *self.pairs.get_mut(&(key, e)).expect("write was counted") -= 1;
        if self.observed.contains(&(key, e)) {
            self.observed_writes -= 1;
        }
    }

    fn observe(&mut self, key: Key, e: Elem) {
        if self.observed.insert((key, e)) {
            self.observed_writes += *self.pairs.get(&(key, e)).unwrap_or(&0) as usize;
        }
    }
}

/// Flat posting lists: which transactions touch each key, as sorted
/// `(key, txn)` pairs — the stream-side counterpart of the flat gather
/// buffer. Ingest appends to an unsorted per-epoch `tail` (with a
/// per-transaction linear dedup, mirroring the old per-key
/// `last() != Some(&id)` check); each seal sorts the tail once and
/// two-pointer-merges it into `sorted`. [`TxnPostings::scope_of`] then
/// reads per-key runs straight out of the sorted pairs — no hash map,
/// and no per-seal re-sort of the dirty keys' combined scope.
#[derive(Debug, Default)]
struct TxnPostings {
    /// `(key, txn)` pairs, lexicographically sorted; each pair unique.
    sorted: Vec<(Key, TxnId)>,
    /// This epoch's unsorted appendix.
    tail: Vec<(Key, TxnId)>,
}

impl TxnPostings {
    /// Append one transaction's touched keys. `tail_start` is the tail
    /// length when this transaction's first mop arrived; the linear
    /// rescan from it deduplicates keys within the transaction (mop
    /// counts are small).
    fn note(&mut self, key: Key, id: TxnId, tail_start: usize) {
        if !self.tail[tail_start..].iter().any(|&(k, _)| k == key) {
            self.tail.push((key, id));
        }
    }

    fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Merge the epoch tail into the sorted run (one sort of the tail,
    /// one linear merge — pairs are unique, so no dedup pass).
    fn seal(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.tail.sort_unstable();
        let old = std::mem::take(&mut self.sorted);
        let mut merged: Vec<(Key, TxnId)> = Vec::with_capacity(old.len() + self.tail.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < self.tail.len() {
            if old[i] <= self.tail[j] {
                merged.push(old[i]);
                i += 1;
            } else {
                merged.push(self.tail[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&self.tail[j..]);
        self.sorted = merged;
        self.tail.clear();
    }

    /// The run of transactions touching `key`, ascending.
    fn run(&self, key: Key) -> &[(Key, TxnId)] {
        let lo = self.sorted.partition_point(|&(k, _)| k < key);
        let hi = self.sorted.partition_point(|&(k, _)| k <= key);
        &self.sorted[lo..hi]
    }

    /// The union of the dirty keys' posting runs, sorted and
    /// deduplicated — the gather-delta transaction scope. A k-way merge
    /// over already-sorted runs; must be called after [`seal`].
    fn scope_of(&self, dirty_sorted: &[Key]) -> Vec<TxnId> {
        debug_assert!(self.tail.is_empty(), "scope_of before seal");
        let runs: Vec<&[(Key, TxnId)]> = dirty_sorted
            .iter()
            .map(|&k| self.run(k))
            .filter(|r| !r.is_empty())
            .collect();
        match runs.len() {
            0 => Vec::new(),
            1 => runs[0].iter().map(|&(_, t)| t).collect(),
            _ => {
                use std::cmp::Reverse;
                use std::collections::BinaryHeap;
                let total: usize = runs.iter().map(|r| r.len()).sum();
                let mut scope: Vec<TxnId> = Vec::with_capacity(total);
                let mut heap: BinaryHeap<Reverse<(TxnId, usize, usize)>> = runs
                    .iter()
                    .enumerate()
                    .map(|(r, run)| Reverse((run[0].1, r, 0)))
                    .collect();
                while let Some(Reverse((t, r, i))) = heap.pop() {
                    if scope.last() != Some(&t) {
                        scope.push(t);
                    }
                    if let Some(&(_, next)) = runs[r].get(i + 1) {
                        heap.push(Reverse((next, r, i + 1)));
                    }
                }
                scope
            }
        }
    }
}

/// The frontier sizes a deployment watches: memory tracks these, not
/// the epoch count.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FrontierStats {
    /// Invocations awaiting completion.
    pub open_txns: usize,
    /// Keys with cached per-key analysis state.
    pub cached_keys: usize,
    /// Keys dirtied (re-analyzed) this epoch.
    pub dirty_keys: usize,
    /// Transactions the gather-delta phase walked this epoch.
    pub scoped_txns: usize,
    /// Events quarantined by the recovery policy since stream start.
    #[serde(default)]
    pub quarantined_events: usize,
}

/// One sealed epoch's outcome.
#[derive(Debug)]
pub struct EpochReport {
    /// Epoch ordinal (0-based).
    pub epoch: usize,
    /// Events ingested since the previous seal.
    pub events: usize,
    /// Transactions in the prefix (open ones included).
    pub txns: usize,
    /// The verdict — byte-identical to `Checker::check` on the prefix.
    pub report: Report,
    /// Whether this seal took the graph-rebuild fallback (a per-key
    /// retraction, reassigned key datatype, or out-of-order commit
    /// timestamps) instead of the delta-append fast path.
    pub rebuilt: bool,
    /// Frontier sizes at seal time.
    pub frontier: FrontierStats,
    /// Per-stage wall-clock breakdown of the seal.
    pub timings: StageTimings,
    /// `Some(panic message)` when the seal panicked and was isolated:
    /// the verdict for this epoch is **indeterminate** (the embedded
    /// report is a placeholder with a warning), the checker's state was
    /// rebuilt from the paired history, and subsequent epochs keep
    /// sealing. Only [`StreamChecker::seal_epoch_guarded`] sets this.
    pub poisoned: Option<String>,
    /// Window gauges, `Some` iff a bounded [`WindowPolicy`] is active.
    pub window: Option<WindowStats>,
}

/// A portable capture of a [`StreamChecker`]'s rebuildable state: the
/// synthesized accepted-event sequence (derived from the paired history
/// and the open-invocation table) plus the counters replay cannot
/// recompute. Produced by [`StreamChecker::snapshot`], consumed by
/// [`StreamChecker::restore`] — the crash-consistency primitive behind
/// `elle-serve`'s per-tenant snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckerSnapshot {
    /// Epoch ordinal at capture time (the next seal's number).
    pub epoch: usize,
    /// Events quarantined by the recovery policy since stream start.
    pub quarantined: usize,
    /// Events ingested since the last seal (the partial epoch).
    pub events_this_epoch: usize,
    /// The accepted event sequence, sorted by index. Replaying it under
    /// [`RecoveryPolicy::Quarantine`] reproduces the paired history and
    /// its transaction ids exactly.
    pub events: Vec<Event>,
    /// Windowed-mode carry: everything retirement folded out of the
    /// replayable state. `None` for unbounded checkers that never
    /// retired, so their snapshots are unchanged.
    pub window: Option<WindowCarry>,
}

/// The retired-prefix facts a [`CheckerSnapshot`] must carry beside the
/// replayable events: replay rebuilds the retained window, and this
/// struct restores what the window no longer contains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowCarry {
    /// Transactions retired (the restored pairer's id base).
    pub base: u32,
    /// The active retirement policy.
    pub policy: WindowPolicy,
    /// Distinct IDSG edges per class folded out of the graph spine,
    /// indexed by `EdgeClass` discriminant (always 8 entries).
    pub retired_edge_counts: Vec<usize>,
    /// Total micro-ops across retired transactions.
    pub retired_mops: usize,
    /// Committed transactions among the retired prefix.
    pub retired_committed: usize,
    /// Aborted transactions among the retired prefix.
    pub retired_aborted: usize,
    /// Committed element writes folded out of the retired prefix.
    pub retired_committed_writes: usize,
    /// Observed `(key, element)` write pairs folded out of the retired
    /// prefix.
    pub retired_observed_writes: usize,
    /// Max invoke index folded out of the pruned realtime-completion
    /// prefix.
    pub rt_seed_max: usize,
    /// The realtime completion frontier, `(complete index, txn id)` —
    /// carried whole because retired entries can still bound retained
    /// transactions' interval-order windows.
    pub rt_completes: Vec<(usize, u32)>,
    /// Running max of invoke indices over `rt_completes` prefixes
    /// (seeded: includes pruned entries' contributions).
    pub rt_prefix_max_invoke: Vec<usize>,
    /// Per-process last committed transaction where that transaction is
    /// retired (retained ones are rebuilt by replay).
    pub proc_last_retired: Vec<(u32, u32)>,
    /// Keys wholly retired from the window, sorted.
    pub retired_keys: Vec<Key>,
    /// Type bitmasks of retired keys (their evidence is gone from the
    /// history, but partitions and conflict warnings must not change).
    pub retired_key_masks: Vec<(Key, u8)>,
    /// Sticky `WindowEvicted` markers for compromised keys.
    pub evicted: Vec<(Key, Anomaly)>,
    /// Retired anomaly stashes: list, register, set, counter.
    pub stashes: Vec<DtStashCarry>,
}

/// One datatype's retired anomaly stash in portable form.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DtStashCarry {
    /// Internal (single-transaction) anomalies among retired txns.
    pub internal: Vec<Anomaly>,
    /// Per-key duplicate-write anomalies over retired keys.
    pub dups: Vec<(Key, Vec<Anomaly>)>,
    /// Per-key analysis anomalies for retired keys' final sinks.
    pub sinks: Vec<(Key, Vec<Anomaly>)>,
}

/// The incremental checker. Feed events with
/// [`StreamChecker::ingest_event`]; seal epochs with
/// [`StreamChecker::seal_epoch`] whenever a watermark fires.
#[derive(Debug)]
pub struct StreamChecker {
    opts: CheckOptions,
    pairer: StreamingPairer,
    kt: KeyTypes,
    elems: ElemIndex,
    /// Transactions touching each key, as flat sorted `(key, txn)`
    /// pairs — the gather-delta scope for dirty keys.
    postings: TxnPostings,
    list: DtCache,
    reg: DtCache,
    set: DtCache,
    counter: DtCache,
    /// Datatype each cached key was last analyzed under, to detect
    /// (rare, conflict-driven) reassignment.
    assigned: FxHashMap<Key, DataType>,
    coverage: Coverage,

    // ── Carried graph: the sealed sorted spine plus the epoch's flat
    //    pending delta; each seal two-way-merges the sorted delta into
    //    the spine and re-freezes linearly. ──────────────────────────────
    deps: DepGraph,

    // ── Derived-order frontiers. ──────────────────────────────────────
    proc_last: FxHashMap<ProcessId, TxnId>,
    /// Committed transactions by completion index (arrival order keeps
    /// this sorted).
    rt_completes: Vec<(usize, TxnId)>,
    /// Running max of invoke indices over `rt_completes` prefixes.
    rt_prefix_max_invoke: Vec<usize>,
    /// Stamped committed transactions sorted by commit timestamp.
    ts_commits: Vec<(u64, TxnId)>,
    ts_prefix_max_start: Vec<u64>,
    /// Max commit/start timestamp seen; a new commit below this voids
    /// the timestamp fast path for the epoch.
    ts_max_seen: u64,

    // ── Running statistics. ───────────────────────────────────────────
    mops: usize,
    n_committed: usize,
    n_aborted: usize,

    // ── Epoch delta. ──────────────────────────────────────────────────
    delta_txns: Vec<TxnId>,
    newly_committed: Vec<TxnId>,
    events_this_epoch: usize,
    needs_rebuild: bool,
    key_types_changed: bool,
    epoch: usize,

    // ── Robustness. ───────────────────────────────────────────────────
    /// Events quarantined by the recovery policy since stream start.
    quarantined: usize,
    /// Test hook: panic at the start of sealing this epoch ordinal, to
    /// exercise the poisoned-epoch recovery path deterministically.
    panic_at_epoch: Option<usize>,

    // ── Windowed retirement (bounded-memory streaming). ──────────────
    window: WindowPolicy,
    /// Distinct IDSG edges per class whose source was retired, indexed
    /// by `EdgeClass` discriminant; folded into the reported edge
    /// counts via [`DepGraph::set_extra_counts`].
    retired_edge_counts: [usize; 8],
    /// Scalars of retired transactions, kept only so snapshots can
    /// restore the full-prefix statistics.
    retired_mops: usize,
    retired_committed: usize,
    retired_aborted: usize,
    /// Coverage contributions of retired keys, re-applied when the
    /// conflict-driven coverage rebuild recomputes from the retained
    /// history.
    retired_committed_writes: usize,
    retired_observed_writes: usize,
    /// Max invoke index over pruned `rt_completes` prefix entries; the
    /// seed for the running prefix-max when the array drains.
    rt_seed_max: usize,
    /// Keys wholly retired from the window, sorted ascending. A later
    /// touch makes the key *compromised*: it is excluded from per-key
    /// analysis (its version evidence is gone) and gets a sticky
    /// [`AnomalyType::WindowEvicted`] marker instead.
    retired_keys: Vec<Key>,
    /// One marker per compromised key.
    evicted: BTreeMap<Key, Arc<Anomaly>>,
}

impl StreamChecker {
    /// A stream checker judging against the given options.
    pub fn new(opts: CheckOptions) -> StreamChecker {
        StreamChecker {
            opts,
            pairer: StreamingPairer::new(),
            kt: KeyTypes::new(),
            elems: ElemIndex::new(),
            postings: TxnPostings::default(),
            list: DtCache::default(),
            reg: DtCache::default(),
            set: DtCache::default(),
            counter: DtCache::default(),
            assigned: FxHashMap::default(),
            coverage: Coverage::default(),
            deps: DepGraph::with_txns(0),
            proc_last: FxHashMap::default(),
            rt_completes: Vec::new(),
            rt_prefix_max_invoke: Vec::new(),
            ts_commits: Vec::new(),
            ts_prefix_max_start: Vec::new(),
            ts_max_seen: 0,
            mops: 0,
            n_committed: 0,
            n_aborted: 0,
            delta_txns: Vec::new(),
            newly_committed: Vec::new(),
            events_this_epoch: 0,
            needs_rebuild: false,
            key_types_changed: false,
            epoch: 0,
            quarantined: 0,
            panic_at_epoch: None,
            window: WindowPolicy::Unbounded,
            retired_edge_counts: [0; 8],
            retired_mops: 0,
            retired_committed: 0,
            retired_aborted: 0,
            retired_committed_writes: 0,
            retired_observed_writes: 0,
            rt_seed_max: 0,
            retired_keys: Vec::new(),
            evicted: BTreeMap::new(),
        }
    }

    /// A stream checker with a bounded-memory [`WindowPolicy`].
    pub fn with_window(opts: CheckOptions, window: WindowPolicy) -> StreamChecker {
        StreamChecker {
            window,
            ..StreamChecker::new(opts)
        }
    }

    /// The active retirement policy.
    pub fn window_policy(&self) -> WindowPolicy {
        self.window
    }

    /// Change the retirement policy (takes effect at the next seal).
    /// `elle-serve` tightens the window this way when a tenant crosses
    /// its hard resident-byte limit.
    pub fn set_window_policy(&mut self, window: WindowPolicy) {
        self.window = window;
    }

    /// Transactions retired from the window since stream start.
    pub fn retired_txns(&self) -> usize {
        self.pairer.history().base() as usize
    }

    /// A deterministic estimate of resident incremental state, in
    /// bytes. Length-based (never capacity-based) so identical streams
    /// report identical gauges; element payloads (list read values) are
    /// charged at their header size only.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let history = self.pairer.history();
        let mut total = 0usize;
        for t in history.txns() {
            total += size_of::<Transaction>() + t.mops.len() * size_of::<Mop>();
        }
        total += self.postings.sorted.len() * size_of::<(Key, TxnId)>();
        total += self.elems.resident_bytes();
        total += self.deps.resident_bytes();
        for cache in [&self.list, &self.reg, &self.set, &self.counter] {
            for sink in cache.sinks.values() {
                total += sink.edges.len() * size_of::<Edge>()
                    + sink.observed_elems.len() * size_of::<Elem>()
                    + sink.anomalies.len() * size_of::<Arc<Anomaly>>();
            }
        }
        total +=
            (self.coverage.pairs.len() + self.coverage.observed.len()) * size_of::<(Key, Elem)>();
        total += self.rt_completes.len() * size_of::<(usize, TxnId)>()
            + self.rt_prefix_max_invoke.len() * size_of::<usize>();
        total += self.ts_commits.len() * size_of::<(u64, TxnId)>()
            + self.ts_prefix_max_start.len() * size_of::<u64>();
        total
    }

    /// Window gauges, `Some` iff a bounded policy is active.
    fn window_stats(&self) -> Option<WindowStats> {
        (self.window != WindowPolicy::Unbounded).then(|| {
            let history = self.pairer.history();
            let base = history.base() as usize;
            WindowStats {
                retired_txns: base,
                retained_txns: history.len() - base,
                resident_bytes: self.resident_bytes(),
                exact: self.evicted.is_empty(),
            }
        })
    }

    /// The policy's unclamped retirement watermark for this seal, or
    /// `None` when nothing should retire. Timestamp edges disable
    /// retirement outright: they are not id-forward, so a retired
    /// prefix could still gain incoming edges.
    fn retire_target(&self) -> Option<u32> {
        if self.opts.timestamp_edges {
            return None;
        }
        let history = self.pairer.history();
        let base = history.base() as usize;
        let n = history.len();
        let target = match self.window {
            WindowPolicy::Unbounded => return None,
            WindowPolicy::TxnCount(w) => n.saturating_sub(w),
            WindowPolicy::Bytes(budget) => {
                if self.resident_bytes() <= budget {
                    return None;
                }
                // Geometric: retire half the retained suffix per seal
                // until the budget holds or the clamps stop us.
                let retained = n - base;
                let keep = (retained / 2).max(MIN_RETAIN_TXNS.min(retained));
                n - keep
            }
        };
        (target > base).then_some(target as u32)
    }

    /// Lower `r` until every key's touchers are wholly on one side of
    /// it. Datatype edges live within a key, so key quiescence is what
    /// makes prefix retirement edge-complete: a retained key never
    /// holds an edge into the retired prefix.
    fn clamp_quiescent(&self, mut r: u32) -> u32 {
        let s = &self.postings.sorted;
        debug_assert!(self.postings.tail.is_empty(), "clamp before seal");
        loop {
            let mut changed = false;
            let mut i = 0;
            while i < s.len() {
                let key = s[i].0;
                let mut j = i + 1;
                while j < s.len() && s[j].0 == key {
                    j += 1;
                }
                let (min_t, max_t) = (s[i].1 .0, s[j - 1].1 .0);
                if min_t < r && max_t >= r {
                    r = min_t;
                    changed = true;
                }
                i = j;
            }
            if !changed {
                return r;
            }
        }
    }

    /// Retire the prefix `[base, r)`: fold its facts into summaries,
    /// drop its state from every index, and advance the window base.
    /// Callers must have clamped `r` (open invocations, live SCCs, key
    /// quiescence).
    fn retire_to(&mut self, r: u32) {
        let history = self.pairer.history();
        let old_base = history.base();
        debug_assert!(r > old_base);

        // Scalars of the retiring transactions (snapshot carry only —
        // the live running stats already include them).
        for t in &history.txns()[..(r - old_base) as usize] {
            self.retired_mops += t.mops.len();
            match t.status {
                TxnStatus::Committed => self.retired_committed += 1,
                TxnStatus::Aborted => self.retired_aborted += 1,
                TxnStatus::Indeterminate => {}
            }
        }

        // Keys wholly on the retired side (quiescence guarantees no
        // straddlers); ascending because postings are sorted.
        let mut retiring: Vec<Key> = Vec::new();
        {
            let s = &self.postings.sorted;
            let mut i = 0;
            while i < s.len() {
                let key = s[i].0;
                let mut j = i + 1;
                while j < s.len() && s[j].0 == key {
                    j += 1;
                }
                if s[j - 1].1 .0 < r {
                    retiring.push(key);
                } else {
                    debug_assert!(s[i].1 .0 >= r, "key {key} straddles watermark {r}");
                }
                i = j;
            }
        }

        // Stash finished facts before the indexes forget them: internal
        // anomalies of retired transactions, and the retiring keys'
        // duplicate-write and sink anomalies.
        {
            let list_keys = self.kt.keys_of(DataType::List);
            stash_retired_dt::<ListAppend>(
                &mut self.list,
                &list_keys,
                &retiring,
                history,
                &self.elems,
                r,
            );
            let reg_keys = self.kt.keys_of(DataType::Register);
            stash_retired_dt::<RwRegister>(
                &mut self.reg,
                &reg_keys,
                &retiring,
                history,
                &self.elems,
                r,
            );
            let set_keys = self.kt.keys_of(DataType::Set);
            stash_retired_dt::<SetAdd>(
                &mut self.set,
                &set_keys,
                &retiring,
                history,
                &self.elems,
                r,
            );
            let counter_keys = self.kt.keys_of(DataType::Counter);
            stash_retired_dt::<Counter>(
                &mut self.counter,
                &counter_keys,
                &retiring,
                history,
                &self.elems,
                r,
            );
        }

        // Fold the retiring keys' coverage contributions into scalars;
        // their (key, elem) entries leave the maps. The live totals are
        // unchanged — only the conflict-driven coverage rebuild (which
        // recomputes from the retained history) needs the fold.
        let mut folded_committed = 0usize;
        let mut folded_observed = 0usize;
        {
            let observed = &self.coverage.observed;
            self.coverage.pairs.retain(|&(k, e), c| {
                if retiring.binary_search(&k).is_ok() {
                    folded_committed += *c as usize;
                    if observed.contains(&(k, e)) {
                        folded_observed += *c as usize;
                    }
                    false
                } else {
                    true
                }
            });
        }
        self.coverage
            .observed
            .retain(|&(k, _)| retiring.binary_search(&k).is_err());
        self.retired_committed_writes += folded_committed;
        self.retired_observed_writes += folded_observed;

        // Drop the retiring keys from every per-key index.
        self.elems.retire_keys(&retiring);
        self.postings
            .sorted
            .retain(|&(k, _)| retiring.binary_search(&k).is_err());
        for &k in &retiring {
            self.assigned.remove(&k);
        }

        // Compact the graph spine: the retired prefix's edges fold into
        // the per-class extra counts the report keeps quoting.
        let dropped = self.deps.retire_below(r);
        for (c, d) in dropped.into_iter().enumerate() {
            self.retired_edge_counts[c] += d;
        }

        // Prune the realtime completion frontier: the prefix that no
        // future (or replayed) interval-order window can reach, and
        // whose entries are retired. Surviving prefix-max values are
        // running maxes over the *full* original array, so draining in
        // parallel keeps them exact; the seed covers the drained part.
        if self.opts.realtime_edges && !self.rt_completes.is_empty() {
            let min_open_invoke = self
                .pairer
                .open_entries()
                .first()
                .map(|&(_, id, _)| history.get(id).invoke_index)
                .unwrap_or(usize::MAX);
            let j = self
                .rt_completes
                .partition_point(|&(c, _)| c < min_open_invoke);
            let s_star = if j > 0 {
                self.rt_prefix_max_invoke[j - 1]
            } else {
                0
            };
            let mut p = 0;
            while p < self.rt_completes.len() {
                let (c, id) = self.rt_completes[p];
                if c < s_star && id.0 < r {
                    p += 1;
                } else {
                    break;
                }
            }
            if p > 0 {
                self.rt_seed_max = self.rt_seed_max.max(self.rt_prefix_max_invoke[p - 1]);
                self.rt_completes.drain(..p);
                self.rt_prefix_max_invoke.drain(..p);
            }
        }

        // Advance the window base (drops the retired transactions).
        self.pairer.retire_prefix(r);

        // Remember the retired keys: a later touch compromises them.
        if self.retired_keys.is_empty() {
            self.retired_keys = retiring;
        } else {
            self.retired_keys.extend(retiring);
            self.retired_keys.sort_unstable();
            self.retired_keys.dedup();
        }
    }

    /// Re-derive every retained committed transaction's realtime edges
    /// from the carried completion frontier — the windowed rebuild
    /// path. Per-transaction windows over the final array equal the
    /// incremental per-commit computation (completion indices are
    /// monotone, so later entries never enter an earlier window), and
    /// retired sources are skipped without recounting: their edges were
    /// folded into the retired edge counts when first derived.
    fn replay_realtime_edges(&self, deps: &mut DepGraph, history: &History, base: u32) {
        for t in history.txns() {
            if t.status != TxnStatus::Committed {
                continue;
            }
            let k = self
                .rt_completes
                .partition_point(|&(c, _)| c < t.invoke_index);
            if k == 0 {
                continue;
            }
            let s = self.rt_prefix_max_invoke[k - 1];
            let lo = self.rt_completes.partition_point(|&(c, _)| c < s);
            for &(c, a) in &self.rt_completes[lo..k] {
                if a.0 >= base {
                    deps.add(
                        a,
                        t.id,
                        Witness::Realtime {
                            complete: c,
                            invoke: t.invoke_index,
                        },
                    );
                }
            }
        }
    }

    /// The paired prefix ingested so far.
    pub fn history(&self) -> &History {
        self.pairer.history()
    }

    /// Transactions ingested so far (open invocations included).
    pub fn txn_count(&self) -> usize {
        self.pairer.history().len()
    }

    /// Epochs sealed so far.
    pub fn epochs_sealed(&self) -> usize {
        self.epoch
    }

    /// Ingest one event. The event is *not* retained: the pairer's open
    /// table plus the paired history are the only pairing state.
    pub fn ingest_event(&mut self, ev: &Event) -> Result<(), PairingError> {
        self.ingest_event_with(ev, RecoveryPolicy::Strict)
            .map(|_| ())
    }

    /// Ingest one event under a [`RecoveryPolicy`]. `Strict` is exactly
    /// [`StreamChecker::ingest_event`]; `Quarantine` repairs pairing
    /// violations (skip / adopt orphan / abandon open — see
    /// [`elle_history::ingest`]) and folds the repaired transaction into
    /// the incremental state. Returns what recovery did, so callers can
    /// attach source positions to diagnostics.
    pub fn ingest_event_with(
        &mut self,
        ev: &Event,
        policy: RecoveryPolicy,
    ) -> Result<Recovered, PairingError> {
        let recovered = self.pairer.feed_with(ev, policy)?;
        match &recovered {
            Recovered::Ingested(Ingest::Invoked(id)) => self.note_invoked(*id),
            Recovered::Ingested(Ingest::Completed(id)) => self.note_completed(*id),
            Recovered::Skipped(_) => self.quarantined += 1,
            Recovered::Adopted(id, _) => {
                self.note_adopted(*id);
                self.quarantined += 1;
            }
            Recovered::Abandoned { admitted, .. } => {
                // The abandoned transaction's indexed state is already
                // exactly right: an open invocation that will never
                // complete. Only the admitted invocation is new.
                self.note_invoked(*admitted);
                self.quarantined += 1;
            }
        }
        self.events_this_epoch += 1;
        Ok(recovered)
    }

    /// Events quarantined by the recovery policy since stream start.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    fn note_invoked(&mut self, id: TxnId) {
        let t = self.pairer.history().get(id);
        self.kt.note_txn(t);
        self.elems.index_txn(t);
        self.mops += t.mops.len();
        let tail_start = self.postings.tail_len();
        for m in &t.mops {
            self.postings.note(m.key(), id, tail_start);
        }
        // Open transactions may have committed: their writes count
        // until an abort proves otherwise (batch counts indeterminate
        // writers the same way).
        for (_, k, e) in t.elem_writes() {
            self.coverage.add_write(k, e);
        }
        self.delta_txns.push(id);
    }

    fn note_completed(&mut self, id: TxnId) {
        let t = self.pairer.history().get(id);
        self.kt.note_txn(t);
        self.elems.update_status(t);
        self.delta_txns.push(id);
        match t.status {
            TxnStatus::Committed => {
                self.n_committed += 1;
                self.newly_committed.push(id);
            }
            TxnStatus::Aborted => {
                self.n_aborted += 1;
                let writes: Vec<(Key, Elem)> = t.elem_writes().map(|(_, k, e)| (k, e)).collect();
                for (k, e) in writes {
                    self.coverage.retract_write(k, e);
                }
            }
            TxnStatus::Indeterminate => {}
        }
    }

    /// Fold an adopted orphan — born already completed — into the
    /// incremental state: the invoke-side bookkeeping with the final
    /// mops and status, plus the completion-side counters.
    fn note_adopted(&mut self, id: TxnId) {
        let t = self.pairer.history().get(id);
        self.kt.note_txn(t);
        // `index_txn` stamps each write with the transaction's *current*
        // status — final for an adopted orphan, so no `update_status`.
        self.elems.index_txn(t);
        self.mops += t.mops.len();
        let tail_start = self.postings.tail_len();
        for m in &t.mops {
            self.postings.note(m.key(), id, tail_start);
        }
        match t.status {
            TxnStatus::Committed => {
                self.n_committed += 1;
                self.newly_committed.push(id);
            }
            TxnStatus::Aborted => {
                self.n_aborted += 1;
            }
            TxnStatus::Indeterminate => {}
        }
        if t.status.may_have_committed() {
            for (_, k, e) in t.elem_writes() {
                self.coverage.add_write(k, e);
            }
        }
        self.delta_txns.push(id);
    }

    /// Ingest every event of a log in order.
    pub fn ingest_log(&mut self, log: &elle_history::EventLog) -> Result<(), PairingError> {
        for ev in log.events() {
            self.ingest_event(ev)?;
        }
        Ok(())
    }

    /// Seal the current epoch: run the incremental analysis over the
    /// epoch's delta and report on the entire prefix ingested so far.
    pub fn seal_epoch(&mut self) -> EpochReport {
        if self.panic_at_epoch == Some(self.epoch) {
            panic!("injected seal panic (epoch {})", self.epoch);
        }
        let mut timings = StageTimings::default();
        let mut clock = Instant::now();
        fn lap(timings: &mut StageTimings, name: &str, clock: &mut Instant) {
            timings
                .stages
                .push((name.to_string(), clock.elapsed().as_secs_f64()));
            *clock = Instant::now();
        }

        // ── Delta sets. ───────────────────────────────────────────────
        self.delta_txns.sort_unstable();
        self.delta_txns.dedup();
        self.postings.seal();
        let history = self.pairer.history();
        let mut dirty: FxHashSet<Key> = FxHashSet::default();
        for &id in &self.delta_txns {
            for m in &history.get(id).mops {
                dirty.insert(m.key());
            }
        }
        // Compromised keys: a retired key re-touched by the live stream.
        // Its version evidence left the window, so re-analysis could
        // fabricate anomalies (every old writer looks missing) — exclude
        // it from per-key analysis and pin a sticky indeterminacy
        // marker instead.
        if !self.retired_keys.is_empty() {
            let compromised: Vec<Key> = dirty
                .iter()
                .copied()
                .filter(|k| self.retired_keys.binary_search(k).is_ok())
                .collect();
            for k in compromised {
                dirty.remove(&k);
                self.evicted
                    .entry(k)
                    .or_insert_with(|| Arc::new(window_evicted_anomaly(k)));
            }
        }
        // Datatype reassignment (conflicted keys): evict stale sinks and
        // force the rebuild path — internal caches keyed on the old
        // partition are stale too.
        for &k in &dirty {
            let now = self.kt.get(k);
            match self.assigned.get(&k) {
                Some(prev) if Some(*prev) != now => {
                    self.key_types_changed = true;
                    self.needs_rebuild = true;
                    for cache in [
                        &mut self.list,
                        &mut self.reg,
                        &mut self.set,
                        &mut self.counter,
                    ] {
                        cache.sinks.remove(&k);
                    }
                }
                _ => {}
            }
            if let Some(ty) = now {
                self.assigned.insert(k, ty);
            }
        }
        lap(&mut timings, "delta bookkeeping", &mut clock);

        // ── Datatype refresh: internal passes over the delta txns,
        //    per-key re-analysis of dirty keys with gather scoped to
        //    their postings. ───────────────────────────────────────────
        let history = self.pairer.history();
        let full_internal = self.key_types_changed;
        let mut scoped_txn_count = 0usize;
        let mut dirty_count = 0usize;
        let mut gather = GatherStats::default();
        let mut dt_delta_edges: Vec<Vec<Edge>> = Vec::with_capacity(4);
        {
            let list_keys = self.kt.keys_of(DataType::List);
            let (r, edges) = refresh_dt::<ListAppend>(
                history,
                &self.elems,
                &list_keys,
                (),
                &dirty,
                &self.postings,
                &self.delta_txns,
                full_internal,
                &mut self.list,
                &mut self.coverage,
                &mut scoped_txn_count,
                &mut dirty_count,
                &mut gather,
            );
            self.needs_rebuild |= r;
            dt_delta_edges.push(edges);
            let reg_keys = self.kt.keys_of(DataType::Register);
            let (r, edges) = refresh_dt::<RwRegister>(
                history,
                &self.elems,
                &reg_keys,
                self.opts.registers,
                &dirty,
                &self.postings,
                &self.delta_txns,
                full_internal,
                &mut self.reg,
                &mut self.coverage,
                &mut scoped_txn_count,
                &mut dirty_count,
                &mut gather,
            );
            self.needs_rebuild |= r;
            dt_delta_edges.push(edges);
            let set_keys = self.kt.keys_of(DataType::Set);
            let (r, edges) = refresh_dt::<SetAdd>(
                history,
                &self.elems,
                &set_keys,
                (),
                &dirty,
                &self.postings,
                &self.delta_txns,
                full_internal,
                &mut self.set,
                &mut self.coverage,
                &mut scoped_txn_count,
                &mut dirty_count,
                &mut gather,
            );
            self.needs_rebuild |= r;
            dt_delta_edges.push(edges);
            let counter_keys = self.kt.keys_of(DataType::Counter);
            let (r, edges) = refresh_dt::<Counter>(
                history,
                &self.elems,
                &counter_keys,
                (),
                &dirty,
                &self.postings,
                &self.delta_txns,
                full_internal,
                &mut self.counter,
                &mut self.coverage,
                &mut scoped_txn_count,
                &mut dirty_count,
                &mut gather,
            );
            self.needs_rebuild |= r;
            dt_delta_edges.push(edges);
        }
        if self.key_types_changed {
            // A key changed datatype: its old contribution to the
            // observed-pair set is stale (the new datatype may observe
            // different pairs, or none). Rebuild coverage from the
            // refreshed sinks — only on this rare, conflict-driven path.
            self.coverage = Coverage::default();
            for cache in [&self.list, &self.reg, &self.set, &self.counter] {
                for (key, sink) in &cache.sinks {
                    for &e in &sink.observed_elems {
                        self.coverage.observed.insert((*key, e));
                    }
                }
            }
            for t in history.txns() {
                if !t.status.may_have_committed() {
                    continue;
                }
                for (_, k, e) in t.elem_writes() {
                    self.coverage.add_write(k, e);
                }
            }
            // Retired transactions are gone from the history; re-apply
            // their folded write/observation scalars so the full-prefix
            // coverage counts survive the rebuild.
            self.coverage.committed_writes += self.retired_committed_writes;
            self.coverage.observed_writes += self.retired_observed_writes;
        }
        // The gather scans ran inside the refresh drivers; split their
        // share out of the delta-analysis lap so both stages read true.
        timings.stages.push(("gather".to_string(), gather.secs));
        timings.stages.push((
            "datatype delta analysis".to_string(),
            (clock.elapsed().as_secs_f64() - gather.secs).max(0.0),
        ));
        timings.gather_buf_peak = gather.buf_bytes;
        clock = Instant::now();

        // ── Derived orders for newly committed transactions. ──────────
        let history = self.pairer.history();
        let base = history.base();
        // An order edge whose source was retired crosses the window
        // boundary: the batch checker counts it, but adding it to the
        // carried graph would resurrect a retired vertex — fold it into
        // the retired edge counts at creation instead. (Boundary edges
        // are always id-forward and freshly targeted, hence distinct.)
        let mut boundary_counts = [0usize; 8];
        let emit = |edges: &mut Vec<Edge>, counts: &mut [usize; 8], a: TxnId, b, w: Witness| {
            if a.0 < base {
                counts[w.class() as usize] += 1;
            } else {
                edges.push((a, b, w));
            }
        };
        let mut order_edges: Vec<Edge> = Vec::new();
        for &id in &self.newly_committed {
            let t = history.get(id);
            if self.opts.process_edges {
                if let Some(prev) = self.proc_last.insert(t.process, id) {
                    emit(
                        &mut order_edges,
                        &mut boundary_counts,
                        prev,
                        id,
                        Witness::Process { process: t.process },
                    );
                }
            }
            if self.opts.realtime_edges {
                let complete = t.complete_index.expect("committed txns completed");
                // A restored windowed checker pre-loads the carried
                // completion frontier whole; replayed commits find
                // their entry already present (completion indices are
                // strictly monotone otherwise) and must neither re-push
                // nor re-emit — the restore-forced rebuild re-derives
                // their edges from the carried frontier.
                let preloaded = self
                    .rt_completes
                    .last()
                    .is_some_and(|&(c, _)| c >= complete);
                if !preloaded {
                    let k = self
                        .rt_completes
                        .partition_point(|(c, _)| *c < t.invoke_index);
                    if k > 0 {
                        let s = self.rt_prefix_max_invoke[k - 1];
                        let lo = self.rt_completes.partition_point(|(c, _)| *c < s);
                        for &(c, a) in &self.rt_completes[lo..k] {
                            emit(
                                &mut order_edges,
                                &mut boundary_counts,
                                a,
                                id,
                                Witness::Realtime {
                                    complete: c,
                                    invoke: t.invoke_index,
                                },
                            );
                        }
                    }
                    let prev_max = self
                        .rt_prefix_max_invoke
                        .last()
                        .copied()
                        .unwrap_or(self.rt_seed_max);
                    self.rt_completes.push((complete, id));
                    self.rt_prefix_max_invoke.push(prev_max.max(t.invoke_index));
                }
            }
            if self.opts.timestamp_edges {
                if let Some((start, commit)) = t.timestamps {
                    if commit < self.ts_max_seen {
                        // Out-of-order logical clocks: earlier epochs'
                        // timestamp edges may be stale — rebuild.
                        self.needs_rebuild = true;
                        let at = self.ts_commits.partition_point(|(c, _)| *c < commit);
                        self.ts_commits.insert(at, (commit, id));
                        recompute_prefix_max(
                            history,
                            &self.ts_commits,
                            &mut self.ts_prefix_max_start,
                        );
                    } else {
                        let k = self.ts_commits.partition_point(|(c, _)| *c < start);
                        if k > 0 {
                            let s = self.ts_prefix_max_start[k - 1];
                            let lo = self.ts_commits.partition_point(|(c, _)| *c < s);
                            for &(c, a) in &self.ts_commits[lo..k] {
                                order_edges.push((a, id, Witness::Timestamp { commit: c, start }));
                            }
                        }
                        let prev_max = self.ts_prefix_max_start.last().copied().unwrap_or(0);
                        self.ts_commits.push((commit, id));
                        self.ts_prefix_max_start.push(prev_max.max(start));
                    }
                    self.ts_max_seen = self.ts_max_seen.max(commit).max(start);
                }
            }
        }
        for (c, n) in boundary_counts.into_iter().enumerate() {
            self.retired_edge_counts[c] += n;
        }
        lap(&mut timings, "derived orders", &mut clock);

        // ── Apply to the carried graph (or rebuild it). ───────────────
        let rebuilt = self.needs_rebuild;
        let n = history.len();
        if self.needs_rebuild {
            let mut deps = DepGraph::with_txns(n);
            for cache in [&self.list, &self.reg, &self.set, &self.counter] {
                for sink in cache.sinks.values() {
                    for (a, b, w) in &sink.edges {
                        deps.add(*a, *b, w.clone());
                    }
                }
            }
            if self.opts.process_edges {
                elle_core::add_process_edges(&mut deps, history);
            }
            if self.opts.realtime_edges {
                if base == 0 {
                    elle_core::add_realtime_edges(&mut deps, history);
                } else {
                    // Retained-only recomputation would mis-bound the
                    // interval-order windows (a retired completer can
                    // still define a retained transaction's frontier):
                    // re-derive from the carried completion arrays,
                    // skipping retired sources — those edges are
                    // already folded into the retired edge counts.
                    self.replay_realtime_edges(&mut deps, history, base);
                }
            }
            if self.opts.timestamp_edges {
                elle_core::add_timestamp_edges(&mut deps, history);
            }
            self.deps = deps;
        } else {
            for part in dt_delta_edges {
                self.deps.reserve_edges(part.len());
                for (a, b, w) in part {
                    self.deps.add(a, b, w);
                }
            }
            for (a, b, w) in order_edges {
                self.deps.add(a, b, w);
            }
        }
        self.deps.ensure_txns(n);
        lap(&mut timings, "graph delta", &mut clock);

        // ── Seal: two-way merge of the epoch's sorted edge delta into
        //    the carried sorted spine (block-copying untouched runs). ──
        self.deps.build();
        timings.edge_buf_peak = self.deps.take_edge_buf_peak();
        lap(&mut timings, "edge build", &mut clock);

        // ── Freeze (linear — the spine is already sorted) and search. ─
        let csr = self.deps.freeze();
        lap(&mut timings, "freeze", &mut clock);
        let history = self.pairer.history();
        let cycles = find_cycle_anomalies_frozen(
            &self.deps,
            &csr,
            history,
            CycleSearchOptions {
                process_edges: self.opts.process_edges,
                realtime_edges: self.opts.realtime_edges,
                timestamp_edges: self.opts.timestamp_edges,
                max_per_type: self.opts.max_cycles_per_type,
                certificate: true,
            },
        );
        lap(&mut timings, "cycle search", &mut clock);

        // ── Windowed retirement: drop the provably cycle-safe prefix. ─
        if let Some(target) = self.retire_target() {
            let mut r = target;
            // Clamp 1: every multi-vertex SCC stays whole and resident —
            // reported cycles must keep reporting, so their members are
            // pinned for the stream's lifetime.
            let mut scratch = Scratch::default();
            for scc in csr.tarjan_scc(EdgeMask::ALL, &mut scratch) {
                if let Some(&m) = scc.iter().min() {
                    r = r.min(m);
                }
            }
            drop(csr);
            // Clamp 2: open invocations (and everything after them) stay.
            if let Some(&(_, min_open, _)) = self.pairer.open_entries().first() {
                r = r.min(min_open.0);
            }
            // Clamp 3: key quiescence — every key wholly retired or
            // wholly retained, iterated to a fixpoint (lowering the
            // watermark can make another key straddle it).
            r = self.clamp_quiescent(r);
            if r > self.pairer.history().base() {
                self.retire_to(r);
            }
            lap(&mut timings, "retirement", &mut clock);
        } else {
            drop(csr);
        }
        self.deps.set_extra_counts(self.retired_edge_counts);
        let history = self.pairer.history();

        // ── Assemble the report in batch order. ───────────────────────
        use datatype::Vocab;
        let mut anomalies: Vec<Arc<Anomaly>> = Vec::new();
        let parts: [(&DtCache, &Vocab, DataType); 4] = [
            (&self.list, &ListAppend::VOCAB, DataType::List),
            (&self.reg, &RwRegister::VOCAB, DataType::Register),
            (&self.set, &SetAdd::VOCAB, DataType::Set),
            (&self.counter, &Counter::VOCAB, DataType::Counter),
        ];
        for (cache, vocab, dt) in parts {
            let keys = KeySlots::new(self.kt.keys_of(dt));
            if keys.is_empty() && !cache.has_retired() {
                continue;
            }
            // Retired-prefix facts first; `assemble_report`'s stable
            // sort on (type, txns) canonicalizes the final order, and
            // retired/live anomalies never tie (their txn ids live on
            // opposite sides of the watermark).
            anomalies.extend(cache.retired_internal.iter().cloned());
            for list in cache.internal.values() {
                anomalies.extend(list.iter().cloned());
            }
            for list in cache.retired_dups.values() {
                anomalies.extend(list.iter().cloned());
            }
            if !keys.is_empty() {
                let cx = AnalysisCtx {
                    history,
                    elems: &self.elems,
                    keys,
                    config: (),
                    scope: None,
                };
                let (dups, _) = duplicate_anomalies(&cx, vocab);
                anomalies.extend(intern(dups));
            }
            for list in cache.retired_sinks.values() {
                anomalies.extend(list.iter().cloned());
            }
            for sink in cache.sinks.values() {
                anomalies.extend(sink.anomalies.iter().cloned());
            }
        }
        anomalies.extend(self.evicted.values().cloned());
        anomalies.extend(intern(cycles));

        let warnings: Vec<String> = self
            .kt
            .conflicts
            .iter()
            .map(|k| {
                format!("key {k} is used as more than one datatype; its inferences are unreliable")
            })
            .collect();
        let stats = CheckStats {
            txns: n,
            mops: self.mops,
            committed: self.n_committed,
            aborted: self.n_aborted,
            indeterminate: n - self.n_committed - self.n_aborted,
            edges: BTreeMap::new(), // filled by assemble_report
            committed_writes: self.coverage.committed_writes,
            observed_writes: self.coverage.observed_writes,
        };
        let report = assemble_report(self.opts.expected, anomalies, &self.deps, stats, warnings);
        lap(&mut timings, "report assembly", &mut clock);
        timings.pool_peak = elle_core::pool::take_peak_bytes();
        timings.quarantined_events = self.quarantined;
        let window = self.window_stats();
        if let Some(w) = &window {
            timings.resident_bytes = w.resident_bytes;
            timings.retired_txns = w.retired_txns;
        }

        let out = EpochReport {
            epoch: self.epoch,
            events: self.events_this_epoch,
            txns: n,
            report,
            rebuilt,
            frontier: FrontierStats {
                open_txns: self.pairer.open_count(),
                cached_keys: self.list.sinks.len()
                    + self.reg.sinks.len()
                    + self.set.sinks.len()
                    + self.counter.sinks.len(),
                dirty_keys: dirty_count,
                scoped_txns: scoped_txn_count,
                quarantined_events: self.quarantined,
            },
            timings,
            poisoned: None,
            window,
        };
        // ── Reclaim epoch-delta state: memory tracks the frontier. ────
        self.delta_txns = Vec::new();
        self.newly_committed = Vec::new();
        self.events_this_epoch = 0;
        self.needs_rebuild = false;
        self.key_types_changed = false;
        self.epoch += 1;
        out
    }

    /// Seal with panic isolation: a panic anywhere in the seal is
    /// caught, the epoch is reported as **poisoned** (indeterminate
    /// verdict carrying the panic message), the checker's incremental
    /// state is rebuilt from the paired history — which sealing never
    /// mutates, so it survives a mid-seal panic intact — and subsequent
    /// epochs keep sealing normally (the rebuilt state takes the full
    /// batch-equivalent path on its next seal).
    pub fn seal_epoch_guarded(&mut self) -> EpochReport {
        match catch_unwind(AssertUnwindSafe(|| self.seal_epoch())) {
            Ok(out) => out,
            Err(payload) => {
                let message = elle_core::panic_message(payload.as_ref());
                self.recover_from_history();
                let n = self.txn_count();
                let stats = CheckStats {
                    txns: n,
                    mops: self.mops,
                    committed: self.n_committed,
                    aborted: self.n_aborted,
                    indeterminate: n - self.n_committed - self.n_aborted,
                    edges: BTreeMap::new(),
                    committed_writes: self.coverage.committed_writes,
                    observed_writes: self.coverage.observed_writes,
                };
                let warnings = vec![format!(
                    "epoch {} poisoned by a checker panic: {message}; \
                     state rebuilt from the paired history",
                    self.epoch
                )];
                let report = assemble_report(
                    self.opts.expected,
                    Vec::new(),
                    &DepGraph::with_txns(0),
                    stats,
                    warnings,
                );
                let timings = StageTimings {
                    quarantined_events: self.quarantined,
                    ..StageTimings::default()
                };
                let events = self.events_this_epoch;
                // The poisoned epoch is consumed: its delta is folded
                // into the rebuilt (all-delta) state and the ordinal
                // advances so the stream keeps its epoch numbering.
                self.events_this_epoch = 0;
                let out = EpochReport {
                    epoch: self.epoch,
                    events,
                    txns: n,
                    report,
                    rebuilt: true,
                    frontier: FrontierStats {
                        open_txns: self.pairer.open_count(),
                        cached_keys: 0,
                        dirty_keys: 0,
                        scoped_txns: 0,
                        quarantined_events: self.quarantined,
                    },
                    timings,
                    poisoned: Some(message),
                    window: self.window_stats(),
                };
                self.epoch += 1;
                out
            }
        }
    }

    /// Capture everything needed to reconstruct this checker in
    /// another process: the synthesized accepted-event sequence (the
    /// same replay path [`StreamChecker::seal_epoch_guarded`]'s
    /// in-process recovery uses) plus the carried counters — the epoch
    /// ordinal, the quarantine gauge, and the partial epoch's event
    /// count — so a [`StreamChecker::restore`]d checker's next
    /// [`EpochReport`] is byte-stable with the pre-crash numbering.
    pub fn snapshot(&self) -> CheckerSnapshot {
        CheckerSnapshot {
            epoch: self.epoch,
            quarantined: self.quarantined,
            events_this_epoch: self.events_this_epoch,
            events: self.synthesize_events(),
            window: self.window_carry(),
        }
    }

    /// The retired-prefix carry for [`StreamChecker::snapshot`]:
    /// `Some` iff a bounded policy is active or anything has retired.
    fn window_carry(&self) -> Option<WindowCarry> {
        let base = self.pairer.history().base();
        if self.window == WindowPolicy::Unbounded && base == 0 {
            return None;
        }
        let unpack = |list: &[Arc<Anomaly>]| -> Vec<Anomaly> {
            list.iter().map(|a| (**a).clone()).collect()
        };
        let unpack_map = |m: &BTreeMap<Key, Vec<Arc<Anomaly>>>| -> Vec<(Key, Vec<Anomaly>)> {
            m.iter().map(|(k, v)| (*k, unpack(v))).collect()
        };
        let stash_of = |cache: &DtCache| DtStashCarry {
            internal: unpack(&cache.retired_internal),
            dups: unpack_map(&cache.retired_dups),
            sinks: unpack_map(&cache.retired_sinks),
        };
        let mut proc_last_retired: Vec<(u32, u32)> = self
            .proc_last
            .iter()
            .filter(|&(_, id)| id.0 < base)
            .map(|(&p, &id)| (p.0, id.0))
            .collect();
        proc_last_retired.sort_unstable();
        Some(WindowCarry {
            base,
            policy: self.window,
            retired_edge_counts: self.retired_edge_counts.to_vec(),
            retired_mops: self.retired_mops,
            retired_committed: self.retired_committed,
            retired_aborted: self.retired_aborted,
            retired_committed_writes: self.retired_committed_writes,
            retired_observed_writes: self.retired_observed_writes,
            rt_seed_max: self.rt_seed_max,
            rt_completes: self.rt_completes.iter().map(|&(c, id)| (c, id.0)).collect(),
            rt_prefix_max_invoke: self.rt_prefix_max_invoke.clone(),
            proc_last_retired,
            retired_keys: self.retired_keys.clone(),
            retired_key_masks: self
                .retired_keys
                .iter()
                .map(|&k| (k, self.kt.mask_of(k)))
                .collect(),
            evicted: self
                .evicted
                .iter()
                .map(|(k, a)| (*k, (**a).clone()))
                .collect(),
            stashes: vec![
                stash_of(&self.list),
                stash_of(&self.reg),
                stash_of(&self.set),
                stash_of(&self.counter),
            ],
        })
    }

    /// Rebuild a checker from a [`CheckerSnapshot`]: feed the
    /// synthesized events through a fresh checker under
    /// [`RecoveryPolicy::Quarantine`] (adopted orphans re-enter as bare
    /// completions and re-adopt; abandoned opens re-abandon), then
    /// restore the epoch ordinal and quarantine gauge the replay itself
    /// cannot know. The restored checker's next seal takes the full
    /// batch-equivalent path, so its report is byte-identical to an
    /// uninterrupted run's.
    pub fn restore(opts: CheckOptions, snap: &CheckerSnapshot) -> StreamChecker {
        let mut fresh = StreamChecker::new(opts);
        if let Some(c) = &snap.window {
            // Pre-replay: the id base (so replayed transactions keep
            // their original ids), the carried realtime frontier, the
            // retired processes' chain tails, and the retired keys'
            // type masks.
            fresh.window = c.policy;
            fresh.pairer = StreamingPairer::with_base(c.base);
            fresh.rt_seed_max = c.rt_seed_max;
            fresh.rt_completes = c
                .rt_completes
                .iter()
                .map(|&(i, id)| (i, TxnId(id)))
                .collect();
            fresh.rt_prefix_max_invoke = c.rt_prefix_max_invoke.clone();
            for &(p, id) in &c.proc_last_retired {
                fresh.proc_last.insert(ProcessId(p), TxnId(id));
            }
            for &(k, mask) in &c.retired_key_masks {
                fresh.kt.preload_mask(k, mask);
            }
        }
        for ev in &snap.events {
            // Synthesized events can only trip the violations recovery
            // repairs (orphan adoption, open abandonment); Quarantine
            // absorbs them and reproduces the same transactions.
            let _ = fresh.ingest_event_with(ev, RecoveryPolicy::Quarantine);
        }
        if let Some(c) = &snap.window {
            for (slot, &v) in fresh
                .retired_edge_counts
                .iter_mut()
                .zip(c.retired_edge_counts.iter())
            {
                *slot = v;
            }
            fresh.retired_mops = c.retired_mops;
            fresh.mops += c.retired_mops;
            fresh.retired_committed = c.retired_committed;
            fresh.n_committed += c.retired_committed;
            fresh.retired_aborted = c.retired_aborted;
            fresh.n_aborted += c.retired_aborted;
            fresh.retired_committed_writes = c.retired_committed_writes;
            fresh.coverage.committed_writes += c.retired_committed_writes;
            fresh.retired_observed_writes = c.retired_observed_writes;
            fresh.coverage.observed_writes += c.retired_observed_writes;
            fresh.retired_keys = c.retired_keys.clone();
            fresh.evicted = c
                .evicted
                .iter()
                .map(|(k, a)| (*k, Arc::new(a.clone())))
                .collect();
            if let [l, rg, st, ct] = c.stashes.as_slice() {
                apply_stash(&mut fresh.list, l);
                apply_stash(&mut fresh.reg, rg);
                apply_stash(&mut fresh.set, st);
                apply_stash(&mut fresh.counter, ct);
            }
            // The first seal must rebuild: replayed commits' realtime
            // edges come from the carried frontier, not per-commit
            // re-derivation (see the derived-orders preload guard).
            fresh.needs_rebuild = true;
        }
        fresh.epoch = snap.epoch;
        fresh.quarantined = snap.quarantined;
        fresh.events_this_epoch = snap.events_this_epoch;
        fresh
    }

    /// The check options this checker judges against.
    pub fn options(&self) -> CheckOptions {
        self.opts
    }

    /// Synthesize the accepted event sequence the paired history
    /// encodes, sorted by index. Transaction ids are reproduced exactly
    /// on replay — ids are assigned in accepted-event index order, and
    /// synthesis emits events in that same order.
    fn synthesize_events(&self) -> Vec<Event> {
        let open_ts: FxHashMap<TxnId, Option<u64>> = self
            .pairer
            .open_entries()
            .into_iter()
            .map(|(_, id, ts)| (id, ts))
            .collect();
        let history = self.pairer.history();
        let mut events: Vec<Event> = Vec::with_capacity(history.len() * 2);
        for t in history.txns() {
            let kind = match t.status {
                TxnStatus::Committed => EventKind::Ok,
                TxnStatus::Aborted => EventKind::Fail,
                TxnStatus::Indeterminate => EventKind::Info,
            };
            match t.complete_index {
                // Adopted orphan: one completion event, re-adopted on
                // replay.
                Some(ci) if ci == t.invoke_index => events.push(Event {
                    index: ci,
                    process: t.process,
                    kind,
                    mops: t.mops.clone(),
                    time_ns: None,
                }),
                complete => {
                    events.push(Event {
                        index: t.invoke_index,
                        process: t.process,
                        kind: EventKind::Invoke,
                        mops: t.mops.iter().map(Mop::to_invocation).collect(),
                        time_ns: t
                            .timestamps
                            .map(|(s, _)| s)
                            .or_else(|| open_ts.get(&t.id).copied().flatten()),
                    });
                    if let Some(ci) = complete {
                        events.push(Event {
                            index: ci,
                            process: t.process,
                            kind,
                            mops: t.mops.clone(),
                            time_ns: t.timestamps.map(|(_, c)| c),
                        });
                    }
                }
            }
        }
        events.sort_unstable_by_key(|e| e.index);
        events
    }

    /// Rebuild every piece of incremental state from the paired history
    /// (the one structure sealing never mutates), via the same
    /// snapshot → restore path service restarts use, carrying the test
    /// panic hook over.
    fn recover_from_history(&mut self) {
        let fresh = StreamChecker::restore(self.opts, &self.snapshot());
        debug_assert_eq!(fresh.pairer.history(), self.pairer.history());
        let panic_at = self.panic_at_epoch;
        *self = fresh;
        self.panic_at_epoch = panic_at;
    }

    /// Test hook: make the seal of epoch ordinal `epoch` panic, to
    /// exercise poisoned-epoch isolation deterministically.
    #[doc(hidden)]
    pub fn inject_seal_panic(&mut self, epoch: usize) {
        self.panic_at_epoch = Some(epoch);
    }
}

/// Re-intern one datatype's carried stash on restore.
fn apply_stash(cache: &mut DtCache, carry: &DtStashCarry) {
    let pack = |v: &[Anomaly]| -> Vec<Arc<Anomaly>> { v.iter().cloned().map(Arc::new).collect() };
    cache.retired_internal = pack(&carry.internal);
    cache.retired_dups = carry.dups.iter().map(|(k, v)| (*k, pack(v))).collect();
    cache.retired_sinks = carry.sinks.iter().map(|(k, v)| (*k, pack(v))).collect();
}

/// The sticky indeterminacy marker for a compromised key: evidence the
/// live stream now needs was retired from the window. It violates no
/// isolation model (the verdict stays whatever the retained evidence
/// says) — it flags that anomalies needing the evicted history can
/// neither be confirmed nor ruled out for this key.
fn window_evicted_anomaly(k: Key) -> Anomaly {
    Anomaly {
        typ: AnomalyType::WindowEvicted,
        txns: Vec::new(),
        key: Some(k),
        steps: Vec::new(),
        explanation: format!(
            "key {k} was touched after its version evidence was retired from the \
             window; anomalies that would need the evicted history are \
             indeterminate for this key"
        ),
    }
}

/// Move one datatype's retired facts into its stash: internal anomalies
/// of transactions below the watermark, and the retiring keys'
/// duplicate-write and sink anomalies. Runs *before* the element index
/// forgets the keys, so the duplicate anomalies render exactly as the
/// batch checker would have rendered them.
fn stash_retired_dt<D: DatatypeAnalysis>(
    cache: &mut DtCache,
    dt_keys: &[Key],
    retiring: &[Key],
    history: &History,
    elems: &ElemIndex,
    r: u32,
) {
    let live = cache.internal.split_off(&TxnId(r));
    let retired_part = std::mem::replace(&mut cache.internal, live);
    for (_, list) in retired_part {
        cache.retired_internal.extend(list);
    }
    let mine: Vec<Key> = retiring
        .iter()
        .copied()
        .filter(|k| dt_keys.binary_search(k).is_ok())
        .collect();
    if mine.is_empty() {
        return;
    }
    let cx = AnalysisCtx {
        history,
        elems,
        keys: KeySlots::from_sorted(mine.clone()),
        config: (),
        scope: None,
    };
    let (dups, _) = duplicate_anomalies(&cx, &D::VOCAB);
    for d in dups {
        let k = d.key.expect("duplicate-write anomalies carry their key");
        cache.retired_dups.entry(k).or_default().push(Arc::new(d));
    }
    for &k in &mine {
        if let Some(sink) = cache.sinks.remove(&k) {
            if !sink.anomalies.is_empty() {
                cache
                    .retired_sinks
                    .entry(k)
                    .or_default()
                    .extend(sink.anomalies);
            }
        }
    }
}

/// Multiset difference `new − old`, or `None` when `old ⊄ new` (a
/// retraction, which voids the delta-append fast path).
fn edge_delta(old: &[Edge], new: &[Edge]) -> Option<Vec<Edge>> {
    // Common case: the old list is a prefix of the new one.
    if new.len() >= old.len() && new[..old.len()] == *old {
        return Some(new[old.len()..].to_vec());
    }
    let mut counts: FxHashMap<&Edge, i64> = FxHashMap::default();
    for e in old {
        *counts.entry(e).or_insert(0) += 1;
    }
    let mut delta: Vec<Edge> = Vec::new();
    for e in new {
        match counts.get_mut(e) {
            Some(c) if *c > 0 => *c -= 1,
            _ => delta.push(e.clone()),
        }
    }
    if counts.values().any(|c| *c > 0) {
        return None;
    }
    Some(delta)
}

/// Recompute the timestamp prefix-max array after a middle insertion.
fn recompute_prefix_max(history: &History, commits: &[(u64, TxnId)], out: &mut Vec<u64>) {
    out.clear();
    let mut running = 0u64;
    for &(_, id) in commits {
        let (start, _) = history.get(id).timestamps.expect("stamped");
        running = running.max(start);
        out.push(running);
    }
}

/// Refresh one datatype: internal pass over the delta transactions,
/// per-key re-analysis of the dirty keys. Returns
/// `(retraction, delta edges)`.
#[allow(clippy::too_many_arguments)]
fn refresh_dt<D: DatatypeAnalysis>(
    history: &History,
    elems: &ElemIndex,
    keys_full: &[Key],
    config: D::Config,
    dirty: &FxHashSet<Key>,
    postings: &TxnPostings,
    delta_txns: &[TxnId],
    full_internal: bool,
    cache: &mut DtCache,
    coverage: &mut Coverage,
    scoped_txn_count: &mut usize,
    dirty_count: &mut usize,
    gather: &mut GatherStats,
) -> (bool, Vec<Edge>) {
    let keys_full = KeySlots::new(keys_full.to_vec());

    // Internal pass, scoped to the delta (or everything after a key
    // reassignment invalidated the partition).
    let cx_internal = AnalysisCtx {
        history,
        elems,
        keys: keys_full,
        config,
        scope: if full_internal {
            None
        } else {
            Some(delta_txns)
        },
    };
    if full_internal {
        cache.internal.clear();
    } else {
        for id in delta_txns {
            cache.internal.remove(id);
        }
    }
    for a in datatype::internal_anomalies::<D>(&cx_internal) {
        cache
            .internal
            .entry(a.txns[0])
            .or_default()
            .push(Arc::new(a));
    }

    // Poison set over the full key partition (cheap: walks the sorted
    // duplicate list).
    let (_, poisoned) = duplicate_anomalies(&cx_internal, &D::VOCAB);

    // Gather-delta + finalize over the dirty keys.
    let mut dirty_sorted: Vec<Key> = dirty
        .iter()
        .copied()
        .filter(|k| cx_internal.keys.contains(*k))
        .collect();
    dirty_sorted.sort_unstable();
    *dirty_count += dirty_sorted.len();
    let scope = postings.scope_of(&dirty_sorted);
    *scoped_txn_count += scope.len();
    let cx = AnalysisCtx {
        history,
        elems,
        keys: KeySlots::from_sorted(dirty_sorted),
        config,
        scope: Some(&scope),
    };
    let mut retraction = false;
    let mut delta_edges: Vec<Edge> = Vec::new();
    let (pairs, gather_stats) = analyze_keys::<D>(&cx, &poisoned);
    gather.absorb(gather_stats);
    for (key, sink) in pairs {
        for &e in &sink.observed_elems {
            coverage.observe(key, e);
        }
        let old = cache.sinks.get(&key).map(|s| s.edges.as_slice());
        match edge_delta(old.unwrap_or(&[]), &sink.edges) {
            Some(mut delta) => delta_edges.append(&mut delta),
            None => retraction = true,
        }
        cache.sinks.insert(key, sink.into());
    }
    (retraction, delta_edges)
}
