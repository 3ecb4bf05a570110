//! `stream-window`: the `elle-stream` path. NDJSON lines go through
//! `serde_json::from_str::<Event>` and `StreamChecker::ingest_event_with`
//! as in `elle-stream`, under a transaction-count retirement window,
//! sealing every `epoch_txns` invocations. Set-up is
//! `StreamChecker::restore` from a snapshot of the stream's first part;
//! the rest is replayed closed loop from that snapshot. Each op is the
//! epoch-closing line's parse and ingest plus its seal.

use crate::trace::Tracer;
use crate::{check_unattributed_ms, inputs, layer_from_ops, ms, Run};
use elle::core::Checker;
use elle::dbsim::ObjectKind;
use elle::history::{Event, EventKind, RecoveryPolicy};
use elle::stream::{StreamChecker, WindowPolicy};
use std::time::Instant;

pub struct Params {
    pub txns: usize,
    pub epoch_txns: usize,
    pub window_txns: usize,
    /// Transactions in the snapshot the replays resume from; a whole
    /// number of epochs.
    pub resume_txns: usize,
    /// Restores before each replay; each is a set-up sample, and the
    /// last one is replayed.
    pub restores: usize,
}

pub const FULL: Params = Params {
    txns: 64_000,
    epoch_txns: 500,
    window_txns: 2_000,
    resume_txns: 16_000,
    restores: 3,
};

/// The reduced form a traced run of another workload uses to measure
/// the stream layer it does not reach.
pub const MINI: Params = Params {
    txns: 8_000,
    epoch_txns: 500,
    window_txns: 2_000,
    resume_txns: 2_000,
    restores: 3,
};

/// Counters one pass over a stream accumulates.
#[derive(Default)]
pub struct Replay {
    pub parse_s: f64,
    pub ingest_s: f64,
    pub events: usize,
    pub bytes: usize,
    pub dirty_keys: usize,
    pub scoped_txns: usize,
    pub rebuilt: usize,
    pub resident_max: usize,
    pub retired: usize,
    pub final_txns: usize,
    pub edges: usize,
    pub edge_buf_peak: usize,
    pub gather_buf_peak: usize,
    pub pool_peak: usize,
}

impl Replay {
    /// Fold another stream's pass into this one: sums, and maxima for
    /// the peaks.
    pub fn absorb(&mut self, o: &Replay) {
        self.parse_s += o.parse_s;
        self.ingest_s += o.ingest_s;
        self.events += o.events;
        self.bytes += o.bytes;
        self.dirty_keys += o.dirty_keys;
        self.scoped_txns += o.scoped_txns;
        self.rebuilt += o.rebuilt;
        self.resident_max = self.resident_max.max(o.resident_max);
        self.retired += o.retired;
        self.final_txns += o.final_txns;
        self.edges += o.edges;
        self.edge_buf_peak = self.edge_buf_peak.max(o.edge_buf_peak);
        self.gather_buf_peak = self.gather_buf_peak.max(o.gather_buf_peak);
        self.pool_peak = self.pool_peak.max(o.pool_peak);
    }
}

pub fn run(p: &Params, seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    assert_eq!(
        p.resume_txns % p.epoch_txns,
        0,
        "resume at an epoch boundary"
    );
    let mut run = Run::default();
    let opts = inputs::default_opts();
    let log = inputs::paper_log(p.txns, ObjectKind::ListAppend, seed);
    let lines = inputs::event_lines(log.events());
    let split = inputs::nth_invoke(log.events(), p.resume_txns + 1);

    // Oracle: the batch report on the same paired history (the stream ==
    // batch contract). Also the cold check `elle-check` users pay.
    let history = log.pair().expect("generated logs pair");
    drop(log);
    let t0 = Instant::now();
    let (batch, stages) = Checker::new(opts).check_timed(&history);
    let cold_ms = ms(t0.elapsed());
    if !batch.ok() {
        run.fail("oracle: a serializable history was reported invalid");
    }
    let reference = serde_json::to_string(&batch).expect("report serializes");
    drop((batch, history));

    // The first part, untimed, then its snapshot.
    let window = WindowPolicy::TxnCount(p.window_txns);
    let mut checker = StreamChecker::with_window(opts, window);
    let mut untraced = Tracer::new(false);
    let mut prefix = Replay::default();
    feed(
        &mut checker,
        &lines[..split],
        p.epoch_txns,
        false,
        &mut untraced,
        &mut run,
        &mut prefix,
    );
    let t0 = Instant::now();
    let snap = checker.snapshot();
    let snapshot_ms = ms(t0.elapsed());
    drop(checker);

    let rest = &lines[split..];
    let mut replays: Vec<Replay> = Vec::new();
    let start = Instant::now();
    let mut paused = 0.0;
    while start.elapsed().as_secs_f64() - paused < seconds {
        let paused_at = Instant::now();
        let mut restored = None;
        for _ in 0..p.restores {
            // One restored checker at a time, so peak memory holds one.
            drop(restored.take());
            let t0 = Instant::now();
            restored = Some(StreamChecker::restore(opts, &snap));
            run.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut checker = restored.expect("at least one restore");
        paused += paused_at.elapsed().as_secs_f64();
        let mut r = Replay::default();
        let last = feed(&mut checker, rest, p.epoch_txns, true, tr, &mut run, &mut r);
        if last.as_deref() != Some(reference.as_str()) {
            run.fail("gate: final stream report differs from the batch report");
        }
        run.txns += (p.txns - p.resume_txns) as u64;
        replays.push(r);
    }
    run.timed_s = start.elapsed().as_secs_f64() - paused;
    run.peak_rss_mb = crate::stats::peak_rss_mb();

    if tr.on() {
        put_layer(&mut run, &replays, p.window_txns);
        let l = &mut run.layer;
        l.put("core.cold_check_ms", cold_ms, "ms");
        l.put(
            "core.unattributed_ms",
            check_unattributed_ms(cold_ms, &stages),
            "ms",
        );
        l.put(
            "stream.restore_ms",
            crate::stats::median(&run.setup_s) * 1e3,
            "ms",
        );
        l.put("stream.snapshot_ms", snapshot_ms, "ms");
        layer_from_ops(tr, "stream.op", "stream.unattributed_ms", &mut run);
    }
    run
}

/// Per-layer metrics of a set of passes over a stream: the history
/// layer's per-line decode (per pass), the stream layer's per-event
/// ingest, and the counts of the last pass. Retirement yield is the
/// share of the transactions the window policy asked to retire that did
/// retire.
pub fn put_layer(run: &mut Run, passes: &[Replay], window_txns: usize) {
    let n = passes.len() as f64;
    let parse_s = passes.iter().map(|r| r.parse_s).sum::<f64>() / n;
    let bytes = passes.iter().map(|r| r.bytes).sum::<usize>() as f64 / n;
    let ingest_s: f64 = passes.iter().map(|r| r.ingest_s).sum();
    let events: usize = passes.iter().map(|r| r.events).sum();
    let r = passes.last().expect("at least one pass");
    let targeted = r.final_txns.saturating_sub(window_txns);
    let l = &mut run.layer;
    l.put("history.ingest_ms", parse_s * 1e3, "ms");
    l.put("history.parse_mb_per_s", bytes / 1e6 / parse_s, "MB/s");
    l.put("core.edges", r.edges as f64, "count");
    l.put("core.edge_buf_peak", r.edge_buf_peak as f64, "count");
    l.put("core.gather_buf_peak", r.gather_buf_peak as f64, "bytes");
    l.put("core.pool_peak_bytes", r.pool_peak as f64, "bytes");
    l.put(
        "stream.ingest_us_per_event",
        ingest_s * 1e6 / events as f64,
        "us",
    );
    l.put("stream.dirty_keys", r.dirty_keys as f64, "count");
    l.put("stream.scoped_txns", r.scoped_txns as f64, "count");
    l.put("stream.rebuilt_epochs", r.rebuilt as f64, "count");
    l.put("stream.retired_txns", r.retired as f64, "count");
    l.put("stream.resident_bytes_max", r.resident_max as f64, "bytes");
    l.put(
        "stream.retire_yield",
        r.retired as f64 / targeted.max(1) as f64,
        "ratio",
    );
}

/// Feed `lines` into `checker`, sealing every `epoch_txns` invocations
/// and after the last line. With `ops`, each seal is a timed op.
/// Returns the final seal's report bytes.
pub fn feed(
    checker: &mut StreamChecker,
    lines: &[String],
    epoch_txns: usize,
    ops: bool,
    tr: &mut Tracer,
    run: &mut Run,
    r: &mut Replay,
) -> Option<String> {
    let mut txns_since = 0usize;
    let mut last = None;
    for (i, line) in lines.iter().enumerate() {
        let t0 = Instant::now();
        let ev = match serde_json::from_str::<Event>(line.trim()) {
            Ok(ev) => ev,
            Err(_) => {
                run.fail("stream: a generated line did not decode");
                continue;
            }
        };
        let t1 = Instant::now();
        if checker
            .ingest_event_with(&ev, RecoveryPolicy::Strict)
            .is_err()
        {
            run.fail("stream: a generated event did not pair");
        }
        let t2 = Instant::now();
        if tr.on() {
            r.parse_s += (t1 - t0).as_secs_f64();
            r.ingest_s += (t2 - t1).as_secs_f64();
        }
        r.events += 1;
        r.bytes += line.len() + 1;
        if ev.kind == EventKind::Invoke {
            txns_since += 1;
        }
        let is_last = i + 1 == lines.len();
        if txns_since < epoch_txns && !(is_last && ops) {
            continue;
        }
        txns_since = 0;
        if ops {
            tr.next_op();
        }
        let epoch = checker.seal_epoch_guarded();
        let t3 = Instant::now();
        if ops {
            run.op_ms.push(ms(t3 - t0));
            run.attempted += 1;
            let root = tr.record("stream.op", t0, t3, None);
            tr.record("history.parse", t0, t1, root);
            tr.record("stream.ingest", t1, t2, root);
            let seal = tr.record("stream.seal", t2, t3, root);
            tr.record_stages(seal, &epoch.timings.stages);
        }
        if epoch.poisoned.is_some() {
            run.fail("stream: a seal was poisoned");
        }
        if !epoch.report.ok() {
            run.fail("oracle: a serializable prefix was reported invalid");
        }
        r.dirty_keys += epoch.frontier.dirty_keys;
        r.scoped_txns += epoch.frontier.scoped_txns;
        r.rebuilt += usize::from(epoch.rebuilt);
        if let Some(w) = epoch.window {
            r.resident_max = r.resident_max.max(w.resident_bytes);
            r.retired = w.retired_txns;
        }
        r.final_txns = epoch.txns;
        r.edges = epoch.report.stats.edges.values().sum();
        r.edge_buf_peak = r.edge_buf_peak.max(epoch.timings.edge_buf_peak);
        r.gather_buf_peak = r.gather_buf_peak.max(epoch.timings.gather_buf_peak);
        r.pool_peak = r.pool_peak.max(epoch.timings.pool_peak);
        if is_last {
            last = Some(serde_json::to_string(&epoch.report).expect("report serializes"));
        }
    }
    last
}
