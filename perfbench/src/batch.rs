//! `batch-check`: the `elle-check` path. Set-up is the NDJSON ingest and
//! pairing `elle-check events.ndjson` does; each op is one
//! `Checker::check` of the whole history, closed loop from one caller.
//! The history is ingested afresh at the start of every segment of the
//! timed phase; ingests are set-up samples and are not timed as ops.

use crate::trace::Tracer;
use crate::{inputs, layer_from_ops, ms, Run};
use elle::core::{Checker, Report, StageTimings};
use elle::dbsim::ObjectKind;
use elle::history::{History, NdjsonIngestor, RecoveryPolicy};
use std::time::Instant;

pub struct Params {
    pub txns: usize,
    /// The timed phase is cut into this many segments; each starts
    /// from a fresh ingest (a set-up sample), so one run's ops see
    /// several heap layouts and its set-ups spread over the run.
    pub segments: usize,
}

pub const FULL: Params = Params {
    txns: 64_000,
    segments: 8,
};

pub fn run(p: &Params, seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    let mut run = Run::default();
    let raw =
        elle::history::events_to_ndjson(&inputs::paper_log(p.txns, ObjectKind::ListAppend, seed));
    let ingest = |run: &mut Run| {
        let t0 = Instant::now();
        let mut ingestor = NdjsonIngestor::new(RecoveryPolicy::Strict);
        let fed = ingestor.feed_str(&raw);
        let (h, diagnostics) = ingestor.finish();
        run.setup_s.push(t0.elapsed().as_secs_f64());
        if fed.is_err() || !diagnostics.is_empty() || h.len() != p.txns {
            run.fail("setup: NDJSON ingest did not reproduce the generated history");
        }
        h
    };
    let mut history = ingest(&mut run);

    let checker = Checker::new(inputs::default_opts());
    let check = |tr: &Tracer, h: &History| -> (Report, Option<StageTimings>) {
        if tr.on() {
            let (r, s) = checker.check_timed(h);
            (r, Some(s))
        } else {
            (checker.check(h), None)
        }
    };
    // The cold first check is untimed here; `elle-check` users pay it
    // on every run, so the trace reports it.
    let t0 = Instant::now();
    let (first, _) = check(tr, &history);
    let cold_ms = ms(t0.elapsed());
    let reference = serde_json::to_string(&first).expect("report serializes");
    if !first.ok() {
        run.fail("oracle: a serializable history was reported invalid");
    }
    drop(first);

    let mut last_stages = StageTimings::default();
    let mut edges = 0usize;
    for segment in 0..p.segments {
        if segment > 0 {
            // One ingested copy at a time, so peak memory holds one.
            drop(history);
            history = ingest(&mut run);
        }
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds / p.segments as f64 {
            tr.next_op();
            let t0 = Instant::now();
            let (report, stages) = check(tr, &history);
            let t1 = Instant::now();
            run.op_ms.push(ms(t1 - t0));
            run.attempted += 1;
            run.txns += history.len() as u64;
            let span = tr.record("core.check", t0, t1, None);
            if let Some(s) = stages {
                tr.record_stages(span, &s.stages);
                last_stages = s;
            }
            if serde_json::to_string(&report).expect("report serializes") != reference {
                run.fail("gate: report bytes differ between repeats");
            }
            edges = report.stats.edges.values().sum();
        }
        run.timed_s += start.elapsed().as_secs_f64();
    }
    run.peak_rss_mb = crate::stats::peak_rss_mb();

    if tr.on() {
        let l = &mut run.layer;
        let ingest_s = crate::stats::median(&run.setup_s);
        l.put("history.ingest_ms", ingest_s * 1e3, "ms");
        l.put(
            "history.parse_mb_per_s",
            raw.len() as f64 / 1e6 / ingest_s,
            "MB/s",
        );
        l.put("core.cold_check_ms", cold_ms, "ms");
        l.put("core.edges", edges as f64, "count");
        l.put(
            "core.edge_buf_peak",
            last_stages.edge_buf_peak as f64,
            "count",
        );
        l.put(
            "core.gather_buf_peak",
            last_stages.gather_buf_peak as f64,
            "bytes",
        );
        l.put(
            "core.pool_peak_bytes",
            last_stages.pool_peak as f64,
            "bytes",
        );
        layer_from_ops(tr, "core.check", "core.unattributed_ms", &mut run);
    }
    run
}
