//! One benchmark for the three user-facing paths of the Elle checker:
//! `batch-check` (`elle-check`), `stream-window` (`elle-stream`) and
//! `serve-mixed` (`elle-serve`), driven in-process through the public
//! APIs of `elle-history`, `elle-core`, `elle-stream` and `elle-serve`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-check --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics.
//! Every verdict is checked against an oracle; the last stdout line is
//! one JSON object, and any failed check makes the exit code nonzero.
//! NOTES.md says what each metric means and how steady the runs are.

mod batch;
mod inputs;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Where runs keep their scratch files (the serve data directory and
/// the span logs), relative to the checkout the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

/// The serve workload's latency limit on `op_tail_ms`.
const SERVE_TAIL_LIMIT_MS: f64 = 250.0;

/// Per-layer metrics, printed by `--trace 1` on every workload.
const PER_LAYER: [&str; 43] = [
    "history.ingest_ms",
    "history.parse_mb_per_s",
    "history.json_load_500_ms",
    "history.json_load_1000_ms",
    "history.json_load_exp",
    "core.index_ms",
    "core.gather_ms",
    "core.datatype_ms",
    "core.orders_ms",
    "core.edge_build_ms",
    "core.report_ms",
    "core.unattributed_ms",
    "core.cold_check_ms",
    "core.edges",
    "core.edge_buf_peak",
    "core.gather_buf_peak",
    "core.pool_peak_bytes",
    "graph.merge_ms",
    "graph.freeze_ms",
    "graph.cycle_search_ms",
    "stream.retire_ms",
    "stream.unattributed_ms",
    "stream.ingest_us_per_event",
    "stream.restore_ms",
    "stream.snapshot_ms",
    "stream.dirty_keys",
    "stream.scoped_txns",
    "stream.rebuilt_epochs",
    "stream.retired_txns",
    "stream.retire_yield",
    "stream.resident_bytes_max",
    "serve.submit_us",
    "serve.tenant_ingest_us",
    "serve.seal_rotate_ms",
    "serve.rotate_bytes",
    "serve.journal_bytes",
    "serve.backlog_bytes_max",
    "serve.rejects",
    "serve.unattributed_ms",
    "loadgen.late_ms",
    "trace.overhead_ms",
    "trace.op_mean_ms",
    "trace.ops",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    BatchCheck,
    StreamWindow,
    ServeMixed,
    /// Not a benchmark workload: the closed-loop serve run the offered
    /// rate of `serve-mixed` is derived from.
    ServeCapacity,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batch-check" => Some(Workload::BatchCheck),
            "stream-window" => Some(Workload::StreamWindow),
            "serve-mixed" => Some(Workload::ServeMixed),
            "serve-capacity" => Some(Workload::ServeCapacity),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BatchCheck => "batch-check",
            Workload::StreamWindow => "stream-window",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeCapacity => "serve-capacity",
        }
    }
}

/// Per-layer metrics by name: `(value, unit)`.
#[derive(Debug, Default, Clone)]
pub struct Layer(BTreeMap<&'static str, (f64, &'static str)>);

impl Layer {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds per set-up; several per run, reported as their median.
    pub setup_s: Vec<f64>,
    /// Milliseconds per op in the timed phase.
    pub op_ms: Vec<f64>,
    /// Transactions checked in the timed phase.
    pub txns: u64,
    pub timed_s: f64,
    /// Peak resident set size at the end of the timed phase, before the
    /// oracles that run after it, in MiB.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failure messages with their counts.
    pub notes: BTreeMap<String, u64>,
    pub layer: Layer,
}

impl Run {
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        *self.notes.entry(why.to_string()).or_default() += 1;
    }

    /// Add another run's attempted ops and failures to this one's.
    pub fn absorb_checks(&mut self, other: &Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in &other.notes {
            *self.notes.entry(k.clone()).or_default() += v;
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Span names whose self time is not a named stage: the calls into a
/// layer, and stage strings the benchmark does not know.
fn unattributed(name: &str) -> bool {
    matches!(
        name,
        "core.check" | "stream.op" | "stream.seal" | "serve.op" | "unknown-stage"
    )
}

/// Stage metrics of the traced ops under `root`: the mean self time per
/// op of each stage, and the rest of each op's wall time as
/// `unattributed`. Also checks each op: its self times must sum to its
/// wall time, and no self time may be negative (a stage breakdown
/// longer than the call that returned it).
pub fn layer_from_ops(tr: &Tracer, root: &str, unattributed_name: &'static str, run: &mut Run) {
    let ops = tr.op_breakdowns(root);
    if ops.is_empty() {
        return;
    }
    let n = ops.len() as f64;
    let mut stage_sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut rest = 0.0;
    let mut wall_sum = 0.0;
    for (wall, selfs) in &ops {
        let mut total = 0.0;
        for (&name, &s) in selfs {
            total += s;
            if s < -1e-6 {
                run.fail("trace: a stage breakdown is longer than its call");
            }
            if unattributed(name) {
                rest += s;
            } else {
                *stage_sums.entry(name).or_default() += s;
            }
        }
        wall_sum += wall;
        if (wall - total).abs() > 1e-6 {
            run.fail("trace: an op's self times do not sum to its wall time");
        }
    }
    let l = &mut run.layer;
    for (name, s) in stage_sums {
        let metric = match name {
            "loadgen.wait" => Some("loadgen.late_ms"),
            "serve.submit" => None,
            _ => trace::STAGES
                .iter()
                .find(|(span, _)| *span == name)
                .map(|&(_, metric)| metric),
        };
        if let Some(m) = metric {
            l.put(m, s / n * 1e3, "ms");
        }
    }
    l.put(unattributed_name, rest / n * 1e3, "ms");
    // The workload's own ops come first and name the op.
    l.0.entry("trace.op_mean_ms")
        .or_insert((wall_sum / n * 1e3, "ms"));
    l.0.entry("trace.ops").or_insert((n, "count"));
}

/// The part of a `Checker::check_timed` call its stages do not cover.
pub fn check_unattributed_ms(wall_ms: f64, stages: &elle::core::StageTimings) -> f64 {
    wall_ms - stages.total() * 1e3
}

fn run_workload(w: Workload, seed: u64, seconds: f64, mini: bool, tr: &mut Tracer) -> Run {
    let work = Path::new(WORK_DIR);
    match (w, mini) {
        (Workload::BatchCheck, _) => batch::run(&batch::FULL, seed, seconds, tr),
        (Workload::StreamWindow, false) => stream::run(&stream::FULL, seed, seconds, tr),
        (Workload::StreamWindow, true) => stream::run(&stream::MINI, seed, seconds, tr),
        (Workload::ServeMixed, false) => serve::run(&serve::FULL, seed, seconds, work, tr),
        (Workload::ServeMixed, true) => serve::run(&serve::MINI, seed, seconds, work, tr),
        (Workload::ServeCapacity, _) => serve::run(&serve::CAPACITY, seed, seconds, work, tr),
    }
}

/// `elle-check`'s `.json` input path at two small sizes: the load time
/// and its growth exponent between them.
fn json_load_probe(seed: u64, layer: &mut Layer) {
    let mut times = [0.0f64; 2];
    for (i, n) in [500usize, 1000].into_iter().enumerate() {
        let log = inputs::paper_log(n, elle::dbsim::ObjectKind::ListAppend, seed);
        let json = elle::history::history_to_json(&log.pair().expect("generated logs pair"));
        let mut samples = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let h = elle::history::history_from_json(&json).expect("history JSON round-trips");
            samples.push(ms(t0.elapsed()));
            std::hint::black_box(h);
        }
        times[i] = stats::median(&samples);
    }
    layer.put("history.json_load_500_ms", times[0], "ms");
    layer.put("history.json_load_1000_ms", times[1], "ms");
    layer.put("history.json_load_exp", (times[1] / times[0]).log2(), "exp");
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <batch-check|stream-window|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    let w = args.workload;
    let serve_rate = serve::FULL.rate_txns;
    println!(
        "{{\"host\":{{\"nproc\":{},\"kernel\":\"{}\",\"profile\":\"{}\",\"ELLE_SEQUENTIAL\":{}}},\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"serve\":{{\"offered_txns_per_s\":{serve_rate},\"tail_limit_ms\":{SERVE_TAIL_LIMIT_MS},\
         \"workers\":{},\"data_dir\":\"{WORK_DIR} in the checkout\"}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        stats::kernel(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::env::var("ELLE_SEQUENTIAL").map_or("null".to_string(), |v| format!("{v:?}")),
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve::workers(),
    );

    let mut checks = Run::default();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let run = run_workload(w, args.seed, args.seconds, false, &mut Tracer::new(false));
        checks.absorb_checks(&run);
        if run.op_ms.is_empty() || run.setup_s.is_empty() {
            checks.fail("run: no ops or no set-ups were measured");
        } else {
            let (tail, pct, n) = stats::tail(&run.op_ms);
            let p50 = stats::median(&run.op_ms);
            println!(
                "{{\"ops\":{n},\"op_p50_ms\":{p50},\"op_tail_ms\":{tail},\"tail_percentile\":{pct},\
                 \"setups\":{},\"timed_s\":{},\"tail_within_limit\":{}}}",
                run.setup_s.len(),
                run.timed_s,
                match w {
                    Workload::ServeMixed => (tail <= SERVE_TAIL_LIMIT_MS).to_string(),
                    _ => "null".to_string(),
                },
            );
            metrics.push(("setup_s", stats::median(&run.setup_s), "s"));
            metrics.push(("op_p50_ms", p50, "ms"));
            metrics.push(("op_tail_ms", tail, "ms"));
            metrics.push(("txns_per_s", run.txns as f64 / run.timed_s, "txn/s"));
            metrics.push(("peak_rss_mb", run.peak_rss_mb, "MB"));
        }
        let ok = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
        metrics.push(("ok_ratio", ok.max(0.0), "ratio"));
    } else {
        let plain = run_workload(w, args.seed, args.seconds, false, &mut Tracer::new(false));
        checks.absorb_checks(&plain);
        let mut tr = Tracer::new(true);
        let traced = run_workload(w, args.seed, args.seconds, false, &mut tr);
        checks.absorb_checks(&traced);
        let mut layer = traced.layer.clone();
        let mut tracers = vec![(w.name().to_string(), tr)];
        if !plain.op_ms.is_empty() && !traced.op_ms.is_empty() {
            let overhead = stats::median(&traced.op_ms) - stats::median(&plain.op_ms);
            layer.put("trace.overhead_ms", overhead, "ms");
        }
        // Layers this workload does not reach are measured by reduced
        // runs of the workloads that do reach them.
        let mut borrowed: Vec<String> = Vec::new();
        for other in [Workload::StreamWindow, Workload::ServeMixed] {
            let missing = PER_LAYER
                .iter()
                .any(|m| !layer.0.contains_key(m) && !m.starts_with("history.json"));
            if other == w || !missing {
                continue;
            }
            let mut tr = Tracer::new(true);
            let mini = run_workload(other, args.seed, 1.0, true, &mut tr);
            checks.absorb_checks(&mini);
            for (name, v) in mini.layer.0 {
                if !layer.0.contains_key(name) {
                    layer.0.insert(name, v);
                    borrowed.push(format!("{name}<-{}", other.name()));
                }
            }
            tracers.push((format!("{}-reduced-{}", w.name(), other.name()), tr));
        }
        json_load_probe(args.seed, &mut layer);
        println!("{{\"measured_by_reduced_runs\":{:?}}}", borrowed);
        for (label, tr) in &tracers {
            let path = Path::new(WORK_DIR).join(format!("spans-{label}-seed{}.ndjson", args.seed));
            if let Err(e) = tr.write(&path) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        for name in PER_LAYER {
            match layer.0.get(name) {
                Some(&(v, unit)) => metrics.push((name, v, unit)),
                None => checks.fail(&format!("trace: metric {name} was not measured")),
            }
        }
    }

    if !checks.notes.is_empty() {
        println!("{{\"failures\":{:?}}}", checks.notes);
    }
    let correct = checks.failed == 0 && metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.1.is_finite())
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
