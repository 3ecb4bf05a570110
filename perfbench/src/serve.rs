//! `serve-mixed`: the `elle-serve` path. Four tenants, one per datatype,
//! with their lines interleaved, offered open loop to `Server::submit`
//! at a fixed rate, with a durable data directory. Set-up is
//! `Server::start` recovering every tenant from the data directory an
//! untimed prefix phase left behind. Each op runs from the due time of
//! the line that trips a tenant's epoch watermark to that tenant's
//! verdict envelope reaching the sink.

use crate::stream::{self, Replay};
use crate::trace::Tracer;
use crate::{check_unattributed_ms, inputs, layer_from_ops, ms, Run};
use elle::core::Checker;
use elle::dbsim::ObjectKind;
use elle::history::{EventKind, EventLog};
use elle::serve::{
    parse_request, solo_verdict, tag_event_line, Request, ServeConfig, Server, Sink, Submitted,
    Tenant,
};
use elle::stream::StreamChecker;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct Params {
    /// Transactions each tenant receives in the untimed prefix phase.
    pub prefix_txns: usize,
    /// The tenants' epoch watermark, in invoked transactions.
    pub epoch_txns: usize,
    /// Offered load across all tenants, in transactions per second.
    /// The timed phase holds `rate_txns * seconds` transactions.
    pub rate_txns: f64,
    /// Offer lines on the rate's schedule. Without it every line goes
    /// as soon as the previous one is admitted (closed loop), which
    /// measures capacity.
    pub open_loop: bool,
}

/// The offered rate is about 40% of the closed-loop capacity measured
/// on a 2-core host with `--workload serve-capacity` (see NOTES.md).
pub const FULL: Params = Params {
    prefix_txns: 2_000,
    epoch_txns: 50,
    rate_txns: 600.0,
    open_loop: true,
};

/// Closed loop, for measuring the capacity the offered rate is set from.
pub const CAPACITY: Params = Params {
    open_loop: false,
    ..FULL
};

/// The reduced form a traced run of another workload uses to measure
/// the serve layer it does not reach.
pub const MINI: Params = Params {
    prefix_txns: 300,
    epoch_txns: 50,
    rate_txns: 600.0,
    open_loop: true,
};

/// Set-up samples taken in each gap of a run: before the timed phase,
/// after it, and after each tenant's oracle check.
const SETUPS_PER_GAP: usize = 3;

const TENANTS: [(&str, ObjectKind); 4] = [
    ("list-append", ObjectKind::ListAppend),
    ("register", ObjectKind::Register),
    ("set", ObjectKind::Set),
    ("counter", ObjectKind::Counter),
];

struct TenantInput {
    name: &'static str,
    log: EventLog,
    lines: Vec<String>,
    /// Lines before this index form the prefix phase.
    split: usize,
}

/// Workers: one per core, less the generator's.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

pub fn run(p: &Params, seed: u64, seconds: f64, work: &Path, tr: &mut Tracer) -> Run {
    let mut run = Run::default();
    let data_dir = work.join(format!("serve-{seed}"));
    let spare_dir = work.join(format!("serve-{seed}-setup"));
    for dir in [&data_dir, &spare_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let cfg = ServeConfig {
        workers: workers(),
        epoch_txns: Some(p.epoch_txns),
        data_dir: Some(data_dir.clone()),
        ..ServeConfig::default()
    };
    let timed_txns = (p.rate_txns * seconds / TENANTS.len() as f64).ceil() as usize;
    let tenants: Vec<TenantInput> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, &(name, kind))| {
            // Staggered by a quarter epoch, so the tenants' watermarks
            // do not all trip at once.
            let prefix = p.prefix_txns + i * p.epoch_txns / TENANTS.len();
            let log = inputs::paper_log(prefix + timed_txns, kind, seed * 8 + i as u64);
            let lines = inputs::event_lines(log.events())
                .iter()
                .map(|ev| tag_event_line(name, ev))
                .collect();
            let split = inputs::nth_invoke(log.events(), prefix + 1);
            TenantInput {
                name,
                log,
                lines,
                split,
            }
        })
        .collect();

    prefix_phase(&cfg, &tenants, tr, &mut run);

    // Every envelope, status and reject line, stamped on arrival.
    let arrivals: Arc<Mutex<Vec<(Instant, String)>>> = Arc::default();
    let sink: Sink = {
        let arrivals = Arc::clone(&arrivals);
        Arc::new(move |line: &str| {
            let at = Instant::now();
            let head = line.get(..160).unwrap_or(line).to_string();
            arrivals.lock().expect("sink lock").push((at, head));
        })
    };
    // Set-up samples run on a copy of the prefix data dir, in every gap
    // of the run, so that host noise lasting a few seconds does not set
    // the median; each sample is aborted, which leaves the store
    // untouched. The served instance is one more sample.
    copy_dir(&data_dir, &spare_dir).expect("the prefix data dir copies");
    let spare = ServeConfig {
        data_dir: Some(spare_dir.clone()),
        ..cfg.clone()
    };
    let start_server = |run: &mut Run, cfg: &ServeConfig| {
        let t0 = Instant::now();
        let server = Server::start(cfg.clone(), Arc::clone(&sink))
            .expect("Server::start recovers the prefix data dir");
        run.setup_s.push(t0.elapsed().as_secs_f64());
        server
    };
    let sample_setups = |run: &mut Run| {
        for _ in 0..SETUPS_PER_GAP {
            start_server(run, &spare).abort();
        }
    };
    sample_setups(&mut run);
    let server = start_server(&mut run, &cfg);

    // The timed lines, round robin across tenants, and the watermark
    // each one trips: (tenant, epoch ordinal) by line.
    let mut order: Vec<(usize, usize)> = Vec::new();
    let longest = tenants
        .iter()
        .map(|t| t.lines.len() - t.split)
        .max()
        .unwrap_or(0);
    for j in 0..longest {
        for (ti, t) in tenants.iter().enumerate() {
            if t.split + j < t.lines.len() {
                order.push((ti, t.split + j));
            }
        }
    }
    let mut trips: HashMap<(usize, usize), usize> = HashMap::new();
    for (ti, t) in tenants.iter().enumerate() {
        let mut invoked = 0usize;
        for (li, ev) in t.log.events().iter().enumerate() {
            if ev.kind == EventKind::Invoke {
                invoked += 1;
                if invoked.is_multiple_of(p.epoch_txns) && li >= t.split {
                    trips.insert((ti, li), invoked / p.epoch_txns - 1);
                }
            }
        }
    }

    // The timed lines span `seconds`, so the offered load is the rate.
    let line_secs = p.open_loop.then(|| seconds / order.len() as f64);
    let mut due_of: HashMap<(usize, usize), (Instant, Instant, Instant)> = HashMap::new();
    let mut submit_s = 0.0;
    let mut rejects = 0usize;
    let status_every = Duration::from_millis(100);
    let start = Instant::now();
    let mut next_status = start + status_every;
    for (k, &(ti, li)) in order.iter().enumerate() {
        let due = match line_secs {
            Some(d) => {
                let due = start + Duration::from_secs_f64(d * k as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            None => Instant::now(),
        };
        let s0 = Instant::now();
        let mut outcome = server.submit(&tenants[ti].lines[li], &sink);
        while !p.open_loop && outcome == Submitted::Rejected {
            std::thread::sleep(Duration::from_millis(1));
            outcome = server.submit(&tenants[ti].lines[li], &sink);
        }
        let s1 = Instant::now();
        if outcome != Submitted::Ok {
            rejects += 1;
            run.fail("serve: a line was rejected");
        }
        if tr.on() {
            submit_s += (s1 - s0).as_secs_f64();
            if s1 >= next_status {
                server.submit("{\"op\":\"status\"}", &sink);
                next_status += status_every;
            }
        }
        if let Some(&epoch) = trips.get(&(ti, li)) {
            due_of.insert((ti, epoch), (due, s0, s1));
        }
    }
    let finals = server.drain();
    run.timed_s = start.elapsed().as_secs_f64();
    run.peak_rss_mb = crate::stats::peak_rss_mb();
    run.txns = (timed_txns * TENANTS.len()) as u64;
    sample_setups(&mut run);

    // Ops: each expected watermark verdict, timed from its line's due.
    let arrivals = std::mem::take(&mut *arrivals.lock().expect("sink lock"));
    let mut backlog_max = 0usize;
    let mut ops: Vec<(Instant, Instant, Instant, Instant)> = Vec::new();
    for (at, head) in &arrivals {
        if let Some(v) = field(head, "\"buffered_bytes\":") {
            backlog_max = backlog_max.max(v);
            continue;
        }
        let tenant = tenants
            .iter()
            .position(|t| head.starts_with(&format!("{{\"tenant\":\"{}\",\"epoch\":", t.name)));
        match (tenant, field(head, "\"epoch\":")) {
            (Some(ti), Some(epoch)) => {
                if !head.contains("\"ok\":true") {
                    run.fail("oracle: a serializable tenant verdict was not ok");
                }
                if let Some((due, s0, s1)) = due_of.remove(&(ti, epoch)) {
                    ops.push((due, s0, s1, *at));
                }
            }
            // Closed loop retries its admission rejects.
            _ if !p.open_loop && head.contains("\"code\":429") => {}
            _ => run.fail("serve: the sink received a reject or warning"),
        }
    }
    run.attempted += (ops.len() + due_of.len()) as u64;
    for _ in 0..due_of.len() {
        run.fail("serve: a watermark verdict never arrived");
    }
    for &(due, s0, s1, at) in &ops {
        run.op_ms.push(ms(at.saturating_duration_since(due)));
        tr.next_op();
        let root = tr.record("serve.op", due, at, None);
        tr.record("loadgen.wait", due, s0, root);
        tr.record("serve.submit", s0, s1, root);
    }

    // Gate: each tenant's final verdict equals the single-tenant oracle.
    for t in &tenants {
        let served = finals.iter().find(|f| f.tenant == t.name);
        if served.map(|f| f.verdict.as_str()) != Some(solo_verdict(&cfg, t.name, &t.lines).as_str())
        {
            run.fail("gate: a served verdict differs from solo_verdict");
        }
        sample_setups(&mut run);
    }

    if tr.on() {
        let l = &mut run.layer;
        l.put("serve.submit_us", submit_s * 1e6 / order.len() as f64, "us");
        l.put("serve.backlog_bytes_max", backlog_max as f64, "bytes");
        l.put("serve.rejects", rejects as f64, "count");
        layer_from_ops(tr, "serve.op", "serve.unattributed_ms", &mut run);
        analysis_split(&cfg, &tenants, tr, &mut run);
    }
    for dir in [&data_dir, &spare_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    run
}

/// Copy a directory tree of regular files.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), dst)?;
        }
    }
    Ok(())
}

/// Drive each tenant's prefix lines through `Tenant::open`/`ingest`
/// single threaded, then drop the tenant without closing it, as a crash
/// would. Traced, this is the serve layer's split: per-ingest time,
/// seal-and-rotate time, and the store's write volume read back from
/// the data directory.
fn prefix_phase(cfg: &ServeConfig, tenants: &[TenantInput], tr: &Tracer, run: &mut Run) {
    let mut ingest_s = Vec::new();
    let mut seal_s = Vec::new();
    let mut rotate_bytes = 0u64;
    let mut journal_bytes = 0u64;
    for t in tenants {
        let (mut tenant, _) = Tenant::open(t.name, cfg).expect("a fresh tenant opens");
        let dir = cfg
            .data_dir
            .as_ref()
            .expect("serve runs with a data directory")
            .join("tenants")
            .join(t.name);
        for line in &t.lines[..t.split] {
            let Ok(Request::Event { event, .. }) = parse_request(line) else {
                run.fail("serve: a generated line did not parse");
                continue;
            };
            let journal = if tr.on() { journal_size(&dir) } else { 0 };
            let t0 = Instant::now();
            let reply = tenant.ingest(cfg, &event);
            let dt = t0.elapsed().as_secs_f64();
            match reply {
                Ok(r) if r.warning.is_none() && r.failed.is_none() => {
                    if r.sealed.is_some() {
                        seal_s.push(dt);
                        if tr.on() {
                            journal_bytes += journal;
                            rotate_bytes += std::fs::metadata(dir.join("snapshot.ndjson"))
                                .map_or(0, |m| m.len());
                        }
                    } else {
                        ingest_s.push(dt);
                    }
                }
                _ => run.fail("serve: a prefix line was not ingested cleanly"),
            }
        }
    }
    if tr.on() {
        let l = &mut run.layer;
        l.put(
            "serve.tenant_ingest_us",
            crate::stats::mean(&ingest_s) * 1e6,
            "us",
        );
        l.put(
            "serve.seal_rotate_ms",
            crate::stats::mean(&seal_s) * 1e3,
            "ms",
        );
        l.put("serve.rotate_bytes", rotate_bytes as f64, "bytes");
        l.put("serve.journal_bytes", journal_bytes as f64, "bytes");
    }
}

/// Size of the tenant's live write-ahead journal.
fn journal_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("journal."))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The analysis the tenants ran, split by stage: each tenant's whole
/// event stream through a `StreamChecker` with the service's options and
/// watermark, single threaded, plus a batch check of each tenant's
/// history (which must agree with the stream's last report).
fn analysis_split(cfg: &ServeConfig, tenants: &[TenantInput], tr: &mut Tracer, run: &mut Run) {
    let mut merged = Replay::default();
    let mut cold_ms = 0.0;
    let mut cold_rest_ms = 0.0;
    let mut scratch = Run::default();
    for t in tenants {
        let history = t.log.pair().expect("generated logs pair");
        let t0 = Instant::now();
        let (batch, stages) = Checker::new(cfg.opts).check_timed(&history);
        let wall_ms = ms(t0.elapsed());
        cold_ms += wall_ms;
        cold_rest_ms += check_unattributed_ms(wall_ms, &stages);
        let reference = serde_json::to_string(&batch).expect("report serializes");
        let lines = inputs::event_lines(t.log.events());
        let mut checker = StreamChecker::with_window(cfg.opts, cfg.window);
        let mut r = Replay::default();
        let epoch_txns = cfg.epoch_txns.expect("a transaction watermark");
        let last = stream::feed(
            &mut checker,
            &lines,
            epoch_txns,
            true,
            tr,
            &mut scratch,
            &mut r,
        );
        if last.as_deref() != Some(reference.as_str()) {
            run.fail("gate: a tenant's stream report differs from its batch report");
        }
        merged.absorb(&r);
    }
    run.absorb_checks(&scratch);
    stream::put_layer(run, &[merged], usize::MAX);
    run.layer.put("core.cold_check_ms", cold_ms, "ms");
    run.layer.put("core.unattributed_ms", cold_rest_ms, "ms");
    layer_from_ops(tr, "stream.op", "stream.unattributed_ms", run);
}

/// The unsigned integer after `key` in `s`, if any.
fn field(s: &str, key: &str) -> Option<usize> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
