//! The FAUST benchmark: one closed-loop workload over loopback TCP per
//! invocation.
//!
//! ```text
//! cargo run --release --manifest-path faustbench/Cargo.toml -- \
//!     --workload durable-closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no decorators
//! installed. `--trace 1` runs the workload twice, untraced and traced,
//! and reports the per-layer metrics, the stage table and the tracing
//! overhead. Every line before the last is for people; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 0 only when every op and every output check passed.
//! See `RATIONALE.md` for why the workloads and metrics are what they
//! are.

mod deploy;
mod report;
mod trace;
mod util;

use deploy::{connect_config, run_phase, setup, store_config, Deployment, PhaseOut, Shape, ACTIVE};
use faust_crypto::sig::{KeySet, SigScheme};
use faust_types::ClientId;
use faust_ustor::CommitMode;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use util::{host_fingerprint, json_str, median, metric, metrics_json, Metric};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A workload: its deployment and load, and how many times a run sets
/// the deployment up to measure `setup_s` ([`SEGMENTS`] of those set-ups
/// carry a segment of the timed phase).
struct Workload {
    shape: Shape,
    setups: usize,
}

/// Deployments an untraced run spreads its timed phase over. On a host
/// shared with other tenants, 5 s runs of `durable-closed` on fresh
/// deployments one after another ranged from 615 to 800 ops/s, and slow
/// episodes last seconds; the median over twelve segments moves far less
/// than one long phase on one deployment (see `RATIONALE.md`).
const SEGMENTS: usize = 12;

fn workload(name: &str) -> Result<Workload, String> {
    let connect = connect_config();
    Ok(match name {
        "durable-closed" => Workload {
            shape: Shape {
                n: 2,
                durable: true,
                depth: 1,
                write_pct: 50,
                value_len: 1024,
                config: connect,
            },
            setups: 51,
        },
        "durable-pipelined" => {
            let mut config = connect;
            config.faust.commit_mode = CommitMode::Piggyback;
            config.faust.pipeline = 64;
            Workload {
                shape: Shape {
                    n: 2,
                    durable: true,
                    depth: 64,
                    write_pct: 90,
                    value_len: 64,
                    config,
                },
                setups: 51,
            }
        }
        "wide-n512" => Workload {
            shape: wide(512),
            setups: SEGMENTS,
        },
        other => {
            return Err(format!(
                "unknown workload `{other}` (durable-closed, durable-pipelined, wide-n512)"
            ))
        }
    })
}

/// The `wide-n512` shape at any `n` (the traced run's n-slope rows use
/// it at 8 and 64).
fn wide(n: usize) -> Shape {
    Shape {
        n,
        durable: false,
        depth: 1,
        write_pct: 50,
        value_len: 64,
        config: connect_config(),
    }
}

/// Scratch space inside the current directory: store directories of
/// this process, span files and saved results.
fn work_dir() -> PathBuf {
    PathBuf::from(".faustbench")
}

/// Failures of the post-run output checks.
#[derive(Default)]
struct Checks {
    failed: u64,
    errors: Vec<String>,
    recover_us_per_record: f64,
}

impl Checks {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }
}

/// After a durable run: recovery must show each active client's last
/// acknowledged write, and the audit must certify the history.
fn check_store(dir: &Path, n: usize, keys: &KeySet, phase: &PhaseOut, checks: &mut Checks) {
    let start = Instant::now();
    let recovered = match faust_store::PersistentServer::recover(dir, n, store_config()) {
        Ok(server) => server,
        Err(e) => return checks.fail(format!("recover {}: {e}", dir.display())),
    };
    let elapsed = start.elapsed();
    checks.recover_us_per_record =
        elapsed.as_secs_f64() * 1e6 / recovered.wal_records().max(1) as f64;
    for (c, last) in phase.last_writes.iter().enumerate() {
        let found = recovered
            .server()
            .mem(ClientId::new(c as u32))
            .value
            .as_ref();
        if found.map(|v| v.as_bytes()) != Some(last.as_slice()) {
            checks.fail(format!(
                "recovered register {c} does not hold client {c}'s last acknowledged write"
            ));
        }
    }
    match faust_audit::export_store_dir(dir, SigScheme::Hmac, None) {
        Err(e) => checks.fail(format!("export history: {e}")),
        Ok(history) => match faust_audit::audit(&history, &keys.registry()) {
            Err(e) => checks.fail(format!("audit: {e}")),
            Ok(report) => {
                if !matches!(report.verdict, faust_audit::AuditVerdict::Certified { .. }) {
                    checks.fail(format!("audit did not certify: {:?}", report.verdict));
                }
            }
        },
    }
}

/// Everything one timed phase leaves behind.
struct Phase {
    out: PhaseOut,
    client_traces: Vec<trace::ClientTrace>,
    server_trace: Option<trace::ServerTrace>,
}

/// Runs the timed phase on a set-up deployment, shuts it down and runs
/// the output checks.
fn measure(
    shape: &Shape,
    mut deployment: Deployment,
    seed: u64,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
) -> Result<Phase, String> {
    if traced {
        let mut first = deployment.client_traces[0].lock().expect("trace lock");
        first.capture = true;
    }
    let out = run_phase(shape, &mut deployment, seed, seconds, traced);
    let dir = deployment.dir.clone();
    let keys = Arc::clone(&deployment.keys);
    let client_traces = std::mem::take(&mut deployment.client_traces);
    let server_trace = deployment.server_trace.take();
    deployment.shutdown()?;
    if let Some(dir) = &dir {
        check_store(dir, shape.n, &keys, &out, checks);
        let _ = std::fs::remove_dir_all(dir);
    }
    let take = |m: Arc<Mutex<trace::ClientTrace>>| {
        Arc::try_unwrap(m)
            .map_err(|_| "client trace still shared")
            .map(|m| m.into_inner().expect("trace lock"))
    };
    let client_traces = client_traces
        .into_iter()
        .map(take)
        .collect::<Result<Vec<_>, _>>()?;
    let server_trace = match server_trace {
        Some(t) => Some(
            Arc::try_unwrap(t)
                .map_err(|_| "server trace still shared")?
                .into_inner()
                .expect("trace lock"),
        ),
        None => None,
    };
    Ok(Phase {
        out,
        client_traces,
        server_trace,
    })
}

fn store_dir(run_dir: &Path, shape: &Shape, label: &str) -> Option<PathBuf> {
    shape
        .durable
        .then(|| run_dir.join(format!("store-{label}")))
}

struct Outcome {
    metrics: Vec<Metric>,
    /// Printed and saved, not gated.
    informational: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

/// `--trace 0`: set the deployment up `setups` times, run one segment
/// of the timed phase on each of [`SEGMENTS`] of them (the first, and the
/// rest spread evenly), and report the end-to-end metrics.
fn run_untraced(w: &Workload, args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let keys = Arc::new(KeySet::generate_with(
        SigScheme::Hmac,
        w.shape.n,
        deploy::KEY_SEED,
    ));
    let seconds = args.seconds / SEGMENTS as f64;
    let mut setup_times = Vec::new();
    let mut segments = Vec::new();
    let mut checks = Checks::default();
    let carries = |k: usize| (0..SEGMENTS).any(|j| j * w.setups / SEGMENTS == k);
    let mut peak_rss = Vec::new();
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    for k in 0..w.setups {
        if carries(k) {
            util::reset_peak_rss();
        }
        let dir = store_dir(run_dir, &w.shape, &format!("setup{k}"));
        let start = Instant::now();
        let d = setup(&w.shape, &keys, dir.as_deref(), args.seed, false)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if carries(k) {
            let phase = measure(&w.shape, d, args.seed, seconds, false, &mut checks)?;
            peak_rss.push(util::peak_rss_mb());
            segments.push(report::Segment::of(&phase.out));
            attempted += phase.out.attempted;
            failed += phase.out.failed;
            errors.extend(phase.out.errors);
        } else {
            d.shutdown()?;
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        release_free_memory();
    }
    let mut metrics = vec![metric("setup_s", median(setup_times.clone()), "s")];
    let e2e = report::end_to_end(&segments);
    metrics.extend(e2e.gated);
    // Both kinds of noise in a segment's peak only add to it: arenas
    // that lock contention made glibc create, and the fragmented heap
    // that earlier deployments left behind. The smallest is the
    // deployment's own footprint.
    let least_rss = peak_rss.iter().copied().fold(f64::INFINITY, f64::min);
    metrics.push(metric("peak_rss_mb", least_rss, "MiB"));
    let notes = vec![
        e2e.notes,
        format!("peak_rss_mb per segment: {peak_rss:.1?}"),
        format!(
            "setup_s over {} set-ups: {:?}",
            setup_times.len(),
            setup_times
        ),
    ];
    errors.extend(checks.errors);
    Ok(Outcome {
        metrics,
        informational: e2e.informational,
        attempted,
        failed: failed + checks.failed,
        errors,
        notes,
    })
}

/// `--trace 1`: an untraced and a traced phase on fresh deployments,
/// the per-layer metrics and stage table, the n-slope rows, and the
/// span file.
fn run_traced(name: &str, w: &Workload, args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let keys = Arc::new(KeySet::generate_with(
        SigScheme::Hmac,
        w.shape.n,
        deploy::KEY_SEED,
    ));
    let mut checks = Checks::default();
    let d = setup(
        &w.shape,
        &keys,
        store_dir(run_dir, &w.shape, "untraced").as_deref(),
        args.seed,
        false,
    )?;
    // The measured time is split between the untraced and the traced
    // phase, so a traced run takes about as long as an untraced one.
    let half = args.seconds / 2.0;
    let plain = measure(&w.shape, d, args.seed, half, false, &mut checks)?;
    let d = setup(
        &w.shape,
        &keys,
        store_dir(run_dir, &w.shape, "traced").as_deref(),
        args.seed,
        true,
    )?;
    let traced = measure(&w.shape, d, args.seed, half, true, &mut checks)?;
    let server = traced
        .server_trace
        .as_ref()
        .ok_or("traced phase has no server trace")?;
    let layers = report::layers(
        name,
        w.shape.depth,
        w.shape.durable,
        &traced.out,
        &traced.client_traces,
        server,
    );
    let mut metrics = layers.metrics;
    metrics.push(metric(
        "store.recover_us_per_record",
        checks.recover_us_per_record,
        "us",
    ));
    let budget = Duration::from_millis(300);
    let captured = traced.client_traces[0].captured.as_ref();
    metrics.extend(report::micro(captured, w.shape.n, budget));

    let e2e = |p: &PhaseOut| {
        let m = report::end_to_end(&[report::Segment::of(p)]).gated;
        let get = |n: &str| m.iter().find(|x| x.name == n).map_or(0.0, |x| x.value);
        let mut lat: Vec<f64> = p
            .ops
            .iter()
            .map(|op| op.latency_ns() as f64 / 1e3)
            .collect();
        lat.sort_by(f64::total_cmp);
        (get("ops_per_s"), util::quantile(&lat, 0.5))
    };
    let (plain_ops, plain_p50) = e2e(&plain.out);
    let (traced_ops, traced_p50) = e2e(&traced.out);
    metrics.push(metric("trace.untraced_ops_per_s", plain_ops, "1/s"));
    metrics.push(metric("trace.traced_ops_per_s", traced_ops, "1/s"));
    metrics.push(metric("trace.untraced_p50_us", plain_p50, "us"));
    metrics.push(metric("trace.traced_p50_us", traced_p50, "us"));
    metrics.push(metric(
        "trace.overhead_frac",
        1.0 - traced_ops / plain_ops.max(f64::MIN_POSITIVE),
        "1",
    ));

    let mut attempted = plain.out.attempted + traced.out.attempted;
    let mut failed = plain.out.failed + traced.out.failed;
    let mut errors = plain.out.errors;
    errors.extend(traced.out.errors);
    let mut notes = vec![layers.table];

    // n-slope rows: the wide workload's O(n) rows at smaller n.
    let slope_seconds = (args.seconds / 20.0).max(0.5);
    for n in [8usize, 64] {
        let shape = wide(n);
        let keys = Arc::new(KeySet::generate_with(SigScheme::Hmac, n, deploy::KEY_SEED));
        let d = setup(&shape, &keys, None, args.seed, true)?;
        let phase = measure(&shape, d, args.seed, slope_seconds, true, &mut checks)?;
        let server = phase
            .server_trace
            .as_ref()
            .ok_or("n-slope phase has no server trace")?;
        let slope = report::layers(
            "n-slope",
            1,
            false,
            &phase.out,
            &phase.client_traces,
            server,
        );
        let keep = |m: &Metric| m.name.starts_with("types.") || m.name == "ustor.on_submit_us";
        let mut rows: Vec<Metric> = slope.metrics.into_iter().filter(keep).collect();
        rows.extend(report::micro(
            phase.client_traces[0].captured.as_ref(),
            n,
            budget / 3,
        ));
        let keep = |m: &Metric| !m.name.ends_with("_p50_us");
        metrics.extend(rows.into_iter().filter(keep).map(|m| Metric {
            name: format!("n{n}.{}", m.name),
            ..m
        }));
        attempted += phase.out.attempted;
        failed += phase.out.failed;
        errors.extend(phase.out.errors);
    }
    failed += checks.failed;
    errors.extend(checks.errors);

    let span_file = work_dir().join(format!("spans-{name}.tsv"));
    match write_spans(&span_file, &layers.spans) {
        Ok(()) => notes.push(format!(
            "spans: {} written to {}",
            layers.spans.len(),
            span_file.display()
        )),
        Err(e) => notes.push(format!(
            "spans: could not write {}: {e}",
            span_file.display()
        )),
    }
    Ok(Outcome {
        metrics,
        informational: Vec::new(),
        attempted,
        failed,
        errors,
        notes,
    })
}

fn write_spans(path: &Path, spans: &[trace::Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tparent\tstart_ns\tend_ns\tclient\tts")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.parent, s.start, s.end, s.client, s.ts
        )?;
    }
    out.flush()
}

/// Pins glibc malloc's trim and mmap thresholds.
///
/// glibc raises both thresholds at run time the first time it frees a
/// large mmapped block, so which regime a process is in depends on its
/// allocation history. At n = 512 a client session allocates ~10 MiB of
/// per-client versions; in the low-threshold regime each pre-populating
/// session returns that memory to the kernel and faults it back in (over
/// a million minor faults, 4x the set-up time), in the high one it is
/// reused. Fixing the thresholds at high values puts every run in the
/// same regime.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, touches only allocator settings and is called
    // before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

/// Returns free heap memory to the kernel between set-ups, so a run of
/// many deployments does not hold on to what the earlier ones freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's documented call to release free
    // heap pages; it takes a plain integer and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

fn main() {
    pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("faustbench: {e}");
            std::process::exit(2);
        }
    };
    let w = match workload(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("faustbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = work_dir().join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("faustbench: create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    util::ns(Instant::now()); // pin the trace epoch
    println!(
        "faustbench: workload {} (n={}, {} active clients x {} in flight, {}% writes of {} B, {}), seed {}, {} s, trace {}",
        args.workload,
        w.shape.n,
        ACTIVE,
        w.shape.depth,
        w.shape.write_pct,
        w.shape.value_len,
        if w.shape.durable { "store dir, group commit 64 records / 2 ms" } else { "in memory" },
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let outcome = if args.trace {
        run_traced(&args.workload, &w, &args, &run_dir)
    } else {
        run_untraced(&w, &args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("faustbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{}", note.trim_end());
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<32} {failed_frac:>16} 1", "failed_frac");
    for m in &outcome.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.informational {
        println!("{:<32} {:>16.4} {} (not gated)", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    let host = host_fingerprint();
    let host_json = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("host: {{{host_json}}}");
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    let saved = work_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {{{host_json}}}, \"result\": {result}, \"informational\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        metrics_json(&outcome.informational)
    );
    if let Err(e) = std::fs::write(&saved, record) {
        eprintln!("faustbench: save {}: {e}", saved.display());
    }
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}
