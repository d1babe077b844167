//! rtkbench: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path rtkbench/Cargo.toml -- \
//!     --workload ui_build --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets up one workload on the default configuration (framed wire
//! transport, compile cache, damage redraw and span tracer on) several
//! times, keeps the last set-up, runs a fixed, seeded number of timed ops,
//! checks every op's output, replays the same ops on the in-process
//! transport to compare screen digests, and prints one JSON object as
//! its last line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs half the ops plain and half traced and reports the per-layer
//! metrics. Nothing inside the toolkit's crates is instrumented for this:
//! the harness times its own calls into each layer's public functions and
//! reads the counters and spans the program already keeps. The process
//! pins itself to one CPU first (see `measure::pin_to_one_cpu`).
//!
//! The end-to-end times are normalized to a nominal host speed: a host
//! reference call (`measure::RefCall`) runs after every op and after every
//! set-up, and each time is divided by how much slower than nominal those
//! calls ran around it. A shared host's speed flips between phases that
//! move raw times by up to 45% from run to run; the normalized times move
//! a few percent. The raw times are per-layer metrics of the traced run.

mod measure;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use measure::{quantile, Probe, CALLS};
use workloads::{Op, Workload, World};

/// End-to-end metrics (`--trace 0`), with units. Times are normalized to
/// the nominal host speed.
const END_TO_END: [(&str, &str); 5] = [
    ("op_p50_norm_us", "us"),
    ("op_p95_norm_us", "us"),
    ("ops_per_norm_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Span kinds whose self time is a per-layer metric.
const SELF_TIMES: [(&str, &str); 10] = [
    ("dispatch", "tk.dispatch.self_us"),
    ("bind", "tk.bind.self_us"),
    ("eval", "tk.eval.self_us"),
    ("update", "tk.update.self_us"),
    ("relayout", "tk.relayout.self_us"),
    ("redraw", "tk.redraw.self_us"),
    ("send", "send.self_us"),
    ("send.eval", "send.eval.self_us"),
    ("flush", "xsim.flush.self_us"),
    ("rasterize", "xsim.rasterize.self_us"),
];

/// Per-layer metrics (`--trace 1`), with units. Per-op values are deltas
/// over the traced ops divided by their count; the raw host times come
/// from the untraced half.
const PER_LAYER: [(&str, &str); 44] = [
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("setup_wall_s", "s"),
    ("host.speed", "x"),
    ("tcl.eval_us", "us"),
    ("tcl.parses", "count"),
    ("tcl.compile_hit_ratio", "ratio"),
    ("tcl.compile_evictions", "count"),
    ("tcl.expr_hit_ratio", "ratio"),
    ("tk.eval_us", "us"),
    ("tk.cache_hit_ratio", "ratio"),
    ("tk.dispatch_us", "us"),
    ("tk.dispatch.self_us", "us"),
    ("tk.bind.self_us", "us"),
    ("tk.eval.self_us", "us"),
    ("xsim.events", "count"),
    ("tk.update_us", "us"),
    ("tk.update.self_us", "us"),
    ("tk.relayout.self_us", "us"),
    ("tk.redraw.self_us", "us"),
    ("tk.redraws", "count"),
    ("send.self_us", "us"),
    ("send.eval.self_us", "us"),
    ("send.round_trips", "count"),
    ("send.retries", "count"),
    ("send.timeouts", "count"),
    ("xsim.requests", "count"),
    ("xsim.round_trips", "count"),
    ("xsim.flushes", "count"),
    ("xsim.batch_fill", "count"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("xsim.hop_us", "us"),
    ("xsim.oracle_op_p50_us", "us"),
    ("xsim.flush.self_us", "us"),
    ("xsim.rasterize.self_us", "us"),
    ("xsim.pixels", "count"),
    ("xsim.input_us", "us"),
    ("obs.spans", "count"),
    ("obs.spans_dropped", "count"),
    ("host.ref_us", "us"),
    ("trace.overhead", "x"),
];

/// Set-ups per run; `setup_s` is the median of their normalized times.
const SETUP_REPS: usize = 9;
/// Timed ops per run never drop below this, so at least ten samples lie
/// beyond the 95th percentile.
const MIN_OPS: usize = 200;
/// Bare server hops timed for `xsim.hop_us`.
const HOPS: usize = 500;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().ok().filter(|s| *s >= 1).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Program counters summed over a world's applications and interpreters.
#[derive(Default, Clone, Copy)]
struct Counters {
    requests: u64,
    round_trips: u64,
    events: u64,
    flushes: u64,
    batched: u64,
    pixels: u64,
    frames: u64,
    bytes: u64,
    cache_hits: u64,
    cache_misses: u64,
    redraws: u64,
    send_retries: u64,
    send_timeouts: u64,
    parses: u64,
    compile_hits: u64,
    compile_misses: u64,
    evictions: u64,
    expr_hits: u64,
    expr_compiles: u64,
}

impl Counters {
    fn read(world: &World) -> Counters {
        let mut c = Counters::default();
        for app in world.apps() {
            let s = app.conn().stats();
            let w = app.conn().wire_stats();
            c.requests += s.requests;
            c.round_trips += s.round_trips;
            c.events += s.events;
            c.flushes += s.flushes;
            c.batched += s.batched_requests;
            c.pixels += s.pixels_drawn;
            c.frames += w.frames_encoded;
            c.bytes += w.bytes_encoded;
            c.cache_hits += app.cache().hits();
            c.cache_misses += app.cache().misses();
            c.redraws += app.obs().counter("idle.redraws");
            c.send_retries += app.obs().counter("send_retries");
            c.send_timeouts += app.obs().counter("send_timeouts");
        }
        for interp in world.interps() {
            for (name, v) in interp.compile_counters() {
                match name {
                    "tcl.parses" => c.parses += v,
                    "tcl.compile_cache_hits" => c.compile_hits += v,
                    "tcl.compile_cache_misses" => c.compile_misses += v,
                    "tcl.compile_evictions" => c.evictions += v,
                    "tcl.expr_cache_hits" => c.expr_hits += v,
                    "tcl.expr_compiles" => c.expr_compiles += v,
                    _ => {}
                }
            }
        }
        c
    }
}

/// What the traced half collects from the spans of each op.
#[derive(Default)]
struct TraceAcc {
    self_ns: BTreeMap<&'static str, u64>,
    spans: u64,
    dropped: u64,
    send_round_trips: u64,
}

/// Ends an op: in a traced phase, takes each application's span snapshot
/// first; then resets every span epoch so the store never fills and
/// per-op cost does not depend on how many ops ran before.
fn end_op(world: &World, acc: Option<&mut TraceAcc>) {
    if let Some(acc) = acc {
        for app in world.apps() {
            let spans = app.tracer().snapshot();
            acc.spans += spans.len() as u64;
            acc.dropped += app.tracer().dropped();
            for (kind, ns) in measure::self_time_by_kind(&spans) {
                *acc.self_ns.entry(kind).or_insert(0) += ns;
            }
        }
    }
    for app in world.apps() {
        app.tracer().reset_epoch();
    }
}

/// Runs ops untimed with their checks (warm-up and oracle replay);
/// returns per-op wall times in microseconds and the failure count.
fn run_plain(world: &World, ops: impl Iterator<Item = Op>) -> (Vec<f64>, usize) {
    let probe = Probe::default();
    let mut failed = 0;
    let mut us = Vec::new();
    for op in ops {
        let t = Instant::now();
        let out = world.run(&op, &probe);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = out.and_then(|o| world.check(&op, &o)) {
            report_failure(&e, &mut failed);
        }
        end_op(world, None);
    }
    (us, failed)
}

fn report_failure(e: &str, failed: &mut usize) {
    if *failed < 5 {
        eprintln!("rtkbench: op failed: {e}");
    }
    *failed += 1;
}

/// One fortieth of a timed phase, short next to the host's speed phases.
/// Its ops are normalized by the speed its reference calls ran at, and
/// throughput and CPU per op are medians over blocks.
struct Block {
    ops: usize,
    ref_us: f64,
    start: Instant,
    cpu0: f64,
    /// Wall time of the block, less the reference kernel's.
    wall_s: f64,
    /// Process CPU over the block, less the reference kernel's wall time
    /// (the kernel is single-threaded and CPU-bound).
    cpu_us: f64,
}

impl Block {
    fn open() -> Block {
        Block {
            ops: 0,
            ref_us: 0.0,
            start: Instant::now(),
            cpu0: measure::process_cpu_us(),
            wall_s: 0.0,
            cpu_us: 0.0,
        }
    }

    fn close(&mut self) {
        self.wall_s = self.start.elapsed().as_secs_f64() - self.ref_us / 1e6;
        self.cpu_us = measure::process_cpu_us() - self.cpu0 - self.ref_us;
    }
}

const BLOCKS: usize = 40;

struct Phase {
    op_us: Vec<f64>,
    blocks: Vec<Block>,
    failed: usize,
    /// One reference call's time on the nominal host.
    nominal_ref_us: f64,
}

impl Phase {
    fn block_median(&self, f: impl Fn(&Block) -> f64) -> f64 {
        let v: Vec<f64> = self.blocks.iter().map(f).collect();
        quantile(&v, 0.5)
    }

    /// How many times slower than the nominal host a block ran.
    fn speed(&self, b: &Block) -> f64 {
        b.ref_us / b.ops as f64 / self.nominal_ref_us
    }

    fn ops_per_s(&self) -> f64 {
        self.block_median(|b| b.ops as f64 / b.wall_s)
    }

    fn ops_per_norm_s(&self) -> f64 {
        self.block_median(|b| b.ops as f64 * self.speed(b) / b.wall_s)
    }

    /// Each op's time divided by its block's speed, in op order.
    fn norm_op_us(&self) -> Vec<f64> {
        let speeds = self
            .blocks
            .iter()
            .flat_map(|b| std::iter::repeat_n(self.speed(b), b.ops));
        self.op_us
            .iter()
            .zip(speeds)
            .map(|(us, speed)| us / speed)
            .collect()
    }
}

/// The timed loop over `n` ops: each op, its check, the span-epoch reset,
/// then the host reference kernel, all outside the op timer except the op.
fn timed_phase(
    w: Workload,
    world: &World,
    ops: impl Iterator<Item = Op>,
    n: usize,
    probe: &Probe,
    mut acc: Option<&mut TraceAcc>,
) -> Phase {
    let ref_call = w.ref_call();
    let block_len = n.div_ceil(BLOCKS);
    let mut p = Phase {
        op_us: Vec::with_capacity(n),
        blocks: Vec::with_capacity(BLOCKS),
        failed: 0,
        nominal_ref_us: ref_call.nominal_us(),
    };
    for (i, op) in ops.take(n).enumerate() {
        if i % block_len == 0 {
            if let Some(b) = p.blocks.last_mut() {
                b.close();
            }
            p.blocks.push(Block::open());
        }
        let is_send = matches!(&op, Op::Send { script, .. } if script.starts_with("send"));
        let rt0 = (acc.is_some() && is_send).then(|| Counters::read(world).round_trips);
        let t = Instant::now();
        let out = world.run(&op, probe);
        let op_us = t.elapsed().as_secs_f64() * 1e6;
        if let Err(e) = out.and_then(|o| world.check(&op, &o)) {
            report_failure(&e, &mut p.failed);
        }
        if let (Some(acc), Some(rt0)) = (acc.as_deref_mut(), rt0) {
            acc.send_round_trips += Counters::read(world).round_trips - rt0;
        }
        end_op(world, acc.as_deref_mut());
        let ref_us = ref_call.time_us();
        let b = p.blocks.last_mut().expect("a block is open");
        b.ops += 1;
        b.ref_us += ref_us;
        p.op_us.push(op_us);
    }
    if let Some(b) = p.blocks.last_mut() {
        b.close();
    }
    p
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let cpu = measure::pin_to_one_cpu()?;
    let w = args.workload;
    let n = (w.ops_per_second() * args.seconds).max(MIN_OPS);
    let warm = w.warmup_ops();
    let seq = || workloads::ops(w, args.seed);
    let mut failed = 0;

    // Set-up: a fresh display and applications plus the fixed warm-up,
    // repeated; the previous world is torn down before the timer starts.
    // Reference calls right after each set-up give the speed it ran at.
    let ref_call = w.ref_call();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_norm_s = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let t = Instant::now();
        let fresh = World::new(w, true)?;
        failed += run_plain(&fresh, seq().take(warm)).1;
        let wall_s = t.elapsed().as_secs_f64();
        let calls = w.setup_ref_calls();
        let ref_us: f64 = (0..calls).map(|_| ref_call.time_us()).sum();
        let speed = ref_us / calls as f64 / ref_call.nominal_us();
        setup_s.push(wall_s);
        setup_norm_s.push(wall_s / speed);
        world = Some(fresh);
    }
    let world = world.expect("at least one set-up ran");

    let probe = Probe::default();
    let mut acc = TraceAcc::default();
    let (main, traced) = if args.trace {
        let mut timed_ops = seq().skip(warm);
        let untraced = timed_phase(w, &world, timed_ops.by_ref(), n / 2, &probe, None);
        let before = Counters::read(&world);
        probe.set_on(true);
        let traced = timed_phase(w, &world, timed_ops, n - n / 2, &probe, Some(&mut acc));
        probe.set_on(false);
        let after = Counters::read(&world);
        (untraced, Some((traced, before, after)))
    } else {
        (
            timed_phase(w, &world, seq().skip(warm), n, &probe, None),
            None,
        )
    };
    failed += main.failed + traced.as_ref().map_or(0, |t| t.0.failed);
    let peak_rss = measure::peak_rss_mb();
    let hops: Vec<f64> = match world.display().filter(|_| args.trace) {
        Some(d) => (0..HOPS)
            .map(|_| {
                let t = Instant::now();
                d.with_server(|_| ());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
        None => Vec::new(),
    };

    // The same ops on the in-process transport must leave the same screen.
    // A world without a display has no transport to swap, so its ops are
    // their own in-process cost.
    let digest = world.screen_digest();
    drop(world);
    let mut oracle_us = main.op_us.clone();
    let mut digest_ok = true;
    if digest.is_some() {
        let oracle = World::new(w, false)?;
        failed += run_plain(&oracle, seq().take(warm)).1;
        let (us, oracle_failed) = run_plain(&oracle, seq().skip(warm).take(n));
        oracle_us = us;
        failed += oracle_failed;
        digest_ok = digest == oracle.screen_digest();
        if !digest_ok {
            eprintln!("rtkbench: screen digest differs from the in-process transport's");
            failed += 1;
        }
    }

    let p95 = quantile(&main.op_us, 0.95);
    let beyond = main.op_us.iter().filter(|&&x| x > p95).count();
    println!(
        "# {} seed {} on CPU {cpu}: {} timed ops ({} beyond p95), {} warm-up ops, {} set-ups, \
         reference calls at {:.2}x their nominal time, screen digest {}",
        w.name(),
        args.seed,
        main.op_us.len(),
        beyond,
        warm,
        SETUP_REPS,
        main.block_median(|b| main.speed(b)),
        match digest {
            Some(d) if digest_ok => format!("{d:016x} matches the in-process transport"),
            Some(_) => "MISMATCH".into(),
            None => "not taken (no display)".into(),
        }
    );

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    if let Some((tp, before, after)) = &traced {
        let ops = tp.op_us.len() as f64;
        let d = |f: fn(&Counters) -> u64| (f(after) - f(before)) as f64;
        let ratio = |hit: f64, miss: f64| {
            if hit + miss > 0.0 {
                hit / (hit + miss)
            } else {
                0.0
            }
        };
        for (call, name) in CALLS {
            m.insert(name, probe.total_ns(call) as f64 / 1e3 / ops);
        }
        for (kind, name) in SELF_TIMES {
            m.insert(
                name,
                acc.self_ns.get(kind).copied().unwrap_or(0) as f64 / 1e3 / ops,
            );
        }
        m.insert("tcl.parses", d(|c| c.parses) / ops);
        m.insert(
            "tcl.compile_hit_ratio",
            ratio(d(|c| c.compile_hits), d(|c| c.compile_misses)),
        );
        m.insert("tcl.compile_evictions", d(|c| c.evictions) / ops);
        m.insert(
            "tcl.expr_hit_ratio",
            ratio(d(|c| c.expr_hits), d(|c| c.expr_compiles)),
        );
        m.insert(
            "tk.cache_hit_ratio",
            ratio(d(|c| c.cache_hits), d(|c| c.cache_misses)),
        );
        m.insert("xsim.events", d(|c| c.events) / ops);
        m.insert("tk.redraws", d(|c| c.redraws) / ops);
        m.insert("send.round_trips", acc.send_round_trips as f64 / ops);
        m.insert("send.retries", d(|c| c.send_retries) / ops);
        m.insert("send.timeouts", d(|c| c.send_timeouts) / ops);
        m.insert("xsim.requests", d(|c| c.requests) / ops);
        m.insert("xsim.round_trips", d(|c| c.round_trips) / ops);
        m.insert("xsim.flushes", d(|c| c.flushes) / ops);
        let flushes = d(|c| c.flushes);
        m.insert(
            "xsim.batch_fill",
            if flushes > 0.0 {
                d(|c| c.batched) / flushes
            } else {
                0.0
            },
        );
        m.insert("wire.frames", d(|c| c.frames) / ops);
        m.insert("wire.bytes", d(|c| c.bytes) / ops);
        m.insert("xsim.hop_us", quantile(&hops, 0.5));
        m.insert("xsim.oracle_op_p50_us", quantile(&oracle_us, 0.5));
        m.insert("xsim.pixels", d(|c| c.pixels) / ops);
        m.insert("obs.spans", acc.spans as f64 / ops);
        m.insert("obs.spans_dropped", acc.dropped as f64 / ops);
        let (ref_us, calls) = tp
            .blocks
            .iter()
            .fold((0.0, 0), |(us, n), b| (us + b.ref_us, n + b.ops));
        m.insert("host.ref_us", ref_us / calls as f64);
        m.insert("host.speed", main.block_median(|b| main.speed(b)));
        m.insert(
            "trace.overhead",
            main.ops_per_norm_s() / tp.ops_per_norm_s(),
        );
        m.insert("op_p50_us", quantile(&main.op_us, 0.5));
        m.insert("op_p95_us", quantile(&main.op_us, 0.95));
        m.insert("ops_per_s", main.ops_per_s());
        m.insert(
            "cpu_us_per_op",
            main.block_median(|b| b.cpu_us / b.ops as f64),
        );
        m.insert("setup_wall_s", quantile(&setup_s, 0.5));
        let split: Vec<String> = acc
            .self_ns
            .iter()
            .map(|(k, ns)| format!("{k}={:.1}", *ns as f64 / 1e3 / ops))
            .collect();
        println!("# self time per op (us) by span kind: {}", split.join(" "));
    } else {
        let norm = main.norm_op_us();
        m.insert("op_p50_norm_us", quantile(&norm, 0.5));
        m.insert("op_p95_norm_us", quantile(&norm, 0.95));
        m.insert("ops_per_norm_s", main.ops_per_norm_s());
        m.insert("setup_s", quantile(&setup_norm_s, 0.5));
        m.insert("peak_rss_mb", peak_rss);
    }
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let v = m.remove(name).expect("every listed metric is computed");
            (name, unit, v)
        })
        .collect();
    // Every op is checked: the warm-ups, the timed ops and, with a
    // display, their replay on the in-process transport plus its digest.
    let replayed = if digest.is_some() { warm + n + 1 } else { 0 };
    Ok(Report {
        correct: failed == 0,
        attempted: warm * SETUP_REPS + n + replayed,
        failed,
        metrics,
    })
}

fn report_json(r: &Report) -> String {
    use rtk_obs::json::Object;
    let mut metrics = Object::new();
    for (name, unit, value) in &r.metrics {
        metrics.field_raw(
            name,
            &Object::new()
                .field_f64("value", *value)
                .field_str("unit", unit)
                .build(),
        );
    }
    Object::new()
        .field_bool("correct", r.correct)
        .field_u64("attempted", r.attempted as u64)
        .field_u64("failed", r.failed as u64)
        .field_raw("metrics", &metrics.build())
        .build()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtkbench: {e}");
            eprintln!(
                "usage: rtkbench --workload ui_build|interact|send_rpc|tcl_script \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rtkbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside rtkbench/");
        let doc = rtk_obs::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("metric section")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_declared_and_well_named() {
        for (table, section) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let names = declared(section);
            for (name, unit) in table {
                assert!(
                    names.iter().any(|n| n == name),
                    "{name} missing from {section}"
                );
                let ok = |s: &str| {
                    s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                };
                assert!(ok(name), "bad metric name {name}");
                assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
            }
        }
        let layer_names = SELF_TIMES
            .iter()
            .map(|(_, n)| *n)
            .chain(CALLS.iter().map(|(_, n)| *n));
        for name in layer_names {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} not in PER_LAYER"
            );
        }
    }

    #[test]
    fn ops_are_normalized_by_their_own_block_speed() {
        let block = |ops, ref_us| Block {
            ops,
            ref_us,
            start: Instant::now(),
            cpu0: 0.0,
            wall_s: 1.0,
            cpu_us: 0.0,
        };
        // Reference calls of nominally 5 us ran at 10 us in the first
        // block (2x slower) and at 30 us in the second (6x).
        let p = Phase {
            op_us: vec![10.0, 20.0, 30.0],
            blocks: vec![block(2, 20.0), block(1, 30.0)],
            failed: 0,
            nominal_ref_us: 5.0,
        };
        assert_eq!(p.norm_op_us(), vec![5.0, 10.0, 5.0]);
        // 2 ops in 1 s at 2x and 1 op in 1 s at 6x: 4 and 6 ops per
        // nominal second, lower median 4.
        assert_eq!(p.ops_per_norm_s(), 4.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload send_rpc --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SendRpc, 9, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload ui_build --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
