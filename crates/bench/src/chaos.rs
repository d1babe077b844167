//! The seeded chaos-fuzz harness.
//!
//! A chaos case is a [`Mode`] and a pair of seeds. `script_seed`
//! generates a random but deterministic sequence of Tcl/Tk operations
//! across the mode's applications (widget creation and destruction,
//! configuration, packing, bindings plus synthetic input, selection
//! traffic, `send` between the apps, timer advancement), and `fault_seed`
//! generates an [`xsim::FaultPlan`] injected into the shared display.
//! Every mode runs through one case runner ([`run_ops`]): a fresh
//! environment, the plan installed once the apps are up, each op under
//! `catch_unwind`, then the mode's own check, the span-integrity check
//! and the resource audit. A run must never panic: faults surface as Tcl
//! errors, `tkerror` reports, or clean application teardown. Any failing
//! pair replays deterministically, and [`shrink`] reduces both the
//! operation list and the fault plan to a minimal reproducer.
//!
//! The modes differ only in what [`Mode`] says:
//!
//! * [`Mode::Classic`]: two apps (`chaos0`, `chaos1`) under request-level
//!   faults; the failure condition is a panic, a broken span tree or a
//!   leak.
//! * [`Mode::Storm`]: N apps (`storm0` ..) hammering each other with
//!   nested and concurrent sends, checked against the
//!   exactly-once-or-clean-error invariant.
//! * [`Mode::Bytes`]: the classic script over the forced wire transport
//!   under byte-level faults, checked differentially against the
//!   fault-free wire run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tk::{TkApp, TkEnv};
use xsim::fault::FAULT_KIND_COUNT;
use xsim::{Display, FaultPlan, XorShift};

/// Number of fault specs a generated plan carries.
pub const PLAN_FAULTS: usize = 8;
/// Request/event horizon for generated plans. Covers the two-app setup
/// (which consumes the first ~50 sequence numbers per client) plus the
/// scripted operations; specs that land inside the setup window simply
/// never fire, which keeps plan generation independent of setup size.
pub const PLAN_HORIZON: u64 = 400;
/// Operations per generated script.
pub const SCRIPT_OPS: usize = 60;

/// One operation of a chaos script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Evaluate a Tcl script in app 0 or 1 (errors are expected and counted).
    Tcl(usize, String),
    /// Move the pointer and click button 1.
    Click(i32, i32),
    /// Type a character at the focus window.
    Key(char),
    /// Advance virtual time by `ms` (fires timers).
    Advance(u64),
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Tcl(app, s) => write!(f, "app{app}: {s}"),
            Op::Click(x, y) => write!(f, "click {x},{y}"),
            Op::Key(c) => write!(f, "key {c:?}"),
            Op::Advance(ms) => write!(f, "advance {ms}ms"),
        }
    }
}

/// Generates the deterministic operation list for a script seed.
pub fn generate_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = XorShift::new(seed);
    let mut ops = Vec::with_capacity(n + 2);
    // Both apps get a selection handler proc up front so `selection`
    // operations have something to talk to.
    for app in 0..2 {
        ops.push(Op::Tcl(
            app,
            "proc give {offset max} {return chaos-value}".into(),
        ));
    }
    for _ in 0..n {
        let app = rng.below(2) as usize;
        let other = 1 - app;
        let w = rng.below(6); // widget name pool .w0 .. .w5
        let op = match rng.below(100) {
            0..=17 => {
                let kind = ["button", "message", "frame", "entry"][rng.below(4) as usize];
                Op::Tcl(app, format!("{kind} .w{w} -borderwidth {}", rng.below(4)))
            }
            18..=27 => Op::Tcl(app, format!("pack append . .w{w} {{top fillx}}")),
            28..=37 => Op::Tcl(app, format!(".w{w} configure -text t{}", rng.below(100))),
            38..=45 => Op::Tcl(app, format!("destroy .w{w}")),
            46..=53 => Op::Tcl(app, format!("bind .w{w} <ButtonPress-1> {{set hit{w} 1}}")),
            54..=61 => Op::Click(rng.range(1, 200) as i32, rng.range(1, 200) as i32),
            62..=65 => Op::Key((b'a' + rng.below(26) as u8) as char),
            66..=71 => Op::Advance(rng.range(1, 150)),
            72..=77 => match rng.below(3) {
                0 => Op::Tcl(app, format!("selection handle .w{w} give")),
                1 => Op::Tcl(app, format!("selection own .w{w}")),
                _ => Op::Tcl(app, "selection get".into()),
            },
            78..=87 => Op::Tcl(
                app,
                format!("send chaos{other} {{set remote {}}}", rng.below(100)),
            ),
            88..=91 => Op::Tcl(app, format!("after {} {{set fired 1}}", rng.range(1, 100))),
            92..=94 => Op::Tcl(app, "update".into()),
            95..=96 => Op::Tcl(app, format!("wm title . t{}", rng.below(100))),
            97..=98 => Op::Tcl(app, format!("focus .w{w}")),
            _ => Op::Tcl(app, "winfo children .".into()),
        };
        ops.push(op);
    }
    ops
}

/// Generates the deterministic fault plan for a fault seed. Two clients,
/// [`PLAN_FAULTS`] specs, [`PLAN_HORIZON`] horizon.
pub fn generate_plan(seed: u64) -> FaultPlan {
    FaultPlan::from_seed(seed, PLAN_FAULTS, 2, PLAN_HORIZON)
}

/// What a chaos case runs and how its outcome is checked. Every per-mode
/// difference lives in these methods and in the case runner's one
/// `match`, which picks the check after the ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Two apps under request-level faults ([`generate_ops`],
    /// [`generate_plan`]).
    Classic,
    /// A send storm among this many apps under request-level faults
    /// ([`generate_storm_ops`], [`generate_storm_plan`]).
    Storm(usize),
    /// The classic script over the forced wire transport under
    /// byte-level faults ([`BYTES_FAULTS`] specs within
    /// [`BYTES_HORIZON`] frames).
    Bytes,
}

impl Mode {
    /// The deterministic operation list for a script seed.
    pub fn ops(self, seed: u64) -> Vec<Op> {
        match self {
            Mode::Storm(napps) => generate_storm_ops(seed, STORM_OPS, napps),
            Mode::Classic | Mode::Bytes => generate_ops(seed, SCRIPT_OPS),
        }
    }

    /// The deterministic fault plan for a fault seed.
    pub fn plan(self, seed: u64) -> FaultPlan {
        match self {
            Mode::Classic => generate_plan(seed),
            Mode::Storm(napps) => generate_storm_plan(seed, napps),
            Mode::Bytes => FaultPlan::bytes_from_seed(seed, BYTES_FAULTS, 2, BYTES_HORIZON),
        }
    }

    fn app_names(self) -> Vec<String> {
        match self {
            Mode::Storm(napps) => (0..napps).map(|i| format!("storm{i}")).collect(),
            Mode::Classic | Mode::Bytes => vec!["chaos0".into(), "chaos1".into()],
        }
    }

    /// A fresh environment. Byte faults only exist on the wire, and the
    /// differential oracle must run the transport the faulted run does,
    /// so `Bytes` forces the codec on whatever `RTK_NO_WIRE` says.
    fn env(self) -> TkEnv {
        let display = Display::new();
        if self == Mode::Bytes {
            display.set_wire(true);
            display.set_wire_deadline(BYTES_WATCHDOG_MS);
        }
        TkEnv::with_display(display)
    }
}

/// What a successful run reports.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    /// Operations applied.
    pub ops: usize,
    /// Tcl-level errors observed (expected under faults).
    pub tcl_errors: u64,
    /// Faults injected, summed over all connections.
    pub faults_injected: u64,
    /// Per-kind fault splits, summed over all connections, indexed like
    /// `xsim::fault::FAULT_KIND_NAMES`.
    pub fault_counts: [u64; FAULT_KIND_COUNT],
    /// `send` timeouts, summed over all apps (`send_timeouts` counter).
    pub send_timeouts: u64,
    /// `send` retries after retryable X errors (`send_retries` counter).
    pub send_retries: u64,
    /// Duplicated requests dropped by the receiver dedup window
    /// (`send_dedup_drops` counter) — each one is a prevented double
    /// execution.
    pub send_dedup_drops: u64,
    /// Stale registry entries pruned (`registry_gc` counter).
    pub registry_gc: u64,
    /// Causal spans recorded across all apps (the tracer is always on).
    pub spans_recorded: u64,
    /// Aggregated span-tree shape across all apps, for well-formedness
    /// assertions (zero orphans, zero dangling-open spans at quiescence).
    pub span_shape: rtk_obs::SpanShape,
}

impl RunStats {
    /// Folds one app's fault-injection and send-RPC observability
    /// counters and its span tree into the run totals.
    fn absorb_app(&mut self, app: &TkApp) {
        let (faults_injected, fault_counts) = app
            .conn()
            .with_obs(|o| (o.faults_injected, o.fault_counts))
            .unwrap_or_default();
        let counter = |name: &str| app.obs().counter(name);
        let spans = app.tracer().snapshot();
        self.span_shape.collect(&spans);
        self.add(&RunStats {
            faults_injected,
            fault_counts,
            send_timeouts: counter("send_timeouts"),
            send_retries: counter("send_retries"),
            send_dedup_drops: counter("send_dedup_drops"),
            registry_gc: counter("registry_gc"),
            spans_recorded: spans.len() as u64,
            ..RunStats::default()
        });
    }

    /// Adds another run's counts to these (the chaos driver's totals).
    /// The span shape is a per-run check and is not summed.
    pub fn add(&mut self, other: &RunStats) {
        self.ops += other.ops;
        self.tcl_errors += other.tcl_errors;
        self.faults_injected += other.faults_injected;
        for (slot, n) in self.fault_counts.iter_mut().zip(other.fault_counts) {
            *slot += n;
        }
        self.send_timeouts += other.send_timeouts;
        self.send_retries += other.send_retries;
        self.send_dedup_drops += other.send_dedup_drops;
        self.registry_gc += other.registry_gc;
        self.spans_recorded += other.spans_recorded;
    }
}

/// A panic caught while running a case, or a broken invariant: the
/// storm's exactly-once rule, a silent byte-chaos divergence, a broken
/// span tree or a resource leak.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index of the offending operation (`None`: setup or teardown).
    pub op_index: Option<usize>,
    /// The panic payload, if it was a string.
    pub message: String,
    /// The server's fault report at the time of the panic (best effort —
    /// the environment died with the panic, so this is the plan as
    /// configured).
    pub plan: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "failure at op {}: {}", i, self.message),
            None => write!(f, "failure outside ops: {}", self.message),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with the default panic hook silenced (the chaos loop catches
/// panics; spraying backtraces over the progress output helps nobody).
/// The previous hook is restored afterwards.
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}

/// A run's comparable outcome: every Tcl op's result (ok or error
/// message, in order), then in `Bytes` mode a final `winfo children .`
/// probe per app. Clicks, keys, and timer advances leave their traces in
/// the Tcl results that follow them.
type Signature = Vec<Result<String, String>>;

/// Applies one op; a Tcl op returns its outcome for the [`Signature`].
fn apply(env: &TkEnv, apps: &[TkApp], op: &Op) -> Option<Result<String, String>> {
    match op {
        Op::Tcl(i, s) => return Some(apps[*i].eval(s).map_err(|e| e.msg)),
        Op::Click(x, y) => {
            env.display().move_pointer(*x, *y);
            env.display().click(1);
            env.dispatch_all();
        }
        Op::Key(c) => {
            env.display().type_char(*c);
            env.dispatch_all();
        }
        Op::Advance(ms) => env.advance(*ms),
    }
    None
}

/// The one case loop: a fresh environment, the plan installed once the
/// apps are up, every op under `catch_unwind`, then the mode's check
/// (the storm's exactly-once sweep, or the byte-chaos probes and
/// settling), the span-integrity check and the resource audit. Returns
/// the stats, the signature, and the death evidence (checksum kills plus
/// watchdog fires over all connections).
fn run_once(
    mode: Mode,
    ops: &[Op],
    plan: &FaultPlan,
) -> Result<(RunStats, Signature, u64), Failure> {
    let fail = |op_index, message| Failure {
        op_index,
        message,
        plan: plan.describe(),
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        let env = mode.env();
        let apps: Vec<TkApp> = mode.app_names().iter().map(|n| env.app(n)).collect();
        env.dispatch_all();
        env.display()
            .with_server(|s| s.install_fault_plan(plan.clone()));
        let mut stats = RunStats::default();
        let mut sig = Signature::with_capacity(ops.len() + apps.len());
        for (i, op) in ops.iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| apply(&env, &apps, op)))
                .map_err(|payload| fail(Some(i), panic_message(payload)))?;
            if let Some(Err(_)) = outcome {
                stats.tcl_errors += 1;
            }
            sig.extend(outcome);
            stats.ops = i + 1;
        }
        env.dispatch_all();
        match mode {
            Mode::Classic => {}
            Mode::Storm(_) => check_sends(ops, &apps).map_err(|(i, msg)| fail(Some(i), msg))?,
            Mode::Bytes => {
                for app in &apps {
                    sig.push(app.eval("winfo children .").map_err(|e| e.msg));
                }
                settle(&env, &apps, plan);
            }
        }
        // Faults may drop requests and kill connections, but they must
        // never corrupt the trace: no orphaned parents, no span left open
        // at quiescence.
        for app in &apps {
            if let Err(msg) = app.tracer().check_integrity() {
                return Err(fail(
                    None,
                    format!("span integrity in {}: {msg}", app.name()),
                ));
            }
        }
        // Any server object still chargeable to a dead client at
        // quiescence (a window, GC, selection, interest entry, queued
        // event, or registry entry pointing at a vanished comm window)
        // fails the case exactly like a panic would.
        let leaks = tk::send::audit(&env);
        if !leaks.is_empty() {
            return Err(fail(None, format!("resource audit: {}", leaks.join("; "))));
        }
        let mut deaths = 0;
        for app in &apps {
            let wire = app.conn().wire_stats();
            deaths += wire.checksum_errors + wire.lost_frames + wire.watchdog_fires;
            stats.absorb_app(app);
        }
        Ok((stats, sig, deaths))
    }));
    run.unwrap_or_else(|payload| Err(fail(None, panic_message(payload))))
}

/// Runs an explicit operation list against an explicit fault plan (the
/// shrinker's entry point). Returns the run's stats, or its [`Failure`].
///
/// `Bytes` checks differentially: it runs the list fault-free first, and
/// the faulted run must match that run's signature, or back every
/// divergence with clean-death evidence.
pub fn run_ops(mode: Mode, ops: &[Op], plan: &FaultPlan) -> Result<RunStats, Failure> {
    if mode != Mode::Bytes {
        return run_once(mode, ops, plan).map(|(stats, ..)| stats);
    }
    let (_, oracle_sig, oracle_deaths) = run_once(mode, ops, &FaultPlan::new(Vec::new()))?;
    if oracle_deaths > 0 {
        return Err(Failure {
            op_index: None,
            message: format!("fault-free oracle run lost a connection ({oracle_deaths} kills)"),
            plan: plan.describe(),
        });
    }
    let (stats, sig, deaths) = run_once(mode, ops, plan)?;
    if sig != oracle_sig && deaths == 0 {
        let first = sig
            .iter()
            .zip(&oracle_sig)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| sig.len().min(oracle_sig.len()));
        return Err(Failure {
            op_index: Some(first.min(ops.len().saturating_sub(1))),
            message: format!(
                "silent divergence from the fault-free oracle at probe {first}: \
                 faulted {:?} vs oracle {:?}",
                sig.get(first),
                oracle_sig.get(first)
            ),
            plan: plan.describe(),
        });
    }
    Ok(stats)
}

/// Runs one seed pair end to end.
pub fn run_case(mode: Mode, script_seed: u64, fault_seed: u64) -> Result<RunStats, Failure> {
    run_ops(mode, &mode.ops(script_seed), &mode.plan(fault_seed))
}

/// Greedily shrinks a failing `(ops, plan)` to a minimal still-failing
/// reproducer: first delta-debugs the operation list (chunks halving down
/// to single ops), then drops fault specs one at a time. Anything
/// [`run_ops`] reports in `mode` counts as a failure. Deterministic, so
/// the same failing seed pair always shrinks to the same reproducer.
pub fn shrink(mode: Mode, ops: &[Op], plan: &FaultPlan) -> (Vec<Op>, FaultPlan) {
    shrink_with(ops, plan, |ops, plan| run_ops(mode, ops, plan).is_err())
}

/// [`shrink`] with an explicit failure predicate (separated for testing:
/// a synthetic predicate exercises the minimization logic without needing
/// a genuinely panicking toolkit).
pub fn shrink_with(
    ops: &[Op],
    plan: &FaultPlan,
    fails: impl Fn(&[Op], &FaultPlan) -> bool,
) -> (Vec<Op>, FaultPlan) {
    let mut ops = ops.to_vec();
    let mut chunk = (ops.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < ops.len() {
            let end = (start + chunk).min(ops.len());
            let mut candidate = ops.clone();
            candidate.drain(start..end);
            if fails(&candidate, plan) {
                ops = candidate;
                shrunk = true;
                // Re-test the same start: the next chunk slid into place.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        if !shrunk {
            chunk = (chunk / 2).max(1);
        }
    }
    // Now minimize the plan against the minimized ops.
    let mut specs = plan.specs().to_vec();
    let mut i = 0;
    while i < specs.len() {
        let mut candidate = specs.clone();
        candidate.remove(i);
        if fails(&ops, &FaultPlan::new(candidate.clone())) {
            specs = candidate;
        } else {
            i += 1;
        }
    }
    (ops, FaultPlan::new(specs))
}

// ---------------------------------------------------------------------------
// Send-storm mode: N apps hammering each other with nested/concurrent sends
// under fault plans. The invariant is stronger than "no panic": every send
// either returns the correct result exactly once or a clean Tcl error —
// never a hang, panic, or double execution.
// ---------------------------------------------------------------------------

/// Applications in a send-storm case (`storm0` .. `storm{N-1}`).
pub const STORM_APPS: usize = 3;
/// Operations per generated storm script.
pub const STORM_OPS: usize = 40;
/// Request/event horizon for storm fault plans. Larger than the two-app
/// [`PLAN_HORIZON`]: three apps consume more setup sequence numbers, and
/// a timed-out send burns a liveness round trip every simulated 25 ms.
pub const STORM_HORIZON: u64 = 700;

/// One send issued by a storm script, recovered from the op text by
/// [`storm_sends`]. `target` is the app whose interpreter ultimately
/// evaluates the `incr` (the innermost hop of a nested send).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormSend {
    /// Index into the op list.
    pub op_index: usize,
    /// App that issued the send.
    pub sender: usize,
    /// App whose interp runs `incr c_{key}`.
    pub target: usize,
    /// Unique per-op counter key (`c_{key}`, `ok_{key}`, `r_{key}`).
    pub key: usize,
}

/// Generates the deterministic operation list for a storm script seed.
///
/// Every send op is self-describing: app `i` evaluates
/// `set ok_K [catch {send ?-timeout T? stormJ {incr c_K}} r_K]`, so after
/// the run the invariant checker can read back, per send `K`: whether the
/// sender saw success (`ok_K` == 0), the result it saw (`r_K`), and how
/// many times the target actually evaluated the script (`c_K`, unset = 0).
/// Nested variants route through an intermediate app
/// (`send stormJ {send stormL {incr c_K}}`) to exercise reentrant
/// dispatch, including sends that land back on a waiting sender.
pub fn generate_storm_ops(seed: u64, n: usize, napps: usize) -> Vec<Op> {
    assert!(napps >= 2, "a storm needs at least two apps");
    let mut rng = XorShift::new(seed ^ 0x5707_0057);
    let mut ops = Vec::with_capacity(n);
    // Mostly short timeouts so lost requests burn little virtual time;
    // a few defaults keep the 5 s path honest.
    const TIMEOUTS: [u64; 4] = [150, 300, 600, 1200];
    for k in 0..n {
        let app = rng.below(napps as u64) as usize;
        let op = match rng.below(100) {
            0..=49 => {
                // Plain cross-app send.
                let target = (app + 1 + rng.below(napps as u64 - 1) as usize) % napps;
                let t = TIMEOUTS[rng.below(4) as usize];
                Op::Tcl(
                    app,
                    format!("set ok_{k} [catch {{send -timeout {t} storm{target} {{if {{[catch {{incr c_{k}}}]}} {{set c_{k} 1}}; set c_{k}}}}} r_{k}]"),
                )
            }
            50..=69 => {
                // Nested send: app -> mid -> target. `target` may equal
                // `app`, which sends back into an interpreter that is
                // itself blocked waiting on the outer reply.
                let mid = (app + 1 + rng.below(napps as u64 - 1) as usize) % napps;
                let target = (mid + 1 + rng.below(napps as u64 - 1) as usize) % napps;
                let t = TIMEOUTS[rng.below(4) as usize];
                Op::Tcl(
                    app,
                    format!(
                        "set ok_{k} [catch {{send -timeout {t} storm{mid} {{send storm{target} {{if {{[catch {{incr c_{k}}}]}} {{set c_{k} 1}}; set c_{k}}}}}}} r_{k}]"
                    ),
                )
            }
            70..=77 => {
                // Default-timeout send (the ~5 s simulated path).
                let target = (app + 1 + rng.below(napps as u64 - 1) as usize) % napps;
                Op::Tcl(
                    app,
                    format!("set ok_{k} [catch {{send storm{target} {{if {{[catch {{incr c_{k}}}]}} {{set c_{k} 1}}; set c_{k}}}}} r_{k}]"),
                )
            }
            78..=85 => Op::Advance(rng.range(1, 120)),
            86..=92 => Op::Tcl(app, format!("set local_{k} {}", rng.below(1000))),
            _ => Op::Tcl(app, "winfo interps".into()),
        };
        ops.push(op);
    }
    ops
}

/// Generates the deterministic fault plan for a storm fault seed:
/// `napps` clients, [`PLAN_FAULTS`] specs, [`STORM_HORIZON`] horizon.
pub fn generate_storm_plan(seed: u64, napps: usize) -> FaultPlan {
    FaultPlan::from_seed(seed, PLAN_FAULTS, napps as u32, STORM_HORIZON)
}

/// Recovers the send manifest from an op list by parsing the fixed op
/// shape emitted by [`generate_storm_ops`]. Parsing the text (rather than
/// carrying a side manifest) keeps [`shrink`] trivial: dropping ops
/// drops their invariant checks with them.
pub fn storm_sends(ops: &[Op]) -> Vec<StormSend> {
    let mut sends = Vec::new();
    for (op_index, op) in ops.iter().enumerate() {
        let Op::Tcl(sender, script) = op else {
            continue;
        };
        let Some(rest) = script.strip_prefix("set ok_") else {
            continue;
        };
        let Some(key) = rest
            .split_whitespace()
            .next()
            .and_then(|k| k.parse::<usize>().ok())
        else {
            continue;
        };
        // The innermost hop — the app whose interp runs the `incr` — is
        // the last `storm<index>` occurrence in the script. The index can
        // run to several digits in fleet-sized storms, so take the whole
        // digit run, not just the first character.
        let Some(target) = script
            .match_indices("storm")
            .filter_map(|(i, _)| {
                let digits: String = script[i + 5..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect();
                digits.parse::<usize>().ok()
            })
            .last()
        else {
            continue;
        };
        sends.push(StormSend {
            op_index,
            sender: *sender,
            target,
            key,
        });
    }
    sends
}

/// The storm invariant sweep: every send evaluated at most once, and a
/// send that reported success evaluated exactly once with the correct
/// result. (`ok` == 1 with count 0 is a faulted request; with count 1 it
/// is a lost *reply* — both are clean-error outcomes.) A violation names
/// the offending send op.
fn check_sends(ops: &[Op], apps: &[TkApp]) -> Result<(), (usize, String)> {
    // `None` if unset, or if the app's eval path itself errors.
    let read = |app: usize, var: &str| apps[app].eval(&format!("set {var}")).ok();
    for send in storm_sends(ops) {
        let count: u64 = read(send.target, &format!("c_{}", send.key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if count > 1 {
            return Err((
                send.op_index,
                format!(
                    "double execution: send {} evaluated {} times in storm{}",
                    send.key, count, send.target
                ),
            ));
        }
        if read(send.sender, &format!("ok_{}", send.key)).as_deref() == Some("0") {
            let r = read(send.sender, &format!("r_{}", send.key));
            if count != 1 || r.as_deref() != Some("1") {
                return Err((
                    send.op_index,
                    format!(
                        "send {} reported success but count={} result={:?}",
                        send.key, count, r
                    ),
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Byte-chaos mode: the same scripted two-app runs, but the faults attack
// the *wire encoding* — flipped bytes, truncated frames, injected garbage,
// split writes, stalled dispatch — instead of request semantics. The
// invariant is differential: a faulted run must either match the
// fault-free wire run byte for byte (Tcl outcomes and final tree), or
// show clean-death evidence (a checksum or watchdog kill) — and either
// way finish with a clean resource audit and intact span trees. Silent
// divergence is the bug class this mode exists to catch.
// ---------------------------------------------------------------------------

/// Byte-fault specs a generated bytes plan carries. Fewer than
/// [`PLAN_FAULTS`]: a single corrupt byte usually kills its connection,
/// so dense plans just re-kill a corpse.
pub const BYTES_FAULTS: usize = 4;
/// Encoded-frame horizon for bytes plans. Byte faults key on per-client
/// *frame* indices, one per request frame the client encodes.
pub const BYTES_HORIZON: u64 = 500;
/// Sync-watchdog deadline for byte-chaos runs, in ms of virtual time.
/// An injected dispatch stall that adds up to this converts to a clean
/// dead connection; a fault-free run never stalls, so never trips it.
pub const BYTES_WATCHDOG_MS: u64 = 1000;

/// Settles a byte-chaos run before the audit. Byte faults key on
/// per-client encoded-frame indices, and reading events ships no frame,
/// so each round walks every live app's timeline with one round trip
/// (`GetInputFocus`, the request Xlib's `XSync` makes): a fault plotted
/// past the scripted traffic fires *during* settling. Spec firing is an
/// exact index match, so once a client's timeline has walked past the
/// last plotted fault nothing further can fire; settle until every app
/// is dead or past that point, then demand two quiet rounds so a late
/// kill is noticed by `dispatch_all` (which scrubs the dead app's
/// registry entry) before the audit takes the reckoning.
fn settle(env: &TkEnv, apps: &[TkApp], plan: &FaultPlan) {
    let max_at = plan.specs().iter().map(|sp| sp.at).max().unwrap_or(0);
    let mut quiet = 0;
    for _ in 0..(BYTES_HORIZON + 200) {
        for app in apps.iter().filter(|app| app.conn().alive()) {
            let _ = app.conn().get_input_focus();
        }
        let progressed = env.dispatch_all();
        let past = apps
            .iter()
            .all(|app| !app.conn().alive() || app.conn().wire_frame_timeline() > max_at);
        quiet = if past && !progressed { quiet + 1 } else { 0 };
        if quiet >= 2 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_generation_is_deterministic() {
        assert_eq!(generate_ops(7, 40), generate_ops(7, 40));
        assert_ne!(generate_ops(7, 40), generate_ops(8, 40));
    }

    #[test]
    fn clean_case_runs_without_faults() {
        let stats = run_case(Mode::Classic, 1, 0).expect("no panic");
        assert!(stats.ops > 0);
    }

    #[test]
    fn faulted_cases_do_not_panic() {
        for seed in 1..=5 {
            let r = run_case(Mode::Classic, seed, seed.wrapping_mul(0x9e37));
            assert!(r.is_ok(), "seed {seed}: {}", r.unwrap_err());
        }
    }

    #[test]
    fn shrink_minimizes_ops_and_plan_against_a_synthetic_failure() {
        let marker = Op::Tcl(0, "__chaos_marker__".into());
        let mut ops = generate_ops(3, 20);
        ops.insert(11, marker.clone());
        let plan = generate_plan(9);
        assert!(plan.specs().len() > 1);
        // "Fails" whenever the marker op is present; the plan is
        // irrelevant to the failure, so every spec should be dropped.
        let (min_ops, min_plan) = shrink_with(&ops, &plan, |ops, _| ops.contains(&marker));
        assert_eq!(min_ops, vec![marker]);
        assert!(min_plan.specs().is_empty());
    }

    #[test]
    fn plan_generation_is_deterministic() {
        assert_eq!(generate_plan(42).describe(), generate_plan(42).describe());
    }

    #[test]
    fn storm_op_generation_is_deterministic_and_multi_app() {
        let ops = generate_storm_ops(11, STORM_OPS, STORM_APPS);
        assert_eq!(ops, generate_storm_ops(11, STORM_OPS, STORM_APPS));
        assert_ne!(ops, generate_storm_ops(12, STORM_OPS, STORM_APPS));
        let sends = storm_sends(&ops);
        assert!(!sends.is_empty());
        assert!(sends
            .iter()
            .all(|s| s.sender < STORM_APPS && s.target < STORM_APPS));
    }

    #[test]
    fn storm_sends_parses_plain_and_nested_ops() {
        let ops = vec![
            Op::Tcl(
                0,
                "set ok_3 [catch {send -timeout 150 storm2 {if {[catch {incr c_3}]} {set c_3 1}; set c_3}} r_3]".into(),
            ),
            Op::Tcl(
                1,
                "set ok_7 [catch {send storm0 {send storm2 {if {[catch {incr c_7}]} {set c_7 1}; set c_7}}} r_7]".into(),
            ),
            Op::Advance(5),
            Op::Tcl(2, "winfo interps".into()),
        ];
        assert_eq!(
            storm_sends(&ops),
            vec![
                StormSend {
                    op_index: 0,
                    sender: 0,
                    target: 2,
                    key: 3
                },
                StormSend {
                    op_index: 1,
                    sender: 1,
                    target: 2,
                    key: 7
                },
            ]
        );
    }

    #[test]
    fn storm_sends_parses_multi_digit_app_indices() {
        let ops = vec![Op::Tcl(
            12,
            "set ok_4 [catch {send -timeout 150 storm37 {if {[catch {incr c_4}]} {set c_4 1}; set c_4}} r_4]"
                .into(),
        )];
        assert_eq!(
            storm_sends(&ops),
            vec![StormSend {
                op_index: 0,
                sender: 12,
                target: 37,
                key: 4
            }]
        );
    }

    #[test]
    fn faulted_fleet_storm_holds_the_invariant() {
        with_quiet_panics(|| {
            let r = run_case(Mode::Storm(16), 5, 0x0517_eed5);
            assert!(r.is_ok(), "{}", r.unwrap_err());
        });
    }

    #[test]
    fn clean_storm_case_satisfies_the_invariant() {
        let ops = generate_storm_ops(1, STORM_OPS, STORM_APPS);
        let stats = run_ops(Mode::Storm(STORM_APPS), &ops, &FaultPlan::new(Vec::new()))
            .expect("clean storm run");
        assert!(stats.ops > 0);
        assert_eq!(stats.faults_injected, 0);
        assert_eq!(stats.send_timeouts, 0);
        assert_eq!(stats.send_dedup_drops, 0);
    }

    #[test]
    fn faulted_storm_cases_hold_the_invariant() {
        with_quiet_panics(|| {
            for seed in 1..=4u64 {
                let fault_seed = seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
                let r = run_case(Mode::Storm(STORM_APPS), seed, fault_seed);
                assert!(r.is_ok(), "seed {seed}: {}", r.unwrap_err());
            }
        });
    }

    #[test]
    fn settle_walks_every_timeline_past_the_last_fault() {
        let env = Mode::Bytes.env();
        let apps: Vec<TkApp> = Mode::Bytes.app_names().iter().map(|n| env.app(n)).collect();
        env.dispatch_all();
        // One harmless fault per app, plotted well past its idle traffic.
        let specs = apps
            .iter()
            .map(|app| xsim::FaultSpec {
                client: app.conn().client_id().0,
                at: app.conn().wire_frame_timeline() + 100,
                action: xsim::FaultAction::SplitWrite { at: 3 },
            })
            .collect();
        let plan = FaultPlan::new(specs);
        env.display()
            .with_server(|s| s.install_fault_plan(plan.clone()));
        settle(&env, &apps, &plan);
        let max_at = plan.specs().iter().map(|sp| sp.at).max().unwrap();
        for app in &apps {
            assert!(app.conn().alive(), "{}", app.name());
            assert!(
                app.conn().wire_frame_timeline() > max_at,
                "{}: timeline {} not past {max_at}",
                app.name(),
                app.conn().wire_frame_timeline()
            );
        }
    }

    #[test]
    fn bytes_plan_generation_is_deterministic_and_byte_only() {
        let plan = Mode::Bytes.plan(21);
        assert_eq!(plan.describe(), Mode::Bytes.plan(21).describe());
        assert_eq!(plan.specs().len(), BYTES_FAULTS);
        assert!(plan.specs().iter().all(|s| s.action.is_byte_fault()));
    }

    #[test]
    fn clean_bytes_case_matches_its_own_oracle() {
        let ops = generate_ops(1, 20);
        let stats =
            run_ops(Mode::Bytes, &ops, &FaultPlan::new(Vec::new())).expect("clean bytes run");
        assert!(stats.ops > 0);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn byte_faulted_cases_hold_the_differential_invariant() {
        with_quiet_panics(|| {
            for seed in 1..=4u64 {
                let fault_seed = seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
                let r = run_case(Mode::Bytes, seed, fault_seed);
                assert!(r.is_ok(), "seed {seed}: {}", r.unwrap_err());
            }
        });
    }

    #[test]
    fn storm_runner_flags_a_double_execution() {
        // Synthetic violation: the counter is bumped twice behind the
        // checker's back, so the send op's count lands at 3.
        let ops = vec![
            Op::Tcl(1, "set c_0 2".into()),
            Op::Tcl(
                0,
                "set ok_0 [catch {send -timeout 150 storm1 {if {[catch {incr c_0}]} {set c_0 1}; set c_0}} r_0]".into(),
            ),
        ];
        let err = run_ops(Mode::Storm(STORM_APPS), &ops, &FaultPlan::new(Vec::new()))
            .expect_err("double execution must be flagged");
        assert_eq!(err.op_index, Some(1));
        assert!(err.message.contains("double execution"), "{}", err.message);
    }

    #[test]
    fn storm_runner_flags_a_wrong_success_result() {
        // A send that "succeeded" but whose counter was then unset is a
        // success-with-wrong-evidence violation.
        let ops = vec![
            Op::Tcl(
                0,
                "set ok_0 [catch {send -timeout 150 storm1 {if {[catch {incr c_0}]} {set c_0 1}; set c_0}} r_0]".into(),
            ),
            Op::Tcl(1, "unset c_0".into()),
        ];
        let err = run_ops(Mode::Storm(STORM_APPS), &ops, &FaultPlan::new(Vec::new()))
            .expect_err("success without evidence must be flagged");
        assert!(err.message.contains("reported success"), "{}", err.message);
    }

    #[test]
    fn storm_shrink_keeps_a_double_execution_and_drops_the_rest() {
        // The double-execution pair above, padded with ops the violation
        // does not need: the shrinker must drop them and keep it failing.
        let core = vec![
            Op::Tcl(1, "set c_0 2".into()),
            Op::Tcl(
                0,
                "set ok_0 [catch {send -timeout 150 storm1 {if {[catch {incr c_0}]} {set c_0 1}; set c_0}} r_0]".into(),
            ),
        ];
        let mut ops = vec![Op::Tcl(2, "set local_1 7".into()), Op::Advance(5)];
        ops.extend(core.clone());
        ops.push(Op::Tcl(0, "winfo interps".into()));
        let mode = Mode::Storm(STORM_APPS);
        let plan = FaultPlan::new(Vec::new());
        assert!(run_ops(mode, &ops, &plan).is_err());
        let (min_ops, min_plan) = shrink(mode, &ops, &plan);
        assert!(run_ops(mode, &min_ops, &min_plan).is_err());
        assert!(min_ops.len() < ops.len(), "{min_ops:?}");
        assert_eq!(min_ops, core);
    }
}
