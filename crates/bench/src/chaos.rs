//! The seeded chaos-fuzz harness.
//!
//! A chaos case is a pair of seeds: `script_seed` generates a random but
//! deterministic sequence of Tcl/Tk operations across two applications
//! (widget creation and destruction, configuration, packing, bindings
//! plus synthetic input, selection traffic, `send` between the apps,
//! timer advancement), and `fault_seed` generates an [`xsim::FaultPlan`]
//! injected into the shared display. Running a case must never panic:
//! faults surface as Tcl errors, `tkerror` reports, or clean application
//! teardown. Any failing pair replays deterministically, and [`shrink`]
//! reduces both the operation list and the fault plan to a minimal
//! reproducer.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tk::{TkApp, TkEnv};
use xsim::fault::FAULT_KIND_COUNT;
use xsim::{FaultPlan, XorShift};

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

/// What a successful run reports.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    /// Operations applied.
    pub ops: usize,
    /// Tcl-level errors observed (expected under faults).
    pub tcl_errors: u64,
    /// Faults injected, summed over both connections.
    pub faults_injected: u64,
    /// Per-kind fault splits, summed over both connections, indexed like
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
    /// counters into the run totals.
    fn absorb_app(&mut self, app: &TkApp) {
        if let Some((injected, counts)) =
            app.conn().with_obs(|o| (o.faults_injected, o.fault_counts))
        {
            self.faults_injected += injected;
            for (slot, n) in self.fault_counts.iter_mut().zip(counts) {
                *slot += n;
            }
        }
        self.send_timeouts += app.obs().counter("send_timeouts");
        self.send_retries += app.obs().counter("send_retries");
        self.send_dedup_drops += app.obs().counter("send_dedup_drops");
        self.registry_gc += app.obs().counter("registry_gc");
        let spans = app.tracer().snapshot();
        self.spans_recorded += spans.len() as u64;
        self.span_shape.collect(&spans);
    }
}

/// A panic caught while running a case, or (in storm mode) a violation
/// of the exactly-once-or-clean-error invariant.
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

fn apply(env: &TkEnv, apps: &[TkApp], op: &Op, stats: &mut RunStats) {
    match op {
        Op::Tcl(i, s) => {
            if apps[*i].eval(s).is_err() {
                stats.tcl_errors += 1;
            }
        }
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
}

/// Runs an explicit operation list against an explicit fault plan (the
/// shrinker's entry point). Returns the run's stats, or the caught panic.
pub fn run_ops(ops: &[Op], plan: &FaultPlan) -> Result<RunStats, Failure> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let env = TkEnv::new();
        let apps = [env.app("chaos0"), env.app("chaos1")];
        env.dispatch_all();
        env.display()
            .with_server(|s| s.install_fault_plan(plan.clone()));
        let mut stats = RunStats::default();
        for (i, op) in ops.iter().enumerate() {
            let r = catch_unwind(AssertUnwindSafe(|| apply(&env, &apps, op, &mut stats)));
            if let Err(payload) = r {
                return Err(Failure {
                    op_index: Some(i),
                    message: panic_message(payload),
                    plan: plan.describe(),
                });
            }
            stats.ops = i + 1;
        }
        env.dispatch_all();
        check_span_integrity(&apps, plan)?;
        check_audit(&env, plan)?;
        for app in &apps {
            stats.absorb_app(app);
        }
        Ok(stats)
    }));
    match result {
        Ok(r) => r,
        Err(payload) => Err(Failure {
            op_index: None,
            message: panic_message(payload),
            plan: plan.describe(),
        }),
    }
}

/// The post-run resource reckoning: any server object still chargeable
/// to a dead client at quiescence — a window, GC, selection, interest
/// entry, queued event, or registry entry pointing at a vanished comm
/// window — fails the case exactly like a panic would.
fn check_audit(env: &TkEnv, plan: &FaultPlan) -> Result<(), Failure> {
    let leaks = tk::send::audit(env);
    if leaks.is_empty() {
        return Ok(());
    }
    Err(Failure {
        op_index: None,
        message: format!("resource audit: {}", leaks.join("; ")),
        plan: plan.describe(),
    })
}

/// Asserts that every app's causal span tree stayed well formed (no
/// orphaned parents, no dangling open spans at quiescence) — faults may
/// drop requests and kill connections, but they must never corrupt the
/// trace. A violation is a [`Failure`] like any other invariant break.
fn check_span_integrity(apps: &[TkApp], plan: &FaultPlan) -> Result<(), Failure> {
    for app in apps {
        if let Err(msg) = app.tracer().check_integrity() {
            return Err(Failure {
                op_index: None,
                message: format!("span integrity in {}: {msg}", app.name()),
                plan: plan.describe(),
            });
        }
    }
    Ok(())
}

/// Runs one seed pair end to end.
pub fn run_case(script_seed: u64, fault_seed: u64) -> Result<RunStats, Failure> {
    let ops = generate_ops(script_seed, SCRIPT_OPS);
    let plan = generate_plan(fault_seed);
    run_ops(&ops, &plan)
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
/// carrying a side manifest) keeps [`shrink_storm`] trivial: dropping ops
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

/// Reads a variable out of an app's interp, `None` if unset or the app's
/// eval path itself errors.
fn read_var(app: &TkApp, name: &str) -> Option<String> {
    app.eval(&format!("set {name}")).ok()
}

/// Runs an explicit storm op list against an explicit fault plan and
/// checks the exactly-once-or-clean-error invariant. Returns the caught
/// panic or invariant violation as a [`Failure`] (`op_index` points at
/// the offending send op for violations).
pub fn run_storm_ops(ops: &[Op], plan: &FaultPlan, napps: usize) -> Result<RunStats, Failure> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let env = TkEnv::new();
        let apps: Vec<TkApp> = (0..napps).map(|i| env.app(&format!("storm{i}"))).collect();
        env.dispatch_all();
        env.display()
            .with_server(|s| s.install_fault_plan(plan.clone()));
        let mut stats = RunStats::default();
        for (i, op) in ops.iter().enumerate() {
            let r = catch_unwind(AssertUnwindSafe(|| apply(&env, &apps, op, &mut stats)));
            if let Err(payload) = r {
                return Err(Failure {
                    op_index: Some(i),
                    message: panic_message(payload),
                    plan: plan.describe(),
                });
            }
            stats.ops = i + 1;
        }
        env.dispatch_all();
        // Invariant sweep: every send evaluated at most once, and a send
        // that reported success evaluated exactly once with the correct
        // result. (`ok` == 1 with count 0 is a faulted request; with
        // count 1 it is a lost *reply* — both are clean-error outcomes.)
        for send in storm_sends(ops) {
            let violation = |message: String| Failure {
                op_index: Some(send.op_index),
                message,
                plan: plan.describe(),
            };
            let count: u64 = read_var(&apps[send.target], &format!("c_{}", send.key))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            if count > 1 {
                return Err(violation(format!(
                    "double execution: send {} evaluated {} times in storm{}",
                    send.key, count, send.target
                )));
            }
            if read_var(&apps[send.sender], &format!("ok_{}", send.key)).as_deref() == Some("0") {
                let r = read_var(&apps[send.sender], &format!("r_{}", send.key));
                if count != 1 || r.as_deref() != Some("1") {
                    return Err(violation(format!(
                        "send {} reported success but count={} result={:?}",
                        send.key, count, r
                    )));
                }
            }
        }
        check_span_integrity(&apps, plan)?;
        check_audit(&env, plan)?;
        for app in &apps {
            stats.absorb_app(app);
        }
        Ok(stats)
    }));
    match result {
        Ok(r) => r,
        Err(payload) => Err(Failure {
            op_index: None,
            message: panic_message(payload),
            plan: plan.describe(),
        }),
    }
}

/// Runs one storm seed pair end to end with `napps` applications
/// (`STORM_APPS` is the classic default; fleet storms pass more).
pub fn run_storm_case(
    script_seed: u64,
    fault_seed: u64,
    napps: usize,
) -> Result<RunStats, Failure> {
    let ops = generate_storm_ops(script_seed, STORM_OPS, napps);
    let plan = generate_storm_plan(fault_seed, napps);
    run_storm_ops(&ops, &plan, napps)
}

/// [`shrink`] against the storm runner (panics *and* invariant
/// violations count as failures).
pub fn shrink_storm(ops: &[Op], plan: &FaultPlan, napps: usize) -> (Vec<Op>, FaultPlan) {
    shrink_with(ops, plan, |ops, plan| {
        run_storm_ops(ops, plan, napps).is_err()
    })
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
/// *frame* indices (every request and control frame counts), which run a
/// little past the request horizon of the same script.
pub const BYTES_HORIZON: u64 = 500;
/// Sync-watchdog deadline for byte-chaos runs, in ms of virtual time.
/// An injected dispatch stall that adds up to this converts to a clean
/// dead connection; a fault-free run never stalls, so never trips it.
pub const BYTES_WATCHDOG_MS: u64 = 1000;

/// Generates the deterministic byte-fault plan for a fault seed: two
/// clients, [`BYTES_FAULTS`] specs, [`BYTES_HORIZON`] frame horizon.
pub fn generate_bytes_plan(seed: u64) -> FaultPlan {
    FaultPlan::bytes_from_seed(seed, BYTES_FAULTS, 2, BYTES_HORIZON)
}

/// One byte-chaos run's comparable outcome: every Tcl op's result (ok or
/// error message, in order) plus a final `winfo children .` probe per
/// app. Clicks, keys, and timer advances leave their traces in the Tcl
/// results that follow them.
type BytesSignature = Vec<Result<String, String>>;

/// Runs one op list over the forced wire transport and returns the
/// comparable signature, the run stats, and the death evidence (checksum
/// kills + watchdog fires summed over both connections).
fn run_bytes_once(
    ops: &[Op],
    plan: &FaultPlan,
) -> Result<(BytesSignature, RunStats, u64), Failure> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Force the framed wire transport regardless of RTK_NO_WIRE: byte
        // faults only exist on the wire, and the differential oracle must
        // run the same transport as the faulted run.
        let display = xsim::Display::new();
        display.set_wire(true);
        display.set_wire_deadline(BYTES_WATCHDOG_MS);
        let env = TkEnv::with_display(display);
        let apps = [env.app("chaos0"), env.app("chaos1")];
        env.dispatch_all();
        env.display()
            .with_server(|s| s.install_fault_plan(plan.clone()));
        let mut stats = RunStats::default();
        let mut sig: BytesSignature = Vec::with_capacity(ops.len() + 2);
        for (i, op) in ops.iter().enumerate() {
            let fail = |payload| Failure {
                op_index: Some(i),
                message: panic_message(payload),
                plan: plan.describe(),
            };
            if let Op::Tcl(a, s) = op {
                match catch_unwind(AssertUnwindSafe(|| apps[*a].eval(s))) {
                    Ok(r) => {
                        if r.is_err() {
                            stats.tcl_errors += 1;
                        }
                        sig.push(r.map_err(|e| e.msg));
                    }
                    Err(payload) => return Err(fail(payload)),
                }
            } else if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| apply(&env, &apps, op, &mut stats)))
            {
                return Err(fail(payload));
            }
            stats.ops = i + 1;
        }
        env.dispatch_all();
        for app in &apps {
            sig.push(app.eval("winfo children .").map_err(|e| e.msg));
        }
        // Settle before the audit. Byte faults key on per-client
        // encoded-frame indices, and even an idle round of flush +
        // dispatch walks those counters (event polling ships control
        // frames), so a fault plotted past the scripted traffic fires
        // *during* settling. Spec firing is an exact index match, so once
        // a client's timeline has walked past the last plotted fault
        // nothing further can fire; settle until every app is dead or
        // past that point, then demand two quiet rounds so a late kill is
        // noticed by `dispatch_all` (which scrubs the dead app's registry
        // entry) before the audit takes the reckoning.
        let max_at = plan.specs().iter().map(|sp| sp.at).max().unwrap_or(0);
        let mut quiet = 0;
        for _ in 0..(BYTES_HORIZON + 200) {
            for app in &apps {
                app.conn().flush();
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
        check_span_integrity(&apps, plan)?;
        check_audit(&env, plan)?;
        let mut deaths = 0;
        for app in &apps {
            let w = app.conn().wire_stats();
            deaths += w.checksum_errors + w.watchdog_fires;
        }
        for app in &apps {
            stats.absorb_app(app);
        }
        Ok((sig, stats, deaths))
    }));
    match result {
        Ok(r) => r,
        Err(payload) => Err(Failure {
            op_index: None,
            message: panic_message(payload),
            plan: plan.describe(),
        }),
    }
}

/// Runs an explicit op list against an explicit byte-fault plan (the
/// shrinker's entry point) and checks the differential invariant: the
/// faulted run is byte-identical to the fault-free wire run, or every
/// divergence is backed by clean-death evidence. Both runs must pass the
/// span-integrity check and the post-run resource audit.
pub fn run_bytes_ops(ops: &[Op], plan: &FaultPlan) -> Result<RunStats, Failure> {
    let (oracle_sig, _, oracle_deaths) = run_bytes_once(ops, &FaultPlan::new(Vec::new()))?;
    if oracle_deaths > 0 {
        return Err(Failure {
            op_index: None,
            message: format!("fault-free oracle run lost a connection ({oracle_deaths} kills)"),
            plan: plan.describe(),
        });
    }
    let (sig, stats, deaths) = run_bytes_once(ops, plan)?;
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

/// Runs one byte-chaos seed pair end to end.
pub fn run_bytes_case(script_seed: u64, fault_seed: u64) -> Result<RunStats, Failure> {
    let ops = generate_ops(script_seed, SCRIPT_OPS);
    let plan = generate_bytes_plan(fault_seed);
    run_bytes_ops(&ops, &plan)
}

/// [`shrink`] against the byte-chaos runner (panics, silent divergence,
/// audit leaks, and span breaks all count as failures).
pub fn shrink_bytes(ops: &[Op], plan: &FaultPlan) -> (Vec<Op>, FaultPlan) {
    shrink_with(ops, plan, |ops, plan| run_bytes_ops(ops, plan).is_err())
}

/// Greedily shrinks a failing `(ops, plan)` to a minimal still-failing
/// reproducer: first delta-debugs the operation list (chunks halving down
/// to single ops), then drops fault specs one at a time. Deterministic,
/// so the same failing seed pair always shrinks to the same reproducer.
pub fn shrink(ops: &[Op], plan: &FaultPlan) -> (Vec<Op>, FaultPlan) {
    shrink_with(ops, plan, |ops, plan| run_ops(ops, plan).is_err())
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
        let stats = run_case(1, 0).expect("no panic");
        assert!(stats.ops > 0);
    }

    #[test]
    fn faulted_cases_do_not_panic() {
        for seed in 1..=5 {
            let r = run_case(seed, seed.wrapping_mul(0x9e37));
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
            let r = run_storm_case(5, 0x0517_eed5, 16);
            assert!(r.is_ok(), "{}", r.unwrap_err());
        });
    }

    #[test]
    fn clean_storm_case_satisfies_the_invariant() {
        let ops = generate_storm_ops(1, STORM_OPS, STORM_APPS);
        let stats =
            run_storm_ops(&ops, &FaultPlan::new(Vec::new()), STORM_APPS).expect("clean storm run");
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
                let r = run_storm_case(seed, fault_seed, STORM_APPS);
                assert!(r.is_ok(), "seed {seed}: {}", r.unwrap_err());
            }
        });
    }

    #[test]
    fn bytes_plan_generation_is_deterministic_and_byte_only() {
        let plan = generate_bytes_plan(21);
        assert_eq!(plan.describe(), generate_bytes_plan(21).describe());
        assert_eq!(plan.specs().len(), BYTES_FAULTS);
        assert!(plan.specs().iter().all(|s| s.action.is_byte_fault()));
    }

    #[test]
    fn clean_bytes_case_matches_its_own_oracle() {
        let ops = generate_ops(1, 20);
        let stats = run_bytes_ops(&ops, &FaultPlan::new(Vec::new())).expect("clean bytes run");
        assert!(stats.ops > 0);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn byte_faulted_cases_hold_the_differential_invariant() {
        with_quiet_panics(|| {
            for seed in 1..=4u64 {
                let fault_seed = seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
                let r = run_bytes_case(seed, fault_seed);
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
        let err = run_storm_ops(&ops, &FaultPlan::new(Vec::new()), STORM_APPS)
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
        let err = run_storm_ops(&ops, &FaultPlan::new(Vec::new()), STORM_APPS)
            .expect_err("success without evidence must be flagged");
        assert!(err.message.contains("reported success"), "{}", err.message);
    }
}
