//! Fleet-scale harnesses: N applications exchanging `send`s and redraws
//! against one shared server.
//!
//! Two complementary runners live here:
//!
//! * [`run_wire_mesh`] — the *threaded* stress harness. N `TkApp`s on N
//!   OS threads sharing one display's transport, each sending to `fanout`
//!   ring neighbours every round while repainting its own UI. It proves
//!   liveness (no deadlock — a watchdog aborts on a wedge), completion,
//!   and per-sender event ordering at every receiver. Wall-clock
//!   latencies are *report-only*: OS scheduling makes them
//!   nondeterministic, so nothing here is pinned.
//! * [`run_fleet`] — the *deterministic* fleet. The same N-app send
//!   ring in one single-threaded environment on the virtual clock, with
//!   one spinning client (app 0) flooding one-way requests under a
//!   per-client quota. Every latency is an exact virtual-ms delta, so
//!   the p50/p95/p99 `send_latency_ms` percentiles and the
//!   `backpressure_stalls` count are exact, reproducible numbers that
//!   BUDGETS.json pins in CI.
//!
//! The threaded tests in `tests/wire_stress.rs` reuse [`run_wire_mesh`]
//! and [`watchdog`] rather than keeping a private copy sized to a fixed
//! app count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tk::{TkApp, TkEnv};
use xsim::Display;

/// Aborts the whole process if `done` is still false after `secs` —
/// turns a deadlock into a fast, attributable CI failure.
pub fn watchdog(label: &'static str, secs: u64, done: Arc<AtomicBool>) {
    thread::spawn(move || {
        for _ in 0..secs {
            thread::sleep(Duration::from_secs(1));
            if done.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!("watchdog: {label} wedged after {secs}s — aborting");
        std::process::abort();
    });
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Shape of a threaded wire-mesh run.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Worker threads (one app each).
    pub apps: usize,
    /// Send rounds per app.
    pub rounds: u64,
    /// Ring neighbours each app sends to per round (`1` = pure ring,
    /// `apps - 1` = all-to-all).
    pub fanout: usize,
    /// Virtual-time send deadline. Generous by default: the target runs
    /// on another OS thread and "slow" must not be misread as "dead".
    pub send_timeout_ms: u64,
    /// Application name prefix (`{prefix}{i}`).
    pub prefix: &'static str,
}

impl MeshConfig {
    /// A mesh of `apps` workers with ring fanout 1 and the default
    /// deadline.
    pub fn ring(apps: usize, rounds: u64) -> MeshConfig {
        MeshConfig {
            apps,
            rounds,
            fanout: 1,
            send_timeout_ms: 120_000,
            prefix: "worker",
        }
    }
}

/// What a completed mesh run measured. Latencies are wall-clock
/// nanoseconds and *report-only* — never pin them.
#[derive(Debug, Clone)]
pub struct MeshReport {
    /// Sends completed (== `apps * fanout * rounds`).
    pub sends: u64,
    /// Wall-clock time for the whole mesh (startup included).
    pub wall: Duration,
    /// Ascending per-send wall-clock latencies, nanoseconds.
    pub latencies_ns: Vec<u64>,
}

/// Runs the threaded send mesh against `env`'s display, with the codec
/// on or off. Panics on any ordering or completion violation.
///
/// Every send appends `sender:round` to the receiver's `log`; because
/// `send` is synchronous, a sender's entries must land at each receiver
/// in round order — that is exactly the per-client (per-connection)
/// event-ordering guarantee, observed end-to-end through PropertyNotify
/// events through the transport.
pub fn run_wire_mesh(env: &TkEnv, cfg: &MeshConfig) -> MeshReport {
    assert!(cfg.apps >= 2, "a mesh needs at least two apps");
    assert!(
        cfg.fanout >= 1 && cfg.fanout < cfg.apps,
        "fanout must be in 1..apps"
    );
    let display = env.display().clone();
    let start = Instant::now();

    let apps = cfg.apps;
    let registered = Arc::new(Barrier::new(apps));
    // Counts workers done sending; everyone keeps pumping until all
    // have finished (a receiver that exits early would strand its
    // senders mid-RPC). A plain barrier would convert one worker's
    // failure into a hang, so the wait also watches a failure flag.
    let finished = Arc::new(AtomicUsize::new(0));
    let failed = Arc::new(AtomicBool::new(false));
    // Registration rewrites the shared registry property (read-modify-write),
    // which real Tk serializes with XGrabServer; app startup takes this
    // lock so announcements don't clobber each other. Everything after
    // the barrier runs fully concurrently.
    let startup = Arc::new(Mutex::new(()));
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let mut workers = Vec::new();
    for i in 0..apps {
        let cfg = cfg.clone();
        let display = display.clone();
        let registered = registered.clone();
        let finished = finished.clone();
        let failed = failed.clone();
        let startup = startup.clone();
        let latencies = latencies.clone();
        workers.push(thread::spawn(move || {
            let prefix = cfg.prefix;
            let env = TkEnv::with_display(display);
            let app = {
                let _g = startup.lock().unwrap();
                env.app(&format!("{prefix}{i}"))
            };
            app.eval("label .l -text boot").unwrap();
            app.eval("pack append . .l {top}").unwrap();
            env.dispatch_all();
            registered.wait();

            let mut mine = Vec::new();
            let rounds = (|| -> Result<(), String> {
                for round in 1..=cfg.rounds {
                    for k in 1..=cfg.fanout {
                        let t = (i + k) % apps;
                        if failed.load(Ordering::SeqCst) {
                            return Err(format!("{prefix}{i}: aborting, a peer failed"));
                        }
                        let t0 = Instant::now();
                        app.eval(&format!(
                            "send -timeout {} {prefix}{t} \
                             {{lappend log {i}:{round}; llength $log}}",
                            cfg.send_timeout_ms
                        ))
                        .map_err(|e| {
                            format!("{prefix}{i} round {round} send to {prefix}{t}: {}", e.msg)
                        })?;
                        mine.push(t0.elapsed().as_nanos() as u64);
                    }
                    // A redraw between sends: reconfigure forces damage,
                    // dispatch repaints it — protocol traffic interleaved
                    // with the send RPCs on the same connection.
                    app.eval(&format!(".l configure -text round{round}"))
                        .map_err(|e| format!("{prefix}{i} redraw: {}", e.msg))?;
                    env.dispatch_all();
                }
                Ok(())
            })();
            if rounds.is_err() {
                failed.store(true, Ordering::SeqCst);
            }
            finished.fetch_add(1, Ordering::SeqCst);
            while finished.load(Ordering::SeqCst) < apps && !failed.load(Ordering::SeqCst) {
                env.dispatch_all();
                thread::yield_now();
            }
            rounds.unwrap();
            env.dispatch_all();

            let log = app.eval("set log").expect("every app received sends");
            let entries: Vec<(usize, u64)> = log
                .split_whitespace()
                .map(|e| {
                    let (s, r) = e.split_once(':').expect("log entry shape");
                    (s.parse().expect("sender"), r.parse().expect("round"))
                })
                .collect();
            // With ring fanout f, exactly f peers target this app.
            assert_eq!(
                entries.len(),
                cfg.fanout * cfg.rounds as usize,
                "{prefix}{i} log: {log}"
            );
            let mut last = vec![0u64; apps];
            for (sender, round) in entries {
                assert!(
                    round > last[sender],
                    "{prefix}{i}: sender {sender}'s round {round} arrived out of order \
                     (already saw {}) in log {log}",
                    last[sender]
                );
                last[sender] = round;
            }
            latencies.lock().unwrap().extend(mine);
        }));
    }
    for (i, w) in workers.into_iter().enumerate() {
        w.join()
            .unwrap_or_else(|_| panic!("{}{i} panicked", cfg.prefix));
    }

    let mut latencies_ns = Arc::try_unwrap(latencies)
        .expect("all workers joined")
        .into_inner()
        .unwrap();
    latencies_ns.sort_unstable();
    MeshReport {
        sends: (apps * cfg.fanout) as u64 * cfg.rounds,
        wall: start.elapsed(),
        latencies_ns,
    }
}

// ---------------------------------------------------------------------------
// The deterministic fleet: exact virtual-clock percentiles under quota.
// ---------------------------------------------------------------------------

/// One-way requests the spinning client floods per round. Sized well
/// past [`FLEET_QUOTA`] so every round trips the quota and defers the
/// overflow.
pub const SPIN_BURST: usize = 64;
/// Per-client request quota installed for fleet runs.
pub const FLEET_QUOTA: usize = 8;
/// Send rounds per fleet run.
pub const FLEET_ROUNDS: u64 = 4;
/// Virtual-ms deadline each fleet send must beat. The fairness claim is
/// exactly this bound: a quota-throttled spinner cannot push any peer's
/// send past it.
pub const FLEET_DEADLINE_MS: u64 = 10_000;
/// Timeout for the faulted tail round: a send whose request is dropped
/// by the fault plan burns exactly this much virtual time before
/// erroring cleanly, which is what puts a nonzero, exact value in the
/// p99 column.
pub const FLEET_FAULT_TIMEOUT_MS: u64 = 250;
/// In the tail round, every `FLEET_FAULT_STRIDE`-th app (offset 3, so
/// the spinner is never picked) has its send's request dropped.
pub const FLEET_FAULT_STRIDE: usize = 16;

/// What a deterministic fleet run measured. Everything here is exact
/// and reproducible — BUDGETS.json pins it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Applications in the fleet.
    pub apps: usize,
    /// Send rounds.
    pub rounds: u64,
    /// Sends issued (`apps * rounds` clean sends plus the `apps`-send
    /// faulted tail round).
    pub sends: u64,
    /// Virtual-ms send-latency percentiles across every send.
    pub send_latency_p50_ms: u64,
    pub send_latency_p95_ms: u64,
    pub send_latency_p99_ms: u64,
    /// Worst single send, virtual ms.
    pub send_latency_max_ms: u64,
    /// Quota deferrals recorded across all clients
    /// (`wire.backpressure_stalls`).
    pub backpressure_stalls: u64,
    /// Clean-round sends that missed [`FLEET_DEADLINE_MS`]. The fairness
    /// invariant is that this is zero — the runner asserts it, and the
    /// budget pins it.
    pub deadline_misses: u64,
    /// Tail-round sends that errored cleanly after their dropped request
    /// timed out (== the number of planned drops).
    pub send_errors: u64,
}

/// Runs the deterministic N-app fleet: app 0 spins (floods one-way
/// requests against the per-client quota), every app sends to its ring
/// neighbour each round, and every send's latency is measured as an
/// exact virtual-clock delta. Panics if any clean-round send errors or
/// misses its deadline — a spinning client must never starve a peer.
/// A final faulted tail round (seeded drops, clean errors) supplies the
/// nonzero latency tail the percentile budgets pin.
pub fn run_fleet(napps: usize) -> FleetReport {
    assert!(napps >= 2, "a fleet needs at least two apps");
    // Force the framed wire transport regardless of RTK_NO_WIRE: flush
    // boundaries differ between the transports, so the quota trips a
    // different (but individually deterministic) number of times on
    // each. Pinning one transport keeps the budget exact in both CI
    // transport runs — the same precedent as the `wire_send` workload.
    let display = Display::new();
    display.set_wire(true);
    let env = TkEnv::with_display(display);
    let apps: Vec<TkApp> = (0..napps).map(|i| env.app(&format!("fleet{i}"))).collect();
    // The spinner's flood target: reconfiguring a label's text is a pure
    // one-way request (damage repaints lazily), so the burst buffers
    // instead of round-tripping — exactly the shape the quota exists for.
    apps[0]
        .eval("label .spin -text boot")
        .expect("spinner label");
    env.dispatch_all();
    env.display()
        .with_server(|s| s.set_client_quota(Some(FLEET_QUOTA)));

    let mut latencies: Vec<u64> = Vec::with_capacity(napps * FLEET_ROUNDS as usize);
    let mut deadline_misses = 0u64;
    for round in 0..FLEET_ROUNDS {
        // The spinner: a burst of one-way requests, no flush in between.
        // The quota splits the batch and defers the tail, so the spinner
        // pays for its own flood while everyone else stays responsive.
        for k in 0..SPIN_BURST {
            apps[0]
                .eval(&format!(".spin configure -text spin-{round}-{k}"))
                .expect("spinner one-way");
        }
        for (i, app) in apps.iter().enumerate() {
            let target = (i + 1) % napps;
            let t0 = env.now();
            let r = app.eval(&format!(
                "send -timeout {FLEET_DEADLINE_MS} fleet{target} {{set z {round}}}"
            ));
            let dt = env.now().saturating_sub(t0);
            if r.is_err() || dt > FLEET_DEADLINE_MS {
                deadline_misses += 1;
            }
            latencies.push(dt);
        }
    }
    env.dispatch_all();
    assert_eq!(
        deadline_misses, 0,
        "fairness violated: a send missed its {FLEET_DEADLINE_MS}ms deadline \
         with the spinner quota-throttled"
    );

    // The tail round: cooperative single-threaded dispatch services every
    // healthy send in zero virtual time, so the latency tail comes from
    // *faults* — every FLEET_FAULT_STRIDE-th app's send has its request
    // dropped and rides its timeout to a clean error. The drop targets
    // the AppendProperty two requests past the app's current sequence
    // (one registry GetProperty, then the append), installed immediately
    // before the send so receiver-side traffic cannot shift the anchor.
    let mut send_errors = 0u64;
    for (i, app) in apps.iter().enumerate() {
        let target = (i + 1) % napps;
        let faulted = i % FLEET_FAULT_STRIDE == 3;
        if faulted {
            let client = app.conn().client_id().0;
            let seq = app.conn().sequence();
            env.display().with_server(|s| {
                s.install_fault_plan(xsim::FaultPlan::default().drop_at(client, seq + 2))
            });
        }
        let t0 = env.now();
        let r = app.eval(&format!(
            "send -timeout {FLEET_FAULT_TIMEOUT_MS} fleet{target} {{set z tail}}"
        ));
        let dt = env.now().saturating_sub(t0);
        assert_eq!(
            r.is_err(),
            faulted,
            "fleet{i}: tail send outcome disagrees with the fault plan \
             (faulted={faulted}, dt={dt}ms)"
        );
        if r.is_err() {
            send_errors += 1;
        }
        latencies.push(dt);
    }
    env.display()
        .with_server(|s| s.install_fault_plan(xsim::FaultPlan::default()));
    env.dispatch_all();

    // Post-run resource reckoning: the tail-round faults killed nothing,
    // so the server must hold zero objects chargeable to dead clients
    // and every registry entry must point at live comm windows.
    let leaks = tk::send::audit(&env);
    assert!(
        leaks.is_empty(),
        "fleet post-run resource audit: {}",
        leaks.join("; ")
    );

    let backpressure_stalls = apps
        .iter()
        .map(|a| {
            let client = a.conn().client_id();
            env.display().with_server(|s| s.backpressure_stalls(client))
        })
        .sum();

    latencies.sort_unstable();
    FleetReport {
        apps: napps,
        rounds: FLEET_ROUNDS,
        sends: latencies.len() as u64,
        send_latency_p50_ms: percentile(&latencies, 50.0),
        send_latency_p95_ms: percentile(&latencies, 95.0),
        send_latency_p99_ms: percentile(&latencies, 99.0),
        send_latency_max_ms: latencies.last().copied().unwrap_or(0),
        backpressure_stalls,
        deadline_misses,
        send_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = run_fleet(8);
        let b = run_fleet(8);
        assert_eq!(a, b, "two identical fleet runs disagreed");
        assert_eq!(a.sends, 8 * (FLEET_ROUNDS + 1));
        assert!(
            a.backpressure_stalls > 0,
            "the spinner must trip the quota at least once"
        );
        // At 8 apps exactly one app (index 3) rides the faulted tail.
        assert_eq!(a.send_errors, 1);
        assert_eq!(a.send_latency_max_ms, FLEET_FAULT_TIMEOUT_MS);
        assert_eq!(a.deadline_misses, 0);
    }

    #[test]
    fn mesh_smoke_runs_and_orders() {
        let env = TkEnv::new();
        let report = run_wire_mesh(&env, &MeshConfig::ring(3, 2));
        assert_eq!(report.sends, 6);
        assert_eq!(report.latencies_ns.len(), 6);
    }
}
