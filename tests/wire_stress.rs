//! Threaded-server stress: the shared transport lets each `TkApp` own a
//! thread while one server owns the semantics. These tests run several
//! apps on their own OS threads against one shared server, with the
//! codec on or off (`RTK_NO_WIRE=1`), exchanging `send`s and redraws, and
//! assert the three properties that matter: no deadlock, per-client
//! event ordering, and clean teardown when one client's connection is
//! killed mid-flush.
//!
//! The mesh itself lives in `tk_bench::fleet::run_wire_mesh` — the same
//! parameterized harness `bench --fleet N` drives at fleet sizes — so
//! this file only picks the sizes and owns the kill scenario. A
//! watchdog aborts the process if a test wedges: a deadlock must fail
//! CI loudly, not hang it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use tk::TkEnv;
use tk_bench::fleet::{run_wire_mesh, watchdog, MeshConfig};
use xsim::FaultPlan;

const APPS: usize = 4;
const ROUNDS: u64 = 6;
/// Virtual-time send deadline: generous, because the target runs on
/// another OS thread and "slow" must not be misread as "dead".
const SEND_TIMEOUT_MS: u64 = 120_000;

/// N apps, one per thread, all sending to all the others every round
/// while repainting their own UI (`fanout = APPS - 1` makes the shared
/// ring harness all-to-all). Ordering and completion are asserted inside
/// the harness; this test adds only the post-mesh display check.
#[test]
fn threaded_apps_exchange_sends_without_deadlock_and_in_order() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("send mesh", 240, done.clone());

    let env = TkEnv::new();
    let cfg = MeshConfig {
        apps: APPS,
        rounds: ROUNDS,
        fanout: APPS - 1,
        send_timeout_ms: SEND_TIMEOUT_MS,
        prefix: "worker",
    };
    let report = run_wire_mesh(&env, &cfg);
    assert_eq!(report.sends, (APPS * (APPS - 1)) as u64 * ROUNDS);
    // The shared display outlives the worker threads: the main thread can
    // still observe the final screen through the same server.
    assert!(!env.display().ascii_dump().is_empty());
    done.store(true, Ordering::SeqCst);
}

/// One of the threaded clients schedules a kill against its own
/// connection, sequence-keyed a few requests ahead, so the connection
/// dies *during a flush* while its thread is mid-conversation. The
/// victim must observe its own death cleanly (errors, then app
/// destruction — no panic, no hang), the survivors must keep talking to
/// each other, and their sends to the dead app must fail with a
/// diagnosis rather than wedge.
#[test]
fn killing_a_client_mid_flush_tears_down_cleanly() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("mid-flush kill", 240, done.clone());

    let env = TkEnv::new();
    let display = env.display().clone();

    let registered = Arc::new(Barrier::new(APPS));
    let killed = Arc::new(Barrier::new(APPS));
    // Registration rewrites the shared registry property (read-modify-write),
    // which real Tk serializes with XGrabServer; app startup takes this
    // lock so announcements don't clobber each other.
    let startup = Arc::new(Mutex::new(()));
    // Survivors that have finished their own sends.
    let finished = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::new();
    for i in 0..APPS {
        let display = display.clone();
        let registered = registered.clone();
        let killed = killed.clone();
        let startup = startup.clone();
        let finished = finished.clone();
        workers.push(thread::spawn(move || {
            let env = TkEnv::with_display(display);
            let app = {
                let _g = startup.lock().unwrap();
                env.app(&format!("victim{i}"))
            };
            app.eval("label .l -text boot").unwrap();
            app.eval("pack append . .l {top}").unwrap();
            env.dispatch_all();
            registered.wait();

            if i == 0 {
                // The victim: schedule a kill on this connection a few
                // requests ahead, then keep drawing. The fatal request
                // is buffered with the others and the connection dies
                // when the batch flushes.
                let client = app.conn().client_id();
                let seq = app.conn().sequence();
                env.display().with_server(|s| {
                    s.install_fault_plan(FaultPlan::default().kill_at(client.0, seq + 4))
                });
                for round in 0..20 {
                    if app.destroyed() {
                        break;
                    }
                    let _ = app.eval(&format!(".l configure -text r{round}"));
                    env.dispatch_all();
                }
                assert!(
                    app.destroyed(),
                    "victim survived a kill scheduled on its own sequence numbers"
                );
                assert!(!app.conn().alive(), "connection still alive after kill");
                killed.wait();
                return;
            }

            // Survivors: wait until the victim is dead, then prove the
            // display still works — sends between live apps succeed,
            // sends to the corpse fail fast with a diagnosis.
            killed.wait();
            let peer = if i == APPS - 1 { 1 } else { i + 1 };
            let r = app.eval(&format!(
                "send -timeout {SEND_TIMEOUT_MS} victim{peer} {{expr {i} * 10}}"
            ));
            assert_eq!(r.unwrap(), format!("{}", i * 10));
            let dead = app.eval("send -timeout 2000 victim0 {expr 1}").unwrap_err();
            assert!(
                dead.msg.contains("victim0"),
                "unexpected death diagnosis: {}",
                dead.msg
            );
            app.eval(&format!(".l configure -text survivor{i}"))
                .unwrap();
            env.dispatch_all();
            // Keep answering until every survivor is done: a peer whose
            // thread has returned no longer serves sends, and the send
            // to it would time out.
            finished.fetch_add(1, Ordering::SeqCst);
            while finished.load(Ordering::SeqCst) < APPS - 1 {
                env.dispatch_all();
                thread::yield_now();
            }
        }));
    }
    for (i, w) in workers.into_iter().enumerate() {
        w.join().unwrap_or_else(|_| panic!("victim{i} panicked"));
    }

    // Teardown left the server consistent: the main thread can connect
    // a fresh app and repaint the world.
    let post = env.app("postmortem");
    post.eval("label .l -text after").unwrap();
    post.eval("pack append . .l {top}").unwrap();
    env.dispatch_all();
    assert!(env.display().ascii_dump().contains("after"));
    done.store(true, Ordering::SeqCst);
}
