//! Performance smoke tests: very loose upper bounds that catch
//! catastrophic regressions (accidental O(n²) loops, busy-waits) without
//! being flaky on loaded machines. The real measurements come from Tcl's
//! `time` in `scripts/table2.tcl`, run by the release `wish`, and from
//! `rtkbench`; these only assert that the Table II operations stay
//! within two orders of magnitude of their measured values.

use std::time::Instant;

use tk::TkEnv;

#[test]
fn simple_command_stays_fast() {
    let interp = tcl::Interp::new();
    interp.eval("set a 0").unwrap();
    let start = Instant::now();
    for _ in 0..1000 {
        interp.eval("set a 1").unwrap();
    }
    let per = start.elapsed() / 1000;
    assert!(
        per < std::time::Duration::from_micros(500),
        "set a 1 took {per:?} (measured ~0.6 µs; paper budget was 68 µs)"
    );
}

#[test]
fn send_stays_fast() {
    let env = TkEnv::new();
    let a = env.app("alpha");
    let _b = env.app("beta");
    a.eval("send beta {}").unwrap();
    let start = Instant::now();
    for _ in 0..100 {
        a.eval("send beta {}").unwrap();
    }
    let per = start.elapsed() / 100;
    assert!(
        per < std::time::Duration::from_millis(15),
        "send took {per:?} (measured ~5 µs without IPC cost; the paper's \
         budget on 1991 hardware was 15 ms)"
    );
}

#[test]
fn fifty_buttons_stay_fast() {
    let env = TkEnv::new();
    let app = env.app("buttons");
    let start = Instant::now();
    for i in 0..50 {
        app.eval(&format!("button .b{i} -text b{i} -command {{}}"))
            .unwrap();
        app.eval(&format!("pack append . .b{i} {{top}}")).unwrap();
    }
    app.update();
    for i in 0..50 {
        app.eval(&format!("destroy .b{i}")).unwrap();
    }
    app.update();
    let total = start.elapsed();
    assert!(
        total < std::time::Duration::from_millis(440),
        "50 buttons took {total:?} (measured ~5 ms; the paper's own \
         number on 1991 hardware was 440 ms)"
    );
}

#[test]
fn observability_overhead_is_small() {
    // The observability core must be always-on-cheap: with the protocol
    // trace disabled (the default), the per-request recording work attributable
    // to the 50-button workload must stay well under 10% of the
    // workload's own time. Measured directly: time the workload, count
    // its requests, then time that many record operations in isolation.
    let env = TkEnv::new();
    let app = env.app("buttons");
    let workload = |app: &tk::TkApp| {
        for i in 0..50 {
            app.eval(&format!("button .b{i} -text b{i} -command {{}}"))
                .unwrap();
            app.eval(&format!("pack append . .b{i} {{top}}")).unwrap();
        }
        app.update();
        for i in 0..50 {
            app.eval(&format!("destroy .b{i}")).unwrap();
        }
        app.update();
    };
    assert!(!app.conn().obs_trace_enabled(), "trace must default to off");
    workload(&app); // warm caches

    // Median of several runs to shrug off scheduler noise. Each sample
    // builds and destroys the buttons twice: one round settles in under
    // 1000 requests, too few to stand for a protocol-heavy workload.
    let mut times: Vec<std::time::Duration> = (0..5)
        .map(|_| {
            app.conn().reset_obs();
            let start = Instant::now();
            workload(&app);
            workload(&app);
            start.elapsed()
        })
        .collect();
    times.sort();
    let workload_time = times[times.len() / 2];
    let requests = app.conn().stats().requests;
    assert!(requests > 1000, "workload should be protocol-heavy");

    // The per-request instrumentation with the trace off: one or two
    // per-kind counter bumps, no clock read.
    let mut obs = xsim::ClientObs::default();
    let tracer = rtk_obs::Tracer::default();
    let start = Instant::now();
    for i in 0..requests {
        obs.record(
            &tracer,
            i,
            xsim::RequestKind::CreateWindow,
            i % 4 == 0,
            xsim::Xid(1),
            None,
        );
    }
    let record_time = start.elapsed();
    assert!(
        record_time * 10 < workload_time,
        "recording {requests} requests took {record_time:?}, more than 10% \
         of the {workload_time:?} workload"
    );
}

#[test]
fn event_dispatch_throughput() {
    // The §7 painting scenario needs motion events to clear the queue at
    // interactive rates.
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("frame .c -geometry 300x300; pack append . .c {top}")
        .unwrap();
    app.eval("set n 0; bind .c <Motion> {incr n}").unwrap();
    app.update();
    let start = Instant::now();
    for i in 0..500 {
        env.display().move_pointer(10 + (i % 200), 50);
        app.process_pending();
    }
    let per = start.elapsed() / 500;
    assert!(
        per < std::time::Duration::from_millis(1),
        "motion dispatch took {per:?} per event"
    );
    assert_eq!(app.eval("set n").unwrap(), "500");
}
