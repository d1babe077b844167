//! Batching must be invisible on screen: the output buffer reorders
//! *when* requests reach the server, never *what* they do. These tests
//! run the same workload with batching on and with the transport forced
//! back to one-flush-per-request (`Connection::set_batching(false)`)
//! and diff the framebuffers pixel by pixel.

use tk::TkEnv;
use xsim::Surface;

/// Builds a little interface, pokes it with the pointer, and returns the
/// final framebuffer plus the client's protocol stats.
fn run_workload(batching: bool) -> (Surface, xsim::ClientStats) {
    let env = TkEnv::new();
    let app = env.app("equiv");
    // App creation (the send handshake) ran with the default transport;
    // switch modes and zero the stats so they cover only the workload.
    app.conn().set_batching(batching);
    app.conn().reset_obs();

    app.eval("button .go -text Go -command {set pressed 1}")
        .unwrap();
    app.eval("label .msg -text {hello, world}").unwrap();
    app.eval("frame .box -geometry 60x24 -borderwidth 2")
        .unwrap();
    app.eval("pack append . .go {top fillx} .msg {top} .box {bottom}")
        .unwrap();
    app.update();

    // Interact: press the button (enter + click), then change state so
    // redraws happen through the same batched path.
    let rec = app.window(".go").unwrap();
    env.display().move_pointer(rec.x.get() + 3, rec.y.get() + 3);
    env.display().click(1);
    app.update();
    assert_eq!(app.eval("set pressed").unwrap(), "1");

    app.eval(".msg configure -text {after the click}").unwrap();
    app.eval(".go configure -text Done").unwrap();
    app.update();

    (env.display().screenshot(), app.conn().stats())
}

fn assert_same_pixels(a: &Surface, b: &Surface) {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()));
    let mut diffs = 0;
    let mut first = None;
    for y in 0..a.height() as i32 {
        for x in 0..a.width() as i32 {
            if a.pixel(x, y) != b.pixel(x, y) {
                diffs += 1;
                first.get_or_insert((x, y));
            }
        }
    }
    assert_eq!(
        diffs, 0,
        "framebuffers differ at {diffs} pixels, first at {first:?}"
    );
}

#[test]
fn batching_does_not_change_the_framebuffer() {
    let (batched_screen, batched_stats) = run_workload(true);
    let (unbatched_screen, unbatched_stats) = run_workload(false);

    // Both transports performed the same requests...
    assert_eq!(batched_stats.requests, unbatched_stats.requests);
    assert_eq!(batched_stats.round_trips, unbatched_stats.round_trips);

    // ...but only one of them batched.
    assert!(batched_stats.batched_requests > 0);
    assert!(batched_stats.max_batch > 1);
    assert_eq!(unbatched_stats.batched_requests, 0);
    assert!(unbatched_stats.max_batch <= 1);
    assert!(unbatched_stats.flushes > batched_stats.flushes);

    // And the screen cannot tell the difference.
    assert_same_pixels(&batched_screen, &unbatched_screen);
}

/// The fault-tolerant twin of [`run_workload`]: same UI, same pokes, but
/// every eval is allowed to fail (fault plans make errors and even
/// connection death legitimate outcomes). Returns the final framebuffer
/// and how many faults the plan actually injected.
fn run_workload_with_plan(batching: bool, plan: &xsim::FaultPlan) -> (Surface, u64) {
    let env = TkEnv::new();
    let app = env.app("equiv");
    app.conn().set_batching(batching);
    app.conn().reset_obs();
    env.display()
        .with_server(|s| s.install_fault_plan(plan.clone()));

    for script in [
        "button .go -text Go -command {set pressed 1}",
        "label .msg -text {hello, world}",
        "frame .box -geometry 60x24 -borderwidth 2",
        "pack append . .go {top fillx} .msg {top} .box {bottom}",
    ] {
        let _ = app.eval(script);
    }
    app.update();

    if let Some(rec) = app.window(".go") {
        env.display().move_pointer(rec.x.get() + 3, rec.y.get() + 3);
        env.display().click(1);
        app.update();
    }
    let _ = app.eval(".msg configure -text {after the click}");
    let _ = app.eval(".go configure -text Done");
    app.update();

    let faults = app
        .conn()
        .with_obs(|o| o.faults_injected)
        .unwrap_or_else(|| {
            // The plan killed the connection; read the post-mortem counter
            // straight from the server.
            env.display()
                .with_server(|s| s.fault_plan().map_or(0, |p| p.fired_log().len() as u64))
        });
    (env.display().screenshot(), faults)
}

/// Fault seeds of the checked-in chaos corpus (second column of
/// tests/chaos_corpus.txt).
fn corpus_fault_seeds() -> Vec<u64> {
    include_str!("chaos_corpus.txt")
        .lines()
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            let mut it = line.split_whitespace();
            let _script = it.next()?;
            it.next()?.parse().ok()
        })
        .collect()
}

/// Faults key on request sequence numbers, which batching does not
/// change — so even under an active fault plan, the batched and
/// unbatched transports must inject the *same* faults and render the
/// *same* pixels. Runs every plan in the checked-in chaos corpus.
#[test]
fn fault_plans_hit_batched_and_unbatched_runs_identically() {
    let seeds = corpus_fault_seeds();
    assert!(!seeds.is_empty(), "corpus file is empty");
    let mut total_faults = 0;
    for seed in seeds {
        let plan = tk_bench::chaos::generate_plan(seed);
        let (batched, batched_faults) = run_workload_with_plan(true, &plan);
        let (unbatched, unbatched_faults) = run_workload_with_plan(false, &plan);
        assert_eq!(
            batched_faults,
            unbatched_faults,
            "fault seed {seed}: different faults fired under batching\n{}",
            plan.describe()
        );
        assert_same_pixels(&batched, &unbatched);
        total_faults += batched_faults;
    }
    // The corpus is only a meaningful equivalence check if some of its
    // plans actually fire against this workload.
    assert!(total_faults > 0, "no corpus plan fired a single fault");
}

#[test]
fn ascii_dump_is_also_identical() {
    // The ASCII dump covers text placement, which the pixel diff only
    // sees via the (coarse) block font — check it separately.
    let dump_for = |batching: bool| {
        let env = TkEnv::new();
        let app = env.app("equiv");
        app.conn().set_batching(batching);
        app.eval("label .l -text {batching test}").unwrap();
        app.eval("pack append . .l {top}").unwrap();
        app.update();
        env.display().ascii_dump()
    };
    assert_eq!(dump_for(true), dump_for(false));
}
