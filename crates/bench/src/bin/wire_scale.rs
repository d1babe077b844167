//! `wire_scale` — thread-scaling measurement for the shared transport.
//! N `TkEnv`s run on their own OS threads against one shared server
//! (each thread holds a clone of one `Display`), each
//! evaluating a fixed Tcl + widget + redraw workload. Client-side work
//! (parsing, substitution, layout, damage) runs in parallel on the app
//! threads; protocol dispatch serializes on the shared server lock.
//!
//! For each N the same *total* work also runs the old way — N apps
//! multiplexed on a single thread — so the printed speedup is threaded
//! vs. what the pre-wire architecture could do at all. Each cell is the
//! median of [`REPS`] runs, which keeps a shared host's speed swings out
//! of the table. Numbers land in EXPERIMENTS.md.
//!
//! Run with: `cargo run -p tk-bench --release --bin wire_scale`
//! (`RTK_NO_WIRE=1` measures the same threads with the codec off).

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use tk::{TkApp, TkEnv};

const ITERS_PER_APP: usize = 2_000;
/// Runs per configuration; each printed time is their median.
const REPS: usize = 5;

/// Median wall time of [`REPS`] runs of `run`.
fn median_secs(run: impl Fn() -> f64) -> f64 {
    let mut times: Vec<f64> = (0..REPS).map(|_| run()).collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// One app's workload: hot Tcl eval plus a reconfigure-and-repaint per
/// iteration, so both the interpreter and the protocol stay busy.
fn churn(env: &TkEnv, app: &TkApp, iters: usize) {
    for k in 0..iters {
        app.eval(&format!("set x [expr {k} * 3 + 1]; .l configure -text v$x"))
            .unwrap();
        env.dispatch_all();
    }
}

fn setup(env: &TkEnv, name: &str) -> TkApp {
    let app = env.app(name);
    app.eval("label .l -text boot").unwrap();
    app.eval("pack append . .l {top}").unwrap();
    env.dispatch_all();
    app
}

/// N apps on N OS threads, one shared wire server.
fn run_threaded(n: usize) -> f64 {
    let env = TkEnv::new();
    let display = env.display().clone();
    // Registration rewrites the shared registry property
    // (read-modify-write, serialized by XGrabServer in real Tk).
    let startup = Arc::new(Mutex::new(()));
    let start = Instant::now();
    let mut workers = Vec::new();
    for i in 0..n {
        let display = display.clone();
        let startup = startup.clone();
        workers.push(thread::spawn(move || {
            let env = TkEnv::with_display(display);
            let app = {
                let _g = startup.lock().unwrap();
                setup(&env, &format!("scale{i}"))
            };
            churn(&env, &app, ITERS_PER_APP);
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    start.elapsed().as_secs_f64()
}

/// The same total work the pre-wire way: N apps multiplexed on one
/// thread, round-robin.
fn run_single_threaded(n: usize) -> f64 {
    let env = TkEnv::new();
    let apps: Vec<TkApp> = (0..n).map(|i| setup(&env, &format!("mono{i}"))).collect();
    let start = Instant::now();
    for k in 0..ITERS_PER_APP {
        for app in &apps {
            app.eval(&format!("set x [expr {k} * 3 + 1]; .l configure -text v$x"))
                .unwrap();
            env.dispatch_all();
        }
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wire_scale: {ITERS_PER_APP} eval+redraw iterations per app, \
         one shared wire server, median of {REPS} runs, {cpus} CPUs"
    );
    println!(
        "{:>5} {:>14} {:>14} {:>12} {:>9}",
        "apps", "threaded_s", "1-thread_s", "evals/s", "speedup"
    );
    for n in [1, 2, 4, 8] {
        let threaded = median_secs(|| run_threaded(n));
        let single = median_secs(|| run_single_threaded(n));
        let total = (n * ITERS_PER_APP) as f64;
        println!(
            "{n:>5} {threaded:>14.3} {single:>14.3} {:>12.0} {:>8.2}x",
            total / threaded,
            single / threaded
        );
    }
}
