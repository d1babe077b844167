//! Ablation for **Section 3.3**: "Tk caches information about the X
//! resources currently in use ... only the first request results in server
//! traffic ... a substantial boost in performance in the common case where
//! a few resources are used in many different widgets."
//!
//! Builds the same 50-widget interface with the resource cache enabled and
//! disabled, and reports the server round trips each configuration needed,
//! the measured time, and that time with each round trip charged the IPC
//! latency a real X connection pays (the simulated server pays none).
//!
//! Run with: `cargo run -p tk-bench --release --bin cache_ablation`

use std::time::Instant;

use tk_bench::env_with_apps;

/// Builds N widgets that all share a handful of colors and one font.
fn build_interface(app: &tk::TkApp, n: usize) {
    for i in 0..n {
        let color = ["red", "MediumSeaGreen", "SteelBlue", "gray"][i % 4];
        app.eval(&format!(
            "button .w{i} -text \"Widget {i}\" -bg {color} -font fixed -command {{}}"
        ))
        .expect("create widget");
        app.eval(&format!("pack append . .w{i} {{top}}")).unwrap();
    }
    app.update();
    for i in 0..n {
        app.eval(&format!("destroy .w{i}")).unwrap();
    }
    app.update();
}

/// The IPC latency a real X round trip costs on a local connection, in
/// seconds (~tens of microseconds on 1991 workstations were milliseconds;
/// this is a conservative modern-local-socket figure).
const ROUND_TRIP_COST: f64 = 50e-6;

fn run(cache_enabled: bool, n: usize) -> (u64, u64, f64) {
    let (env, apps) = env_with_apps(&["ablation"]);
    let app = &apps[0];
    app.cache().set_enabled(cache_enabled);
    // One warm-up pass so startup costs don't pollute the comparison.
    build_interface(app, 4);
    env.display().with_server(|s| s.reset_stats());
    let start = Instant::now();
    build_interface(app, n);
    let secs = start.elapsed().as_secs_f64();
    let stats = app.conn().stats();
    (stats.requests, stats.round_trips, secs)
}

fn main() {
    const N: usize = 50;
    println!("Section 3.3 ablation — resource caches vs server traffic");
    println!(
        "({N} widgets sharing 4 colors and 1 font; \"with IPC\" adds {}\u{b5}s per round\n\
         trip, the latency a real X connection would pay)\n",
        ROUND_TRIP_COST * 1e6
    );
    println!(
        "{:<16} {:>10} {:>13} {:>12} {:>12}",
        "configuration", "requests", "round trips", "time", "with IPC"
    );
    let (req_on, rt_on, t_on) = run(true, N);
    let (req_off, rt_off, t_off) = run(false, N);
    for (name, req, rt, t) in [
        ("cache enabled", req_on, rt_on, t_on),
        ("cache disabled", req_off, rt_off, t_off),
    ] {
        println!(
            "{:<16} {:>10} {:>13} {:>12} {:>12}",
            name,
            req,
            rt,
            tk_bench::fmt_time(t),
            tk_bench::fmt_time(t + rt as f64 * ROUND_TRIP_COST)
        );
    }
    println!(
        "\nThe cache removes {} round trips ({:.1}x fewer), reproducing the\n\
         section's claim that textual-name caching cuts server traffic.",
        rt_off - rt_on,
        rt_off as f64 / rt_on.max(1) as f64
    );
    assert!(rt_on < rt_off, "the cache must reduce round trips");
}
