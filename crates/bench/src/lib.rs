//! Shared helpers for the benchmark harness: workload builders used by
//! the `bench` budget checker and the table-printing binaries that
//! regenerate the paper's Tables I and II and Figure 8.

use std::time::Instant;

use tk::{TkApp, TkEnv};

/// Creates an environment with `n` named applications.
pub fn env_with_apps(names: &[&str]) -> (TkEnv, Vec<TkApp>) {
    let env = TkEnv::new();
    let apps = names.iter().map(|n| env.app(n)).collect();
    (env, apps)
}

/// Like [`env_with_apps`], but forces the framed wire transport
/// regardless of `RTK_NO_WIRE`, so wire-counter budgets hold in both CI
/// transport runs (the default wire run and the oracle run).
pub fn env_with_apps_wire(names: &[&str]) -> (TkEnv, Vec<TkApp>) {
    let display = xsim::Display::new();
    display.set_wire(true);
    let env = TkEnv::with_display(display);
    let apps = names.iter().map(|n| env.app(n)).collect();
    (env, apps)
}

/// The deterministic xorshift64* PRNG now lives in `xsim::rng` (fault
/// plans are generated from the same stream); re-exported here so the
/// benches and the chaos harness share one implementation.
pub use xsim::XorShift;

pub mod chaos;
pub mod fleet;

/// The Table II row 3 workload: create `n` buttons, pack and display them,
/// then delete them all. Returns nothing; timing is the caller's job.
pub fn create_display_delete_buttons(app: &TkApp, n: usize) {
    for i in 0..n {
        app.eval(&format!("button .b{i} -text \"Button {i}\" -command {{}}"))
            .expect("create button");
        app.eval(&format!("pack append . .b{i} {{top fillx}}"))
            .expect("pack button");
    }
    app.update();
    for i in 0..n {
        app.eval(&format!("destroy .b{i}")).expect("destroy button");
    }
    app.update();
}

/// Builds the packed entry `.bench_e` the [`type_into_entry`] workload
/// types into.
pub fn setup_entry(app: &TkApp) {
    app.eval("entry .bench_e -width 40").expect("create entry");
    app.eval("pack append . .bench_e {top}")
        .expect("pack entry");
    app.update();
}

/// Incremental workload: type `n` characters one keystroke at a time
/// (each repaint touches ~2 character cells under damage), then clear.
pub fn type_into_entry(app: &TkApp, n: usize) {
    for i in 0..n {
        let ch = (b'a' + (i % 26) as u8) as char;
        app.eval(&format!(".bench_e insert end {ch}"))
            .expect("type char");
        app.update();
    }
    app.eval(".bench_e delete 0 end").expect("clear entry");
    app.update();
}

/// Builds the packed 100-item listbox `.bench_l` for [`scroll_listbox`].
pub fn setup_listbox(app: &TkApp) {
    app.eval("listbox .bench_l -geometry 20x20")
        .expect("create listbox");
    app.eval("pack append . .bench_l {top}")
        .expect("pack listbox");
    for i in 0..100 {
        app.eval(&format!(".bench_l insert end {{item number {i}}}"))
            .expect("fill listbox");
    }
    app.update();
}

/// Incremental workload: scroll down one line at a time (a CopyArea blit
/// plus a one-line repaint under damage), then back up the same way.
pub fn scroll_listbox(app: &TkApp, n: usize) {
    for i in 1..=n {
        app.eval(&format!(".bench_l view {i}")).expect("scroll");
        app.update();
    }
    for i in (0..n).rev() {
        app.eval(&format!(".bench_l view {i}"))
            .expect("scroll back");
        app.update();
    }
}

/// Builds the packed checkbutton `.bench_b` for [`blink_button`].
pub fn setup_blink(app: &TkApp) {
    app.eval("checkbutton .bench_b -text {Blink me} -variable bench_blink")
        .expect("create checkbutton");
    app.eval("pack append . .bench_b {top}")
        .expect("pack checkbutton");
    app.update();
}

/// Incremental workload: toggle the check variable `n` times (each
/// repaint touches only the indicator box under damage).
pub fn blink_button(app: &TkApp, n: usize) {
    for _ in 0..n {
        app.eval("set bench_blink 1").expect("blink on");
        app.update();
        app.eval("set bench_blink 0").expect("blink off");
        app.update();
    }
}

/// Builds the proc and accumulator variable the [`eval_hot`] workload
/// exercises.
pub fn setup_eval_hot(app: &TkApp) {
    app.eval(
        "proc bench_step {x} {\n\
         \tset y 0\n\
         \tfor {set i 0} {$i < 10} {set i [expr {$i + 1}]} {\n\
         \t\tset y [expr {$y + $x + $i}]\n\
         \t}\n\
         \treturn $y\n\
         }",
    )
    .expect("define bench_step");
    app.eval("set bench_total 0").expect("seed bench_total");
}

/// Hot-eval workload: the same handful of script strings evaluated over
/// and over — the shape of a Tk callback firing repeatedly. Every
/// iteration re-evals identical sources, so with the program cache on all
/// the parsing collapses into cache hits; with `RTK_NO_COMPILE=1` every
/// iteration re-parses from scratch.
pub fn eval_hot(app: &TkApp, iters: usize) {
    for _ in 0..iters {
        app.eval("set bench_total [expr {$bench_total + [bench_step 3]}]")
            .expect("eval_hot step");
        app.eval("if {$bench_total > 1000000} {set bench_total 0}")
            .expect("eval_hot wrap");
    }
}

/// Builds the bound button `.bench_t` the [`bind_dispatch`] workload
/// clicks on.
pub fn setup_bind_dispatch(app: &TkApp) {
    app.eval("button .bench_t -text Target")
        .expect("create target");
    app.eval("pack append . .bench_t {top}")
        .expect("pack target");
    app.eval("bind .bench_t <ButtonPress-1> {set bench_hits [expr {$bench_hits + 1}]}")
        .expect("bind target");
    app.eval("set bench_hits 0").expect("seed bench_hits");
    app.update();
}

/// Bind-dispatch workload: synthesize `n` pointer clicks on the bound
/// button. Each press routes through event dispatch into the interpreter,
/// so the binding script's parse cost shows up once per click unless the
/// program cache absorbs it.
pub fn bind_dispatch(env: &TkEnv, app: &TkApp, n: usize) {
    let rec = app.window(".bench_t").expect("bind_dispatch target");
    env.display().move_pointer(rec.x.get() + 5, rec.y.get() + 5);
    for _ in 0..n {
        env.display().click(1);
        env.dispatch_all();
    }
}

/// Times `f` over `iters` runs and returns mean seconds per run.
pub fn time_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Formats seconds with an adaptive unit, for table printing.
pub fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.0} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.1} \u{b5}s", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

/// Counts the source lines of a Rust file: non-blank, non-`//`-comment
/// lines, split at the first `#[cfg(test)]` into (code, test) counts.
pub fn count_loc(path: &std::path::Path) -> (usize, usize) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (0, 0);
    };
    let mut code = 0;
    let mut test = 0;
    let mut in_tests = false;
    for line in text.lines() {
        let t = line.trim();
        if t.contains("#[cfg(test)]") {
            in_tests = true;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        if in_tests {
            test += 1;
        } else {
            code += 1;
        }
    }
    (code, test)
}

/// Sums [`count_loc`] over files: `(code, test)`.
pub fn count_loc_files(base: &std::path::Path, files: &[&str]) -> (usize, usize) {
    files
        .iter()
        .map(|f| count_loc(&base.join(f)))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buttons_workload_leaves_app_clean() {
        let (_env, apps) = env_with_apps(&["bench"]);
        create_display_delete_buttons(&apps[0], 5);
        assert_eq!(apps[0].eval("winfo children .").unwrap(), "");
    }

    #[test]
    fn xorshift_is_deterministic_and_bounded() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift::new(7);
        for _ in 0..1000 {
            let v = c.range(3, 10);
            assert!((3..10).contains(&v), "{v}");
        }
        // Different seeds diverge.
        assert_ne!(XorShift::new(1).next_u64(), XorShift::new(2).next_u64());
    }

    #[test]
    fn fmt_time_units() {
        assert!(fmt_time(5e-9).ends_with("ns"));
        assert!(fmt_time(5e-5).contains("\u{b5}s"));
        assert!(fmt_time(5e-3).ends_with("ms"));
        assert!(fmt_time(5.0).ends_with('s'));
    }

    #[test]
    fn count_loc_separates_tests() {
        let dir = std::env::temp_dir().join("rtk_loc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("x.rs");
        std::fs::write(
            &f,
            "fn a() {}\n\n// comment\nfn b() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n",
        )
        .unwrap();
        let (code, test) = count_loc(&f);
        assert_eq!(code, 2);
        // The `#[cfg(test)]` attribute line itself counts on the test side.
        assert_eq!(test, 4);
    }
}
