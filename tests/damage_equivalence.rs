//! Damage narrowing must be invisible on screen: damage mode changes the
//! clip extents each repaint draws under, never which pixels end up in
//! the framebuffer once the app goes quiescent. These tests run seeded
//! random mutation scripts twice — damage on vs `TkApp::set_damage(false)`
//! — and diff the framebuffers pixel by pixel at every quiescence point.

use tk::{TkApp, TkEnv};
use xsim::{FaultAction, FaultPlan, Surface, XorShift};

/// How many seeded mutation scripts the equivalence sweep runs.
const SCRIPT_SEEDS: u64 = 200;
/// Mutation steps per script (updates are interleaved on top).
const OPS_PER_SCRIPT: usize = 24;

/// One step of a generated mutation script.
#[derive(Debug, Clone)]
enum Op {
    /// Evaluate a Tcl command (errors are legitimate outcomes).
    Tcl(String),
    /// Move the pointer and click button 1.
    Click(i32, i32),
    /// Drain idle tasks — a quiescence point where the screens must agree.
    Update,
}

/// The fixed interface every script mutates: one widget of each of the
/// damage-narrowing classes, plus a button and scale for the generic
/// full-redraw path.
fn build_ui(app: &TkApp) {
    for script in [
        "entry .e -width 18",
        "listbox .l -geometry 14x5",
        "checkbutton .c -text Check -variable flag",
        "button .b -text Push -command {set hits 1}",
        "canvas .v -geometry 90x60",
        "scale .k -from 0 -to 50 -length 80",
        "scrollbar .s",
        "pack append . .e {top} .l {top} .c {top} .b {top} .v {top} .k {top} .s {right filly}",
    ] {
        let _ = app.eval(script);
    }
    for i in 0..12 {
        let _ = app.eval(&format!(".l insert end {{line {i}}}"));
    }
    let _ = app.eval(".e insert 0 seed");
    app.update();
}

/// Generates the seed's mutation script. Every damage path a widget
/// implements is reachable: entry tail/end edits, cursor and selection
/// moves, listbox edits/scrolls/selections (the CopyArea blit path),
/// canvas item create/move/itemconfigure/delete, indicator blinks,
/// scrollbar trough updates, plus clicks and full reconfigures.
fn generate_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = XorShift::new(seed);
    let mut ops = Vec::new();
    for step in 0..n {
        let op = match rng.below(20) {
            0 => Op::Tcl(format!(
                ".e insert end {}",
                (b'a' + rng.below(26) as u8) as char
            )),
            1 => Op::Tcl(format!(
                ".e insert {} {}",
                rng.below(8),
                (b'A' + rng.below(26) as u8) as char
            )),
            2 => Op::Tcl(format!(".e delete {}", rng.below(8))),
            3 => Op::Tcl(format!(".e icursor {}", rng.below(10))),
            4 => Op::Tcl(format!(".e select from {}", rng.below(6))),
            5 => Op::Tcl(format!(".e select to {}", rng.below(10))),
            6 => Op::Tcl(".e select clear".into()),
            7 => Op::Tcl(format!(".l insert {} {{new {step}}}", rng.below(10))),
            8 => Op::Tcl(format!(".l delete {}", rng.below(12))),
            9 => Op::Tcl(format!(".l view {}", rng.below(10))),
            10 => Op::Tcl(format!(".l select from {}", rng.below(10))),
            11 => Op::Tcl(format!(".l select to {}", rng.below(10))),
            12 => Op::Tcl(format!("set flag {}", rng.below(2))),
            13 => Op::Tcl(format!(".b configure -text {{push {}}}", rng.below(5))),
            14 => {
                let x = rng.below(70) as i32;
                let y = rng.below(40) as i32;
                Op::Tcl(format!(
                    ".v create rectangle {x} {y} {} {} -fill red",
                    x + 4 + rng.below(16) as i32,
                    y + 4 + rng.below(12) as i32
                ))
            }
            15 => Op::Tcl(format!(
                ".v create text {} {} -text i{step}",
                5 + rng.below(60),
                10 + rng.below(40)
            )),
            16 => Op::Tcl(format!(
                ".v move all {} {}",
                rng.below(7) as i32 - 3,
                rng.below(7) as i32 - 3
            )),
            17 => {
                if rng.below(4) == 0 {
                    Op::Tcl(".v delete all".into())
                } else {
                    Op::Tcl(".v itemconfigure all -fill blue".into())
                }
            }
            18 => Op::Tcl(format!(".k set {}", rng.below(51))),
            _ => Op::Click(rng.below(160) as i32, rng.below(180) as i32),
        };
        ops.push(op);
        if rng.below(3) == 0 {
            ops.push(Op::Update);
        }
    }
    ops.push(Op::Update);
    ops
}

/// Runs a script in one damage mode. Returns a framebuffer hash at every
/// quiescence point, the final screen, its ASCII dump, and the client's
/// protocol stats.
fn run_script(seed: u64, damage: bool) -> (Vec<u64>, Surface, String, xsim::ClientStats) {
    let env = TkEnv::new();
    let app = env.app("equiv");
    app.set_damage(damage);
    app.conn().reset_obs();
    build_ui(&app);

    let mut hashes = Vec::new();
    for op in generate_ops(seed, OPS_PER_SCRIPT) {
        match op {
            Op::Tcl(script) => {
                let _ = app.eval(&script);
            }
            Op::Click(x, y) => {
                env.display().move_pointer(x, y);
                env.display().click(1);
            }
            Op::Update => {
                app.update();
                hashes.push(env.display().with_server(|s| s.screen_digest()));
            }
        }
    }
    app.update();
    let dump = env.display().ascii_dump();
    (hashes, env.display().screenshot(), dump, app.conn().stats())
}

fn assert_same_pixels(seed: u64, on: &Surface, off: &Surface) {
    assert_eq!((on.width(), on.height()), (off.width(), off.height()));
    let (a, b) = (on.raw_pixels(), off.raw_pixels());
    if a == b {
        return;
    }
    let diffs = a.iter().zip(b).filter(|(x, y)| x != y).count();
    let first = a.iter().zip(b).position(|(x, y)| x != y).map(|i| {
        let (x, y) = (i as u32 % on.width(), i as u32 / on.width());
        (
            x,
            y,
            on.pixel(x as i32, y as i32),
            off.pixel(x as i32, y as i32),
        )
    });
    panic!(
        "seed {seed}: damage-on and damage-off framebuffers differ at \
         {diffs} pixels, first at {first:?}"
    );
}

/// The tentpole equivalence sweep: 200 seeded mutation scripts, each run
/// damage-on and damage-off, byte-identical at every quiescence point.
#[test]
fn damage_mode_is_pixel_identical_across_200_seeds() {
    let mut narrowed = 0u64;
    for seed in 1..=SCRIPT_SEEDS {
        let (on_hashes, on_screen, on_dump, on_stats) = run_script(seed, true);
        let (off_hashes, off_screen, off_dump, off_stats) = run_script(seed, false);
        assert_eq!(
            on_hashes, off_hashes,
            "seed {seed}: framebuffers diverged at a quiescence point"
        );
        assert_same_pixels(seed, &on_screen, &off_screen);
        assert_eq!(on_dump, off_dump, "seed {seed}: ascii dumps differ");
        // The modes must send the *same* request stream — damage only
        // narrows clip extents, so only pixels_drawn may differ.
        assert_eq!(
            on_stats.requests, off_stats.requests,
            "seed {seed}: request streams diverged between damage modes"
        );
        assert_eq!(on_stats.flushes, off_stats.flushes, "seed {seed}");
        if on_stats.pixels_drawn < off_stats.pixels_drawn {
            narrowed += 1;
        }
        assert!(
            on_stats.pixels_drawn <= off_stats.pixels_drawn,
            "seed {seed}: damage mode drew MORE pixels ({} vs {})",
            on_stats.pixels_drawn,
            off_stats.pixels_drawn
        );
    }
    // The sweep is only meaningful if damage actually narrowed repaints
    // in the vast majority of scripts.
    assert!(
        narrowed > SCRIPT_SEEDS * 9 / 10,
        "damage narrowed only {narrowed}/{SCRIPT_SEEDS} scripts"
    );
}

/// Is every fault in `plan` safe for on-vs-off comparison? Dropped or
/// duplicated *drawing* requests legitimately break equivalence: a full
/// repaint repairs a dropped fill on the next quiescence, while a
/// narrowed repaint may never touch those pixels again. Errors, delays,
/// reorders and kills key on sequence numbers, which the identical
/// request streams keep aligned.
fn plan_safe_for_damage_comparison(plan: &FaultPlan) -> bool {
    plan.specs().iter().all(|s| {
        !matches!(
            s.action,
            FaultAction::DropRequest | FaultAction::DuplicateRequest
        )
    })
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

/// Runs a mutation script under a fault plan in one damage mode.
fn run_script_with_plan(seed: u64, damage: bool, plan: &FaultPlan) -> (Surface, u64) {
    let env = TkEnv::new();
    let app = env.app("equiv");
    app.set_damage(damage);
    app.conn().reset_obs();
    env.display()
        .with_server(|s| s.install_fault_plan(plan.clone()));
    build_ui(&app);
    for op in generate_ops(seed, OPS_PER_SCRIPT) {
        match op {
            Op::Tcl(script) => {
                let _ = app.eval(&script);
            }
            Op::Click(x, y) => {
                env.display().move_pointer(x, y);
                env.display().click(1);
            }
            Op::Update => app.update(),
        }
    }
    app.update();
    let faults = app
        .conn()
        .with_obs(|o| o.faults_injected)
        .unwrap_or_else(|| {
            env.display()
                .with_server(|s| s.fault_plan().map_or(0, |p| p.fired_log().len() as u64))
        });
    (env.display().screenshot(), faults)
}

/// Damage equivalence must survive the chaos corpus: for every corpus
/// plan whose faults are comparison-safe, the damage-on and damage-off
/// runs inject the same faults and render the same pixels.
#[test]
fn damage_mode_is_pixel_identical_under_fault_corpus() {
    let seeds = corpus_fault_seeds();
    assert!(!seeds.is_empty(), "corpus file is empty");
    let mut compared = 0;
    let mut total_faults = 0;
    for seed in seeds {
        let plan = tk_bench::chaos::generate_plan(seed);
        if !plan_safe_for_damage_comparison(&plan) {
            // Drop/duplicate faults are covered by the batched-vs-
            // unbatched corpus test with damage left on (the default).
            continue;
        }
        let (on, on_faults) = run_script_with_plan(seed, true, &plan);
        let (off, off_faults) = run_script_with_plan(seed, false, &plan);
        assert_eq!(
            on_faults,
            off_faults,
            "fault seed {seed}: different faults fired under damage\n{}",
            plan.describe()
        );
        assert_same_pixels(seed, &on, &off);
        compared += 1;
        total_faults += on_faults;
    }
    assert!(compared > 0, "corpus has no comparison-safe plan");
    assert!(total_faults > 0, "no comparison-safe plan fired a fault");
}

/// A targeted narrowing check (guards against damage silently going
/// full-window): one appended keystroke in a wide entry must repaint a
/// small fraction of the pixels the full-redraw mode repaints.
#[test]
fn end_edit_keystroke_repaints_a_sliver() {
    let pixels_for = |damage: bool| {
        let env = TkEnv::new();
        let app = env.app("equiv");
        app.set_damage(damage);
        let _ = app.eval("entry .e -width 40");
        let _ = app.eval("pack append . .e {top}");
        let _ = app.eval(".e insert 0 hello");
        app.update();
        app.conn().reset_obs();
        let _ = app.eval(".e insert end x");
        app.update();
        (app.conn().stats().pixels_drawn, env.display().screenshot())
    };
    let (on_px, on_screen) = pixels_for(true);
    let (off_px, off_screen) = pixels_for(false);
    assert_same_pixels(0, &on_screen, &off_screen);
    assert!(on_px > 0, "damage repaint drew nothing");
    assert!(
        on_px * 10 <= off_px,
        "end-edit keystroke should repaint <10% of the entry: {on_px} vs {off_px}"
    );
}
