//! `bench` — the budget and trace checker. The protocol workloads are
//! fully deterministic (single-threaded, no timing-dependent requests),
//! so CI pins their *exact* request/round-trip/flush counts in
//! `BUDGETS.json`:
//!
//! * `bench -- --write-budgets [BUDGETS.json]` runs the workloads and
//!   records their protocol counters;
//! * `bench -- --check-budgets [BUDGETS.json]` re-runs them (twice, to
//!   prove determinism) and fails if any counter drifted from the
//!   checked-in file. An intentional protocol change regenerates the file
//!   with `--write-budgets` and commits the diff.
//!
//! The budgets also pin each deterministic workload's *span-tree shape*
//! (span counts by kind, parent→child edges, zero orphans) from the causal
//! tracer, so a pipeline change that re-wires causality fails CI the same
//! way a protocol change does. Durations stay report-only.
//!
//! The interpreter workloads (`eval_hot`, `bind_dispatch`) run in both
//! compile modes and pin the Tcl compile/cache counters the same way: the
//! warm program cache must parse >= 10x fewer commands than its
//! `RTK_NO_COMPILE` twin, and any drift in compiles, hits, or evictions
//! fails the budget check.
//!
//! `pack_relayout_{4,16,64}` pin the packer's work per resize as the
//! slave count grows, and `bind_match_50` pins how many binding
//! sequences a keystroke is matched against (`bind.considered`).
//!
//! `bench -- --fleet N [--check-budgets [BUDGETS.json]]` drives an N-app
//! send mesh and checks the deterministic fleet percentiles.
//!
//! Three trace-export modes run an instrumented workload suite (a
//! cross-application send pair with one fault-dropped send, plus the
//! buttons workload augmented with a bound button and a real click), with
//! the protocol trace on so traced requests form their own lane:
//!
//! * `bench -- --trace [trace.json]` writes Chrome trace-event JSON
//!   loadable in Perfetto / `chrome://tracing`;
//! * `bench -- --trace-folded [trace.folded]` writes folded stacks for
//!   flamegraph tooling, weighted by wall-clock self time;
//! * `bench -- --trace-vprofile [trace.vprofile]` writes the deterministic
//!   virtual-clock profile (same folded format, simulated-ms weights).
//!
//! Wall-clock timings of the paper's Table II rows come from Tcl's `time`
//! in `scripts/table2.tcl`, run by the release `wish`, and from `rtkbench`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtk_obs::{json, SpanShape};
use tk::{TkApp, TkEnv};
use tk_bench::fleet::{percentile, run_fleet, run_wire_mesh, watchdog, FleetReport, MeshConfig};
use tk_bench::{
    bind_dispatch, blink_button, create_display_delete_buttons, env_with_apps, env_with_apps_wire,
    eval_hot, fmt_time, scroll_listbox, setup_bind_dispatch, setup_blink, setup_entry,
    setup_eval_hot, setup_listbox, type_into_entry,
};
use xsim::{ClientStats, FaultPlan};

/// The fleet size whose deterministic percentiles BUDGETS.json pins
/// (`--write-budgets` regenerates it; the CI gate is
/// `bench -- --fleet 64 --check-budgets`).
const FLEET_BUDGET_APPS: usize = 64;
/// Rounds for the threaded (report-only) mesh leg of `--fleet`.
const FLEET_MESH_ROUNDS: u64 = 3;

/// A workload's protocol counters, and the pixels its display's window
/// buffers hold once it has run (`Server::surface_pixels`).
type Counters = (ClientStats, u64);

/// Reads `app`'s counters without flushing, so taking them moves none.
fn counters(app: &TkApp) -> Counters {
    let held = app.env().display().peek_server(|s| s.surface_pixels());
    (app.conn().stats(), held)
}

/// The counters pinned per workload, in file order.
fn budget_fields((stats, surface_pixels): &Counters) -> [(&'static str, u64); 8] {
    [
        ("requests", stats.requests),
        ("round_trips", stats.round_trips),
        ("flushes", stats.flushes),
        ("batched_requests", stats.batched_requests),
        ("max_batch", stats.max_batch),
        ("max_pending_replies", stats.max_pending_replies),
        ("pixels_drawn", stats.pixels_drawn),
        ("surface_pixels", *surface_pixels),
    ]
}

/// An incremental-redraw workload: name, setup, and one deterministic run.
type IncrWorkload = (&'static str, fn(&TkApp), fn(&TkApp));

/// The incremental-redraw workloads, budgeted in both damage modes (the
/// `_full` twin disables damage).
fn incremental_workloads() -> [IncrWorkload; 3] {
    [
        ("type_entry", setup_entry as fn(&TkApp), |app: &TkApp| {
            type_into_entry(app, 30)
        }),
        ("scroll_listbox", setup_listbox, |app: &TkApp| {
            scroll_listbox(app, 20)
        }),
        ("blink_button", setup_blink, |app: &TkApp| {
            blink_button(app, 15)
        }),
    ]
}

/// A named group of extra pinned counters: the Tcl compile/cache counters
/// of the interpreter workloads (`tcl`), the framed-transport frame/byte
/// counters of the wire workload (`wire`), or the binding-match counters
/// of the bind workload (`bind`).
type Group = (&'static str, Vec<(&'static str, u64)>);

/// One budget run: workload name, iterations, counters, (for the
/// workloads whose causal pipeline CI pins) the span-tree shape, and its
/// counter groups.
type BudgetRun = (&'static str, u64, Counters, Option<SpanShape>, Vec<Group>);

/// Aggregates the span-tree shape across every application in a workload
/// (a cross-app send involves spans on both sides).
fn shape_of(apps: &[TkApp]) -> SpanShape {
    let mut shape = SpanShape::default();
    for app in apps {
        shape.collect(&app.tracer().snapshot());
    }
    shape
}

/// Runs the deterministic protocol workloads (reduced iteration
/// counts — the counters scale linearly, so fewer
/// iterations pin the same behavior) and returns each one's client stats.
fn budget_workloads() -> Vec<BudgetRun> {
    let mut out = Vec::new();

    let (_env, apps) = env_with_apps(&["alpha", "beta"]);
    let sender = &apps[0];
    sender.eval("send beta {}").unwrap(); // warm the handshake atoms
    sender.conn().reset_obs();
    apps[1].conn().reset_obs(); // span epoch boundary on the receiver too
    let send_iters = 200;
    for _ in 0..send_iters {
        sender.eval("send beta {}").unwrap();
    }
    let send_stats = counters(sender);
    out.push((
        "send_empty",
        send_iters,
        send_stats,
        Some(shape_of(&apps)),
        Vec::new(),
    ));

    // The wire workload: the same cross-application send traffic, but on
    // a display forced onto the framed byte transport (independent of
    // `RTK_NO_WIRE`, so this budget holds in both CI transport runs).
    // Every frame the sender encodes, decodes, or ships is pinned — a
    // change to the frame layout, the batching boundaries, or the
    // request stream shows up as an exact counter diff here.
    let (_wenv, wapps) = env_with_apps_wire(&["wa", "wb"]);
    let wsender = &wapps[0];
    wsender.eval("send wb {}").unwrap(); // warm the handshake atoms
    wsender.conn().reset_obs();
    wapps[1].conn().reset_obs();
    let wire_iters = 100;
    for _ in 0..wire_iters {
        wsender.eval("send wb {}").unwrap();
    }
    let o = wsender.conn().with_obs(|o| o.clone()).unwrap();
    assert!(
        o.wire.active(),
        "the wire workload must actually cross the framed transport"
    );
    let wire_counters = vec![
        ("frames_encoded", o.wire.frames_encoded),
        ("bytes_encoded", o.wire.bytes_encoded),
        ("frames_decoded", o.wire.frames_decoded),
        ("bytes_decoded", o.wire.bytes_decoded),
        ("flushes", o.wire.flushes),
        ("frame_bytes_max", o.frame_bytes.max()),
    ];
    out.push((
        "wire_send",
        wire_iters,
        counters(wsender),
        None,
        vec![("wire", wire_counters)],
    ));

    let (_env50, apps50) = env_with_apps(&["buttons"]);
    let app = &apps50[0];
    create_display_delete_buttons(app, 50); // warm caches
    app.eval("obs reset").unwrap();
    let button_iters = 5;
    for _ in 0..button_iters {
        create_display_delete_buttons(app, 50);
    }
    let button_stats = counters(app);
    out.push((
        "buttons_50",
        button_iters,
        button_stats,
        Some(shape_of(&apps50)),
        Vec::new(),
    ));

    // The incremental workloads in both damage modes. Pinning
    // pixels_drawn for each pair makes the >= 10x repaint win a budget,
    // not just a bench headline.
    for (name, setup, run) in incremental_workloads() {
        let full_name: &'static str = match name {
            "type_entry" => "type_entry_full",
            "scroll_listbox" => "scroll_listbox_full",
            _ => "blink_button_full",
        };
        for (damage, label) in [(true, name), (false, full_name)] {
            let (_env, apps) = env_with_apps(&["incr"]);
            let app = &apps[0];
            app.set_damage(damage);
            setup(app);
            run(app); // warm caches
            app.eval("obs reset").unwrap();
            run(app);
            out.push((label, 1, counters(app), None, Vec::new()));
        }
    }

    // The interpreter workloads in both compile modes. Pinning tcl.parses
    // for each pair makes the >= 10x parse win a budget, not just a bench
    // headline; the compile/hit/eviction counters catch cache regressions.
    let eval_iters = 25;
    for (enabled, label) in [(true, "eval_hot"), (false, "eval_hot_nocompile")] {
        let (_env, apps) = env_with_apps(&["evalhot"]);
        let app = &apps[0];
        app.interp().set_compile(enabled);
        setup_eval_hot(app);
        eval_hot(app, eval_iters as usize); // warm caches
        app.eval("obs reset").unwrap();
        eval_hot(app, eval_iters as usize);
        let tcl = vec![("tcl", app.interp().compile_counters())];
        out.push((label, eval_iters, counters(app), None, tcl));
    }

    let click_iters = 20;
    for (enabled, label) in [(true, "bind_dispatch"), (false, "bind_dispatch_nocompile")] {
        let (env, apps) = env_with_apps(&["binddisp"]);
        let app = &apps[0];
        app.interp().set_compile(enabled);
        setup_bind_dispatch(app);
        bind_dispatch(&env, app, click_iters as usize); // warm caches
        app.eval("obs reset").unwrap();
        bind_dispatch(&env, app, click_iters as usize);
        let tcl = vec![("tcl", app.interp().compile_counters())];
        out.push((label, click_iters, counters(app), None, tcl));
    }

    // Relayout cost as the packer's slave count grows: a `{top fillx}`
    // column of n frames where each iteration resizes one slave (slave
    // k mod n toggles between 16 and 12 pixels tall) and runs `update`.
    let relayout_iters = 20;
    for (n, label) in [
        (4, "pack_relayout_4"),
        (16, "pack_relayout_16"),
        (64, "pack_relayout_64"),
    ] {
        let (_env, apps) = env_with_apps(&["relayout"]);
        let app = &apps[0];
        for i in 0..n {
            app.eval(&format!(
                "frame .f{i} -geometry 40x12; pack append . .f{i} {{top fillx}}"
            ))
            .unwrap();
        }
        app.update();
        app.eval("obs reset").unwrap();
        for k in 0..relayout_iters {
            let h = if (k / n) % 2 == 0 { 16 } else { 12 };
            app.eval(&format!(".f{} configure -geometry 40x{h}; update", k % n))
                .unwrap();
        }
        out.push((
            label,
            relayout_iters,
            counters(app),
            Some(shape_of(&apps)),
            Vec::new(),
        ));
    }

    // Binding-table match cost with many bindings installed: 50
    // `<Control-x>` bindings plus `z` on the focus window, and typing `z`.
    let (env, apps) = env_with_apps(&["bindmatch"]);
    let app = &apps[0];
    app.eval("frame .m -geometry 50x50; pack append . .m {top}; focus .m")
        .unwrap();
    for i in 0..50u8 {
        let key = (b'a' + i % 26) as char;
        app.eval(&format!("bind .m <Control-{key}> {{set hit {i}}}"))
            .unwrap();
    }
    app.eval("bind .m z {set z 1}; update").unwrap();
    app.eval("obs reset").unwrap();
    let key_iters = 20;
    for _ in 0..key_iters {
        env.display().type_char('z');
        app.process_pending();
    }
    let items = tcl::parse_list(&app.eval("obs counters").unwrap()).unwrap();
    let bind = ["bind.considered", "bind.matched"].map(|name| {
        let at = items.iter().position(|item| item == name).unwrap();
        (name, items[at + 1].parse().unwrap())
    });
    let bind = vec![("bind", bind.to_vec())];
    out.push(("bind_match_50", key_iters, counters(app), None, bind));

    out
}

/// Asserts the damage engine's headline win on the measured counters:
/// each incremental workload rasterizes at least 10x fewer pixels than
/// its full-redraw twin.
fn check_damage_ratios(runs: &[BudgetRun]) {
    for base in ["type_entry", "scroll_listbox", "blink_button"] {
        let pixels = |n: &str| {
            runs.iter()
                .find(|(name, ..)| *name == n)
                .map(|(_, _, (s, _), ..)| s.pixels_drawn)
                .unwrap_or_else(|| panic!("missing workload {n}"))
        };
        let damage = pixels(base);
        let full = pixels(&format!("{base}_full"));
        assert!(
            full >= 10 * damage.max(1),
            "workload {base}: damage-mode repaints must rasterize >= 10x fewer \
             pixels than full redraws (damage {damage}, full {full})"
        );
    }
}

/// Asserts the compile cache's headline win on the measured counters:
/// each interpreter workload, once warm, parses at least 10x fewer
/// commands than its `RTK_NO_COMPILE`-equivalent twin.
fn check_compile_ratios(runs: &[BudgetRun]) {
    for base in ["eval_hot", "bind_dispatch"] {
        let parses = |n: &str| {
            let (.., groups) = runs
                .iter()
                .find(|(name, ..)| *name == n)
                .unwrap_or_else(|| panic!("missing workload {n}"));
            groups
                .iter()
                .flat_map(|(_, counters)| counters)
                .find(|(f, _)| *f == "tcl.parses")
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("workload {n} lacks a tcl.parses counter"))
        };
        let compiled = parses(base);
        let direct = parses(&format!("{base}_nocompile"));
        assert!(
            direct >= 10 * compiled.max(1),
            "workload {base}: the warm program cache must parse >= 10x fewer \
             commands than direct evaluation (compiled {compiled}, direct {direct})"
        );
    }
}

/// The integer fields of a fleet report, in file order.
fn fleet_fields(r: &FleetReport) -> [(&'static str, u64); 10] {
    [
        ("apps", r.apps as u64),
        ("rounds", r.rounds),
        ("sends", r.sends),
        ("send_latency_p50_ms", r.send_latency_p50_ms),
        ("send_latency_p95_ms", r.send_latency_p95_ms),
        ("send_latency_p99_ms", r.send_latency_p99_ms),
        ("send_latency_max_ms", r.send_latency_max_ms),
        ("backpressure_stalls", r.backpressure_stalls),
        ("deadline_misses", r.deadline_misses),
        ("send_errors", r.send_errors),
    ]
}

/// Runs the deterministic fleet twice; aborts if the runs disagree (the
/// percentile budgets are only enforceable because the virtual-clock
/// latencies are exact).
fn measured_fleet(napps: usize) -> FleetReport {
    let first = run_fleet(napps);
    let second = run_fleet(napps);
    assert_eq!(
        first, second,
        "the {napps}-app fleet is not deterministic: two identical runs \
         produced different latency percentiles or stall counts"
    );
    first
}

/// The `workloads` object of the budget file for these runs.
fn workloads_json(runs: &[BudgetRun]) -> String {
    let mut workloads = json::Object::new();
    for (name, iters, stats, shape, groups) in runs {
        let mut w = json::Object::new();
        w.field_u64("iters", *iters);
        for (field, value) in budget_fields(stats) {
            w.field_u64(field, value);
        }
        if let Some(shape) = shape {
            w.field_raw("spans", &shape.to_json());
        }
        for (group, counters) in groups {
            let mut t = json::Object::new();
            for (field, value) in counters {
                t.field_u64(field, *value);
            }
            w.field_raw(group, &t.build());
        }
        workloads.field_raw(name, &w.build());
    }
    workloads.build()
}

fn budgets_to_json(runs: &[BudgetRun], fleet: &FleetReport, table1: Option<&str>) -> String {
    let mut root = json::Object::new();
    root.field_str(
        "comment",
        "Exact protocol budgets for the deterministic workloads; \
         regenerate with `cargo run -p tk-bench --bin bench -- --write-budgets` \
         after an intentional protocol change. `table1` holds Table I's \
         code-line ceilings for `table1 -- --check-budgets`: lower them by hand \
         as the code shrinks; the regeneration keeps them.",
    );
    root.field_raw("workloads", &workloads_json(runs));
    let mut fleets = json::Object::new();
    let mut f = json::Object::new();
    for (field, value) in fleet_fields(fleet) {
        f.field_u64(field, value);
    }
    fleets.field_raw(&format!("fleet{}", fleet.apps), &f.build());
    root.field_raw("fleet", &fleets.build());
    if let Some(table1) = table1 {
        root.field_raw("table1", table1);
    }
    root.build()
}

/// The `table1` ceilings of the budget file at `path`, re-serialized.
/// They are maintained by hand for `table1 --check-budgets`, so
/// regenerating the protocol budgets carries them over unchanged.
fn table1_ceilings(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let budgets = json::parse(&text).ok()?;
    let mut ceilings = json::Object::new();
    for (row, value) in budgets.get("table1")?.as_object()? {
        ceilings.field_u64(row, value.as_u64()?);
    }
    Some(ceilings.build())
}

/// Runs the budget workloads twice; aborts if the two runs disagree
/// (the budgets are only enforceable because the counts are exact).
fn measured_budgets() -> Vec<BudgetRun> {
    let first = budget_workloads();
    let second = budget_workloads();
    for ((name, _, a, sa, ga), (_, _, b, sb, gb)) in first.iter().zip(&second) {
        assert_eq!(
            a, b,
            "workload {name} is not deterministic: two identical runs \
             produced different protocol counters"
        );
        assert_eq!(
            sa, sb,
            "workload {name} is not deterministic: two identical runs \
             produced different span-tree shapes"
        );
        assert_eq!(
            ga, gb,
            "workload {name} is not deterministic: two identical runs \
             produced different Tcl, wire or bind counters"
        );
    }
    check_damage_ratios(&first);
    check_compile_ratios(&first);
    first
}

fn write_budgets(path: &str) {
    let runs = measured_budgets();
    let fleet = measured_fleet(FLEET_BUDGET_APPS);
    let text = budgets_to_json(&runs, &fleet, table1_ceilings(path).as_deref());
    std::fs::write(path, format!("{text}\n")).expect("write budgets file");
    println!("wrote {path}");
}

/// Every key path of a budget object down to `depth` levels, as
/// `workload/field` or `workload/group/counter`.
fn key_paths(value: &json::Value, depth: usize) -> Vec<String> {
    let mut paths = Vec::new();
    for (key, v) in value.as_object().filter(|_| depth > 0).unwrap_or_default() {
        let sub = key_paths(v, depth - 1);
        if sub.is_empty() {
            paths.push(key.clone());
        }
        paths.extend(sub.into_iter().map(|s| format!("{key}/{s}")));
    }
    paths
}

fn check_budgets(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run --write-budgets first)"));
    let expected = json::parse(&text).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e}"));
    let expected = expected
        .get("workloads")
        .unwrap_or_else(|| panic!("{path}: missing \"workloads\""));

    let mut failures = Vec::new();
    let runs = measured_budgets();
    // A pinned workload or counter the run no longer produces is stale.
    let measured = json::parse(&workloads_json(&runs)).expect("measured budgets are JSON");
    let measured = key_paths(&measured, 3);
    for key in key_paths(expected, 3) {
        if !measured.contains(&key) {
            failures.push(format!(
                "{path} pins {key}, which the run no longer produces"
            ));
        }
    }
    for (name, iters, stats, shape, groups) in runs {
        let Some(budget) = expected.get(name) else {
            failures.push(format!("workload {name}: missing from {path}"));
            continue;
        };
        let want_iters = budget.get("iters").and_then(|v| v.as_u64());
        if want_iters != Some(iters) {
            failures.push(format!(
                "workload {name}: iters changed ({want_iters:?} in file, {iters} measured) \
                 — regenerate the budgets"
            ));
            continue;
        }
        for (field, got) in budget_fields(&stats) {
            match budget.get(field).and_then(|v| v.as_u64()) {
                Some(want) if want == got => {}
                Some(want) => failures.push(format!(
                    "workload {name}: {field} = {got}, budget says {want}"
                )),
                None => failures.push(format!("workload {name}: budget lacks field {field}")),
            }
        }
        for (group, counters) in &groups {
            for (field, got) in counters {
                match budget
                    .get(group)
                    .and_then(|t| t.get(field))
                    .and_then(|v| v.as_u64())
                {
                    Some(want) if want == *got => {}
                    Some(want) => failures.push(format!(
                        "workload {name}: {group} counter {field} = {got}, budget says {want}"
                    )),
                    None => failures.push(format!(
                        "workload {name}: budget lacks {group} counter {field} — \
                         regenerate the budgets"
                    )),
                }
            }
        }
        if let Some(got) = shape {
            if got.orphans != 0 || got.open != 0 {
                failures.push(format!(
                    "workload {name}: span tree is not well formed \
                     ({} orphans, {} still open)",
                    got.orphans, got.open
                ));
            }
            match budget.get("spans").map(SpanShape::from_value) {
                Some(Some(want)) if want == got => {}
                Some(Some(want)) => failures.push(format!(
                    "workload {name}: span-tree shape drifted from budget\n    \
                     budget: {}\n    measured: {}",
                    want.to_json(),
                    got.to_json()
                )),
                Some(None) => failures.push(format!("workload {name}: malformed spans budget")),
                None => failures.push(format!(
                    "workload {name}: budget lacks a spans shape — regenerate the budgets"
                )),
            }
        }
        println!("budget ok: {name} ({iters} iters)");
    }

    if !failures.is_empty() {
        eprintln!("request budgets FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "if the protocol change is intentional, regenerate with \
             `cargo run -p tk-bench --bin bench -- --write-budgets` and commit BUDGETS.json"
        );
        std::process::exit(1);
    }
    println!("request budgets OK ({path})");
}

/// Runs the trace-instrumented workloads and returns each application's
/// span records, named for the exporters (one Chrome `pid` per app).
fn traced_workloads() -> Vec<(String, Vec<rtk_obs::SpanRecord>)> {
    let mut out = Vec::new();

    // Cross-application sends: the sender's "send" span and the receiver's
    // "send.eval" span share the property serial as their correlation key.
    // The last send has its AppendProperty dropped by a fault plan, so the
    // trace carries a "fault" instant and the deadline wait gives that
    // send span a nonzero virtual-clock duration.
    let (env, apps) = env_with_apps(&["alpha", "beta"]);
    let sender = &apps[0];
    sender.eval("send beta {}").unwrap(); // warm the handshake atoms
    for app in &apps {
        app.conn().reset_obs();
    }
    for _ in 0..3 {
        sender.eval("send beta {expr 1+1}").unwrap();
    }
    // Learn the request offset of a send's AppendProperty from the
    // traced `request` records, then aim a drop fault at the next send's
    // append.
    sender.eval("obs trace on").unwrap();
    let s0 = sender.conn().sequence();
    sender.eval("send beta {expr 1+1}").unwrap();
    let append_off = sender
        .conn()
        .obs_trace(usize::MAX)
        .iter()
        .find(|r| r.kind == "request" && r.seq > s0 && r.detail.starts_with("ChangeProperty "))
        .map(|r| r.seq - s0)
        .expect("a send must issue a ChangeProperty append");
    let client = sender.conn().client_id().0;
    let doomed = sender.conn().sequence() + append_off;
    env.display()
        .with_server(|s| s.install_fault_plan(FaultPlan::default().drop_at(client, doomed)));
    let timed_out = sender.eval("send -timeout 200 beta {expr 1+1}").is_err();
    assert!(timed_out, "the fault-dropped send must time out");
    sender.eval("obs trace off").unwrap();
    env.dispatch_all();
    for app in &apps {
        app.tracer()
            .check_integrity()
            .expect("send workload span tree");
        out.push((app.name(), app.tracer().snapshot()));
    }

    // The buttons workload, augmented with a bound button and a real
    // pointer click so the full event→dispatch→bind→eval→damage→relayout→
    // redraw chain shows up alongside the flush/rasterize batches.
    let (envb, appsb) = env_with_apps(&["buttons"]);
    let app = &appsb[0];
    app.eval("button .target -text Go").unwrap();
    app.eval("pack append . .target {top}").unwrap();
    app.eval("bind .target <ButtonPress-1> {set hits 1}")
        .unwrap();
    app.update();
    app.conn().reset_obs();
    app.eval("obs trace on").unwrap();
    create_display_delete_buttons(app, 5);
    let rec = app.window(".target").unwrap();
    envb.display()
        .move_pointer(rec.x.get() + 5, rec.y.get() + 5);
    envb.display().click(1);
    envb.dispatch_all();
    app.tracer()
        .check_integrity()
        .expect("buttons workload span tree");
    out.push((app.name(), app.tracer().snapshot()));

    out
}

/// Runs the traced suite and writes one of the three export formats.
fn write_trace(path: &str, format: &str) {
    let traces = traced_workloads();
    let total: usize = traces.iter().map(|(_, s)| s.len()).sum();
    let text = match format {
        "chrome" => {
            let t = rtk_obs::span::chrome_trace(&traces);
            json::parse(&t).expect("chrome trace must be valid JSON");
            t
        }
        "folded" => rtk_obs::span::folded_stacks(&traces),
        _ => rtk_obs::span::virtual_profile(&traces),
    };
    std::fs::write(path, text).expect("write trace file");
    println!(
        "wrote {path} ({total} spans from {} applications, {format} format)",
        traces.len()
    );
}

/// Checks a measured fleet report against the `fleet` section of the
/// budgets file. Exits non-zero on any drift.
fn check_fleet_budgets(report: &FleetReport, path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run --write-budgets first)"));
    let expected = json::parse(&text).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e}"));
    let key = format!("fleet{}", report.apps);
    let Some(budget) = expected.get("fleet").and_then(|f| f.get(&key)) else {
        eprintln!(
            "{path}: no \"{key}\" entry in the fleet section — the pinned size is \
             fleet{FLEET_BUDGET_APPS}; regenerate with --write-budgets"
        );
        std::process::exit(1);
    };
    let mut failures = Vec::new();
    for (field, got) in fleet_fields(report) {
        match budget.get(field).and_then(|v| v.as_u64()) {
            Some(want) if want == got => {}
            Some(want) => failures.push(format!("{key}: {field} = {got}, budget says {want}")),
            None => failures.push(format!("{key}: budget lacks field {field}")),
        }
    }
    if !failures.is_empty() {
        eprintln!("fleet budgets FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "if the latency change is intentional, regenerate with \
             `cargo run -p tk-bench --bin bench -- --write-budgets` and commit BUDGETS.json"
        );
        std::process::exit(1);
    }
    println!("fleet budgets OK ({key} in {path})");
}

/// `--fleet N`: the threaded wire mesh (liveness + ordering + report-only
/// wall-clock latencies) followed by the deterministic fleet (exact
/// virtual-clock percentiles, optionally checked against BUDGETS.json).
fn fleet_mode(napps: usize, check: bool, path: &str) {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("fleet mesh", 570, done.clone());
    let env = TkEnv::new();
    let mesh = run_wire_mesh(&env, &MeshConfig::ring(napps, FLEET_MESH_ROUNDS));
    let l = &mesh.latencies_ns;
    println!(
        "fleet mesh: {} apps x {} rounds, {} sends in {:.2?} \
         (wall p50 {} / p95 {} / p99 {}, report-only)",
        napps,
        FLEET_MESH_ROUNDS,
        mesh.sends,
        mesh.wall,
        fmt_time(percentile(l, 50.0) as f64 * 1e-9),
        fmt_time(percentile(l, 95.0) as f64 * 1e-9),
        fmt_time(percentile(l, 99.0) as f64 * 1e-9),
    );
    done.store(true, Ordering::SeqCst);

    let report = measured_fleet(napps);
    println!(
        "fleet deterministic: {} apps, {} sends, send_latency_ms p50 {} / p95 {} / p99 {} \
         (max {}), {} backpressure stalls, {} deadline misses",
        report.apps,
        report.sends,
        report.send_latency_p50_ms,
        report.send_latency_p95_ms,
        report.send_latency_p99_ms,
        report.send_latency_max_ms,
        report.backpressure_stalls,
        report.deadline_misses,
    );
    println!(
        "fleet tail: {} fault-dropped sends errored cleanly at the {}ms timeout",
        report.send_errors,
        tk_bench::fleet::FLEET_FAULT_TIMEOUT_MS,
    );
    if check {
        check_fleet_budgets(&report, path);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--fleet") => {
            let Some(napps) = args.get(1).and_then(|v| v.parse::<usize>().ok()) else {
                eprintln!("usage: bench -- --fleet N [--check-budgets [BUDGETS.json]]");
                std::process::exit(2);
            };
            let check = args.get(2).map(String::as_str) == Some("--check-budgets");
            let path = args.get(3).map_or("BUDGETS.json", String::as_str);
            fleet_mode(napps, check, path);
            return;
        }
        Some("--write-budgets") => {
            write_budgets(args.get(1).map_or("BUDGETS.json", String::as_str));
            return;
        }
        Some("--check-budgets") => {
            check_budgets(args.get(1).map_or("BUDGETS.json", String::as_str));
            return;
        }
        Some("--trace") => {
            write_trace(args.get(1).map_or("trace.json", String::as_str), "chrome");
            return;
        }
        Some("--trace-folded") => {
            write_trace(args.get(1).map_or("trace.folded", String::as_str), "folded");
            return;
        }
        Some("--trace-vprofile") => {
            write_trace(
                args.get(1).map_or("trace.vprofile", String::as_str),
                "vprofile",
            );
            return;
        }
        _ => {}
    }
    eprintln!(
        "usage: bench -- --check-budgets|--write-budgets [BUDGETS.json]\n       \
         bench -- --fleet N [--check-budgets [BUDGETS.json]]\n       \
         bench -- --trace|--trace-folded|--trace-vprofile [path]"
    );
    std::process::exit(2);
}
