//! The `send` name registry is one root-window property,
//! `InterpRegistry`, and the order apps registered in must never show.
//! Each scenario runs over both transports (framed wire and the
//! in-process oracle), checks its transcript's content directly —
//! sorted listings, each uniquified name reaching its own interpreter,
//! one GC per corpse — and requires the two transcripts to agree byte
//! for byte.

use tk::TkEnv;
use xsim::Display;

fn env_with(wire: bool) -> TkEnv {
    let display = Display::new();
    display.set_wire(wire);
    TkEnv::with_display(display)
}

/// Runs `scenario` over both transports, checks the wire transcript with
/// `check`, and asserts the in-process one is identical.
fn run_both(label: &str, scenario: impl Fn(&TkEnv) -> String, check: impl Fn(&str)) {
    let wire = scenario(&env_with(true));
    check(&wire);
    let oracle = scenario(&env_with(false));
    assert_eq!(oracle, wire, "{label}: the transports diverged");
}

/// `winfo interps` returns the same sorted listing from every app's
/// point of view, whatever order the apps registered in.
#[test]
fn interps_listing_is_registration_order_independent() {
    let names = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    run_both(
        "interps listing",
        |env| {
            let apps: Vec<_> = names.iter().map(|n| env.app(n)).collect();
            env.dispatch_all();
            let mut out = String::new();
            for (name, app) in names.iter().zip(&apps) {
                let listing = app.eval("winfo interps").unwrap();
                out.push_str(&format!("{name}: {listing}\n"));
            }
            out
        },
        |transcript| {
            let mut sorted = names.to_vec();
            sorted.sort_unstable();
            let want = sorted.join(" ");
            let lines: Vec<&str> = transcript.lines().collect();
            assert_eq!(lines.len(), names.len(), "{transcript}");
            for (name, line) in names.iter().zip(lines) {
                assert_eq!(line, format!("{name}: {want}"), "{transcript}");
            }
        },
    );
}

/// Name collisions uniquify to `editor`, `editor #2`, `editor #3`, and
/// sends addressed to each name reach its own interpreter.
#[test]
fn name_collisions_uniquify_identically() {
    run_both(
        "name collision",
        |env| {
            let first = env.app("editor");
            let second = env.app("editor");
            let third = env.app("editor");
            let outsider = env.app("probe");
            env.dispatch_all();
            first.eval("set who original").unwrap();
            second.eval("set who runnerup").unwrap();
            third.eval("set who third").unwrap();

            let mut out = String::new();
            out.push_str(&format!(
                "interps: {}\n",
                outsider.eval("winfo interps").unwrap()
            ));
            for target in ["editor", "{editor #2}", "{editor #3}"] {
                let got = outsider
                    .eval(&format!("send {target} {{set who}}"))
                    .unwrap();
                out.push_str(&format!("send {target}: {got}\n"));
            }
            out
        },
        |transcript| {
            assert_eq!(
                transcript,
                "interps: editor {editor #2} {editor #3} probe\n\
                 send editor: original\n\
                 send {editor #2}: runnerup\n\
                 send {editor #3}: third\n"
            );
        },
    );
}

/// A peer that dies without withdrawing leaves a stale entry: the first
/// send to it fails and prunes the entry (one `registry_gc`), and the
/// listings after it are clean without further GC.
#[test]
fn dead_peer_gc_prunes_identically() {
    run_both(
        "dead-peer GC",
        |env| {
            let a = env.app("alpha");
            let b = env.app("beta");
            let _c = env.app("gamma");
            assert_eq!(a.eval("send beta {expr 1+1}").unwrap(), "2");
            // A crash, not a clean exit: the server closes beta's
            // connection and beta never runs again, so nothing withdraws
            // its registry entry.
            let victim = b.conn().client_id();
            env.display().with_server(|s| s.kill_client(victim));
            drop(b);
            env.dispatch_all();

            let gc = || a.obs().counter("registry_gc");
            let mut out = format!("registry_gc before: {}\n", gc());
            let e = a.eval("send beta {expr 1+1}").unwrap_err();
            out.push_str(&format!("send beta: error {}\n", e.msg));
            out.push_str(&format!("registry_gc: {}\n", gc()));
            out.push_str(&format!("interps: {}\n", a.eval("winfo interps").unwrap()));
            out.push_str(&format!(
                "interps again: {}\n",
                a.eval("winfo interps").unwrap()
            ));
            out.push_str(&format!("registry_gc again: {}\n", gc()));
            out
        },
        |transcript| {
            assert_eq!(
                transcript,
                "registry_gc before: 0\n\
                 send beta: error target interpreter \"beta\" died or did not respond\n\
                 registry_gc: 1\n\
                 interps: alpha gamma\n\
                 interps again: alpha gamma\n\
                 registry_gc again: 1\n"
            );
        },
    );
}
