//! Registry sharding must be invisible: every observable of the `send`
//! name registry — `winfo interps` listings, collision uniquification,
//! dead-peer GC — must be byte-identical whether the registry lives in
//! one root-window property (`shards = 1`, the legacy layout) or is
//! hashed across N property shards, and identically again over both
//! transports (framed wire and the in-process oracle).
//!
//! Each scenario runs under all four (shards, transport) combinations
//! and produces a transcript string; the suite asserts all four
//! transcripts are equal byte for byte.

use tk::TkEnv;
use xsim::{Display, FaultPlan};

/// The shard count the equivalence claim is made against; matches the
/// default (`tk` routes by 8 shards unless `TkEnv::set_send_shards`
/// says otherwise).
const SHARDS: u32 = 8;

fn env_with(shards: u32, wire: bool) -> TkEnv {
    let display = Display::new();
    display.set_wire(wire);
    let env = TkEnv::with_display(display);
    // Must precede app creation: names are routed by the count in
    // effect at announce time.
    env.set_send_shards(shards);
    env
}

/// Runs `scenario` under every (shards, transport) combination and
/// asserts the transcripts agree byte for byte, with the legacy
/// single-property layout over the wire as the reference.
fn assert_equivalent(label: &str, scenario: impl Fn(&TkEnv) -> String) {
    let reference = scenario(&env_with(1, true));
    assert!(!reference.is_empty(), "{label}: empty reference transcript");
    for (shards, wire) in [(1, false), (SHARDS, true), (SHARDS, false)] {
        let got = scenario(&env_with(shards, wire));
        assert_eq!(
            got, reference,
            "{label}: shards={shards} wire={wire} diverged from the \
             legacy single-shard wire transcript"
        );
    }
}

/// `winfo interps` returns the same (sorted) listing from every app's
/// point of view, however the names hashed across shards.
#[test]
fn interps_listing_is_shard_layout_independent() {
    assert_equivalent("interps listing", |env| {
        let names = [
            "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
        ];
        let apps: Vec<_> = names.iter().map(|n| env.app(n)).collect();
        env.dispatch_all();
        let mut out = String::new();
        for (name, app) in names.iter().zip(&apps) {
            let listing = app.eval("winfo interps").unwrap();
            out.push_str(&format!("{name}: {listing}\n"));
        }
        out
    });
}

/// Name collisions uniquify to the same `name #k` sequence, and sends
/// addressed to the uniquified names reach the right interpreter — even
/// though `editor` and `editor #2` may hash to different shards.
#[test]
fn name_collisions_uniquify_identically() {
    assert_equivalent("name collision", |env| {
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
    });
}

/// A peer that dies without withdrawing leaves a stale entry; the first
/// send to it fails the same way, prunes the same entry, bumps the same
/// `registry_gc` count, and leaves the same listing — whichever shard
/// held the corpse.
#[test]
fn dead_peer_gc_prunes_identically() {
    assert_equivalent("dead-peer GC", |env| {
        let a = env.app("alpha");
        let b = env.app("beta");
        let _c = env.app("gamma");
        assert_eq!(a.eval("send beta {expr 1+1}").unwrap(), "2");
        // Kill beta's connection at its next request so nothing
        // withdraws its registry entry — a crash, not a clean exit.
        let victim = b.conn().client_id();
        let seq = b.conn().sequence();
        env.display()
            .with_server(|s| s.install_fault_plan(FaultPlan::default().kill_at(victim.0, seq + 1)));
        let _ = b.eval("wm title . doomed");
        env.dispatch_all();

        let mut out = String::new();
        let e = a.eval("send beta {expr 1+1}").unwrap_err();
        out.push_str(&format!("send beta: error {}\n", e.msg));
        out.push_str(&format!("interps: {}\n", a.eval("winfo interps").unwrap()));
        out.push_str(&format!(
            "registry_gc: {}\n",
            a.obs().counter("registry_gc")
        ));
        // A second listing is already clean: the prune rewrote only the
        // shard that held the corpse, once.
        out.push_str(&format!(
            "interps again: {}\n",
            a.eval("winfo interps").unwrap()
        ));
        out.push_str(&format!(
            "registry_gc again: {}\n",
            a.obs().counter("registry_gc")
        ));
        out
    });
}
