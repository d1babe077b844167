//! The `send` command (Section 6).
//!
//! `send ?-timeout ms? name command ?arg ...?` evaluates a Tcl command in
//! the named application and returns its result — a remote procedure call
//! between applications on the same display. The machinery follows the
//! paper:
//!
//! * every application registers `name → comm-window` in a property named
//!   `InterpRegistry` on the root window;
//! * a request is transported by appending (server-side `PropModeAppend`,
//!   so concurrent senders never lose each other's lines) to a
//!   `TkSendCommand` property on the target's comm window (the target
//!   hears the `PropertyNotify`);
//! * the result returns the same way via `TkSendResult` on the sender's
//!   comm window;
//! * while waiting, the sender keeps processing events, so nested and
//!   re-entrant sends work.
//!
//! On top of that transport this module layers the RPC hardening:
//!
//! * **Deadlines.** The sender waits on the virtual clock, not a spin
//!   count. A *slow* target keeps the sender pumping events until the
//!   deadline (default [`DEFAULT_TIMEOUT_MS`], override per call with
//!   `-timeout ms`); a *dead* target — comm window gone — fails the send
//!   immediately and prunes the stale registry entry.
//! * **At-most-once delivery.** Requests carry a per-sender serial; the
//!   receiver keeps a bounded per-peer window of executed serials and
//!   drops duplicates (a fault-duplicated `ChangeProperty`, or a retried
//!   request) without re-evaluating the script.
//! * **Retry.** Retryable X errors (`BadAlloc`/`BadValue`) on the send
//!   path's round trips are retried once after a short virtual-time
//!   backoff.
//! * **Self-healing registry.** `winfo interps` and the dead-target path
//!   prune entries whose comm window no longer exists; a `DestroyNotify`
//!   for a peer's comm window fails that peer's in-flight sends fast.
//!
//! Everything is observable through `rtk-obs`: the `send_latency_ms`
//! histogram and the `send_timeouts` / `send_retries` /
//! `send_dedup_drops` / `registry_gc` counters.

use std::collections::{HashMap, HashSet, VecDeque};

use tcl::{wrong_args, Code, Exception, TclResult};
use xsim::event::mask;
use xsim::{Atom, Event, WindowId, XError, Xid};

use crate::app::TkApp;
use crate::cache::xerr;

/// Default send deadline, in simulated milliseconds (~5 s, as real Tk's
/// later `send` used for its own timeout).
pub const DEFAULT_TIMEOUT_MS: u64 = 5000;
/// Virtual-time step while waiting quiescent for a slow target.
const WAIT_TICK_MS: u64 = 25;
/// Virtual-time backoff before the single retry of a retryable X error.
const RETRY_BACKOFF_MS: u64 = 10;
/// Consecutive event-pump rounds allowed before the wait loop forces a
/// deadline check (guards against a livelocked peer that perpetually
/// reschedules idle work and never replies).
const MAX_PUMPS_PER_TICK: u32 = 8;
/// Executed-serial window kept per peer for duplicate suppression.
const DEDUP_WINDOW: usize = 128;
/// Default number of registry property shards
/// ([`crate::TkEnv::set_send_shards`] overrides; 1 reproduces the
/// paper's single `InterpRegistry` property byte for byte).
pub const DEFAULT_SEND_SHARDS: u32 = 8;

/// FNV-1a over the interpreter name: the shard router. Stable across
/// processes by construction — every client sharing a display computes
/// the same shard for the same name.
fn name_hash(name: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in name.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Which of `n` shards holds `name`'s registry entry.
fn shard_of(name: &str, n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        name_hash(name) % n
    }
}

/// Property name of registry shard `i` of `n`. A single shard keeps the
/// paper's bare `InterpRegistry` name, so one shard is
/// byte-identical to the unsharded layout.
fn shard_property(i: u32, n: u32) -> String {
    if n <= 1 {
        "InterpRegistry".to_string()
    } else {
        format!("InterpRegistry.{i}")
    }
}

/// The interned registry atom (and shard index) responsible for `name`.
fn registry_atom_for(app: &TkApp, name: &str) -> Result<(Atom, u32), Exception> {
    let n = app.env().send_shards();
    let shard = shard_of(name, n);
    Ok((cached_atom(app, &shard_property(shard, n))?, shard))
}

/// How a send concluded, filled in from comm-window traffic.
enum SendOutcome {
    /// `{serial code result}` came back over `TkSendResult`.
    Reply(i64, String),
    /// The target's comm window was destroyed while we waited.
    TargetDied,
}

/// Per-application send state.
#[derive(Default)]
pub struct SendState {
    /// Per-shard serial counters: each registry shard has its own serial
    /// space (shard `k` of `n` issues wire serials `k+1, k+1+n,
    /// k+1+2n, ...`), disjoint by construction so in-flight sends to
    /// different shards can never collide on a serial.
    next_serials: HashMap<u32, u64>,
    /// Outcomes by serial, filled in by `TkSendResult` property traffic
    /// or by a peer comm window's DestroyNotify.
    outcomes: HashMap<u64, SendOutcome>,
    /// In-flight sends: serial → target comm window (so a DestroyNotify
    /// can fail exactly the sends aimed at the vanished peer).
    pending: HashMap<u64, WindowId>,
    /// Interned handshake atoms, warmed in one pipelined batch at
    /// `announce` time so the send path never re-interns per call.
    atoms: HashMap<String, Atom>,
    /// Per-peer (sender comm xid) windows of recently executed serials:
    /// the receiver side of at-most-once delivery.
    executed: HashMap<u32, VecDeque<u64>>,
    /// Peer comm windows this app selected StructureNotify on: the
    /// server's DestroyNotify delivery is interest-indexed, so anyone
    /// who wants fast peer-death detection registers like any other
    /// event consumer. One SelectInput per peer, not per send.
    watched: HashSet<u32>,
}

/// Looks up a handshake atom in the per-app cache, interning (one round
/// trip, first use only) on a miss. A protocol error on the intern (fault
/// injection, dead connection) surfaces as a Tcl exception.
fn cached_atom(app: &TkApp, name: &str) -> Result<Atom, Exception> {
    if let Some(a) = app.inner.send.borrow().atoms.get(name) {
        return Ok(*a);
    }
    let a = app.conn().intern_atom(name).map_err(xerr)?;
    app.inner
        .send
        .borrow_mut()
        .atoms
        .insert(name.to_string(), a);
    Ok(a)
}

/// Registers the `send` command and `winfo interps` support bits.
pub fn register(app: &TkApp) {
    app.register_command("send", cmd_send);
}

/// Runs a round trip with the send path's retry discipline: a retryable
/// X error (`BadAlloc`/`BadValue`) gets one retry after a short
/// virtual-time backoff; everything else surfaces immediately.
fn retry_once<T>(app: &TkApp, mut f: impl FnMut() -> Result<T, XError>) -> Result<T, XError> {
    match f() {
        Err(e) if e.retryable() => {
            app.inner.obs.incr("send_retries");
            app.env().advance(RETRY_BACKOFF_MS);
            f()
        }
        r => r,
    }
}

/// Adds this application to the root-window registry, uniquifying its
/// name if necessary (returns the final name).
pub fn announce(app: &TkApp) -> String {
    let conn = app.conn();
    let base = app.name();
    let shards = app.env().send_shards();
    // Warm the handshake atom cache in one pipelined batch: the base
    // name's registry shard and both transport atoms travel to the
    // server in a single flush. If the handshake fails (fault injection,
    // dead connection) the application keeps its base name and stays
    // unregistered — it still works standalone.
    let base_shard = shard_property(shard_of(&base, shards), shards);
    let reg_cookie = conn.send_intern_atom(&base_shard);
    let cmd_cookie = conn.send_intern_atom("TkSendCommand");
    let res_cookie = conn.send_intern_atom("TkSendResult");
    let (Ok(registry), Ok(cmd), Ok(res)) = (
        conn.wait(reg_cookie),
        conn.wait(cmd_cookie),
        conn.wait(res_cookie),
    ) else {
        return base;
    };
    {
        let mut st = app.inner.send.borrow_mut();
        st.atoms.insert(base_shard, registry);
        st.atoms.insert("TkSendCommand".into(), cmd);
        st.atoms.insert("TkSendResult".into(), res);
    }
    let root = conn.root();
    // Uniquify across shards: a candidate name lives in exactly one
    // shard (its hash), so existence is decided by that shard alone.
    // Each uniquification step re-routes, because "base #2" may hash
    // somewhere else entirely.
    let mut name = base.clone();
    let mut n = 1;
    let (registry, mut entries) = loop {
        let Ok((atom, _)) = registry_atom_for(app, &name) else {
            return base;
        };
        let existing = conn
            .get_property(root, atom)
            .ok()
            .flatten()
            .unwrap_or_default();
        let entries = parse_registry(&existing);
        if !entries.iter().any(|(e, _)| *e == name) {
            break (atom, entries);
        }
        n += 1;
        name = format!("{base} #{n}");
    };
    entries.push((name.clone(), app.inner.comm));
    conn.change_property(root, registry, &format_registry(&entries));
    *app.inner.name.borrow_mut() = name.clone();
    name
}

/// Removes an application from the registry (on destroy).
pub fn withdraw(app: &TkApp) {
    let conn = app.conn();
    let Ok((registry, _)) = registry_atom_for(app, &app.name()) else {
        return;
    };
    let root = conn.root();
    let Ok(existing) = conn.get_property(root, registry) else {
        return;
    };
    let existing = existing.unwrap_or_default();
    let name = app.name();
    let entries: Vec<(String, WindowId)> = parse_registry(&existing)
        .into_iter()
        .filter(|(e, _)| *e != name)
        .collect();
    conn.change_property(root, registry, &format_registry(&entries));
}

/// Removes an application from the registry after its connection died.
/// The protocol path is gone, so this edits the registry property directly
/// on the server — the same scrubbing a real Tk performs when it notices a
/// stale entry whose comm window no longer exists.
pub fn withdraw_post_mortem(app: &TkApp) {
    let name = app.name();
    let shards = app.env().send_shards();
    let prop = shard_property(shard_of(&name, shards), shards);
    app.env().display().with_server(|s| {
        let registry = s.intern_atom_direct(&prop);
        let root = s.root();
        let existing = s.get_property(root, registry).unwrap_or_default();
        let entries: Vec<(String, WindowId)> = parse_registry(&existing)
            .into_iter()
            .filter(|(e, _)| *e != name)
            .collect();
        s.change_property(root, registry, format_registry(&entries));
    });
}

/// Names of all registered applications (`winfo interps`).
///
/// Self-healing: every entry's comm window is probed (one pipelined batch,
/// a single flush) and entries whose window no longer exists are pruned
/// from the registry before the list is returned — a peer that crashed
/// without withdrawing stops haunting the registry the first time anyone
/// looks.
pub fn interps(app: &TkApp) -> Vec<String> {
    let conn = app.conn();
    let shards = app.env().send_shards();
    let mut shard_atoms = Vec::with_capacity(shards as usize);
    for i in 0..shards {
        let Ok(atom) = cached_atom(app, &shard_property(i, shards)) else {
            return Vec::new();
        };
        shard_atoms.push(atom);
    }
    let root = conn.root();
    // Read every shard in one pipelined batch (a single flush)...
    let prop_cookies: Vec<_> = shard_atoms
        .iter()
        .map(|a| conn.send_get_property(root, *a))
        .collect();
    let per_shard: Vec<Vec<(String, WindowId)>> = prop_cookies
        .into_iter()
        .map(|c| parse_registry(&conn.wait(c).ok().flatten().unwrap_or_default()))
        .collect();
    // ...then probe every entry's comm window in a second batch.
    let probe_cookies: Vec<Vec<_>> = per_shard
        .iter()
        .map(|entries| {
            entries
                .iter()
                .map(|(_, w)| conn.send_get_geometry(*w))
                .collect()
        })
        .collect();
    let mut names = Vec::new();
    let mut pruned_total = 0u64;
    for ((atom, entries), cookies) in shard_atoms.into_iter().zip(per_shard).zip(probe_cookies) {
        let mut live: Vec<(String, WindowId)> = Vec::with_capacity(entries.len());
        let mut pruned = 0u64;
        for ((name, w), cookie) in entries.into_iter().zip(cookies) {
            match conn.wait(cookie) {
                Ok(Some(_)) => live.push((name, w)),
                Ok(None) => pruned += 1,
                // Probe faulted: keep the entry — never prune on uncertainty.
                Err(_) => live.push((name, w)),
            }
        }
        if pruned > 0 {
            pruned_total += pruned;
            conn.change_property(root, atom, &format_registry(&live));
        }
        names.extend(live.into_iter().map(|(n, _)| n));
    }
    if pruned_total > 0 {
        app.inner.obs.add("registry_gc", pruned_total);
    }
    // Sorted, so the listing is identical whatever the shard count —
    // concatenation order would otherwise leak the shard layout.
    names.sort();
    names
}

fn parse_registry(text: &str) -> Vec<(String, WindowId)> {
    let mut out = Vec::new();
    if let Ok(items) = tcl::parse_list(text) {
        for item in items {
            if let Ok(pair) = tcl::parse_list(&item) {
                if pair.len() == 2 {
                    if let Ok(xid) = pair[1].parse::<u32>() {
                        out.push((pair[0].clone(), Xid(xid)));
                    }
                }
            }
        }
    }
    out
}

fn format_registry(entries: &[(String, WindowId)]) -> String {
    let items: Vec<String> = entries
        .iter()
        .map(|(n, w)| tcl::format_list(&[n.clone(), w.0.to_string()]))
        .collect();
    tcl::format_list(&items)
}

/// Drops one `(name, comm)` pair from the registry (dead-target GC).
/// Matching on the pair, not the name alone, means a same-named successor
/// that re-announced in the meantime is left untouched.
fn prune_registry_entry(app: &TkApp, name: &str, comm: WindowId) {
    let conn = app.conn();
    let Ok((registry, _)) = registry_atom_for(app, name) else {
        return;
    };
    let Ok(existing) = conn.get_property(conn.root(), registry) else {
        return;
    };
    let existing = existing.unwrap_or_default();
    let entries = parse_registry(&existing);
    let before = entries.len();
    let kept: Vec<(String, WindowId)> = entries
        .into_iter()
        .filter(|(n, w)| !(n == name && *w == comm))
        .collect();
    if kept.len() != before {
        app.inner.obs.incr("registry_gc");
        conn.change_property(conn.root(), registry, &format_registry(&kept));
    }
}

/// `send ?-timeout ms? name command ?arg ...?`.
fn cmd_send(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    let mut args = &argv[1..];
    let mut timeout_ms = DEFAULT_TIMEOUT_MS;
    loop {
        match args.first().map(String::as_str) {
            Some("-timeout") => {
                let Some(v) = args.get(1) else {
                    return Err(Exception::error("value for \"-timeout\" missing"));
                };
                timeout_ms = v.parse().map_err(|_| {
                    Exception::error(format!("expected non-negative integer but got \"{v}\""))
                })?;
                args = &args[2..];
            }
            Some("--") => {
                args = &args[1..];
                break;
            }
            _ => break,
        }
    }
    if args.len() < 2 {
        return Err(wrong_args("send ?-timeout ms? interpName arg ?arg ...?"));
    }
    let target_name = &args[0];
    let script = if args.len() == 2 {
        args[1].clone()
    } else {
        args[1..].join(" ")
    };
    // Sending to ourselves is a direct evaluation (as in Tk).
    if *target_name == app.name() {
        return app.interp().eval(&script);
    }
    let start = app.env().now();
    let r = send_remote(app, target_name, &script, timeout_ms);
    app.inner
        .obs
        .record_ns("send_latency_ms", app.env().now().saturating_sub(start));
    r
}

/// The remote path of `send`: registry lookup, request append, then the
/// deadline-based wait for the outcome.
fn send_remote(app: &TkApp, target_name: &str, script: &str, timeout_ms: u64) -> TclResult {
    let conn = app.conn();
    // The target's name decides which registry shard to consult — one
    // GetProperty against that shard, never a scan of all of them.
    let (registry, shard) = registry_atom_for(app, target_name)?;
    let existing = retry_once(app, || conn.get_property(conn.root(), registry))
        .map_err(xerr)?
        .unwrap_or_default();
    let target_comm = parse_registry(&existing)
        .into_iter()
        .find(|(n, _)| n == target_name)
        .map(|(_, w)| w)
        .ok_or_else(|| {
            Exception::error(format!("no registered interpreter named \"{target_name}\""))
        })?;

    // First send to this peer: select StructureNotify on its comm window
    // so the server's interest index routes the peer's DestroyNotify here
    // (event delivery is O(interested clients), not a broadcast). Never
    // on our own comm — SelectInput replaces this client's mask and would
    // clobber the PropertyChange selection the protocol runs on.
    if target_comm != app.inner.comm {
        let newly_watched = app.inner.send.borrow_mut().watched.insert(target_comm.0);
        if newly_watched {
            conn.select_input(target_comm, mask::STRUCTURE_NOTIFY);
        }
    }

    // Compose the request and append it atomically (PropModeAppend) to
    // the target's comm property: one one-way request, no read-modify-
    // write race with concurrent senders.
    let cmd_atom = cached_atom(app, "TkSendCommand")?;
    let serial = {
        let mut st = app.inner.send.borrow_mut();
        // Each shard owns a disjoint serial space: shard k of n issues
        // k+1, k+1+n, k+1+2n, ... so serials stay globally unique at the
        // sender without cross-shard coordination (n=1 degenerates to the
        // classic 1, 2, 3, ...).
        let n = app.env().send_shards() as u64;
        let count = st.next_serials.entry(shard).or_insert(0);
        *count += 1;
        let serial = (*count - 1) * n + shard as u64 + 1;
        st.pending.insert(serial, target_comm);
        serial
    };
    let request = tcl::format_list(&[
        serial.to_string(),
        app.inner.comm.0.to_string(),
        script.to_string(),
    ]);
    // The client-side send span is keyed on the serial — the receiver's
    // "send.eval" span carries the same serial, which is how the two
    // halves of the RPC correlate across application traces.
    let _tspan = app.inner.tracer.begin("send", target_name, serial);
    conn.append_property(target_comm, cmd_atom, &request);

    let result = wait_for_outcome(app, target_name, target_comm, serial, timeout_ms);
    app.inner.send.borrow_mut().pending.remove(&serial);
    result
}

/// Waits for a send's outcome with a deadline on the virtual clock,
/// distinguishing *slow* (keep pumping events, advance simulated time in
/// small ticks until the deadline) from *dead* (the target's comm window
/// no longer exists: fail immediately and GC the registry entry).
fn wait_for_outcome(
    app: &TkApp,
    target_name: &str,
    target_comm: WindowId,
    serial: u64,
    timeout_ms: u64,
) -> TclResult {
    let env = app.env();
    let deadline = env.now().saturating_add(timeout_ms);
    let mut pumps = 0u32;
    loop {
        // (The outcome is moved out of the borrow before `finish` runs —
        // `finish` itself needs the send state for registry GC.)
        let outcome = app.inner.send.borrow_mut().outcomes.remove(&serial);
        if let Some(outcome) = outcome {
            return finish(app, target_name, target_comm, outcome);
        }
        // Pump everyone's events (the paper: the sender keeps processing
        // events while it waits, so nested and re-entrant sends work).
        let progressed = env.dispatch_all();
        let outcome = app.inner.send.borrow_mut().outcomes.remove(&serial);
        if let Some(outcome) = outcome {
            return finish(app, target_name, target_comm, outcome);
        }
        if app.destroyed() {
            // Our own side collapsed (connection death noticed during the
            // pump) — not the target's fault; say so.
            return Err(Exception::error(format!(
                "send to \"{target_name}\" aborted: the sending application has been destroyed"
            )));
        }
        if progressed && pumps < MAX_PUMPS_PER_TICK {
            pumps += 1;
            continue;
        }
        pumps = 0;
        // Quiescent without an outcome: is the target slow, or dead?
        match retry_once(app, || app.conn().get_geometry(target_comm)) {
            Ok(Some(_)) => {} // alive, just slow — keep waiting
            Ok(None) => {
                // Comm window gone: the target died without withdrawing.
                prune_registry_entry(app, target_name, target_comm);
                return Err(Exception::error(format!(
                    "target interpreter \"{target_name}\" died or did not respond"
                )));
            }
            Err(e) => return Err(xerr(e)),
        }
        let now = env.now();
        if now >= deadline {
            app.inner.obs.incr("send_timeouts");
            return Err(Exception::error(format!(
                "send to \"{target_name}\" timed out after {timeout_ms}ms \
                 (target alive but unresponsive)"
            )));
        }
        // Give up the CPU before the clock moves on, the way a client
        // blocked in select() would: a target on another thread needs
        // the server lock to answer, and the lock is not fair to it. A
        // bare yield is not enough: the target may be parked on the lock,
        // not runnable, and only a real sleep leaves the lock free for it.
        std::thread::sleep(std::time::Duration::from_micros(1));
        env.advance(WAIT_TICK_MS.min(deadline - now));
    }
}

/// Converts a concluded send into its Tcl result.
fn finish(
    app: &TkApp,
    target_name: &str,
    target_comm: WindowId,
    outcome: SendOutcome,
) -> TclResult {
    match outcome {
        SendOutcome::Reply(0, value) => Ok(value),
        SendOutcome::Reply(_, msg) => Err(Exception {
            code: Code::Error,
            msg,
            trace: vec![format!("invoked from within send to \"{target_name}\"")],
        }),
        SendOutcome::TargetDied => {
            prune_registry_entry(app, target_name, target_comm);
            Err(Exception::error(format!(
                "target interpreter \"{target_name}\" died or did not respond"
            )))
        }
    }
}

/// Receiver-side at-most-once check: records `serial` in the bounded
/// per-peer window and reports whether it was already there (a duplicated
/// or retried request that must not evaluate again).
fn already_executed(app: &TkApp, sender: u32, serial: u64) -> bool {
    let mut st = app.inner.send.borrow_mut();
    let window = st.executed.entry(sender).or_default();
    if window.contains(&serial) {
        return true;
    }
    window.push_back(serial);
    if window.len() > DEDUP_WINDOW {
        window.pop_front();
    }
    false
}

/// Fails in-flight sends aimed at a comm window that just got destroyed
/// (DestroyNotify broadcast), and drops the dedup history kept for that
/// peer. Cheap no-op for the DestroyNotify traffic of ordinary windows.
pub fn handle_peer_destroyed(app: &TkApp, window: WindowId) {
    let mut st = app.inner.send.borrow_mut();
    let affected: Vec<u64> = st
        .pending
        .iter()
        .filter(|(_, w)| **w == window)
        .map(|(s, _)| *s)
        .collect();
    for serial in affected {
        st.outcomes.insert(serial, SendOutcome::TargetDied);
    }
    st.executed.remove(&window.0);
    st.watched.remove(&window.0);
}

/// Handles property traffic on this application's comm window.
pub fn handle_comm_event(app: &TkApp, ev: &Event) {
    let Event::PropertyNotify {
        atom,
        deleted: false,
        ..
    } = ev
    else {
        return;
    };
    // Compare against the cached handshake atoms instead of asking the
    // server for the atom's name (a round trip per PropertyNotify).
    let (Ok(cmd_atom), Ok(res_atom)) = (
        cached_atom(app, "TkSendCommand"),
        cached_atom(app, "TkSendResult"),
    ) else {
        return;
    };
    let conn = app.conn();
    if *atom == cmd_atom {
        // Atomic read-and-delete: with senders on other threads, a
        // separate get + delete would destroy any append that lands in
        // between; `take_property` closes that window at the server.
        let Ok(Some(value)) = conn.take_property(app.inner.comm, *atom) else {
            return;
        };
        for line in value.lines() {
            let Ok(fields) = tcl::parse_list(line) else {
                continue;
            };
            if fields.len() != 3 {
                continue;
            }
            let Ok(serial) = fields[0].parse::<u64>() else {
                continue;
            };
            let sender: u32 = fields[1].parse().unwrap_or(0);
            let script = &fields[2];
            // At-most-once: a duplicated ChangeProperty (fault injection)
            // or a retried request is dropped, not re-evaluated. The
            // serial is recorded *before* the eval so a duplicate arriving
            // re-entrantly during the eval is suppressed too.
            if already_executed(app, sender, serial) {
                app.inner.obs.incr("send_dedup_drops");
                continue;
            }
            // First request from this peer: watch its comm window so we
            // learn promptly (via the interest index) when it dies and
            // can drop the dedup history kept for it. Skip self-sends —
            // re-selecting our own comm would clobber PropertyChange.
            if sender != 0 && sender != app.inner.comm.0 {
                let newly_watched = app.inner.send.borrow_mut().watched.insert(sender);
                if newly_watched {
                    conn.select_input(Xid(sender), mask::STRUCTURE_NOTIFY);
                }
            }
            // "The Tk of the target application executes the command
            // and returns the result back to the originating
            // application." The receiver-side span shares the sender's
            // serial, linking both halves of the RPC across traces.
            let (code, result) = {
                let _tspan =
                    app.inner
                        .tracer
                        .begin("send.eval", format!("from client {sender}"), serial);
                match app.interp().eval(script) {
                    Ok(v) => (0, v),
                    Err(e) => (1, e.msg),
                }
            };
            let reply = tcl::format_list(&[serial.to_string(), code.to_string(), result]);
            // Best effort: if the sender's window is gone the server
            // drops the append and the sender's own deadline machinery
            // reports the failure.
            conn.append_property(Xid(sender), res_atom, &reply);
        }
    } else if *atom == res_atom {
        let Ok(Some(value)) = conn.take_property(app.inner.comm, *atom) else {
            return;
        };
        for line in value.lines() {
            let Ok(fields) = tcl::parse_list(line) else {
                continue;
            };
            if fields.len() != 3 {
                continue;
            }
            if let (Ok(serial), Ok(code)) = (fields[0].parse::<u64>(), fields[1].parse::<i64>()) {
                app.inner
                    .send
                    .borrow_mut()
                    .outcomes
                    .insert(serial, SendOutcome::Reply(code, fields[2].clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;
    use xsim::{FaultPlan, XErrorCode};

    #[test]
    fn send_evaluates_in_target() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let b = env.app("beta");
        b.eval("set x in-beta").unwrap();
        let r = a.eval("send beta {set x}").unwrap();
        assert_eq!(r, "in-beta");
    }

    #[test]
    fn send_concatenates_args() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        assert_eq!(a.eval("send beta set y 41").unwrap(), "41");
        assert_eq!(a.eval("send beta expr {$y + 1}").unwrap(), "42");
    }

    #[test]
    fn send_to_self_works() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        assert_eq!(a.eval("send alpha {expr 1+1}").unwrap(), "2");
    }

    #[test]
    fn send_errors_propagate() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        let e = a.eval("send beta {error remote-boom}").unwrap_err();
        assert_eq!(e.msg, "remote-boom");
    }

    #[test]
    fn send_unknown_app_errors() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let e = a.eval("send nosuch {set x}").unwrap_err();
        assert!(e.msg.contains("no registered interpreter"), "{}", e.msg);
    }

    #[test]
    fn nested_send_round_trip() {
        // a sends to b a script that sends back to a.
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        a.eval("set here from-alpha").unwrap();
        let r = a.eval("send beta {send alpha {set here}}").unwrap();
        assert_eq!(r, "from-alpha");
    }

    #[test]
    fn duplicate_names_uniquified() {
        let env = TkEnv::new();
        let _a1 = env.app("app");
        let a2 = env.app("app");
        assert_eq!(a2.name(), "app #2");
        let names = crate::send::interps(&a2);
        assert!(names.contains(&"app".to_string()));
        assert!(names.contains(&"app #2".to_string()));
    }

    #[test]
    fn send_reaches_widgets() {
        // The debugger/editor scenario: one app manipulates the other's
        // interface ("any command that could be invoked within an
        // application may be invoked by other applications using send").
        let env = TkEnv::new();
        let editor = env.app("editor");
        let debugger = env.app("debugger");
        editor.eval("button .b -text idle -command {}").unwrap();
        debugger
            .eval("send editor {.b configure -text running}")
            .unwrap();
        let info = editor.eval(".b configure -text").unwrap();
        assert!(info.contains("running"), "{info}");
    }

    #[test]
    fn send_timeout_option_is_parsed_and_validated() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        // A generous explicit timeout on a healthy target just works.
        assert_eq!(a.eval("send -timeout 1000 beta {expr 2+2}").unwrap(), "4");
        assert_eq!(a.eval("send -- beta {expr 2+3}").unwrap(), "5");
        let e = a.eval("send -timeout").unwrap_err();
        assert!(
            e.msg.contains("value for \"-timeout\" missing"),
            "{}",
            e.msg
        );
        let e = a.eval("send -timeout abc beta {set x}").unwrap_err();
        assert!(e.msg.contains("expected non-negative integer"), "{}", e.msg);
    }

    #[test]
    fn lost_request_times_out_at_the_deadline_when_target_is_alive() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        a.eval("send beta {}").unwrap(); // warm the handshake
        let seq = a.conn().sequence();
        // The next send issues GetProperty(registry) at seq+1 (round
        // trip), then the request append at seq+2 — drop exactly that.
        env.display()
            .with_server(|s| s.install_fault_plan(FaultPlan::default().drop_at(1, seq + 2)));
        let t0 = env.now();
        let e = a.eval("send -timeout 200 beta {set x 1}").unwrap_err();
        assert!(e.msg.contains("timed out after 200ms"), "{}", e.msg);
        assert!(
            env.now() >= t0 + 200,
            "the deadline runs on the virtual clock ({} -> {})",
            t0,
            env.now()
        );
        assert_eq!(a.obs().counter("send_timeouts"), 1);
        // The transport is not poisoned: the next send works.
        assert_eq!(a.eval("send beta {expr 1+1}").unwrap(), "2");
    }

    #[test]
    fn dead_target_fails_fast_and_is_pruned_from_the_registry() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let b = env.app("beta");
        a.eval("send beta {}").unwrap();
        // Kill beta's comm window server-side without any withdraw — the
        // registry entry goes stale, as after a crash.
        let beta_comm = b.inner.comm;
        env.display().with_server(|s| s.destroy_window(beta_comm));
        let t0 = env.now();
        let e = a.eval("send beta {set x 1}").unwrap_err();
        assert!(e.msg.contains("died or did not respond"), "{}", e.msg);
        // Dead, not slow: no 5-second deadline was consumed.
        assert!(env.now() - t0 < super::DEFAULT_TIMEOUT_MS / 2);
        assert!(a.obs().counter("registry_gc") >= 1);
        // The stale entry is gone; the next send fails the lookup.
        let e = a.eval("send beta {set x 1}").unwrap_err();
        assert!(e.msg.contains("no registered interpreter"), "{}", e.msg);
    }

    #[test]
    fn winfo_interps_prunes_stale_entries() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let b = env.app("beta");
        let _c = env.app("gamma");
        let beta_comm = b.inner.comm;
        env.display().with_server(|s| s.destroy_window(beta_comm));
        let names = crate::send::interps(&a);
        assert!(names.contains(&"alpha".to_string()));
        assert!(names.contains(&"gamma".to_string()));
        assert!(!names.contains(&"beta".to_string()), "{names:?}");
        assert_eq!(a.obs().counter("registry_gc"), 1);
        // The prune rewrote the registry: a second listing is clean
        // without further GC.
        let names = crate::send::interps(&a);
        assert!(!names.contains(&"beta".to_string()));
        assert_eq!(a.obs().counter("registry_gc"), 1);
    }

    #[test]
    fn duplicated_request_evaluates_exactly_once() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let b = env.app("beta");
        b.eval("set n 0").unwrap();
        a.eval("send beta {}").unwrap(); // warm the handshake
        let seq = a.conn().sequence();
        // Blanket the next few sequence numbers with duplicate faults:
        // whichever lands on the request append doubles the line
        // server-side. (Duplicate faults only apply to buffered one-ways,
        // so specs landing on round trips never fire.)
        let mut plan = FaultPlan::default();
        for s in 1..=6 {
            plan = plan.duplicate_at(1, seq + s);
        }
        env.display().with_server(|s| s.install_fault_plan(plan));
        let r = a.eval("send beta {incr n}").unwrap();
        assert_eq!(r, "1", "the first evaluation's result comes back");
        env.dispatch_all();
        assert_eq!(
            b.eval("set n").unwrap(),
            "1",
            "the duplicated request must not evaluate twice"
        );
        assert!(b.obs().counter("send_dedup_drops") >= 1);
    }

    #[test]
    fn retryable_error_on_the_lookup_is_retried_once() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        a.eval("send beta {}").unwrap();
        let seq = a.conn().sequence();
        // BadAlloc on the registry GetProperty round trip (seq+1).
        env.display().with_server(|s| {
            s.install_fault_plan(FaultPlan::default().error_at(1, seq + 1, XErrorCode::BadAlloc))
        });
        assert_eq!(a.eval("send beta {expr 6*7}").unwrap(), "42");
        assert_eq!(a.obs().counter("send_retries"), 1);
    }

    #[test]
    fn send_latency_histogram_is_recorded() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        a.eval("send beta {}").unwrap();
        a.eval("send beta {}").unwrap();
        let h = a.obs().histogram("send_latency_ms").expect("histogram");
        assert_eq!(h.count(), 2);
    }
}
