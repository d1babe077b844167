//! The `send` command (Section 6).
//!
//! `send ?-timeout ms? name command ?arg ...?` evaluates a Tcl command in
//! the named application and returns its result — a remote procedure call
//! between applications on the same display. The machinery follows the
//! paper:
//!
//! * every application registers `name → comm-window` in one property,
//!   `InterpRegistry`, on the root window;
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
//! `send_dedup_drops` / `registry_gc` counters. [`audit`] checks the
//! registry after a run, on top of the server's own resource audit.

use std::collections::{HashMap, HashSet, VecDeque};

use tcl::{wrong_args, Code, Exception, TclResult};
use xsim::event::mask;
use xsim::{Atom, ClientId, Event, WindowId, XError, Xid};

use crate::app::{TkApp, TkEnv};
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
/// The protocol's atoms, in the order `announce` interns them: the
/// root-window registry, then the two comm-window properties.
const ATOMS: [&str; 3] = ["InterpRegistry", "TkSendCommand", "TkSendResult"];
/// Indices into [`ATOMS`] and [`SendState::atoms`].
const REGISTRY: usize = 0;
const COMMAND: usize = 1;
const RESULT: usize = 2;

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
    /// The last serial this application sent (serials run 1, 2, 3, ...).
    last_serial: u64,
    /// Outcomes by serial, filled in by `TkSendResult` property traffic
    /// or by a peer comm window's DestroyNotify.
    outcomes: HashMap<u64, SendOutcome>,
    /// In-flight sends: serial → target comm window (so a DestroyNotify
    /// can fail exactly the sends aimed at the vanished peer).
    pending: HashMap<u64, WindowId>,
    /// The interned [`ATOMS`], warmed in one pipelined batch at
    /// `announce` time so the send path never re-interns per call.
    atoms: [Option<Atom>; 3],
    /// Per-peer (sender comm xid) windows of recently executed serials:
    /// the receiver side of at-most-once delivery.
    executed: HashMap<u32, VecDeque<u64>>,
    /// Peer comm windows this app selected StructureNotify on: the
    /// server's DestroyNotify delivery is interest-indexed, so anyone
    /// who wants fast peer-death detection registers like any other
    /// event consumer. One SelectInput per peer, not per send.
    watched: HashSet<u32>,
}

/// Looks up one of the [`ATOMS`] in the per-app cache, interning (one
/// round trip, first use only) on a miss. A protocol error on the intern
/// (fault injection, dead connection) surfaces as a Tcl exception.
fn cached_atom(app: &TkApp, which: usize) -> Result<Atom, Exception> {
    if let Some(a) = app.inner.send.borrow().atoms[which] {
        return Ok(a);
    }
    let a = app.conn().intern_atom(ATOMS[which]).map_err(xerr)?;
    app.inner.send.borrow_mut().atoms[which] = Some(a);
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
            app.inner.obs.count().send_retries += 1;
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
    // Warm the atom cache in one pipelined batch: all three atoms travel
    // to the server in a single flush. If the handshake fails (fault
    // injection, dead connection) the application keeps its base name
    // and stays unregistered — it still works standalone.
    let cookies = ATOMS.map(|name| conn.send_intern_atom(name));
    let [Ok(registry), Ok(cmd), Ok(res)] = cookies.map(|c| conn.wait(c)) else {
        return base;
    };
    app.inner.send.borrow_mut().atoms = [Some(registry), Some(cmd), Some(res)];
    let root = conn.root();
    // A failed read must not be taken for an empty registry: writing
    // that back would unregister every other application.
    let Ok(existing) = conn.get_property(root, registry) else {
        return base;
    };
    let mut entries = parse_registry(&existing.unwrap_or_default());
    let mut name = base.clone();
    let mut n = 1;
    while entries.iter().any(|(e, _)| *e == name) {
        n += 1;
        name = format!("{base} #{n}");
    }
    entries.push((name.clone(), app.inner.comm));
    conn.change_property(root, registry, &format_registry(&entries));
    *app.inner.name.borrow_mut() = name.clone();
    name
}

/// Removes an application from the registry (on destroy).
pub fn withdraw(app: &TkApp) {
    let conn = app.conn();
    let Ok(registry) = cached_atom(app, REGISTRY) else {
        return;
    };
    let root = conn.root();
    let Ok(existing) = conn.get_property(root, registry) else {
        return;
    };
    let value = registry_without(&existing.unwrap_or_default(), &app.name());
    conn.change_property(root, registry, &value);
}

/// Removes an application from the registry after its connection died.
/// The protocol path is gone, so this runs the requests' server methods
/// directly, in the dead application's name and uncounted — the same
/// scrubbing a real Tk performs when it notices a stale entry whose comm
/// window no longer exists.
pub fn withdraw_post_mortem(app: &TkApp) {
    let name = app.name();
    let client = app.conn().client_id();
    app.env().display().with_server(|s| {
        let registry = s.intern_atom(client, ATOMS[REGISTRY].to_string());
        let root = s.root();
        let existing = s.get_property(client, root, registry).unwrap_or_default();
        s.change_property(client, root, registry, registry_without(&existing, &name));
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
    let Ok(registry) = cached_atom(app, REGISTRY) else {
        return Vec::new();
    };
    let root = conn.root();
    let existing = conn.get_property(root, registry).ok().flatten();
    let entries = parse_registry(&existing.unwrap_or_default());
    // Probe every entry's comm window in one pipelined batch (one flush).
    let probes: Vec<_> = entries
        .iter()
        .map(|(_, w)| conn.send_get_geometry(*w))
        .collect();
    let before = entries.len();
    // A faulted probe keeps its entry: never prune on uncertainty.
    let live: Vec<(String, WindowId)> = entries
        .into_iter()
        .zip(probes)
        .filter_map(|(entry, probe)| (!matches!(conn.wait(probe), Ok(None))).then_some(entry))
        .collect();
    let pruned = (before - live.len()) as u64;
    if pruned > 0 {
        app.inner.obs.count().registry_gc += pruned;
        conn.change_property(root, registry, &format_registry(&live));
    }
    // Sorted, so the listing does not depend on registration order.
    let mut names: Vec<String> = live.into_iter().map(|(n, _)| n).collect();
    names.sort();
    names
}

/// A registry value's items: each a `{name xid}` pair, or the item as
/// written when it is not one. A value that is not a list is one item.
fn registry_items(text: &str) -> impl Iterator<Item = Result<(String, WindowId), String>> {
    let items = tcl::parse_list(text).unwrap_or_else(|_| vec![text.to_string()]);
    items
        .into_iter()
        .map(|item| match tcl::parse_list(&item).as_deref() {
            Ok([name, xid]) => xid
                .parse()
                .map(|x| (name.clone(), Xid(x)))
                .map_err(|_| item),
            _ => Err(item),
        })
}

/// A registry value's well-formed entries; the lookups skip the rest.
fn parse_registry(text: &str) -> Vec<(String, WindowId)> {
    registry_items(text).flatten().collect()
}

/// The post-run resource audit of a display that Tk applications share:
/// the server's own reckoning ([`xsim::Server::audit`]) plus the `send`
/// registry check of `registry_violations`, one line per violation,
/// sorted (empty = clean). It reads the server under one flush, as any
/// observation does, and issues no request: the request streams and the
/// atom table stay as they were. Call it at quiescence.
pub fn audit(env: &TkEnv) -> Vec<String> {
    env.display().with_server(|s| {
        let mut v = s.audit();
        // The property read is the request's body run in place; the
        // client argument is unused.
        let registry = s
            .lookup_atom(ATOMS[REGISTRY])
            .and_then(|atom| s.get_property(ClientId(0), s.root(), atom));
        v.extend(registry_violations(
            &registry.unwrap_or_default(),
            |w| s.window_owner(w),
            |c| s.is_alive(c),
        ));
        v.sort();
        v
    })
}

/// The registry check: every entry of the registry value `registry` must
/// be a `{name xid}` pair naming an existing window of a live client.
/// `owner` gives a window's client (`None`: no such window) and `alive`
/// says whether a client lives.
fn registry_violations(
    registry: &str,
    owner: impl Fn(WindowId) -> Option<ClientId>,
    alive: impl Fn(ClientId) -> bool,
) -> Vec<String> {
    let mut v = Vec::new();
    for item in registry_items(registry) {
        let why = match item {
            Err(item) => format!("has malformed entry {item:?}"),
            Ok((app, w)) => match owner(w) {
                None => format!("entry \"{app}\" references missing window {}", w.0),
                Some(c) if !alive(c) => {
                    format!(
                        "entry \"{app}\" references window {} of dead client {}",
                        w.0, c.0
                    )
                }
                Some(_) => continue,
            },
        };
        v.push(format!("registry {} {why}", ATOMS[REGISTRY]));
    }
    v
}

/// A registry value with `name`'s entries removed.
fn registry_without(value: &str, name: &str) -> String {
    let mut entries = parse_registry(value);
    entries.retain(|(e, _)| e != name);
    format_registry(&entries)
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
    let Ok(registry) = cached_atom(app, REGISTRY) else {
        return;
    };
    let Ok(existing) = conn.get_property(conn.root(), registry) else {
        return;
    };
    let mut entries = parse_registry(&existing.unwrap_or_default());
    let before = entries.len();
    entries.retain(|(n, w)| !(n == name && *w == comm));
    if entries.len() != before {
        app.inner.obs.count().registry_gc += 1;
        conn.change_property(conn.root(), registry, &format_registry(&entries));
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
    let ms = app.env().now().saturating_sub(start);
    app.inner.obs.send_latency_ms.borrow_mut().record(ms);
    r
}

/// The remote path of `send`: registry lookup, request append, then the
/// deadline-based wait for the outcome.
fn send_remote(app: &TkApp, target_name: &str, script: &str, timeout_ms: u64) -> TclResult {
    let conn = app.conn();
    let registry = cached_atom(app, REGISTRY)?;
    let existing = retry_once(app, || conn.get_property(conn.root(), registry))
        .map_err(xerr)?
        .unwrap_or_default();
    let target_comm = registry_items(&existing)
        .flatten()
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
    let cmd_atom = cached_atom(app, COMMAND)?;
    let serial = {
        let mut st = app.inner.send.borrow_mut();
        st.last_serial += 1;
        let serial = st.last_serial;
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
            app.inner.obs.count().send_timeouts += 1;
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

/// The three-field lines of a comm-window property value; other lines
/// are skipped.
fn triples(value: &str) -> impl Iterator<Item = [String; 3]> + '_ {
    value
        .lines()
        .filter_map(|line| tcl::parse_list(line).ok()?.try_into().ok())
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
    let (Ok(cmd_atom), Ok(res_atom)) = (cached_atom(app, COMMAND), cached_atom(app, RESULT)) else {
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
        for [serial, sender, script] in triples(&value) {
            let Ok(serial) = serial.parse::<u64>() else {
                continue;
            };
            let sender: u32 = sender.parse().unwrap_or(0);
            // At-most-once: a duplicated ChangeProperty (fault injection)
            // or a retried request is dropped, not re-evaluated. The
            // serial is recorded *before* the eval so a duplicate arriving
            // re-entrantly during the eval is suppressed too.
            if already_executed(app, sender, serial) {
                app.inner.obs.count().send_dedup_drops += 1;
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
                let _tspan = app.inner.tracer.begin(
                    "send.eval",
                    format_args!("from client {sender}"),
                    serial,
                );
                match app.interp().eval(&script) {
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
        for [serial, code, result] in triples(&value) {
            if let (Ok(serial), Ok(code)) = (serial.parse::<u64>(), code.parse::<i64>()) {
                let mut st = app.inner.send.borrow_mut();
                st.outcomes.insert(serial, SendOutcome::Reply(code, result));
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
        let beta_client = b.conn().client_id();
        env.display()
            .with_server(|s| s.destroy_window(beta_client, beta_comm));
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
        let beta_client = b.conn().client_id();
        env.display()
            .with_server(|s| s.destroy_window(beta_client, beta_comm));
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
        assert_eq!(a.obs().send_latency_ms.borrow().count(), 2);
    }

    #[test]
    fn a_crashed_apps_stale_entry_is_audited_until_winfo_interps_prunes_it() {
        use xsim::{Atom, ClientId};
        let env = TkEnv::new();
        let a = env.app("alpha");
        let b = env.app("beta");
        let _c = env.app("gamma");
        assert_eq!(super::audit(&env), Vec::<String>::new());
        // A crash: the server closes beta's connection and beta never
        // runs again, so its registry entry stays behind.
        let (victim, comm) = (b.conn().client_id(), b.inner.comm);
        env.display().with_server(|s| s.kill_client(victim));
        drop(b);
        // The atom table's size, read without interning: atoms are
        // numbered 1, 2, 3, ... in interning order.
        let interned = || {
            env.display()
                .with_server(|s| (1..).find(|&k| s.atom_name(ClientId(0), Atom(k)).is_none()))
        };
        let (atoms, requests) = (interned(), a.conn().stats().requests);
        let stale = format!(
            "registry InterpRegistry entry \"beta\" references missing window {}",
            comm.0
        );
        assert_eq!(super::audit(&env), vec![stale.clone()]);
        // The audit interned no atom and issued no request.
        assert_eq!(interned(), atoms);
        assert_eq!(a.conn().stats().requests, requests);
        assert_eq!(a.eval("obs audit").unwrap(), stale);
        assert_eq!(a.obs().counter("audit.violations"), 1);
        assert_eq!(a.eval("winfo interps").unwrap(), "alpha gamma");
        assert_eq!(a.obs().counter("registry_gc"), 1);
        assert_eq!(super::audit(&env), Vec::<String>::new());
        assert_eq!(a.eval("obs audit").unwrap(), "");
    }

    #[test]
    fn the_registry_check_reports_each_kind_of_bad_entry() {
        use std::collections::HashMap;
        use xsim::{ClientId, Xid};
        let owners = HashMap::from([(Xid(10), ClientId(1)), (Xid(12), ClientId(2))]);
        let check = |registry: &str| {
            super::registry_violations(registry, |w| owners.get(&w).copied(), |c| c == ClientId(1))
        };
        let registry = "{ok 10} {gone 11} {orphan 12} {lonely} {bad xid} {three words here}";
        assert_eq!(
            check(registry),
            [
                "registry InterpRegistry entry \"gone\" references missing window 11",
                "registry InterpRegistry entry \"orphan\" references window 12 \
                 of dead client 2",
                "registry InterpRegistry has malformed entry \"lonely\"",
                "registry InterpRegistry has malformed entry \"bad xid\"",
                "registry InterpRegistry has malformed entry \"three words here\"",
            ]
        );
        // A value that is not a list is one malformed entry.
        assert_eq!(
            check("{ok 10} {unbalanced"),
            ["registry InterpRegistry has malformed entry \"{ok 10} {unbalanced\""]
        );
        // The lookups see only the well-formed entries.
        assert_eq!(
            super::parse_registry(registry),
            [
                ("ok".to_string(), Xid(10)),
                ("gone".into(), Xid(11)),
                ("orphan".into(), Xid(12))
            ]
        );
        assert_eq!(super::parse_registry("{ok 10} {unbalanced"), vec![]);
    }

    #[test]
    fn an_error_during_announce_never_unregisters_the_others() {
        // One BadAlloc on each of gamma's first requests in turn, the
        // registry read among them: alpha and beta stay registered.
        for seq in 1..40 {
            let env = TkEnv::new();
            let a = env.app("alpha");
            let _b = env.app("beta");
            let gamma = a.conn().client_id().0 + 2;
            let plan = FaultPlan::default().error_at(gamma, seq, XErrorCode::BadAlloc);
            env.display().with_server(|s| s.install_fault_plan(plan));
            let _c = env.app("gamma");
            let listing = a.eval("winfo interps").unwrap();
            assert!(
                listing.starts_with("alpha beta"),
                "fault at {seq}: {listing}"
            );
        }
    }

    /// How many requests of `kind` the app sent since its last obs reset
    /// (its `req.<kind>` counter).
    fn sent(app: &crate::app::TkApp, kind: &str) -> u64 {
        let counters = app.conn().with_obs(|o| o.kind_counts()).unwrap();
        counters
            .into_iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| n)
    }

    #[test]
    fn interps_and_first_sends_read_the_one_registry() {
        let env = TkEnv::new();
        let a = env.app("alpha");
        let _b = env.app("beta");
        let _c = env.app("gamma");
        // A first send to each peer interns nothing.
        a.conn().reset_obs();
        a.eval("send beta {}; send gamma {}").unwrap();
        assert_eq!(sent(&a, "InternAtom"), 0);
        // `winfo interps`: one registry read, then one probe per app.
        a.conn().reset_obs();
        assert_eq!(a.eval("winfo interps").unwrap(), "alpha beta gamma");
        assert_eq!(sent(&a, "GetProperty"), 1);
        assert_eq!(sent(&a, "GetGeometry"), 3);
        assert_eq!(sent(&a, "InternAtom"), 0);
    }
}
