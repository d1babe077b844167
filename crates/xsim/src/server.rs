//! The simulated X server: request dispatch, event generation, and
//! compositing.
//!
//! All protocol state lives here: the window tree, atoms, the colormap,
//! fonts, cursors, GCs, selections, the input focus, and the pointer.
//! Requests arrive through [`crate::connection::Connection`] handles; the
//! server queues events per client and counts requests and round trips per
//! client, which is the accounting the paper's Table II and Section 3.3
//! experiments rely on.
//!
//! Each row of the request table (`wire.rs`) names the `Server` method
//! that runs it; the generated dispatch calls that method with the
//! issuing client first, then the request's fields. That method is the
//! request's only body.

use std::collections::{HashMap, VecDeque};

use crate::atom::{Atom, AtomTable};
use crate::bitmap::{Bitmap, BitmapId};
use crate::color::{lookup_color, Colormap, Rgb};
use crate::connection::Geometry;
use crate::cursor::CursorTable;
use crate::damage::Rect;
use crate::event::{mask, state, Event, Keysym};
use crate::fault::{FaultAction, FaultPlan, XError};
use crate::font::{FontMetrics, FontTable};
use crate::gc::{GcTable, GcValues};
use crate::ids::{ClientId, CursorId, FontId, GcId, IdAllocator, Pixel, WindowId, Xid};
use crate::obs::{ClientObs, ClientStats, RequestKind, WireStats};
use crate::render::Surface;
use crate::window::{Window, WindowTree};
use crate::wire::{QueuedRequest, ReplyValue, Stream};

/// Capacity of the per-client output buffer; reaching it forces a flush,
/// like Xlib's fixed-size request buffer.
pub const OUT_BUF_CAPACITY: usize = 256;

/// The Xlib-style output buffer: requests wait here until a flush, in
/// issue order, each under the sequence number assigned at issue time
/// (the key the fault plan matches on). With the codec on they wait as
/// encoded frames, with it off as typed requests; a display uses one
/// form only.
#[derive(Debug, Default)]
struct OutBuf {
    frames: Vec<u8>,
    requests: Vec<(u64, QueuedRequest)>,
    len: usize,
}

#[derive(Debug, Default)]
struct ClientState {
    queue: VecDeque<Event>,
    obs: ClientObs,
    out: OutBuf,
    /// The client library's read-ahead (Xlib's event queue): the last
    /// polled batch, handed out one event at a time by
    /// `Connection::poll_event` before it polls again.
    read_ahead: VecDeque<Event>,
    /// Executed-but-uncollected pipelined replies, keyed by sequence number.
    replies: HashMap<u64, ReplyValue>,
    /// Cookies issued and not yet redeemed (live pipelining depth).
    pending_replies: u64,
    /// Per-client request sequence counter (the X sequence number).
    next_seq: u64,
    /// Per-client event enqueue counter (the fault plan's event key).
    next_event: u64,
    /// Events held back by an injected delay: `(release_index, event)`.
    delayed: Vec<(u64, Event)>,
    /// Requests a quota-limited flush deferred (never dropped): they
    /// apply ahead of the next flushed batch, in issue order.
    deferred: Vec<(u64, QueuedRequest)>,
    /// Did an injected kill close this connection?
    dead: bool,
    /// The client's causal span tracer: flush batches, event enqueues,
    /// injected faults and traced requests record into it. Every
    /// connection gets its own at connect time; an application attaches
    /// its tracer instead so the server side of the pipeline shares the
    /// application's span tree.
    tracer: rtk_obs::Tracer,
    /// The client's byte stream: its frame timeline and armed stalls,
    /// kept and read by the transport.
    stream: Stream,
}

impl ClientState {
    /// The per-client part of both epoch boundaries: the client's record
    /// and a new span epoch (the trace on/off toggle is kept).
    fn reset_stats(&mut self) {
        self.obs.reset();
        self.tracer.reset_epoch();
    }
}

/// Every connection's state, indexed by id: [`Server::connect`] hands out
/// ids 1, 2, 3, ... in order and never removes one, so client `n` is slot
/// `n - 1` and finding it is an index, not a hash probe. Id 0, the
/// root window's owner, is no connection and finds nothing.
#[derive(Debug, Default)]
struct Clients(Vec<ClientState>);

impl Clients {
    fn get(&self, id: ClientId) -> Option<&ClientState> {
        self.0.get((id.0 as usize).wrapping_sub(1))
    }

    fn get_mut(&mut self, id: ClientId) -> Option<&mut ClientState> {
        self.0.get_mut((id.0 as usize).wrapping_sub(1))
    }
}

/// The selection table entry: who owns a selection.
#[derive(Debug, Clone, Copy)]
struct SelectionOwner {
    window: WindowId,
    client: ClientId,
}

/// The simulated X server.
pub struct Server {
    tree: WindowTree,
    pub(crate) atoms: AtomTable,
    pub(crate) colormap: Colormap,
    pub(crate) fonts: FontTable,
    pub(crate) cursors: CursorTable,
    pub(crate) gcs: GcTable,
    pub(crate) bitmaps: crate::bitmap::BitmapTable,
    ids: IdAllocator,
    clients: Clients,
    /// Clients with unapplied work (a non-empty output buffer or a
    /// deferred-by-quota remainder): `flush_all` walks only these, in
    /// sorted id order, instead of scanning every connection.
    dirty: std::collections::BTreeSet<ClientId>,
    /// Per-client request quota: the most requests one flushed batch may
    /// apply before the remainder is deferred (backpressure, not loss).
    /// `None` = unlimited (the default; [`Server::set_client_quota`] sets it).
    quota: Option<usize>,
    /// Window ids handed to clients whose CreateWindow is still
    /// buffered, each with the client that reserved it.
    pending_windows: HashMap<WindowId, ClientId>,
    selections: HashMap<Atom, SelectionOwner>,
    focus: WindowId,
    pointer: (i32, i32),
    pointer_window: WindowId,
    buttons: u32,
    modifiers: u32,
    time: u64,
    /// The installed deterministic fault schedule, if any.
    fault_plan: Option<FaultPlan>,
    /// Which client created each live GC — close-down bookkeeping so a
    /// kill can free the dead client's GCs and [`Server::audit`] can
    /// prove none survive it.
    gc_owners: HashMap<GcId, ClientId>,
}

/// Screen dimensions of the simulated display.
pub const SCREEN_WIDTH: u32 = 1024;
/// Screen dimensions of the simulated display.
pub const SCREEN_HEIGHT: u32 = 768;

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Server {
    /// Creates a server with a mapped root window covering the screen.
    pub fn new() -> Server {
        let mut ids = IdAllocator::default();
        let root_id = ids.alloc();
        let mut root = Window::new(
            root_id,
            Xid::NONE,
            ClientId(0),
            0,
            0,
            SCREEN_WIDTH,
            SCREEN_HEIGHT,
            0,
            Rgb::new(255, 255, 255),
        );
        root.mapped = true;
        Server {
            tree: WindowTree::with_root(root),
            atoms: AtomTable::new(),
            colormap: Colormap::new(),
            fonts: FontTable::default(),
            cursors: CursorTable::default(),
            gcs: GcTable::default(),
            bitmaps: crate::bitmap::BitmapTable::default(),
            ids,
            clients: Clients::default(),
            dirty: std::collections::BTreeSet::new(),
            quota: None,
            pending_windows: HashMap::new(),
            selections: HashMap::new(),
            focus: Xid::NONE,
            pointer: (0, 0),
            pointer_window: root_id,
            buttons: 0,
            modifiers: 0,
            time: 0,
            fault_plan: None,
            gc_owners: HashMap::new(),
        }
    }

    // ----- fault injection ------------------------------------------------------

    /// Installs a deterministic fault schedule; replaces any previous one.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Sets (or clears) the per-client request quota: at most `q`
    /// requests of one client apply per flushed batch; the overflow is
    /// deferred — never dropped — and each deferral bumps the client's
    /// `wire.backpressure_stalls` counter. Reply-bearing requests are
    /// never deferred (a cookie must stay redeemable), so a batch whose
    /// tail carries one applies through it.
    pub fn set_client_quota(&mut self, quota: Option<usize>) {
        self.quota = quota.filter(|q| *q > 0);
    }

    /// Total quota deferrals recorded against `client` (the
    /// `wire.backpressure_stalls` counter).
    pub fn backpressure_stalls(&self, client: ClientId) -> u64 {
        self.clients
            .get(client)
            .map_or(0, |c| c.obs.wire.backpressure_stalls)
    }

    /// Number of quota-deferred requests still parked on `client`.
    /// Zero once the backlog has drained — deferral is never loss.
    pub fn deferred_len(&self, client: ClientId) -> usize {
        self.clients.get(client).map_or(0, |c| c.deferred.len())
    }

    /// Is this client's connection still alive?
    pub fn is_alive(&self, client: ClientId) -> bool {
        self.clients.get(client).is_some_and(|c| !c.dead)
    }

    /// The last request sequence number assigned to `client` (0 if none).
    /// Fault plans key on sequence numbers; this is the anchor for
    /// "fault the next request" schedules.
    pub fn current_seq(&self, client: ClientId) -> u64 {
        self.clients.get(client).map_or(0, |c| c.next_seq)
    }

    /// Kills a client connection: discards its buffers and queues, then
    /// performs X close-down (DestroyAll): every window the client
    /// created is destroyed (with DestroyNotify to the survivors) and its
    /// selections are released. Statistics survive so a post-mortem can
    /// still read the counters.
    pub fn kill_client(&mut self, client: ClientId) {
        let Some(c) = self.clients.get_mut(client) else {
            return;
        };
        if c.dead {
            return;
        }
        c.dead = true;
        c.out = OutBuf::default();
        c.read_ahead.clear();
        c.deferred.clear();
        c.queue.clear();
        c.delayed.clear();
        c.replies.clear();
        c.pending_replies = 0;
        self.dirty.remove(&client);
        // The discarded buffer held the CreateWindow of every id the
        // client still had reserved: those windows will never exist.
        self.pending_windows.retain(|_, owner| *owner != client);
        let owned: Vec<WindowId> = self
            .tree
            .iter()
            .filter(|w| w.owner == client && w.id != self.tree.root())
            .map(|w| w.id)
            .collect();
        for w in owned {
            self.destroy_window(client, w);
        }
        self.selections.retain(|_, o| o.client != client);
        // Close-down also retracts the dead client's interest index
        // entries on surviving windows (a dead connection receives
        // nothing, so this is behavior-invisible — it exists so the
        // post-run audit can prove no dangling interest survives a kill)
        // and frees the GCs it created, like X's DestroyAll close-down.
        for w in self.tree.iter_mut() {
            w.event_masks.remove(&client);
        }
        let owned_gcs: Vec<GcId> = self
            .gc_owners
            .iter()
            .filter(|(_, o)| **o == client)
            .map(|(g, _)| *g)
            .collect();
        for g in owned_gcs {
            self.gcs.free(g);
            self.gc_owners.remove(&g);
        }
    }

    /// Matches (and fires) a request-indexed fault for a buffered request.
    /// Drop/duplicate only apply to one-way requests: dropping a
    /// reply-bearing request would leave its cookie unredeemable, which no
    /// lossy-transport model allows (X guarantees a reply or an error).
    fn fault_for_queued(&mut self, client: ClientId, seq: u64, reply: bool) -> Option<FaultAction> {
        let plan = self.fault_plan.as_mut()?;
        plan.fire(client, seq, |a| match a {
            FaultAction::Error(_) | FaultAction::KillConnection => true,
            FaultAction::DropRequest | FaultAction::DuplicateRequest => !reply,
            FaultAction::DelayEvent(_) | FaultAction::ReorderEvent => false,
            // Byte faults key on encoded-frame indices, not sequence
            // numbers; only the codec fires them.
            FaultAction::CorruptByte { .. }
            | FaultAction::TruncateFrame { .. }
            | FaultAction::InjectGarbage { .. }
            | FaultAction::SplitWrite { .. }
            | FaultAction::StallDispatch { .. } => false,
        })
    }

    /// Matches (and fires) a byte-layer fault for `client`'s
    /// `frame_idx`-th encoded wire frame. Only the codec calls
    /// this, so byte faults are strict no-ops under `RTK_NO_WIRE=1`.
    pub(crate) fn fire_byte_fault(
        &mut self,
        client: ClientId,
        frame_idx: u64,
    ) -> Option<FaultAction> {
        let plan = self.fault_plan.as_mut()?;
        let action = plan.fire(client, frame_idx, |a| a.is_byte_fault())?;
        self.record_fault(client, frame_idx, action);
        Some(action)
    }

    /// Books an injected fault into the client's obs counters and trace.
    pub(crate) fn record_fault(&mut self, client: ClientId, at: u64, action: FaultAction) {
        if let Some(c) = self.clients.get_mut(client) {
            c.obs.record_fault(&c.tracer, at, action);
        }
    }

    /// Attaches a span tracer to one client; subsequent flush batches,
    /// event enqueues, and injected faults on that connection record
    /// spans/instants into it.
    pub fn set_client_tracer(&mut self, client: ClientId, tracer: rtk_obs::Tracer) {
        if let Some(c) = self.clients.get_mut(client) {
            tracer.set_client(client.0);
            c.tracer = tracer;
        }
    }

    /// Registers a new client connection.
    pub fn connect(&mut self) -> ClientId {
        let state = ClientState::default();
        let id = ClientId(self.clients.0.len() as u32 + 1);
        state.tracer.set_client(id.0);
        self.clients.0.push(state);
        id
    }

    /// Has any client ever connected?
    pub(crate) fn has_clients(&self) -> bool {
        !self.clients.0.is_empty()
    }

    /// `client`'s byte stream; `None` for an id no connection has.
    pub(crate) fn stream(&mut self, client: ClientId) -> Option<&mut Stream> {
        self.clients.get_mut(client).map(|c| &mut c.stream)
    }

    /// The root window.
    pub fn root(&self) -> WindowId {
        self.tree.root()
    }

    /// The current server timestamp.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Statistics for one client.
    pub fn stats(&self, client: ClientId) -> ClientStats {
        self.clients
            .get(client)
            .map(|c| ClientStats::from(&c.obs))
            .unwrap_or_default()
    }

    /// Resets statistics for all clients (benchmark warm-up boundary):
    /// every client's observability record and span tracer (which holds
    /// the protocol trace; the trace on/off toggle is preserved) and the
    /// fault plan's fired log. Output buffers are flushed first so the
    /// epoch boundary is exact.
    pub fn reset_stats(&mut self) {
        self.flush_all();
        for c in &mut self.clients.0 {
            c.reset_stats();
        }
        if let Some(p) = self.fault_plan.as_mut() {
            p.clear_log();
        }
    }

    /// Resets statistics and observability state for one client only
    /// (the Tcl-level `obs reset`), plus its entries in the fault plan's
    /// fired log. The client's output buffer is flushed first.
    pub fn reset_client_stats(&mut self, client: ClientId) {
        self.flush_client(client);
        if let Some(c) = self.clients.get_mut(client) {
            c.reset_stats();
        }
        if let Some(p) = self.fault_plan.as_mut() {
            p.clear_log_for(client.0);
        }
    }

    // ----- output buffering (the Xlib-style transport) --------------------------

    /// Allocates the next request sequence number for a client.
    pub(crate) fn next_seq(&mut self, client: ClientId) -> u64 {
        match self.clients.get_mut(client) {
            Some(c) => {
                c.next_seq += 1;
                c.next_seq
            }
            None => 0,
        }
    }

    /// Appends one issued request to `client`'s output buffer: its
    /// encoded `frame` with the codec on, the typed request with it off.
    /// Returns whether the buffer is now full (a forced flush point).
    pub(crate) fn buffer(
        &mut self,
        client: ClientId,
        seq: u64,
        q: QueuedRequest,
        frame: Option<&[u8]>,
    ) -> bool {
        let Some(c) = self.clients.get_mut(client) else {
            return false;
        };
        match frame {
            Some(bytes) => c.out.frames.extend_from_slice(bytes),
            None => c.out.requests.push((seq, q)),
        }
        c.out.len += 1;
        self.dirty.insert(client);
        c.out.len >= OUT_BUF_CAPACITY
    }

    /// Requests waiting in `client`'s output buffer.
    pub(crate) fn buffered(&self, client: ClientId) -> usize {
        self.clients.get(client).map_or(0, |c| c.out.len)
    }

    /// The clock reading a traced request's duration starts from: `None`
    /// while `client`'s protocol trace is off, so an untraced request
    /// reads no clock.
    pub(crate) fn trace_start(&self, client: ClientId) -> Option<std::time::Instant> {
        let c = self.clients.get(client)?;
        c.obs.trace_enabled.then(std::time::Instant::now)
    }

    /// Issue-time accounting of a buffered request: `batched_requests`,
    /// the pending-reply gauge, and the per-kind count. Everything bumps
    /// when the request is issued, so statistics never lag behind issued
    /// requests and are the same with the codec on or off. `start` is
    /// [`Server::trace_start`]'s reading.
    pub(crate) fn note_issue(
        &mut self,
        client: ClientId,
        kind: RequestKind,
        round_trip: bool,
        window: WindowId,
        seq: u64,
        start: Option<std::time::Instant>,
    ) {
        if let Some(c) = self.clients.get_mut(client) {
            c.obs.counters.batched_requests += 1;
            if round_trip {
                c.pending_replies += 1;
                c.obs.counters.max_pending_replies =
                    c.obs.counters.max_pending_replies.max(c.pending_replies);
            }
            let traced = start.map(|s| s.elapsed());
            c.obs
                .record(&c.tracer, seq, kind, round_trip, window, traced);
        }
    }

    /// Flushes one client's output buffer: executes every queued request
    /// in issue order.
    pub fn flush_client(&mut self, client: ClientId) {
        self.flush_inner(client, true, false);
    }

    /// Takes `client`'s output buffer as one batch and applies it (with
    /// any quota-deferred remainder ahead of it). Encoded frames are
    /// decoded here, on the server side of the wire, into the buffer's
    /// typed half (unused with the codec on), and the emptied buffer goes
    /// back to the client for reuse. A damaged frame ends the batch, the
    /// frames ahead of it still apply, and then the connection is killed;
    /// so is it when fewer frames decode than requests were buffered (a
    /// frame lost whole, which no frame check can see).
    /// With `hold` the batch stops short of its first reply-bearing
    /// request (see [`Server::flush_for_reply`]).
    fn flush_inner(&mut self, client: ClientId, enforce_quota: bool, hold: bool) {
        let mut out = match self.clients.get_mut(client) {
            Some(c) if c.out.len > 0 || !c.deferred.is_empty() => std::mem::take(&mut c.out),
            _ => return,
        };
        let framed = out.requests.len() != out.len;
        let mut fr = crate::wire::FrameReader::from_buffer(std::mem::take(&mut out.frames));
        let batch = &mut out.requests;
        let corrupt = fr.read_all(|f| {
            self.note_wire_decode(client, f.wire_len());
            let decoded = crate::wire::Message::decode(&f).map(|q| batch.push((f.seq, q)));
            decoded.is_ok()
        });
        out.frames = fr.into_buffer();
        let lost = framed && !corrupt && out.requests.len() < out.len;
        self.apply_batch(client, &mut out.requests, enforce_quota, hold);
        if let Some(c) = self.clients.get_mut(client) {
            c.obs.wire.flushes += u64::from(framed);
            out.len = 0;
            c.out = out;
        }
        if corrupt {
            self.kill_broken_stream(client, |w| &mut w.checksum_errors);
        } else if lost {
            self.kill_broken_stream(client, |w| &mut w.lost_frames);
        }
    }

    /// Executes one flushed batch of requests in issue order, draining
    /// `buf`. Fault dispatch, the flush/rasterize spans, and every
    /// counter live here. Drain points (a client's own wait, display
    /// observation) pass `enforce_quota = false`: they must apply
    /// everything regardless of backpressure. With `hold`, the requests
    /// from the first reply-bearing one on wait in the deferred queue, as
    /// a quota's overflow does.
    fn apply_batch(
        &mut self,
        client: ClientId,
        buf: &mut Vec<(u64, QueuedRequest)>,
        enforce_quota: bool,
        hold: bool,
    ) {
        // Deferred requests re-apply first, in issue order, ahead of the
        // newly flushed batch; the two buffers trade places, so neither
        // allocates once warm.
        if let Some(c) = self.clients.get_mut(client) {
            if !c.deferred.is_empty() {
                c.deferred.append(buf);
                std::mem::swap(buf, &mut c.deferred);
            }
        }
        self.dirty.remove(&client);
        let held = hold.then(|| buf.iter().position(|(_, q)| q.expects_reply()));
        let mut apply = held.flatten().unwrap_or(buf.len());
        let mut stalled = false;
        if let Some(quota) = self.quota.filter(|&q| enforce_quota && apply > q) {
            // Never defer past a reply-bearing request: its cookie must
            // stay redeemable, so the split lands after the last one.
            let last_reply = buf[..apply].iter().rposition(|(_, q)| q.expects_reply());
            let split = last_reply.map_or(quota, |i| quota.max(i + 1));
            stalled = split < apply;
            apply = split.min(apply);
        }
        if apply < buf.len() {
            if let Some(c) = self.clients.get_mut(client) {
                c.deferred.extend(buf.drain(apply..));
                c.obs.wire.backpressure_stalls += u64::from(stalled);
                self.dirty.insert(client);
            }
        }
        if buf.is_empty() {
            return;
        }
        let n = buf.len() as u64;
        // The whole batch becomes one "flush" span keyed on its first
        // sequence number; a batch carrying drawing requests gets one
        // "rasterize" child covering the server-side pixel work. The
        // guards hold a clone of the tracer handle, so span bookkeeping
        // never borrows `self` during the apply loop below — fault
        // instants recorded mid-loop parent on these spans naturally.
        let first = buf.first().map_or(0, |(s, _)| *s);
        let last = buf.last().map_or(0, |(s, _)| *s);
        let draws = buf.iter().filter(|(_, q)| q.kind().is_drawing()).count();
        let Some(tracer) = self.clients.get(client).map(|c| &c.tracer) else {
            return;
        };
        let _flush_span = tracer.begin("flush", format_args!("seq {first}..{last}"), first);
        let _raster_span = (draws > 0)
            .then(|| tracer.begin("rasterize", format_args!("{draws} drawing requests"), first));
        let mut killed = false;
        for (seq, q) in buf.drain(..) {
            self.time += 1;
            let fault = self.fault_for_queued(client, seq, q.expects_reply());
            if let Some(action) = fault {
                self.record_fault(client, seq, action);
            }
            // A CreateWindow that never executes releases its id.
            if let (
                Some(FaultAction::Error(_) | FaultAction::DropRequest),
                QueuedRequest::CreateWindow { id, .. },
            ) = (fault, &q)
            {
                self.pending_windows.remove(id);
            }
            match fault {
                Some(FaultAction::KillConnection) => {
                    // The connection dies mid-flush: this request and the
                    // rest of the batch never reach the server.
                    killed = true;
                    break;
                }
                Some(FaultAction::Error(code)) => {
                    // The request fails instead of executing. A pipelined
                    // reply-bearing request carries the error back under
                    // its cookie; a one-way fails asynchronously (the
                    // default Xlib handler would print it and carry on).
                    if q.expects_reply() {
                        let err = XError {
                            code,
                            seq,
                            kind: Some(q.kind()),
                        };
                        self.store_reply(client, seq, ReplyValue::Error(err));
                    }
                }
                Some(FaultAction::DropRequest) => {}
                Some(FaultAction::DuplicateRequest) => {
                    self.apply_queued(client, q.clone());
                    self.apply_queued(client, q);
                }
                _ => self.apply_queued(client, q),
            }
        }
        if let Some(c) = self.clients.get_mut(client) {
            c.obs.counters.flushes += 1;
            c.obs.counters.max_batch = c.obs.counters.max_batch.max(n);
        }
        if killed {
            self.kill_client(client);
        }
    }

    /// Flushes every dirty client's output buffer in client-id order (the
    /// order is fixed so request interleaving — and therefore every
    /// counter — is deterministic run to run). Only clients with buffered
    /// or deferred work are visited, so a fleet of idle connections costs
    /// nothing per flush. Quota-deferred remainders stay deferred — each
    /// pass applies at most one quota's worth per client, which is the
    /// backpressure that keeps one hot client from starving the rest.
    pub fn flush_all(&mut self) {
        self.for_each_dirty(Server::flush_client);
    }

    /// Applies everything `client` has buffered or deferred, ignoring the
    /// quota: a blocked client has written out its whole queue.
    fn drain_client(&mut self, client: ClientId) {
        self.flush_inner(client, false, false);
    }

    /// The flush a wait for a reply not yet filed starts with: the two
    /// passes over every buffer that a read of events makes, except that
    /// in the first the waiter's requests from its first reply-bearing one
    /// on are held back, and the second, which gives quota-deferred work
    /// one more chunk, skips the waiter; then the waiter drains whole. So
    /// the request it waits for runs after every request the other
    /// clients had buffered, as a blocked client's request would, and the
    /// replies it has queued travel back in one batch.
    pub(crate) fn flush_for_reply(&mut self, client: ClientId) {
        self.for_each_dirty(|s, id| s.flush_inner(id, true, id == client));
        self.for_each_dirty(|s, id| {
            if id != client {
                s.flush_client(id);
            }
        });
        self.drain_client(client);
    }

    /// Drains every client completely, quota ignored — the "user observes
    /// the display" path: a screenshot must show the effect of every
    /// request already issued, deferred or not.
    pub fn drain_all(&mut self) {
        self.for_each_dirty(Server::drain_client);
    }

    /// Runs `f` once on each dirty client, in id order, walking the set in
    /// place: a client that `f` puts back in the set is not visited again
    /// in the same pass.
    fn for_each_dirty(&mut self, mut f: impl FnMut(&mut Server, ClientId)) {
        let mut next = ClientId(0);
        while let Some(&id) = self.dirty.range(next..).next() {
            next = ClientId(id.0 + 1);
            f(self, id);
        }
    }

    /// Executes one buffered request through its handler; a pipelined
    /// request files its reply in the client's reply table.
    fn apply_queued(&mut self, client: ClientId, q: QueuedRequest) {
        if let Some((seq, v)) = q.dispatch(self, client) {
            self.store_reply(client, seq, v);
        }
    }

    /// Drains the post-clip rasterized-pixel count accumulated on a
    /// window's surface and attributes it to the client whose drawing
    /// request just executed.
    fn drain_pixels(&mut self, client: ClientId, id: WindowId) {
        let drawn = match self.tree.get_mut(id) {
            Some(w) => w.surface.take_pixels_drawn(),
            None => return,
        };
        if drawn == 0 {
            return;
        }
        if let Some(c) = self.clients.get_mut(client) {
            c.obs.counters.pixels_drawn += drawn;
        }
    }

    fn store_reply(&mut self, client: ClientId, seq: u64, v: ReplyValue) {
        if let Some(c) = self.clients.get_mut(client) {
            c.replies.insert(seq, v);
        }
    }

    /// Removes and returns the reply filed under `seq`.
    pub(crate) fn take_reply(&mut self, client: ClientId, seq: u64) -> Option<ReplyValue> {
        let c = self.clients.get_mut(client)?;
        let v = c.replies.remove(&seq);
        if v.is_some() {
            c.pending_replies = c.pending_replies.saturating_sub(1);
        }
        v
    }

    /// Does this window id name a live window or one whose CreateWindow
    /// is still sitting in an output buffer?
    pub(crate) fn window_exists_or_pending(&self, id: WindowId) -> bool {
        self.tree.get(id).is_some() || self.pending_windows.contains_key(&id)
    }

    /// Hands `client` a window id ahead of the buffered CreateWindow that
    /// will use it (client-side XID allocation, as in real X).
    pub(crate) fn reserve_window_id(&mut self, client: ClientId) -> WindowId {
        let id = self.ids.alloc();
        self.pending_windows.insert(id, client);
        id
    }

    /// Structured observability state for one client.
    pub fn client_obs(&self, client: ClientId) -> Option<&ClientObs> {
        self.clients.get(client).map(|c| &c.obs)
    }

    /// The span tracer one client's flushes, events, faults and traced
    /// requests record into.
    pub fn client_tracer(&self, client: ClientId) -> Option<&rtk_obs::Tracer> {
        self.clients.get(client).map(|c| &c.tracer)
    }

    /// Mutable observability state for one client (trace toggling).
    pub fn client_obs_mut(&mut self, client: ClientId) -> Option<&mut ClientObs> {
        self.clients.get_mut(client).map(|c| &mut c.obs)
    }

    // ----- wire-transport counters ----------------------------------------------

    /// Counts one frame encoded on behalf of `client` (`bytes` includes
    /// the length prefix).
    pub(crate) fn note_wire_encode(&mut self, client: ClientId, bytes: usize) {
        if let Some(c) = self.clients.get_mut(client) {
            c.obs.wire.frames_encoded += 1;
            c.obs.wire.bytes_encoded += bytes as u64;
            c.obs.frame_bytes.record(bytes as u64);
        }
    }

    /// Counts one frame decoded on behalf of `client`.
    pub(crate) fn note_wire_decode(&mut self, client: ClientId, bytes: usize) {
        if let Some(c) = self.clients.get_mut(client) {
            c.obs.wire.frames_decoded += 1;
            c.obs.wire.bytes_decoded += bytes as u64;
        }
    }

    /// The server's reaction to unrecoverable damage on `client`'s byte
    /// stream: a frame-integrity failure (`checksum_errors`), a flush
    /// short of frames (`lost_frames`), or a flush stalled past the
    /// deadline (`watchdog_fires`). Ticks the counter `tick` picks and
    /// kills the connection, X's response to a protocol violation.
    pub(crate) fn kill_broken_stream(&mut self, c: ClientId, tick: fn(&mut WireStats) -> &mut u64) {
        if let Some(state) = self.clients.get_mut(c) {
            *tick(&mut state.obs.wire) += 1;
        }
        self.kill_client(c);
    }

    // ----- event delivery -----------------------------------------------------

    fn enqueue(&mut self, client: ClientId, event: Event) {
        let idx = match self.clients.get_mut(client) {
            Some(c) if !c.dead => {
                c.next_event += 1;
                // The enqueue is an instant keyed on the event index (the
                // same key the fault plan fires on); it parents on
                // whatever span is open — e.g. the flush that generated
                // an Expose.
                c.tracer.instant("event", event.name(), c.next_event);
                c.next_event
            }
            _ => return, // a dead connection receives nothing
        };
        // ICCCM guard: before this event can be queued, any held event due
        // by now — or targeting the same window — must go first, so
        // per-window order is never violated by an injected delay.
        self.release_delayed(client, Some(event.window()), idx);
        let action = self.fault_plan.as_mut().and_then(|p| {
            p.fire(client, idx, |a| {
                matches!(a, FaultAction::DelayEvent(_) | FaultAction::ReorderEvent)
            })
        });
        if let Some(a) = action {
            self.record_fault(client, idx, a);
        }
        let Some(c) = self.clients.get_mut(client) else {
            return;
        };
        c.obs.counters.events += 1;
        match action {
            Some(FaultAction::DelayEvent(hold)) => {
                c.delayed.push((idx + u64::from(hold.max(1)), event));
            }
            Some(FaultAction::ReorderEvent) => {
                // Swap with the previously queued event, but only when the
                // two target different windows (per-window order holds).
                let swap = c
                    .queue
                    .back()
                    .is_some_and(|prev| prev.window() != event.window());
                if swap {
                    let prev = c.queue.pop_back().unwrap();
                    c.queue.push_back(event);
                    c.queue.push_back(prev);
                } else {
                    c.queue.push_back(event);
                }
            }
            _ => c.queue.push_back(event),
        }
    }

    /// Moves held-back events into the delivery queue: everything whose
    /// release index has passed, everything targeting `window` (the
    /// same-window ordering guard), or — when `window` is `None` — every
    /// held event (a blocking poll: nothing is ever lost to a delay).
    fn release_delayed(&mut self, client: ClientId, window: Option<WindowId>, now: u64) {
        let Some(c) = self.clients.get_mut(client) else {
            return;
        };
        if c.delayed.is_empty() {
            return;
        }
        let mut kept = Vec::with_capacity(c.delayed.len());
        for (release_at, ev) in c.delayed.drain(..) {
            let due = release_at <= now || window.map_or(true, |w| ev.window() == w);
            if due {
                c.queue.push_back(ev);
            } else {
                kept.push((release_at, ev));
            }
        }
        c.delayed = kept;
    }

    /// Delivers `event` to every client that selected its mask bit on the
    /// event window; maskless (selection) events go to the window's owner.
    fn deliver(&mut self, event: Event) {
        let window = event.window();
        match event.mask_bit() {
            None => {
                if let Some(w) = self.tree.get(window) {
                    let owner = w.owner;
                    self.enqueue(owner, event);
                }
            }
            Some(bit) => {
                let Some(w) = self.tree.get(window) else {
                    return;
                };
                let targets: Vec<ClientId> = w
                    .event_masks
                    .iter()
                    .filter(|(_, m)| *m & bit != 0)
                    .map(|(c, _)| *c)
                    .collect();
                for c in targets {
                    self.enqueue(c, event.clone());
                }
            }
        }
    }

    /// Delivers a structure event to the window itself and, as a
    /// substructure event, to its parent.
    fn deliver_structure(&mut self, event: Event) {
        let window = event.window();
        self.deliver(event.clone());
        let Some(w) = self.tree.get(window) else {
            return;
        };
        let parent = w.parent;
        if parent.is_none() {
            return;
        }
        let Some(p) = self.tree.get(parent) else {
            return;
        };
        let targets: Vec<ClientId> = p
            .event_masks
            .iter()
            .filter(|(_, m)| *m & mask::SUBSTRUCTURE_NOTIFY != 0)
            .map(|(c, _)| *c)
            .collect();
        for c in targets {
            self.enqueue(c, event.clone());
        }
    }

    /// Finds the window (starting at `start` and walking up) on which some
    /// client selected `bit`; returns it, or `None` if nobody cares.
    fn propagation_target(&self, start: WindowId, bit: u32) -> Option<WindowId> {
        for w in self.tree.ancestors(start) {
            if let Some(win) = self.tree.get(w) {
                if win.any_mask() & bit != 0 {
                    return Some(w);
                }
            }
        }
        None
    }

    /// Next queued event for a client. A blocking poll is a release
    /// point for delayed events: the simulated network may hold an event
    /// back, but never loses it.
    pub fn poll_event(&mut self, client: ClientId) -> Option<Event> {
        self.release_delayed(client, None, u64::MAX);
        self.clients.get_mut(client)?.queue.pop_front()
    }

    /// Number of events a client has yet to take: its read-ahead, its
    /// server queue, and held-back delayed events (they are guaranteed
    /// to arrive by the next poll).
    pub fn pending(&self, client: ClientId) -> usize {
        self.clients
            .get(client)
            .map_or(0, |c| c.read_ahead.len() + c.queue.len() + c.delayed.len())
    }

    /// The client's read-ahead queue.
    pub(crate) fn read_ahead(&mut self, client: ClientId) -> Option<&mut VecDeque<Event>> {
        self.clients.get_mut(client).map(|c| &mut c.read_ahead)
    }

    // ----- window requests ------------------------------------------------------

    /// Creates window `id`, reserved by `Server::reserve_window_id`,
    /// owned by `client`. The window starts unmapped.
    #[allow(clippy::too_many_arguments)]
    pub fn create_window(
        &mut self,
        client: ClientId,
        id: WindowId,
        parent: WindowId,
        x: i32,
        y: i32,
        width: u32,
        height: u32,
        border_width: u32,
    ) {
        // Dropped silently if the parent vanished before the buffer
        // flushed, matching the X error semantics for a stale parent.
        self.pending_windows.remove(&id);
        if self.tree.get(parent).is_none() {
            return;
        }
        let bg = self.colormap.rgb(Window::BACKGROUND);
        let w = Window::new(id, parent, client, x, y, width, height, border_width, bg);
        self.tree.insert(w);
    }

    /// Destroys a window and its subtree, generating DestroyNotify.
    ///
    /// Delivery is O(interested clients), not O(all clients): each
    /// window's saved event masks are its interest index, captured before
    /// removal, and the event goes only to clients that selected
    /// StructureNotify on that window — plus its owner, who always hears
    /// about its own window's destruction. A client that cares about a
    /// peer's window (the `send` machinery watching a peer's comm window)
    /// registers interest with SelectInput like any other event.
    pub fn destroy_window(&mut self, _client: ClientId, id: WindowId) {
        if id == self.tree.root() || self.tree.get(id).is_none() {
            return;
        }
        // Capture each doomed window's interest set before removal — once
        // the windows are gone, so are their saved masks.
        let doomed = self.tree.subtree(id);
        let mut interest: Vec<(WindowId, Vec<ClientId>)> = Vec::with_capacity(doomed.len());
        for w in doomed {
            let Some(win) = self.tree.get(w) else {
                continue;
            };
            // BTreeSet: deterministic client order, owner deduplicated
            // against its own StructureNotify selection.
            let mut who: std::collections::BTreeSet<ClientId> = win
                .event_masks
                .iter()
                .filter(|(_, m)| *m & mask::STRUCTURE_NOTIFY != 0)
                .map(|(c, _)| *c)
                .collect();
            who.insert(win.owner);
            interest.push((w, who.into_iter().collect()));
        }
        let removed = self.tree.remove_subtree(id);
        for w in &removed {
            // Release any selections owned by the window.
            self.selections.retain(|_, o| o.window != *w);
            if self.focus == *w {
                self.focus = Xid::NONE;
            }
        }
        for (w, who) in interest {
            for c in who {
                self.enqueue(c, Event::DestroyNotify { window: w });
            }
        }
        self.refresh_pointer_window();
    }

    /// Maps a window, generating MapNotify and Expose as appropriate.
    pub fn map_window(&mut self, _client: ClientId, id: WindowId) {
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        if w.mapped {
            return;
        }
        w.mapped = true;
        self.deliver_structure(Event::MapNotify { window: id });
        if self.tree.viewable(id) {
            self.expose_subtree(id);
        }
        self.refresh_pointer_window();
    }

    /// Unmaps a window, generating UnmapNotify.
    pub fn unmap_window(&mut self, _client: ClientId, id: WindowId) {
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        if !w.mapped {
            return;
        }
        w.mapped = false;
        self.deliver_structure(Event::UnmapNotify { window: id });
        self.refresh_pointer_window();
    }

    /// Generates Expose for `id` and all its viewable descendants. The
    /// whole area of each window is damaged (any finer pending damage
    /// coalesces away into it) and flushed as a count-sequenced Expose
    /// batch — with no prior damage this degenerates to one full-area
    /// Expose with `count == 0`, the classic map/resize behavior.
    fn expose_subtree(&mut self, id: WindowId) {
        let mut stack = vec![id];
        while let Some(w) = stack.pop() {
            if !self.tree.viewable(w) {
                continue;
            }
            let (width, height, children) = {
                let win = self.tree.get(w).unwrap();
                (win.width, win.height, win.children.clone())
            };
            self.damage_window(w, Rect::new(0, 0, width, height));
            self.flush_damage(w);
            stack.extend(children);
        }
    }

    /// Records damage on a window: the rect is clamped to the window's
    /// interior and coalesced into its pending-damage list. The damage
    /// is not delivered until [`Server::flush_damage`]. Counted on the
    /// owner's observability state.
    pub fn damage_window(&mut self, id: WindowId, rect: Rect) {
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        let bounds = Rect::new(0, 0, w.width, w.height);
        let Some(clamped) = rect.intersect(&bounds) else {
            return;
        };
        let coalesced = w.damage.add(clamped);
        let owner = w.owner;
        if let Some(c) = self.clients.get_mut(owner) {
            c.obs.counters.damage_rects += 1;
            c.obs.counters.expose_coalesced += coalesced;
        }
    }

    /// Delivers a viewable window's pending damage as a sequence of
    /// Expose events with X11 `count` semantics: each event's `count`
    /// is the number of Expose events still to come for the window in
    /// this batch (N−1, N−2, …, 0). A window with no pending damage —
    /// or one that is not viewable — delivers nothing; damage on an
    /// unviewable window stays pending until it next becomes viewable.
    pub fn flush_damage(&mut self, id: WindowId) {
        if !self.tree.viewable(id) {
            return;
        }
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        let rects = w.damage.take();
        let n = rects.len();
        for (i, r) in rects.into_iter().enumerate() {
            self.deliver(Event::Expose {
                window: id,
                x: r.x,
                y: r.y,
                width: r.w,
                height: r.h,
                count: (n - 1 - i) as u32,
            });
        }
    }

    /// Moves/resizes a window; generates ConfigureNotify and, when the size
    /// changed, returns the surface to undrawn in the background colour
    /// (dropping its pixels) and exposes.
    #[allow(clippy::too_many_arguments)]
    pub fn configure_window(
        &mut self,
        _client: ClientId,
        id: WindowId,
        x: Option<i32>,
        y: Option<i32>,
        width: Option<u32>,
        height: Option<u32>,
        border_width: Option<u32>,
    ) {
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        let new_w = width.unwrap_or(w.width).max(1);
        let new_h = height.unwrap_or(w.height).max(1);
        let resized = new_w != w.width || new_h != w.height;
        w.x = x.unwrap_or(w.x);
        w.y = y.unwrap_or(w.y);
        w.width = new_w;
        w.height = new_h;
        w.border_width = border_width.unwrap_or(w.border_width);
        if resized {
            w.surface = Surface::undrawn(new_w, new_h, self.colormap.rgb(w.background));
        }
        let (nx, ny, bw) = (w.x, w.y, w.border_width);
        self.deliver_structure(Event::ConfigureNotify {
            window: id,
            x: nx,
            y: ny,
            width: new_w,
            height: new_h,
            border_width: bw,
        });
        if resized && self.tree.viewable(id) {
            self.expose_subtree(id);
        }
        self.refresh_pointer_window();
    }

    /// Reparents a window: unlinks it from its old parent and makes it the
    /// topmost child of `new_parent` at `(x, y)` (Tk uses this to hang
    /// menus off the root window so they can extend beyond their logical
    /// parent).
    pub fn reparent_window(
        &mut self,
        _client: ClientId,
        id: WindowId,
        new_parent: WindowId,
        x: i32,
        y: i32,
    ) {
        if id == self.tree.root() || self.tree.get(new_parent).is_none() {
            return;
        }
        let Some(w) = self.tree.get(id) else { return };
        let old_parent = w.parent;
        if let Some(p) = self.tree.get_mut(old_parent) {
            p.children.retain(|c| *c != id);
        }
        if let Some(p) = self.tree.get_mut(new_parent) {
            p.children.push(id);
        }
        if let Some(w) = self.tree.get_mut(id) {
            w.parent = new_parent;
            w.x = x;
            w.y = y;
        }
        self.refresh_pointer_window();
    }

    /// Raises a window to the top of its siblings.
    pub fn raise_window(&mut self, _client: ClientId, id: WindowId) {
        let Some(w) = self.tree.get(id) else { return };
        let parent = w.parent;
        if let Some(p) = self.tree.get_mut(parent) {
            p.children.retain(|c| *c != id);
            p.children.push(id);
        }
        if self.tree.viewable(id) {
            self.expose_subtree(id);
        }
        self.refresh_pointer_window();
    }

    /// Sets a client's event mask on a window.
    pub fn select_input(&mut self, client: ClientId, id: WindowId, event_mask: u32) {
        if let Some(w) = self.tree.get_mut(id) {
            if event_mask == 0 {
                w.event_masks.remove(&client);
            } else {
                w.event_masks.insert(client, event_mask);
            }
        }
    }

    /// Sets window attributes that affect rendering.
    pub fn set_window_background(&mut self, _client: ClientId, id: WindowId, pixel: Pixel) {
        if let Some(w) = self.tree.get_mut(id) {
            w.background = pixel;
        }
    }

    /// Sets the border pixel.
    pub fn set_window_border(&mut self, _client: ClientId, id: WindowId, pixel: Pixel) {
        if let Some(w) = self.tree.get_mut(id) {
            w.border_pixel = pixel;
        }
    }

    /// Marks a window override-redirect (popup menus).
    pub fn set_override_redirect(&mut self, _client: ClientId, id: WindowId, on: bool) {
        if let Some(w) = self.tree.get_mut(id) {
            w.override_redirect = on;
        }
    }

    /// Attaches a cursor to a window.
    pub fn define_cursor(&mut self, _client: ClientId, id: WindowId, cursor: CursorId) {
        if let Some(w) = self.tree.get_mut(id) {
            w.cursor = cursor;
        }
    }

    /// Parent and children (bottom-to-top) of a window.
    pub fn query_tree(&self, _client: ClientId, id: WindowId) -> Option<(WindowId, Vec<WindowId>)> {
        self.tree.get(id).map(|w| (w.parent, w.children.clone()))
    }

    /// Geometry of a window.
    pub fn get_geometry(&self, _client: ClientId, id: WindowId) -> Option<Geometry> {
        self.tree
            .get(id)
            .map(|w| (w.x, w.y, w.width, w.height, w.border_width))
    }

    /// Is the window viewable (mapped with all ancestors mapped)?
    pub fn is_viewable(&self, _client: ClientId, id: WindowId) -> bool {
        self.tree.viewable(id)
    }

    // ----- properties -------------------------------------------------------------

    /// Sets a property, generating PropertyNotify.
    pub fn change_property(&mut self, _client: ClientId, id: WindowId, atom: Atom, value: String) {
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        w.properties.insert(atom, value);
        let time = self.time;
        self.deliver(Event::PropertyNotify {
            window: id,
            atom,
            deleted: false,
            time,
        });
    }

    /// Appends one line to a property atomically (`PropModeAppend`, ICCCM):
    /// the concatenation happens server-side, so concurrent appenders can
    /// never lose each other's data to a get/change race. An existing
    /// non-empty value gets a `\n` separator first. Generates PropertyNotify.
    pub fn append_property(&mut self, _client: ClientId, id: WindowId, atom: Atom, value: String) {
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        let slot = w.properties.entry(atom).or_default();
        if !slot.is_empty() {
            slot.push('\n');
        }
        slot.push_str(&value);
        let time = self.time;
        self.deliver(Event::PropertyNotify {
            window: id,
            atom,
            deleted: false,
            time,
        });
    }

    /// Reads a property.
    pub fn get_property(&self, _client: ClientId, id: WindowId, atom: Atom) -> Option<String> {
        self.tree.get(id)?.properties.get(&atom).cloned()
    }

    /// Reads and deletes a property: X's GetProperty with delete=True.
    /// The read and the delete are one request, so a concurrent append
    /// can never land between them and be destroyed unread.
    pub fn take_property(&mut self, client: ClientId, id: WindowId, atom: Atom) -> Option<String> {
        let value = self.get_property(client, id, atom);
        self.delete_property(client, id, atom);
        value
    }

    /// Deletes a property, generating PropertyNotify (deleted).
    pub fn delete_property(&mut self, _client: ClientId, id: WindowId, atom: Atom) {
        let Some(w) = self.tree.get_mut(id) else {
            return;
        };
        if w.properties.remove(&atom).is_some() {
            let time = self.time;
            self.deliver(Event::PropertyNotify {
                window: id,
                atom,
                deleted: true,
                time,
            });
        }
    }

    // ----- selections ----------------------------------------------------------------

    /// Makes `window` the owner of `selection`; the previous owner gets
    /// SelectionClear (the ICCCM handshake of Section 3.6).
    pub fn set_selection_owner(&mut self, client: ClientId, selection: Atom, window: WindowId) {
        let time = self.time;
        if let Some(prev) = self.selections.get(&selection).copied() {
            if prev.window != window {
                self.deliver(Event::SelectionClear {
                    window: prev.window,
                    selection,
                    time,
                });
            }
        }
        if window.is_none() {
            self.selections.remove(&selection);
        } else {
            self.selections
                .insert(selection, SelectionOwner { window, client });
        }
    }

    /// Current owner window of a selection.
    pub fn get_selection_owner(&self, _client: ClientId, selection: Atom) -> WindowId {
        self.selections
            .get(&selection)
            .map(|o| o.window)
            .unwrap_or(Xid::NONE)
    }

    /// Asks the owner of `selection` to convert it to `target` and store
    /// the result in `property` on `requestor`. If there is no owner the
    /// requestor immediately gets a refusal SelectionNotify.
    pub fn convert_selection(
        &mut self,
        _client: ClientId,
        requestor: WindowId,
        selection: Atom,
        target: Atom,
        property: Atom,
    ) {
        let time = self.time;
        match self.selections.get(&selection).copied() {
            Some(owner) => {
                let ev = Event::SelectionRequest {
                    owner: owner.window,
                    requestor,
                    selection,
                    target,
                    property,
                    time,
                };
                self.enqueue(owner.client, ev);
            }
            None => {
                self.deliver(Event::SelectionNotify {
                    requestor,
                    selection,
                    target,
                    property: Atom::NONE,
                    time,
                });
            }
        }
    }

    /// Sent by a selection owner after servicing a SelectionRequest.
    pub fn send_selection_notify(
        &mut self,
        _client: ClientId,
        requestor: WindowId,
        selection: Atom,
        target: Atom,
        property: Atom,
    ) {
        let time = self.time;
        self.deliver(Event::SelectionNotify {
            requestor,
            selection,
            target,
            property,
            time,
        });
    }

    // ----- focus ------------------------------------------------------------------------

    /// Sets the input focus, generating FocusOut/FocusIn.
    pub fn set_input_focus(&mut self, _client: ClientId, id: WindowId) {
        if self.focus == id {
            return;
        }
        let old = self.focus;
        self.focus = id;
        if !old.is_none() && self.tree.get(old).is_some() {
            self.deliver(Event::FocusOut { window: old });
        }
        if !id.is_none() && self.tree.get(id).is_some() {
            self.deliver(Event::FocusIn { window: id });
        }
    }

    /// The window holding the input focus.
    pub fn get_input_focus(&self, _client: ClientId) -> WindowId {
        self.focus
    }

    // ----- drawing ---------------------------------------------------------------------

    fn gc_color(&self, gc: GcId) -> (Rgb, GcValues) {
        let values = self.gcs.get(gc).unwrap_or_default();
        (self.colormap.rgb(values.foreground), values)
    }

    /// Runs a drawing request on `id`'s surface, if any.
    fn paint(&mut self, id: WindowId, f: impl FnOnce(&mut Surface)) {
        if let Some(win) = self.tree.get_mut(id) {
            f(&mut win.surface);
        }
    }

    /// Fills a rectangle in window coordinates.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_rectangle(
        &mut self,
        client: ClientId,
        id: WindowId,
        gc: GcId,
        x: i32,
        y: i32,
        w: u32,
        h: u32,
    ) {
        let (color, _) = self.gc_color(gc);
        self.paint(id, |s| s.fill_rect(x, y, w, h, color));
        self.drain_pixels(client, id);
    }

    /// Draws a rectangle outline in the GC's line width.
    #[allow(clippy::too_many_arguments)]
    pub fn draw_rectangle(
        &mut self,
        client: ClientId,
        id: WindowId,
        gc: GcId,
        x: i32,
        y: i32,
        w: u32,
        h: u32,
    ) {
        let (color, values) = self.gc_color(gc);
        let lw = values.line_width.max(1);
        self.paint(id, |s| s.draw_rect(x, y, w, h, lw, color));
        self.drain_pixels(client, id);
    }

    /// Draws a line in the GC's line width.
    #[allow(clippy::too_many_arguments)]
    pub fn draw_line(
        &mut self,
        client: ClientId,
        id: WindowId,
        gc: GcId,
        x0: i32,
        y0: i32,
        x1: i32,
        y1: i32,
    ) {
        let (color, values) = self.gc_color(gc);
        let lw = values.line_width.max(1);
        self.paint(id, |s| s.draw_line(x0, y0, x1, y1, lw, color));
        self.drain_pixels(client, id);
    }

    /// Draws text with the GC's font, baseline at `(x, y)`.
    pub fn draw_string(
        &mut self,
        client: ClientId,
        id: WindowId,
        gc: GcId,
        x: i32,
        y: i32,
        text: String,
    ) {
        let (color, values) = self.gc_color(gc);
        let metrics = self.fonts.metrics(values.font).unwrap_or(FontMetrics {
            char_width: 6,
            ascent: 10,
            descent: 3,
        });
        self.paint(id, |s| s.draw_text(x, y, &text, metrics, color));
        self.drain_pixels(client, id);
    }

    /// Draws a bitmap's set bits in the GC foreground at `(x, y)`.
    pub fn copy_bitmap(
        &mut self,
        client: ClientId,
        id: WindowId,
        gc: GcId,
        x: i32,
        y: i32,
        bitmap: BitmapId,
    ) {
        let (color, _) = self.gc_color(gc);
        if let (Some(bm), Some(win)) = (self.bitmaps.get(bitmap), self.tree.get_mut(id)) {
            for by in 0..bm.height {
                for bx in 0..bm.width {
                    if bm.get(bx, by) {
                        win.surface.put_pixel(x + bx as i32, y + by as i32, color);
                    }
                }
            }
        }
        self.drain_pixels(client, id);
    }

    /// Clears an area to the window background (whole window when w/h are
    /// 0). Goes through `fill_rect` so an installed clip applies and the
    /// rasterized pixels count; a full-window request still clears the
    /// recorded text overlay even when the clip narrows the raster.
    pub fn clear_area(&mut self, client: ClientId, id: WindowId, x: i32, y: i32, w: u32, h: u32) {
        let Some(win) = self.tree.get_mut(id) else {
            return;
        };
        let (w, h) = (
            if w == 0 { win.width } else { w },
            if h == 0 { win.height } else { h },
        );
        win.surface
            .fill_rect(x, y, w, h, self.colormap.rgb(win.background));
        self.drain_pixels(client, id);
    }

    /// Copies a region within one window (the scroll blit). Moved pixels
    /// are not re-rasterized, so nothing counts toward `pixels_drawn`.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_area(
        &mut self,
        _client: ClientId,
        id: WindowId,
        src_x: i32,
        src_y: i32,
        w: u32,
        h: u32,
        dst_x: i32,
        dst_y: i32,
    ) {
        self.paint(id, |s| s.copy_within(src_x, src_y, w, h, dst_x, dst_y));
    }

    /// Installs a clip-rectangle list on a window (empty: unclipped).
    pub fn set_clip(&mut self, _client: ClientId, id: WindowId, rects: Vec<Rect>) {
        if let Some(w) = self.tree.get_mut(id) {
            w.surface.set_clip(rects);
        }
    }

    /// Removes a window's clip.
    pub fn clear_clip(&mut self, _client: ClientId, id: WindowId) {
        if let Some(w) = self.tree.get_mut(id) {
            w.surface.clear_clip();
        }
    }

    // ----- input synthesis (the test/driver interface) -------------------------------------

    /// Recomputes which window the pointer is in, generating Enter/Leave.
    fn refresh_pointer_window(&mut self) {
        let (x, y) = self.pointer;
        let new = self.tree.window_at(x, y);
        if new == self.pointer_window {
            return;
        }
        let old = self.pointer_window;
        self.pointer_window = new;
        let time = self.time;
        let st = self.buttons | self.modifiers;
        if self.tree.get(old).is_some() {
            let (ax, ay) = self.tree.abs_pos(old);
            self.deliver(Event::LeaveNotify {
                window: old,
                x: x - ax,
                y: y - ay,
                state: st,
                time,
            });
        }
        let (ax, ay) = self.tree.abs_pos(new);
        self.deliver(Event::EnterNotify {
            window: new,
            x: x - ax,
            y: y - ay,
            state: st,
            time,
        });
    }

    /// Moves the pointer to root coordinates, generating crossing and
    /// motion events.
    pub fn warp_pointer(&mut self, x: i32, y: i32) {
        self.time += 1;
        self.pointer = (x, y);
        self.refresh_pointer_window();
        // Motion propagates from the deepest window upward.
        let deepest = self.pointer_window;
        if let Some(target) = self.propagation_target(deepest, mask::POINTER_MOTION) {
            let (ax, ay) = self.tree.abs_pos(target);
            let time = self.time;
            let st = self.buttons | self.modifiers;
            self.deliver(Event::MotionNotify {
                window: target,
                x: x - ax,
                y: y - ay,
                x_root: x,
                y_root: y,
                state: st,
                time,
            });
        }
    }

    /// Current pointer position in root coordinates.
    pub fn pointer(&self) -> (i32, i32) {
        self.pointer
    }

    /// Presses a mouse button at the current pointer position.
    pub fn press_button(&mut self, button: u8) {
        self.time += 1;
        let (x, y) = self.pointer;
        let st = self.buttons | self.modifiers;
        self.buttons |= state::BUTTON1 << (button.saturating_sub(1).min(2));
        let deepest = self.pointer_window;
        if let Some(target) = self.propagation_target(deepest, mask::BUTTON_PRESS) {
            let (ax, ay) = self.tree.abs_pos(target);
            let time = self.time;
            self.deliver(Event::ButtonPress {
                window: target,
                button,
                x: x - ax,
                y: y - ay,
                x_root: x,
                y_root: y,
                state: st,
                time,
            });
        }
    }

    /// Releases a mouse button.
    pub fn release_button(&mut self, button: u8) {
        self.time += 1;
        let (x, y) = self.pointer;
        self.buttons &= !(state::BUTTON1 << (button.saturating_sub(1).min(2)));
        let st = self.buttons | self.modifiers;
        let deepest = self.pointer_window;
        if let Some(target) = self.propagation_target(deepest, mask::BUTTON_RELEASE) {
            let (ax, ay) = self.tree.abs_pos(target);
            let time = self.time;
            self.deliver(Event::ButtonRelease {
                window: target,
                button,
                x: x - ax,
                y: y - ay,
                x_root: x,
                y_root: y,
                state: st,
                time,
            });
        }
    }

    /// Sets the logical modifier state used for subsequent key events.
    pub fn set_modifiers(&mut self, modifiers: u32) {
        self.modifiers = modifiers;
    }

    /// Presses (and releases) a key. Key events go to the focus window if
    /// one is set, otherwise to the window under the pointer; either way
    /// they propagate upward to a selecting window.
    pub fn press_key(&mut self, keysym: Keysym) {
        self.time += 1;
        let start = if self.focus.is_none() || self.tree.get(self.focus).is_none() {
            self.pointer_window
        } else {
            self.focus
        };
        let st = self.buttons | self.modifiers;
        let (x, y) = self.pointer;
        if let Some(target) = self.propagation_target(start, mask::KEY_PRESS) {
            let (ax, ay) = self.tree.abs_pos(target);
            let time = self.time;
            self.deliver(Event::KeyPress {
                window: target,
                keysym: keysym.clone(),
                x: x - ax,
                y: y - ay,
                state: st,
                time,
            });
        }
        if let Some(target) = self.propagation_target(start, mask::KEY_RELEASE) {
            let (ax, ay) = self.tree.abs_pos(target);
            let time = self.time;
            self.deliver(Event::KeyRelease {
                window: target,
                keysym,
                x: x - ax,
                y: y - ay,
                state: st,
                time,
            });
        }
    }

    // ----- compositing ------------------------------------------------------------------

    /// Composites the visible window tree into a single screen image.
    pub fn compose_screen(&self) -> Surface {
        let root = self.tree.root();
        let rw = self.tree.get(root).unwrap();
        let mut screen = Surface::new(rw.width, rw.height, self.colormap.rgb(rw.background));
        self.compose_into(&mut screen, root);
        screen
    }

    /// FNV-1a over the composed screen's packed words, row-major: what
    /// equivalence suites compare at every quiescence point.
    pub fn screen_digest(&self) -> u64 {
        let fnv = |h: u64, &p: &u32| (h ^ p as u64).wrapping_mul(0x1000_0000_01b3);
        let screen = self.compose_screen();
        screen.raw_pixels().iter().fold(0xcbf2_9ce4_8422_2325, fnv)
    }

    /// Pixels held by window buffers, summed over windows; an undrawn
    /// surface holds none.
    pub fn surface_pixels(&self) -> u64 {
        let held = |w: &Window| w.surface.raw_pixels().len() as u64;
        self.tree.iter().map(held).sum()
    }

    fn compose_into(&self, screen: &mut Surface, id: WindowId) {
        let Some(w) = self.tree.get(id) else {
            return;
        };
        if !self.tree.viewable(id) {
            return;
        }
        let (ax, ay) = self.tree.abs_pos(id);
        if w.border_width > 0 {
            let b = w.border_width;
            screen.draw_rect(
                ax - b as i32,
                ay - b as i32,
                w.width + 2 * b,
                w.height + 2 * b,
                b,
                self.colormap.rgb(w.border_pixel),
            );
        }
        screen.blit(&w.surface, ax, ay);
        for &c in &w.children {
            self.compose_into(screen, c);
        }
    }

    /// Renders an ASCII-art screen dump: window frames become box-drawing
    /// characters and drawn text appears at its character cell. Used for
    /// the Figure 10 reproduction and debugging.
    pub fn ascii_dump(&self) -> String {
        const CELL_W: i32 = 6;
        const CELL_H: i32 = 8;
        let root = self.tree.root();
        let rw = self.tree.get(root).unwrap();
        let cols = (rw.width as i32 / CELL_W) as usize;
        let rows = (rw.height as i32 / CELL_H) as usize;
        let mut grid = vec![vec![' '; cols]; rows];
        let mut order: Vec<WindowId> = Vec::new();
        self.paint_order(root, &mut order);
        let mut any_min_col = cols;
        let mut any_max_col = 0usize;
        let mut any_min_row = rows;
        let mut any_max_row = 0usize;
        for id in order {
            let w = self.tree.get(id).unwrap();
            if id == root {
                continue;
            }
            let (ax, ay) = self.tree.abs_pos(id);
            let c0 = (ax / CELL_W).max(0) as usize;
            let r0 = (ay / CELL_H).max(0) as usize;
            let c1 = (((ax + w.width as i32) / CELL_W) as usize).min(cols.saturating_sub(1));
            let r1 = (((ay + w.height as i32) / CELL_H) as usize).min(rows.saturating_sub(1));
            if c0 >= cols || r0 >= rows || c1 <= c0 || r1 <= r0 {
                continue;
            }
            any_min_col = any_min_col.min(c0);
            any_max_col = any_max_col.max(c1);
            any_min_row = any_min_row.min(r0);
            any_max_row = any_max_row.max(r1);
            for r in [r0, r1] {
                for cell in grid[r][c0..=c1].iter_mut() {
                    *cell = '-';
                }
            }
            for row in grid.iter_mut().take(r1 + 1).skip(r0) {
                row[c0] = '|';
                row[c1] = '|';
            }
            grid[r0][c0] = '+';
            grid[r0][c1] = '+';
            grid[r1][c0] = '+';
            grid[r1][c1] = '+';
            // Interior: clear, then text overlay.
            for row in grid.iter_mut().take(r1).skip(r0 + 1) {
                for cell in row.iter_mut().take(c1).skip(c0 + 1) {
                    *cell = ' ';
                }
            }
            for (tx, ty, text) in &w.surface.texts {
                let tc = ((ax + tx) / CELL_W) as usize;
                // Clamp the text row into the box interior so that short
                // widgets (a one-line button) still show their label.
                let tr =
                    (((ay + ty) / CELL_H) as usize).clamp(r0 + 1, r1.saturating_sub(1).max(r0 + 1));
                if tr >= rows || tr >= r1 {
                    continue;
                }
                // Shift text starting at the border inward one cell.
                let start_col = tc.max(c0 + 1);
                for (n, ch) in text.chars().enumerate() {
                    let col = start_col + n;
                    if col < cols && col < c1 {
                        grid[tr][col] = ch;
                    }
                }
            }
        }
        if any_max_col <= any_min_col {
            return String::new();
        }
        let mut out = String::new();
        for row in grid.iter().take(any_max_row + 1).skip(any_min_row) {
            let line: String = row[any_min_col..=any_max_col].iter().collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }

    fn paint_order(&self, id: WindowId, out: &mut Vec<WindowId>) {
        if !self.tree.viewable(id) {
            return;
        }
        out.push(id);
        if let Some(w) = self.tree.get(id) {
            for &c in &w.children {
                self.paint_order(c, out);
            }
        }
    }

    // ----- resources: atoms, colours, fonts, cursors, bitmaps, GCs --------------------

    /// Interns an atom.
    pub fn intern_atom(&mut self, _client: ClientId, name: String) -> Atom {
        self.atoms.intern(&name)
    }

    /// The atom interned for `name`, if any. Interns nothing, so a
    /// reader such as an audit leaves the atom table as it found it.
    pub fn lookup_atom(&self, name: &str) -> Option<Atom> {
        self.atoms.lookup(name)
    }

    /// An atom's name.
    pub fn atom_name(&self, _client: ClientId, atom: Atom) -> Option<String> {
        self.atoms.name(atom).map(str::to_string)
    }

    /// Allocates an RGB colour.
    pub fn alloc_color(&mut self, _client: ClientId, rgb: Rgb) -> Pixel {
        self.colormap.alloc(rgb)
    }

    /// Allocates a named colour, returning its pixel and RGB.
    pub fn alloc_named_color(&mut self, _client: ClientId, name: String) -> Option<(Pixel, Rgb)> {
        let rgb = lookup_color(&name)?;
        Some((self.colormap.alloc(rgb), rgb))
    }

    /// The RGB stored in a pixel.
    pub fn query_color(&self, _client: ClientId, pixel: Pixel) -> Rgb {
        self.colormap.rgb(pixel)
    }

    /// Frees one reference to a pixel.
    pub fn free_color(&mut self, _client: ClientId, pixel: Pixel) {
        self.colormap.free(pixel);
    }

    /// Opens a font.
    pub fn open_font(&mut self, _client: ClientId, name: String) -> Option<FontId> {
        self.fonts.open(&name)
    }

    /// A font's metrics.
    pub fn font_metrics(&self, _client: ClientId, font: FontId) -> Option<FontMetrics> {
        self.fonts.metrics(font)
    }

    /// Creates a cursor from the cursor font.
    pub fn create_cursor(&mut self, _client: ClientId, name: String) -> Option<CursorId> {
        self.cursors.create(&name)
    }

    /// Stores an uploaded bitmap under its client-chosen id.
    pub fn create_bitmap(&mut self, _client: ClientId, id: BitmapId, bitmap: Bitmap) {
        self.bitmaps.create_with_id(id, bitmap);
    }

    /// The dimensions of an uploaded bitmap.
    pub fn bitmap_size(&self, _client: ClientId, id: BitmapId) -> Option<(u32, u32)> {
        self.bitmaps.get(id).map(|b| (b.width, b.height))
    }

    /// Frees a bitmap.
    pub fn free_bitmap(&mut self, _client: ClientId, id: BitmapId) {
        self.bitmaps.free(id);
    }

    /// Creates a GC under its client-chosen id, owned by `client`.
    pub fn create_gc(&mut self, client: ClientId, id: GcId, values: GcValues) {
        self.gcs.create_with_id(id, values);
        self.gc_owners.insert(id, client);
    }

    /// Changes a GC.
    pub fn change_gc(&mut self, _client: ClientId, gc: GcId, values: GcValues) {
        self.gcs.change(gc, values);
    }

    /// Frees a GC.
    pub fn free_gc(&mut self, _client: ClientId, gc: GcId) {
        self.gcs.free(gc);
        self.gc_owners.remove(&gc);
    }

    /// The client that created window `id`, if the window exists.
    pub fn window_owner(&self, id: WindowId) -> Option<ClientId> {
        self.tree.get(id).map(|w| w.owner)
    }

    /// Direct read access for tests: a window's surface.
    pub fn window_surface(&self, id: WindowId) -> Option<&Surface> {
        self.tree.get(id).map(|w| &w.surface)
    }

    // ----- post-run resource audit ------------------------------------------------

    /// The post-run resource reckoning: checks every reclamation
    /// invariant the kill/teardown paths promise and returns one line
    /// per violation (empty = clean). Call at quiescence — after a final
    /// dispatch/flush — since live clients may legitimately hold
    /// deferred work mid-run. Tk's audit (`tk::send::audit`, which the
    /// chaos harnesses run after every run and Tcl exposes as `obs
    /// audit`) runs this and adds its own `send` registry check.
    ///
    /// Invariants:
    /// * no window, window interest entry (saved event mask), selection,
    ///   GC, or reserved window id is owned by a dead client;
    /// * dead clients hold no buffered requests, read-ahead, queued or
    ///   delayed events, parked replies, or dirty-set membership;
    /// * no live client has a quota-deferred remainder (deferral is
    ///   backpressure, never loss — at quiescence it must have drained);
    /// * dead clients' span tracers have no open spans;
    /// * every window's surface has the window's size, and its buffer is
    ///   absent (undrawn) or exactly `width * height` pixels.
    pub fn audit(&self) -> Vec<String> {
        let mut v = Vec::new();
        let root = self.tree.root();
        for w in self.tree.iter() {
            let (s, area) = (&w.surface, w.width as usize * w.height as usize);
            let (size, held) = ((s.width(), s.height()), s.raw_pixels().len());
            if size != (w.width, w.height) || ![0, area].contains(&held) {
                v.push(format!(
                    "window {} holds {held} pixels in a {size:?} surface",
                    w.id.0
                ));
            }
            if w.id != root && !self.is_alive(w.owner) {
                v.push(format!(
                    "window {} owned by dead client {}",
                    w.id.0, w.owner.0
                ));
            }
            for c in w.event_masks.keys() {
                if !self.is_alive(*c) {
                    v.push(format!(
                        "window {} holds an interest entry for dead client {}",
                        w.id.0, c.0
                    ));
                }
            }
        }
        for (atom, owner) in &self.selections {
            if !self.is_alive(owner.client) {
                v.push(format!(
                    "selection {} owned by dead client {}",
                    self.atoms.name(*atom).unwrap_or("?"),
                    owner.client.0
                ));
            }
        }
        for (gc, owner) in &self.gc_owners {
            if !self.is_alive(*owner) {
                v.push(format!("gc {} owned by dead client {}", gc.0, owner.0));
            }
        }
        for (id, owner) in &self.pending_windows {
            if !self.is_alive(*owner) {
                v.push(format!(
                    "window id {} reserved by dead client {}",
                    id.0, owner.0
                ));
            }
        }
        for (id, c) in (1..).map(ClientId).zip(&self.clients.0) {
            if c.dead {
                if c.out.len > 0 {
                    v.push(format!(
                        "dead client {} still buffers {} requests",
                        id.0, c.out.len
                    ));
                }
                if !c.deferred.is_empty() {
                    v.push(format!(
                        "dead client {} still holds {} quota-deferred requests",
                        id.0,
                        c.deferred.len()
                    ));
                }
                if !c.read_ahead.is_empty() || !c.queue.is_empty() || !c.delayed.is_empty() {
                    v.push(format!(
                        "dead client {} still has events ({} read ahead, {} queued, {} delayed)",
                        id.0,
                        c.read_ahead.len(),
                        c.queue.len(),
                        c.delayed.len()
                    ));
                }
                if !c.replies.is_empty() || c.pending_replies != 0 {
                    v.push(format!(
                        "dead client {} still has {} parked / {} pending replies",
                        id.0,
                        c.replies.len(),
                        c.pending_replies
                    ));
                }
                if self.dirty.contains(&id) {
                    v.push(format!("dead client {} is still in the dirty set", id.0));
                }
                let open = c.tracer.open_count();
                if open > 0 {
                    v.push(format!("dead client {} has {open} unclosed spans", id.0));
                }
            } else if !c.deferred.is_empty() {
                v.push(format!(
                    "live client {} still holds {} quota-deferred requests at quiescence",
                    id.0,
                    c.deferred.len()
                ));
            }
        }
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Creates a window the way a connection does: reserve its id,
    /// then run the CreateWindow request.
    #[allow(clippy::too_many_arguments)]
    fn create(
        s: &mut Server,
        c: ClientId,
        parent: WindowId,
        x: i32,
        y: i32,
        width: u32,
        height: u32,
        border_width: u32,
    ) -> WindowId {
        let id = s.reserve_window_id(c);
        s.create_window(c, id, parent, x, y, width, height, border_width);
        id
    }

    fn setup() -> (Server, ClientId) {
        let mut s = Server::new();
        let c = s.connect();
        (s, c)
    }

    #[test]
    fn create_and_map_generates_expose() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 10, 10, 100, 50, 1);
        s.select_input(c, w, mask::EXPOSURE | mask::STRUCTURE_NOTIFY);
        s.map_window(c, w);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert!(events.iter().any(|e| matches!(e, Event::MapNotify { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::Expose { .. })));
    }

    #[test]
    fn unmapped_window_gets_no_expose() {
        let (mut s, c) = setup();
        let root = s.root();
        let parent = create(&mut s, c, root, 0, 0, 100, 100, 0);
        let child = create(&mut s, c, parent, 0, 0, 50, 50, 0);
        s.select_input(c, child, mask::EXPOSURE);
        s.map_window(c, child); // parent still unmapped: not viewable
        assert_eq!(s.pending(c), 0);
        s.map_window(c, parent); // now the child becomes viewable
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Expose { window, .. } if *window == child)));
    }

    #[test]
    fn configure_resize_exposes_and_notifies() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 50, 50, 0);
        s.select_input(c, w, mask::EXPOSURE | mask::STRUCTURE_NOTIFY);
        s.map_window(c, w);
        while s.poll_event(c).is_some() {}
        s.configure_window(c, w, Some(5), None, Some(80), Some(60), None);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::ConfigureNotify {
                x: 5,
                width: 80,
                height: 60,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(e, Event::Expose { .. })));
        assert_eq!(s.get_geometry(c, w).unwrap(), (5, 0, 80, 60, 0));
    }

    #[test]
    fn destroy_notifies_and_removes() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 50, 50, 0);
        let kid = create(&mut s, c, w, 0, 0, 10, 10, 0);
        s.destroy_window(c, w);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        let destroyed: Vec<WindowId> = events
            .iter()
            .filter_map(|e| match e {
                Event::DestroyNotify { window } => Some(*window),
                _ => None,
            })
            .collect();
        assert_eq!(destroyed, vec![kid, w]);
        assert!(s.get_geometry(c, w).is_none());
    }

    #[test]
    fn enter_leave_on_pointer_motion() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 100, 100, 50, 50, 0);
        s.select_input(c, w, mask::ENTER_WINDOW | mask::LEAVE_WINDOW);
        s.map_window(c, w);
        s.warp_pointer(125, 125);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::EnterNotify { window, .. } if *window == w)));
        s.warp_pointer(10, 10);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::LeaveNotify { window, .. } if *window == w)));
    }

    #[test]
    fn button_press_propagates_to_selecting_ancestor() {
        let (mut s, c) = setup();
        let root = s.root();
        let parent = create(&mut s, c, root, 0, 0, 200, 200, 0);
        let child = create(&mut s, c, parent, 50, 50, 100, 100, 0);
        s.select_input(c, parent, mask::BUTTON_PRESS);
        s.map_window(c, parent);
        s.map_window(c, child);
        s.warp_pointer(75, 75); // inside child
        s.press_button(1);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        let press = events
            .iter()
            .find_map(|e| match e {
                Event::ButtonPress { window, x, y, .. } => Some((*window, *x, *y)),
                _ => None,
            })
            .expect("press delivered");
        assert_eq!(press, (parent, 75, 75)); // coordinates relative to parent
    }

    #[test]
    fn key_goes_to_focus_window() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 50, 50, 0);
        s.select_input(c, w, mask::KEY_PRESS);
        s.map_window(c, w);
        s.set_input_focus(c, w);
        s.press_key(Keysym::from_char('a'));
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert!(events.iter().any(
            |e| matches!(e, Event::KeyPress { window, keysym, .. } if *window == w && keysym.name == "a")
        ));
    }

    #[test]
    fn property_roundtrip_and_notify() {
        let (mut s, c) = setup();
        let root = s.root();
        s.select_input(c, root, mask::PROPERTY_CHANGE);
        let atom = s.atoms.intern("MY_PROP");
        s.change_property(c, root, atom, "hello".into());
        assert_eq!(s.get_property(c, root, atom), Some("hello".into()));
        let ev = s.poll_event(c).unwrap();
        assert!(matches!(ev, Event::PropertyNotify { deleted: false, .. }));
        s.delete_property(c, root, atom);
        assert_eq!(s.get_property(c, root, atom), None);
        let ev = s.poll_event(c).unwrap();
        assert!(matches!(ev, Event::PropertyNotify { deleted: true, .. }));
    }

    #[test]
    fn append_property_concatenates_with_newline_and_notifies() {
        let (mut s, c) = setup();
        let root = s.root();
        s.select_input(c, root, mask::PROPERTY_CHANGE);
        let atom = s.atoms.intern("QUEUE");
        s.append_property(c, root, atom, "first".into());
        assert_eq!(s.get_property(c, root, atom), Some("first".into()));
        s.append_property(c, root, atom, "second".into());
        assert_eq!(s.get_property(c, root, atom), Some("first\nsecond".into()));
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::PropertyNotify { deleted: false, .. }))
                .count(),
            2
        );
        // Appending to a missing window is a no-op, not a crash.
        s.append_property(c, Xid(0xdead), atom, "lost".into());
    }

    #[test]
    fn selection_handshake() {
        let mut s = Server::new();
        let c1 = s.connect();
        let c2 = s.connect();
        let root = s.root();
        let w1 = create(&mut s, c1, root, 0, 0, 10, 10, 0);
        let w2 = create(&mut s, c2, root, 20, 0, 10, 10, 0);
        let primary = s.atoms.intern("PRIMARY");
        let string = s.atoms.intern("STRING");
        let prop = s.atoms.intern("RESULT");

        s.set_selection_owner(c1, primary, w1);
        assert_eq!(s.get_selection_owner(c1, primary), w1);

        // c2 requests conversion; c1 gets SelectionRequest.
        s.convert_selection(c2, w2, primary, string, prop);
        let req = s.poll_event(c1).unwrap();
        assert!(matches!(req, Event::SelectionRequest { .. }));

        // c1 services it.
        s.change_property(c1, w2, prop, "the selection".into());
        s.send_selection_notify(c1, w2, primary, string, prop);
        let notify = std::iter::from_fn(|| s.poll_event(c2))
            .find(|e| matches!(e, Event::SelectionNotify { .. }))
            .unwrap();
        if let Event::SelectionNotify { property, .. } = notify {
            assert_eq!(
                s.get_property(c2, w2, property),
                Some("the selection".into())
            );
        }

        // New owner: old owner gets SelectionClear.
        s.set_selection_owner(c2, primary, w2);
        let clear = std::iter::from_fn(|| s.poll_event(c1))
            .find(|e| matches!(e, Event::SelectionClear { .. }))
            .unwrap();
        assert_eq!(clear.window(), w1);
    }

    #[test]
    fn convert_with_no_owner_refuses() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 10, 10, 0);
        let sel = s.atoms.intern("PRIMARY");
        let tgt = s.atoms.intern("STRING");
        let prop = s.atoms.intern("R");
        s.convert_selection(c, w, sel, tgt, prop);
        let ev = s.poll_event(c).unwrap();
        assert!(matches!(
            ev,
            Event::SelectionNotify {
                property: Atom::NONE,
                ..
            }
        ));
    }

    #[test]
    fn focus_events() {
        let (mut s, c) = setup();
        let root = s.root();
        let a = create(&mut s, c, root, 0, 0, 10, 10, 0);
        let b = create(&mut s, c, root, 20, 0, 10, 10, 0);
        s.select_input(c, a, mask::FOCUS_CHANGE);
        s.select_input(c, b, mask::FOCUS_CHANGE);
        s.set_input_focus(c, a);
        s.set_input_focus(c, b);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::FocusIn { window } if *window == a)));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::FocusOut { window } if *window == a)));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::FocusIn { window } if *window == b)));
    }

    #[test]
    fn drawing_affects_surface_and_compose() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 10, 10, 50, 50, 0);
        s.map_window(c, w);
        let red = s.alloc_named_color(c, "red".into()).unwrap().0;
        let gc = s.gcs.create(GcValues {
            foreground: red,
            ..Default::default()
        });
        s.fill_rectangle(c, w, gc, 0, 0, 50, 50);
        let screen = s.compose_screen();
        assert_eq!(screen.pixel(10, 10), Rgb::new(255, 0, 0));
        assert_eq!(screen.pixel(9, 9), Rgb::new(255, 255, 255));
    }

    #[test]
    fn stats_count_requests_and_round_trips() {
        let (mut s, c) = setup();
        let root = s.root();
        s.note_issue(c, RequestKind::MapWindow, false, root, 1, None);
        s.note_issue(c, RequestKind::GetGeometry, true, root, 2, None);
        let st = s.stats(c);
        assert_eq!(st.requests, 2);
        assert_eq!(st.round_trips, 1);
        s.reset_stats();
        assert_eq!(s.stats(c), ClientStats::default());
    }

    #[test]
    fn raise_window_changes_stacking() {
        let (mut s, c) = setup();
        let root = s.root();
        let a = create(&mut s, c, root, 0, 0, 50, 50, 0);
        let b = create(&mut s, c, root, 0, 0, 50, 50, 0);
        s.map_window(c, a);
        s.map_window(c, b);
        s.warp_pointer(25, 25);
        // b was created later so it is on top.
        assert_eq!(s.query_tree(c, root).unwrap().1, vec![a, b]);
        s.raise_window(c, a);
        assert_eq!(s.query_tree(c, root).unwrap().1, vec![b, a]);
    }

    #[test]
    fn reparent_moves_window_to_new_parent() {
        let (mut s, c) = setup();
        let root = s.root();
        let a = create(&mut s, c, root, 0, 0, 50, 50, 0);
        let w = create(&mut s, c, a, 5, 5, 10, 10, 0);
        s.reparent_window(c, w, root, 200, 100);
        let (parent, _) = s.query_tree(c, w).unwrap();
        assert_eq!(parent, root);
        assert_eq!(s.get_geometry(c, w).unwrap(), (200, 100, 10, 10, 0));
        assert!(!s.query_tree(c, a).unwrap().1.contains(&w));
        assert!(s.query_tree(c, root).unwrap().1.contains(&w));
    }

    #[test]
    fn reparented_window_is_hit_by_pointer() {
        let (mut s, c) = setup();
        let root = s.root();
        let a = create(&mut s, c, root, 0, 0, 20, 20, 0);
        let menu = create(&mut s, c, a, 0, 0, 40, 40, 0);
        s.map_window(c, a);
        s.reparent_window(c, menu, root, 300, 300);
        s.map_window(c, menu);
        // The point is far outside `a`, but inside the reparented window.
        assert_eq!(s.tree.window_at(310, 310), menu);
    }

    #[test]
    fn reparent_rejects_root_and_unknown_parents() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 10, 10, 0);
        s.reparent_window(c, root, w, 0, 0); // no-op
        assert_eq!(s.query_tree(c, root).unwrap().0, Xid::NONE);
        s.reparent_window(c, w, Xid(9999), 0, 0); // no-op
        assert_eq!(s.query_tree(c, w).unwrap().0, root);
    }

    #[test]
    fn compose_draws_borders() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 10, 10, 20, 20, 2);
        let red = s.alloc_named_color(c, "red".into()).unwrap().0;
        s.set_window_border(c, w, red);
        s.map_window(c, w);
        let screen = s.compose_screen();
        // The window is at (10,10) with border 2, so its interior origin
        // is (12,12) and the border ring covers (10,10) and (11,11).
        assert_eq!(screen.pixel(10, 10), Rgb::new(255, 0, 0));
        assert_eq!(screen.pixel(11, 11), Rgb::new(255, 0, 0));
        assert_ne!(screen.pixel(9, 9), Rgb::new(255, 0, 0));
    }

    #[test]
    fn unmapped_windows_are_not_composited() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 50, 50, 0);
        let red = s.alloc_named_color(c, "red".into()).unwrap().0;
        s.set_window_background(c, w, red);
        s.map_window(c, w);
        s.clear_area(c, w, 0, 0, 0, 0);
        assert_eq!(s.compose_screen().pixel(5, 5), Rgb::new(255, 0, 0));
        s.unmap_window(c, w);
        assert_eq!(s.compose_screen().pixel(5, 5), Rgb::new(255, 255, 255));
    }

    /// A mapped window nobody draws on composites as its background and
    /// holds no buffer. Drawing allocates exactly its area and a resize
    /// drops it again; the audit is clean after every step.
    #[test]
    fn surfaces_hold_pixels_only_once_drawn() {
        let (mut s, c) = setup();
        let root = s.root();
        let (red, blue) = (Rgb::new(255, 0, 0), Rgb::new(0, 0, 255));
        let pixel = s.alloc_named_color(c, "red".into()).unwrap().0;
        let gc = s.gcs.create(GcValues {
            foreground: pixel,
            ..Default::default()
        });
        let w = create(&mut s, c, root, 10, 10, 30, 20, 0);
        let bg = s.alloc_named_color(c, "blue".into()).unwrap().0;
        s.set_window_background(c, w, bg);
        s.map_window(c, w);
        assert_eq!(s.compose_screen().pixel(10, 10), Rgb::new(255, 255, 255));
        for (width, height) in [(50, 10), (7, 40), (7, 40), (64, 64)] {
            assert_eq!(s.audit(), Vec::<String>::new());
            s.fill_rectangle(c, w, gc, 2, 2, 3, 3);
            let (ww, wh) = (s.tree.get(w).unwrap().width, s.tree.get(w).unwrap().height);
            assert_eq!(s.surface_pixels(), (ww * wh) as u64);
            assert_eq!(s.compose_screen().pixel(12, 12), red);
            assert_eq!(s.audit(), Vec::<String>::new());
            s.configure_window(c, w, None, None, Some(width), Some(height), None);
            assert_eq!(s.audit(), Vec::<String>::new());
            let resized = (width, height) != (ww, wh);
            assert_eq!(s.surface_pixels() == 0, resized);
            if resized {
                let screen = s.compose_screen();
                assert_eq!(screen.pixel(12, 12), blue);
                assert_eq!(screen.pixel(10 + width as i32 - 1, 10), blue);
                assert_eq!(screen.pixel(10 + width as i32, 10), Rgb::new(255, 255, 255));
            }
        }
    }

    /// `screen_digest` is FNV-1a over the composed screen: the
    /// `hash_surface(&screenshot())` of the golden-frame suite, and what
    /// `damage_equivalence` compares at its quiescence points.
    #[test]
    fn screen_digest_hashes_the_composed_screen() {
        let (mut s, c) = setup();
        let root = s.root();
        let red = s.alloc_named_color(c, "red".into()).unwrap().0;
        let gc = s.gcs.create(GcValues {
            foreground: red,
            ..Default::default()
        });
        let a = create(&mut s, c, root, 10, 10, 40, 30, 2);
        let b = create(&mut s, c, a, 5, 5, 20, 10, 1);
        s.map_window(c, a);
        s.map_window(c, b);
        s.draw_string(c, a, gc, 2, 12, "Hi".into());
        s.fill_rectangle(c, b, gc, 3, 3, 4, 4);
        let fnv = |screen: &Surface| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &p in screen.raw_pixels() {
                h = (h ^ p as u64).wrapping_mul(0x1000_0000_01b3);
            }
            h
        };
        let before = s.screen_digest();
        assert_eq!(before, fnv(&s.compose_screen()));
        s.fill_rectangle(c, a, gc, 0, 0, 1, 1);
        assert_ne!(s.screen_digest(), before);
    }

    fn exposes(events: &[Event]) -> Vec<(i32, i32, u32, u32, u32)> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Expose {
                    x,
                    y,
                    width,
                    height,
                    count,
                    ..
                } => Some((*x, *y, *width, *height, *count)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn expose_count_sequences_damage_rects() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 100, 100, 0);
        s.select_input(c, w, mask::EXPOSURE);
        s.map_window(c, w);
        // Map with no prior damage: one full-area Expose, count 0 — the
        // shape every count == 0 waiter in the toolkit relies on.
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert_eq!(exposes(&events), vec![(0, 0, 100, 100, 0)]);

        // Two disjoint damage rects flush as a batch whose counts step
        // down to 0 (X11 Expose sequencing).
        s.damage_window(w, Rect::new(5, 5, 10, 10));
        s.damage_window(w, Rect::new(40, 40, 10, 10));
        s.flush_damage(w);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        let batch = exposes(&events);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].4, 1);
        assert_eq!(batch[1].4, 0);
    }

    #[test]
    fn map_coalesces_pending_damage_into_full_expose() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 80, 60, 0);
        s.select_input(c, w, mask::EXPOSURE);
        // Damage before the window is viewable stays pending...
        s.damage_window(w, Rect::new(3, 3, 5, 5));
        s.flush_damage(w); // not viewable: delivers nothing
        assert_eq!(s.pending(c), 0);
        // ...and mapping swallows it into the full-area Expose.
        s.map_window(c, w);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert_eq!(exposes(&events), vec![(0, 0, 80, 60, 0)]);
    }

    #[test]
    fn damage_clamps_to_window_and_counts_on_owner() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 0, 0, 50, 50, 0);
        s.select_input(c, w, mask::EXPOSURE);
        s.map_window(c, w);
        while s.poll_event(c).is_some() {}
        // Out-of-bounds damage is dropped; straddling damage is clamped.
        s.damage_window(w, Rect::new(100, 100, 10, 10));
        s.damage_window(w, Rect::new(40, 40, 20, 20));
        s.flush_damage(w);
        let events: Vec<Event> = std::iter::from_fn(|| s.poll_event(c)).collect();
        assert_eq!(exposes(&events), vec![(40, 40, 10, 10, 0)]);
        let obs = s.client_obs(c).unwrap();
        assert!(obs.counters.damage_rects >= 1);
    }

    #[test]
    fn ascii_dump_shows_boxes_and_text() {
        let (mut s, c) = setup();
        let root = s.root();
        let w = create(&mut s, c, root, 16, 32, 200, 100, 1);
        s.map_window(c, w);
        let font = s.open_font(c, "fixed".into()).unwrap();
        let gc = s.gcs.create(GcValues {
            font,
            ..Default::default()
        });
        s.draw_string(c, w, gc, 40, 50, "Hello".into());
        let dump = s.ascii_dump();
        assert!(dump.contains('+'), "dump:\n{dump}");
        assert!(dump.contains("Hello"), "dump:\n{dump}");
    }

    // --- the client read-ahead ---

    /// A codec-on display whose one client (id 1) selected pointer motion
    /// on two side-by-side windows, with `plan` installed and `n`
    /// MotionNotify events queued: the pointer sweeps x = 7i mod 1000,
    /// so it crosses between the windows every ~71 events.
    fn motion_queue(n: u64, plan: FaultPlan) -> (crate::Display, crate::Connection) {
        let d = crate::Display::new();
        d.set_wire(true);
        let c = d.connect();
        for x in [0, 500] {
            let w = c.create_window(c.root(), x, 0, 500, 40, 0).unwrap();
            c.select_input(w, mask::POINTER_MOTION);
            c.map_window(w);
        }
        d.with_server(|s| {
            s.install_fault_plan(plan);
            for i in 0..n {
                s.warp_pointer((7 * i % 1000) as i32, 20);
            }
        });
        (d, c)
    }

    /// `(read-ahead, server queue, delayed)` lengths for `client`.
    fn event_queues(d: &crate::Display, client: ClientId) -> (usize, usize, usize) {
        d.peek_server(|s| {
            let c = s.clients.get(client).unwrap();
            (c.read_ahead.len(), c.queue.len(), c.delayed.len())
        })
    }

    fn motion_time(ev: &Event) -> u64 {
        match ev {
            Event::MotionNotify { time, .. } => *time,
            other => panic!("expected only motion, got {other:?}"),
        }
    }

    #[test]
    fn event_batches_drain_bounded_and_in_order() {
        use crate::wire::{EVENT_BATCH, MAX_BUFFERED};
        let (d, c) = motion_queue(1000, FaultPlan::default());
        let client = c.client_id();
        assert_eq!(event_queues(&d, client), (0, 1000, 0));
        let mut times = Vec::new();
        let mut refills = 0;
        loop {
            let before = c.wire_stats();
            let ev = c.poll_event();
            let after = c.wire_stats();
            if after.frames_encoded > before.frames_encoded {
                refills += 1;
                // Encoded since: the whole batch of event frames.
                let response = after.bytes_encoded - before.bytes_encoded;
                assert!(response < MAX_BUFFERED as u64, "{response}");
            }
            let (ahead, queued, delayed) = event_queues(&d, client);
            assert_eq!(c.pending(), ahead + queued + delayed);
            match ev {
                Some(ev) => times.push(motion_time(&ev)),
                None => break,
            }
        }
        assert_eq!(times.len(), 1000);
        assert!(times.windows(2).all(|t| t[0] < t[1]), "enqueue order");
        // One refill per full or partial batch; the empty read that ends
        // the drain ships nothing.
        assert_eq!(refills, 1000usize.div_ceil(EVENT_BATCH));
    }

    #[test]
    fn event_batches_release_delayed_events_like_single_polls() {
        // Events 72 and 929 end a run on the left window: the right
        // window's run overtakes them, and 929 is held past every
        // enqueue, so only a poll frees it. The other two are freed at
        // once by the next event on their own window.
        let plan = || {
            FaultPlan::default()
                .delay_at(1, 72, 30)
                .delay_at(1, 140, 3)
                .delay_at(1, 600, 80)
                .delay_at(1, 929, 500)
        };
        let (d, c) = motion_queue(1000, plan());
        let (ahead, queued, delayed) = event_queues(&d, c.client_id());
        assert_eq!((ahead, delayed), (0, 1), "only the last hold is pending");
        assert_eq!(c.pending(), queued + delayed);
        let batched: Vec<Event> = std::iter::from_fn(|| c.poll_event()).collect();
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("delay", 4)]);
        // The oracle: the same queue taken one event per server poll.
        let (d, c) = motion_queue(1000, plan());
        let single: Vec<Event> =
            d.peek_server(|s| std::iter::from_fn(|| s.poll_event(c.client_id())).collect());
        assert_eq!(batched, single);
        assert_eq!(batched.len(), 1000);
        let times: Vec<u64> = batched.iter().map(motion_time).collect();
        assert!(times.windows(2).any(|t| t[0] > t[1]), "a delay reordered");
        for w in [batched[0].window(), batched[999].window()] {
            let on_w: Vec<u64> = batched
                .iter()
                .filter(|e| e.window() == w)
                .map(motion_time)
                .collect();
            assert!(on_w.windows(2).all(|t| t[0] < t[1]), "per-window order");
        }
    }

    #[test]
    fn a_kill_empties_the_read_ahead_and_the_audit_checks_it() {
        let (d, c) = motion_queue(5, FaultPlan::default());
        let client = c.client_id();
        assert!(c.poll_event().is_some());
        assert_eq!(event_queues(&d, client), (4, 0, 0));
        d.peek_server(|s| s.kill_client(client));
        assert_eq!(event_queues(&d, client), (0, 0, 0));
        assert_eq!(c.poll_event(), None);
        assert_eq!(d.with_server(|s| s.audit()), Vec::<String>::new());
        // A dead client that still held read-ahead would be reported.
        d.peek_server(|s| {
            let ev = Event::FocusIn { window: s.root() };
            s.clients.get_mut(client).unwrap().read_ahead.push_back(ev);
            assert_eq!(
                s.audit(),
                vec!["dead client 1 still has events (1 read ahead, 0 queued, 0 delayed)"]
            );
        });
    }
}
