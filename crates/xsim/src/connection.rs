//! Client-side handles: [`Display`] (the shared server) and [`Connection`]
//! (one client's protocol endpoint).
//!
//! A `Connection` mirrors Xlib's calling surface, including its buffered
//! transport: requests are queued in a per-client output buffer and only
//! reach the server at a *flush point* — an explicit [`flush`], the
//! buffer filling, a wait for a reply, or reading events with an empty
//! read-ahead. A reply-bearing request has one form, as in x11rb: it is
//! queued like any other and returns a sequence-numbered [`Cookie`],
//! redeemed with [`wait`]. Its `send_*` method returns the cookie, so
//! several replies travel back in one blocking wait; its blocking method
//! is the same request and its wait, under one lock. Events come the
//! other way in batches, as with Xlib's event queue: [`poll_event`]
//! answers from the client's read-ahead, and when that is empty it
//! flushes and takes every queued event, up to `wire::EVENT_BATCH`, with
//! no request to the server. The counters power the Table II
//! client/server split and the Section 3.3 cache-ablation experiment.
//!
//! The request methods (one-way, and a reply row's blocking and `send_*`
//! pair) are generated from the request table in `crate::wire`, which
//! declares each request once. Written here by hand are the three that
//! reserve a resource id on the client side (`create_window`,
//! `create_gc`, `create_bitmap`), cookie redemption, events, and
//! flushing.
//!
//! Everything below the calling surface goes through one transport
//! (`crate::wire`): the server behind a mutex, so apps on several
//! threads can drive one display, with the codec on (the default, every
//! request encoded into length-prefixed byte frames) or off (typed
//! values, the semantics oracle under `RTK_NO_WIRE=1`). Issue-time
//! accounting, the output buffer and the batch apply are shared, so
//! counters, fault keying, and replies are byte-identical either way —
//! see docs/PROTOCOL.md.
//!
//! [`flush`]: Connection::flush
//! [`wait`]: Connection::wait
//! [`poll_event`]: Connection::poll_event

use std::marker::PhantomData;

use crate::event::{Event, Keysym};
use crate::fault::{XError, XErrorCode};
use crate::gc::GcValues;
use crate::ids::{ClientId, GcId, WindowId, Xid};
use crate::obs::{ClientObs, ClientStats, RequestKind, WireStats};
use crate::render::Surface;
use crate::server::Server;
use crate::wire::Transport;
use crate::wire::{Control, QueuedRequest, ReplyValue, State};

/// A simulated display: the shared server plus a factory for connections.
///
/// Cloning a `Display` yields another handle to the same server, the way
/// several processes share one physical display. Every accessor that
/// observes server state (screenshots, direct server access, input
/// synthesis) first flushes all clients' output buffers, so the "user"
/// always sees the effect of every request already issued.
///
/// The display speaks the framed wire protocol by default; set
/// `RTK_NO_WIRE=1` or call [`Display::set_wire`] before the first
/// connection to turn the codec off and run the in-process oracle.
#[derive(Clone)]
pub struct Display {
    pub(crate) transport: Transport,
}

impl Default for Display {
    fn default() -> Self {
        Self::new()
    }
}

fn wire_default() -> bool {
    std::env::var("RTK_NO_WIRE").map_or(true, |v| v.is_empty() || v == "0")
}

impl Display {
    /// Opens a fresh simulated display.
    pub fn new() -> Display {
        Display {
            transport: Transport::new(wire_default()),
        }
    }

    /// Is this display's codec on (the framed wire protocol)?
    pub fn wire(&self) -> bool {
        self.transport.lock().codec
    }

    /// Turns the codec on (`true`, the framed wire protocol) or off
    /// (`false`, the in-process oracle). Must be called before the first
    /// connection.
    pub fn set_wire(&self, wire: bool) {
        let mut st = self.transport.lock();
        assert!(
            !st.server.has_clients(),
            "Display::set_wire must be called before the first connection"
        );
        st.codec = wire;
    }

    /// Connects a new client.
    pub fn connect(&self) -> Connection {
        let client = self.transport.lock().server.connect();
        Connection {
            transport: self.transport.clone(),
            client,
        }
    }

    /// Reconfigures the wire watchdog deadline, in milliseconds of
    /// virtual time (default `wire::DEFAULT_WIRE_DEADLINE_MS`; chaos
    /// harnesses shrink it so injected stalls trip it). Only the codec
    /// ships frames that can stall.
    pub fn set_wire_deadline(&self, ms: u64) {
        self.transport.lock().deadline_ms = ms.max(1);
    }

    /// Runs `f` with direct access to the server (test assertions,
    /// compositing, statistics). Pending output buffers are flushed first.
    pub fn with_server<R>(&self, f: impl FnOnce(&mut Server) -> R) -> R {
        self.transport.observe(f)
    }

    /// Runs `f` with direct access to the server WITHOUT flushing —
    /// for tests that assert on what has (not) reached the server yet.
    #[doc(hidden)]
    pub fn peek_server<R>(&self, f: impl FnOnce(&mut Server) -> R) -> R {
        f(&mut self.transport.lock().server)
    }

    /// Composites the current screen contents (after flushing).
    pub fn screenshot(&self) -> Surface {
        self.with_server(|s| s.compose_screen())
    }

    /// ASCII rendering of the screen (Figure 10-style dumps).
    pub fn ascii_dump(&self) -> String {
        self.with_server(|s| s.ascii_dump())
    }

    // --- input synthesis (the "user") ---

    /// Moves the pointer, generating crossing/motion events.
    pub fn move_pointer(&self, x: i32, y: i32) {
        self.with_server(|s| s.warp_pointer(x, y));
    }

    /// Presses then releases a mouse button at the current position.
    pub fn click(&self, button: u8) {
        self.with_server(|s| {
            s.press_button(button);
            s.release_button(button);
        });
    }

    /// Presses a mouse button (no release).
    pub fn press_button(&self, button: u8) {
        self.with_server(|s| s.press_button(button));
    }

    /// Releases a mouse button.
    pub fn release_button(&self, button: u8) {
        self.with_server(|s| s.release_button(button));
    }

    /// Types a single character key.
    pub fn type_char(&self, c: char) {
        self.with_server(|s| s.press_key(Keysym::from_char(c)));
    }

    /// Types a whole string.
    pub fn type_string(&self, text: &str) {
        for c in text.chars() {
            self.type_char(c);
        }
    }

    /// Presses a named key (`"Escape"`, `"Return"`, ...).
    pub fn press_key(&self, name: &str) {
        self.with_server(|s| s.press_key(Keysym::named(name)));
    }

    /// Sets the modifier state for subsequent input (see [`crate::event::state`]).
    pub fn set_modifiers(&self, modifiers: u32) {
        self.peek_server(|s| s.set_modifiers(modifiers));
    }
}

/// A handle to a pipelined reply-bearing request: proof that the request
/// was queued, carrying the sequence number its reply is filed under.
/// Redeem it with [`Connection::wait`]; redeeming blocks (flushes) only if
/// the reply has not already traveled back with an earlier flush.
///
/// `wait` takes the cookie by value, so a reply is collected at most
/// once: waiting on the same cookie twice does not compile.
///
/// ```compile_fail,E0382
/// let display = xsim::Display::new();
/// let conn = display.connect();
/// let cookie = conn.send_intern_atom("WM_NAME");
/// let first = conn.wait(cookie);
/// let second = conn.wait(cookie);
/// ```
#[derive(Debug)]
#[must_use = "a cookie must be redeemed with Connection::wait"]
pub struct Cookie<T> {
    seq: u64,
    _reply: PhantomData<fn() -> T>,
}

impl<T> Cookie<T> {
    pub(crate) fn new(seq: u64) -> Cookie<T> {
        Cookie {
            seq,
            _reply: PhantomData,
        }
    }

    /// The request's sequence number (replies arrive in this order).
    pub fn sequence(&self) -> u64 {
        self.seq
    }
}

/// Conversion from the wire-level reply payload to the typed result a
/// cookie promises. Implemented for exactly the types reply-bearing
/// requests return: each variant of the reply table generates one impl,
/// so a type that backs several requests (`Option<String>`,
/// `Option<Xid>`) has one.
pub trait FromReply: Sized {
    #[doc(hidden)]
    fn from_reply(v: ReplyValue) -> Option<Self>;
}

/// A window's geometry reply: `(x, y, width, height, border_width)`.
pub type Geometry = (i32, i32, u32, u32, u32);

/// One client's connection to the display.
#[derive(Clone)]
pub struct Connection {
    pub(crate) transport: Transport,
    client: ClientId,
}

impl Connection {
    /// This connection's client id.
    pub fn client_id(&self) -> ClientId {
        self.client
    }

    /// Runs `f` against the server without flushing.
    fn peek<R>(&self, f: impl FnOnce(&mut Server) -> R) -> R {
        f(&mut self.transport.lock().server)
    }

    /// The root window.
    pub fn root(&self) -> WindowId {
        self.peek(|s| s.root())
    }

    /// Protocol statistics for this client. Counters bump at request
    /// *issue* time, so they are current even with requests still queued.
    pub fn stats(&self) -> ClientStats {
        self.peek(|s| s.stats(self.client))
    }

    /// Runs `f` over this client's structured observability state.
    pub fn with_obs<R>(&self, f: impl FnOnce(&ClientObs) -> R) -> Option<R> {
        let mut f = Some(f);
        self.peek(|s| {
            s.client_obs(self.client)
                .map(|o| f.take().expect("obs closure runs once")(o))
        })
    }

    /// Snapshot of this client's wire-transport frame/byte counters.
    /// All zero with the codec off (`RTK_NO_WIRE=1`),
    /// so callers can tell from the counters alone whether any traffic
    /// actually crossed the framed byte transport.
    pub fn wire_stats(&self) -> WireStats {
        self.with_obs(|o| o.wire).unwrap_or_default()
    }

    /// This client's byte-fault timeline position: how many frames it
    /// has encoded onto the wire so far (the per-client index that
    /// [`FaultPlan`](crate::FaultPlan) byte faults key on). 0 with the codec off.
    /// Chaos harnesses use it to drive the timeline past a plan's last
    /// plotted fault before auditing.
    pub fn wire_frame_timeline(&self) -> u64 {
        self.transport.lock().stream(self.client).frames
    }

    /// Per-request-kind counts, non-zero kinds only.
    pub fn obs_kind_counts(&self) -> Vec<(&'static str, u64)> {
        self.with_obs(|o| o.kind_counts()).unwrap_or_default()
    }

    /// The `request_ns` and `round_trip_ns` latency histograms, built
    /// from this client's traced requests: both empty while the trace is
    /// off.
    pub fn obs_request_histograms(&self) -> (rtk_obs::Histogram, rtk_obs::Histogram) {
        self.peek(|s| s.client_tracer(self.client).cloned())
            .map(|t| crate::obs::request_histograms(&t))
            .unwrap_or_default()
    }

    /// The protocol trace: this client's last `n` `request` and `fault`
    /// records of the tracer's current epoch, oldest first.
    pub fn obs_trace(&self, n: usize) -> Vec<rtk_obs::SpanRecord> {
        self.peek(|s| s.client_tracer(self.client).cloned())
            .map(|t| crate::obs::trace_records(&t, n))
            .unwrap_or_default()
    }

    /// Enables or disables protocol tracing for this client: while on,
    /// each request records a `request` instant into its tracer.
    pub fn obs_set_trace(&self, on: bool) {
        self.peek(|s| {
            if let Some(o) = s.client_obs_mut(self.client) {
                o.trace_enabled = on;
            }
        });
    }

    /// Is protocol tracing enabled for this client?
    pub fn obs_trace_enabled(&self) -> bool {
        self.with_obs(|o| o.trace_enabled).unwrap_or(false)
    }

    /// Resets this client's counters and histograms (but not the
    /// trace-enabled flag), along with its `ClientStats` view, and starts
    /// a new epoch of its span tracer (which holds the trace). The output
    /// buffer is flushed first so the reset is an exact epoch boundary.
    pub fn reset_obs(&self) {
        let mut st = self.transport.lock();
        self.flush_in(&mut st);
        st.server.reset_client_stats(self.client);
    }

    /// Replaces this connection's span tracer: flush batches, event
    /// enqueues, injected faults and traced requests record into it,
    /// stamped with this client's id. The toolkit shares the same tracer
    /// for its own spans, so client- and server-side records form one
    /// tree.
    pub fn set_tracer(&self, tracer: rtk_obs::Tracer) {
        let mut tracer = Some(tracer);
        self.peek(|s| s.set_client_tracer(self.client, tracer.take().expect("tracer set once")));
    }

    /// JSON object describing this client's protocol observability state.
    pub fn obs_json(&self) -> String {
        self.peek(|s| {
            let tracer = s.client_tracer(self.client)?;
            Some(s.client_obs(self.client)?.to_json(tracer))
        })
        .unwrap_or_else(|| "{}".into())
    }

    // --- the buffered transport ---

    /// Flushes this connection's output buffer (Xlib's `XFlush`).
    pub fn flush(&self) {
        self.flush_in(&mut self.transport.lock());
    }

    fn flush_in(&self, st: &mut State) {
        if st.server.buffered(self.client) > 0 {
            st.control(self.client, Control::Flush);
        }
    }

    /// The last request sequence number this connection was assigned
    /// (0 before the first request) — the anchor for fault schedules that
    /// target "the next request".
    pub fn sequence(&self) -> u64 {
        self.peek(|s| s.current_seq(self.client))
    }

    /// Is this connection still alive? (An injected kill marks it dead;
    /// after that, one-way requests are silently discarded — the write
    /// side of a broken socket — and reply-bearing requests return
    /// [`XError`] with `ConnectionDead`.)
    pub fn alive(&self) -> bool {
        self.peek(|s| s.is_alive(self.client))
    }

    /// Queues a request in the output buffer, accounting for it at issue
    /// time, and returns its sequence number: a reply's claim ticket. A
    /// dead connection queues nothing and assigns no number (0), so a
    /// cookie for it reports the death.
    pub(crate) fn queue(
        &self,
        st: &mut State,
        window: WindowId,
        make: impl FnOnce(u64) -> QueuedRequest,
    ) -> u64 {
        if !st.server.is_alive(self.client) {
            return 0;
        }
        let seq = st.server.next_seq(self.client);
        st.issue(self.client, window, seq, make(seq));
        seq
    }

    /// Redeems a cookie: blocks (flushes) if the reply has not already
    /// been executed, then returns the typed result. An injected error on
    /// the request — or the connection dying before the reply traveled
    /// back — surfaces here, where Xlib would deliver it.
    pub fn wait<T: FromReply>(&self, cookie: Cookie<T>) -> Result<T, XError> {
        self.wait_in(&mut self.transport.lock(), cookie)
    }

    /// [`Connection::wait`] under a lock the caller holds.
    pub(crate) fn wait_in<T: FromReply>(
        &self,
        st: &mut State,
        cookie: Cookie<T>,
    ) -> Result<T, XError> {
        match st.control(self.client, Control::TakeReply(cookie.seq)) {
            Some(ReplyValue::Error(e)) => Err(e),
            Some(v) => Ok(T::from_reply(v).expect("reply payload does not match cookie type")),
            // No reply will come: the connection died, or the request or
            // this take was lost on the wire. A wait never hangs: on a live
            // connection the watchdog ends it, as it ends a stalled frame.
            None => {
                if st.server.is_alive(self.client) {
                    st.server
                        .kill_broken_stream(self.client, |w| &mut w.watchdog_fires);
                }
                Err(XError::dead(cookie.seq))
            }
        }
    }

    // --- resources whose ids the client reserves ---

    /// Creates an (unmapped) window. The id is allocated client-side and
    /// returned immediately; the CreateWindow itself is buffered. A stale
    /// parent is the `BadWindow` the real server would answer with; a
    /// dead connection reports `ConnectionDead`.
    pub fn create_window(
        &self,
        parent: WindowId,
        x: i32,
        y: i32,
        width: u32,
        height: u32,
        border_width: u32,
    ) -> Result<WindowId, XError> {
        let mut st = self.transport.lock();
        if !st.server.is_alive(self.client) {
            return Err(XError::dead(0));
        }
        let seq = st.server.next_seq(self.client);
        if !st.server.window_exists_or_pending(parent) {
            // Still counted (the server would answer with an error); no
            // id is handed out and nothing is queued.
            let kind = RequestKind::CreateWindow;
            let start = st.server.trace_start(self.client);
            st.server
                .note_issue(self.client, kind, false, parent, seq, start);
            return Err(XError {
                code: XErrorCode::BadWindow,
                seq,
                kind: Some(kind),
            });
        }
        let id = st.server.reserve_window_id(self.client);
        let q = QueuedRequest::CreateWindow {
            id,
            parent,
            x,
            y,
            width,
            height,
            border_width,
        };
        st.issue(self.client, parent, seq, q);
        Ok(id)
    }

    /// Uploads a bitmap to the server. The id is allocated client-side;
    /// the upload itself is buffered.
    pub fn create_bitmap(&self, bitmap: crate::bitmap::Bitmap) -> crate::bitmap::BitmapId {
        let id = self.peek(|s| s.bitmaps.reserve());
        let q = QueuedRequest::CreateBitmap { id, bitmap };
        self.queue(&mut self.transport.lock(), Xid::NONE, |_| q);
        id
    }

    /// Creates a GC. The id is allocated client-side; the CreateGc itself
    /// is buffered.
    pub fn create_gc(&self, values: GcValues) -> GcId {
        let id = self.peek(|s| s.gcs.reserve());
        let q = QueuedRequest::CreateGc { id, values };
        self.queue(&mut self.transport.lock(), Xid::NONE, |_| q);
        id
    }

    // --- events ---

    /// Takes the next event, if any. Like Xlib's `XNextEvent`, it answers
    /// from the client-side read-ahead; when that is empty it is a flush
    /// point (all output buffers are written out first) and takes every
    /// queued event, up to [`EVENT_BATCH`](crate::wire::EVENT_BATCH), at
    /// once. It sends the server no request.
    pub fn poll_event(&self) -> Option<Event> {
        self.transport.lock().poll_event(self.client)
    }

    /// Number of events not yet taken: read-ahead, server queue and
    /// held-back events. With the read-ahead empty it is a flush point,
    /// like `XPending`; it sends the server no request.
    pub fn pending(&self) -> usize {
        self.transport.lock().pending(self.client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;
    use crate::event::mask;
    use crate::server::OUT_BUF_CAPACITY;

    /// A traced request's kind, class (`one-way`/`round-trip`) and
    /// window, read back from its `request` record's detail.
    fn traced_request(r: &rtk_obs::SpanRecord) -> (RequestKind, &str, WindowId) {
        assert_eq!(r.kind, "request", "{r:?}");
        let f: Vec<&str> = r.detail.split(' ').collect();
        let kind = RequestKind::ALL.into_iter().find(|k| k.name() == f[0]);
        let window = u32::from_str_radix(f[2].trim_start_matches("0x"), 16);
        (
            kind.expect("a request kind"),
            f[1],
            Xid(window.expect("a hex window")),
        )
    }

    #[test]
    fn connection_counts_round_trips() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // one-way
        c.map_window(w); // one-way
        let _ = c.get_geometry(w); // round trip
        let _ = c.intern_atom("X"); // round trip
        let st = c.stats();
        assert_eq!(st.requests, 4);
        assert_eq!(st.round_trips, 2);
    }

    #[test]
    fn clip_narrows_rasterization_and_pixel_accounting() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 40, 40, 0).unwrap();
        c.map_window(w);
        let gc = c.create_gc(GcValues::default());
        c.fill_rectangle(w, gc, 0, 0, 40, 40);
        c.flush();
        let full = c.stats().pixels_drawn;
        assert_eq!(full, 1600);
        // The same fill under a clip rasterizes (and counts) only the
        // clipped area.
        c.set_clip(w, vec![crate::damage::Rect::new(0, 0, 10, 10)]);
        c.fill_rectangle(w, gc, 0, 0, 40, 40);
        c.clear_clip(w);
        c.flush();
        assert_eq!(c.stats().pixels_drawn, full + 100);
        // A blit moves pixels without rasterizing: counts nothing.
        c.copy_area(w, 0, 0, 20, 20, 20, 20);
        c.flush();
        assert_eq!(c.stats().pixels_drawn, full + 100);
    }

    #[test]
    fn one_ways_batch_until_a_flush_point() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
        c.map_window(w);
        // Nothing has reached the server yet: the window id is reserved
        // client-side but the CreateWindow is still in the buffer.
        assert!(d.peek_server(|s| s.get_geometry(c.client_id(), w).is_none()));
        c.flush();
        assert_eq!(
            d.peek_server(|s| s.get_geometry(c.client_id(), w)),
            Some((0, 0, 10, 10, 0))
        );
        let st = c.stats();
        assert_eq!(st.requests, 2);
        assert_eq!(st.batched_requests, 2);
        assert_eq!(st.flushes, 1);
        assert_eq!(st.max_batch, 2);
    }

    #[test]
    fn buffer_full_forces_a_flush() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
        c.flush();
        for _ in 0..OUT_BUF_CAPACITY {
            c.clear_area(w, 0, 0, 1, 1);
        }
        let st = c.stats();
        assert_eq!(st.flushes, 2, "capacity flush after the explicit one");
        assert_eq!(st.max_batch, OUT_BUF_CAPACITY as u64);
    }

    #[test]
    fn replies_arrive_in_sequence_order_without_reordering_one_ways() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
        let a = c.intern_atom("A").unwrap();
        // Interleave one-way writes with pipelined reads. Each read's
        // reply must observe exactly the writes queued before it — if a
        // one-way were reordered past a later reply-bearing request, the
        // earlier read would see the later value.
        c.change_property(w, a, "first");
        let p1 = c.send_get_property(w, a);
        c.change_property(w, a, "second");
        let p2 = c.send_get_property(w, a);
        c.change_property(w, a, "third");
        let g = c.send_get_geometry(w);
        assert!(p1.sequence() < p2.sequence());
        assert!(p2.sequence() < g.sequence());
        assert_eq!(c.wait(p1).unwrap(), Some("first".to_string()));
        assert_eq!(c.wait(p2).unwrap(), Some("second".to_string()));
        assert_eq!(c.wait(g).unwrap(), Some((0, 0, 10, 10, 0)));
        // And the final state is the last write.
        assert_eq!(c.get_property(w, a).unwrap(), Some("third".to_string()));
        let st = c.stats();
        assert!(st.max_pending_replies >= 3, "{st:?}");
    }

    #[test]
    fn cookies_can_be_redeemed_out_of_order() {
        let d = Display::new();
        let c = d.connect();
        let a1 = c.send_intern_atom("ONE");
        let a2 = c.send_intern_atom("TWO");
        let two = c.wait(a2).unwrap();
        let one = c.wait(a1).unwrap();
        assert_ne!(one, two);
        // One blocking flush carried both replies.
        assert_eq!(c.stats().flushes, 1);
        assert_eq!(c.stats().round_trips, 2);
    }

    #[test]
    fn two_clients_share_one_display() {
        let d = Display::new();
        let c1 = d.connect();
        let c2 = d.connect();
        assert_ne!(c1.client_id(), c2.client_id());
        assert_eq!(c1.root(), c2.root());
        let atom = c1.intern_atom("SHARED").unwrap();
        c1.change_property(c1.root(), atom, "from c1");
        assert_eq!(
            c2.get_property(c2.root(), atom).unwrap(),
            Some("from c1".into())
        );
    }

    #[test]
    fn events_are_per_client() {
        let d = Display::new();
        let c1 = d.connect();
        let c2 = d.connect();
        let w = c1.create_window(c1.root(), 0, 0, 20, 20, 0).unwrap();
        c1.select_input(w, mask::STRUCTURE_NOTIFY);
        c1.map_window(w);
        assert!(c1.pending() > 0);
        assert_eq!(c2.pending(), 0);
    }

    #[test]
    fn driver_click_reaches_selecting_client() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 10, 10, 100, 100, 0).unwrap();
        c.select_input(w, mask::BUTTON_PRESS | mask::BUTTON_RELEASE);
        c.map_window(w);
        d.move_pointer(50, 50);
        d.click(1);
        let events: Vec<Event> = std::iter::from_fn(|| c.poll_event()).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::ButtonPress { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::ButtonRelease { .. })));
    }

    #[test]
    fn color_sharing_across_clients() {
        let d = Display::new();
        let c1 = d.connect();
        let c2 = d.connect();
        let (p1, rgb) = c1.alloc_named_color("MediumSeaGreen").unwrap().unwrap();
        let (p2, _) = c2.alloc_named_color("mediumseagreen").unwrap().unwrap();
        assert_eq!(p1, p2);
        assert_eq!(rgb, Rgb::new(60, 179, 113));
    }

    #[test]
    fn obs_counts_agree_with_client_stats() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 50, 50, 1).unwrap();
        c.map_window(w);
        c.get_geometry(w).unwrap();
        c.intern_atom("WM_NAME").unwrap();

        let stats = c.stats();
        let kinds = c.obs_kind_counts();
        let total: u64 = kinds.iter().map(|(_, n)| n).sum();
        assert_eq!(total, stats.requests);
        let rt_kinds = c.with_obs(|o| o.kind_round_trip_counts()).unwrap();
        let rt_total: u64 = rt_kinds.iter().map(|(_, n)| n).sum();
        assert_eq!(rt_total, stats.round_trips);
        assert!(kinds.contains(&("CreateWindow", 1)), "{kinds:?}");
        assert!(kinds.contains(&("MapWindow", 1)), "{kinds:?}");

        // The latency histograms are built from traced requests only.
        assert!(c.obs_request_histograms().0.is_empty());
        c.reset_obs();
        c.obs_set_trace(true);
        let w = c.create_window(c.root(), 0, 0, 50, 50, 1).unwrap();
        c.map_window(w);
        c.get_geometry(w).unwrap();
        c.intern_atom("WM_NAME").unwrap();
        let stats = c.stats();
        let (all, round_trips) = c.obs_request_histograms();
        assert_eq!(all.count(), stats.requests);
        assert_eq!(round_trips.count(), stats.round_trips);
    }

    #[test]
    fn trace_is_off_by_default_and_bounded() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 50, 50, 1).unwrap();
        c.map_window(w);
        assert!(!c.obs_trace_enabled());
        assert!(c.obs_trace(10).is_empty());

        c.obs_set_trace(true);
        c.get_geometry(w).unwrap();
        c.unmap_window(w);
        let trace = c.obs_trace(10);
        assert_eq!(trace.len(), 2);
        let (kind, class, window) = traced_request(&trace[0]);
        assert_eq!(kind, crate::obs::RequestKind::GetGeometry);
        assert_eq!(class, "round-trip");
        assert_eq!(window, w);
        assert_eq!(
            traced_request(&trace[1]).0,
            crate::obs::RequestKind::UnmapWindow
        );
        assert!(trace[0].seq < trace[1].seq);
    }

    #[test]
    fn reset_obs_clears_everything_but_keeps_trace_flag() {
        let d = Display::new();
        let c = d.connect();
        c.obs_set_trace(true);
        let w = c.create_window(c.root(), 0, 0, 50, 50, 1).unwrap();
        c.get_geometry(w).unwrap();
        assert!(c.stats().requests > 0);
        assert!(!c.obs_trace(10).is_empty());

        c.reset_obs();
        let stats = c.stats();
        assert_eq!(stats, ClientStats::default(), "all counters zeroed");
        assert!(c.obs_kind_counts().is_empty());
        let (all, round_trips) = c.obs_request_histograms();
        assert!(all.is_empty());
        assert!(round_trips.is_empty());
        assert!(c.obs_trace(10).is_empty());
        assert!(c.obs_trace_enabled(), "trace flag must survive reset");

        // And the counters start again from zero, deterministically.
        c.map_window(w);
        assert_eq!(c.stats().requests, 1);
        assert_eq!(c.obs_kind_counts(), vec![("MapWindow", 1)]);
    }

    #[test]
    fn reset_obs_flushes_so_epochs_are_exact() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 50, 50, 1).unwrap();
        // Buffer still holds the CreateWindow; reset must flush it so the
        // new epoch starts with an empty buffer and zeroed counters.
        c.reset_obs();
        assert_eq!(c.stats(), ClientStats::default());
        // The window exists (the buffered create was executed, not lost).
        assert!(d.peek_server(|s| s.get_geometry(c.client_id(), w).is_some()));
    }

    #[test]
    fn server_reset_stats_covers_obs_state() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 50, 50, 1).unwrap();
        c.get_geometry(w).unwrap();
        d.with_server(|s| s.reset_stats());
        assert_eq!(c.stats().requests, 0);
        assert_eq!(c.stats().flushes, 0);
        assert!(c.obs_kind_counts().is_empty());
        assert!(c.obs_request_histograms().0.is_empty());
    }

    // --- fault injection ---

    use crate::fault::{FaultPlan, XErrorCode};

    #[test]
    fn error_fault_on_round_trip_surfaces_as_err() {
        let d = Display::new();
        let c = d.connect();
        d.with_server(|s| {
            s.install_fault_plan(FaultPlan::default().error_at(0, 1, XErrorCode::BadAtom))
        });
        let err = c.intern_atom("WM_NAME").unwrap_err();
        assert_eq!(err.code, XErrorCode::BadAtom);
        assert_eq!(err.seq, 1);
        assert_eq!(err.kind, Some(RequestKind::InternAtom));
        // The connection is intact; a retry (next seq, no matching spec)
        // succeeds, and the fault is visible in the counters.
        c.intern_atom("WM_NAME").unwrap();
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("error.BadAtom", 1)]);
    }

    #[test]
    fn error_fault_on_pipelined_request_arrives_at_wait() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
        d.with_server(|s| {
            s.install_fault_plan(FaultPlan::default().error_at(0, 2, XErrorCode::BadWindow))
        });
        let cookie = c.send_get_geometry(w); // seq 2, faulted at flush
        let ok = c.send_get_geometry(w); // seq 3, unharmed
        let err = c.wait(cookie).unwrap_err();
        assert_eq!(err.code, XErrorCode::BadWindow);
        assert_eq!(err.seq, 2);
        assert_eq!(c.wait(ok).unwrap(), Some((0, 0, 10, 10, 0)));
    }

    #[test]
    fn drop_fault_suppresses_a_one_way_request() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().drop_at(0, 2)));
        c.map_window(w); // seq 2, dropped at flush
        c.flush();
        assert!(
            !d.with_server(|s| s.is_viewable(c.client_id(), w)),
            "dropped MapWindow must not execute"
        );
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("drop", 1)]);
    }

    #[test]
    fn duplicate_fault_applies_a_one_way_twice() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
        let a = c.intern_atom("P").unwrap(); // seq 2
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().duplicate_at(0, 3)));
        c.change_property(w, a, "twice"); // seq 3, applied twice (idempotent)
        c.flush();
        assert_eq!(c.get_property(w, a).unwrap(), Some("twice".to_string()));
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("duplicate", 1)]);
    }

    #[test]
    fn append_property_is_atomic_across_clients() {
        // Two clients append to the same property with their one-ways
        // interleaved in their output buffers; the server-side append
        // keeps every line (the get+change emulation would lose one).
        let d = Display::new();
        let c1 = d.connect();
        let c2 = d.connect();
        let a = c1.intern_atom("QUEUE").unwrap();
        let root = c1.root();
        c1.append_property(root, a, "from-c1");
        c2.append_property(root, a, "from-c2");
        c1.append_property(root, a, "again-c1");
        c1.flush();
        c2.flush();
        let value = c1.get_property(root, a).unwrap().unwrap();
        let lines: Vec<&str> = value.lines().collect();
        assert_eq!(lines.len(), 3, "{value:?}");
        for want in ["from-c1", "from-c2", "again-c1"] {
            assert!(lines.contains(&want), "{value:?}");
        }
    }

    #[test]
    fn duplicate_fault_doubles_an_appended_line() {
        // A duplicated AppendProperty is NOT idempotent: the line lands
        // twice. The tk send layer's serial dedup is what restores
        // at-most-once semantics on top of this.
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
        let a = c.intern_atom("P").unwrap(); // seq 2
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().duplicate_at(0, 3)));
        c.append_property(w, a, "line"); // seq 3, applied twice
        c.flush();
        assert_eq!(
            c.get_property(w, a).unwrap(),
            Some("line\nline".to_string())
        );
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("duplicate", 1)]);
    }

    #[test]
    fn delayed_event_is_never_lost() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
        c.select_input(w, mask::STRUCTURE_NOTIFY);
        c.flush();
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().delay_at(0, 1, 3)));
        c.map_window(w); // MapNotify is event index 1: delayed
        let events: Vec<Event> = std::iter::from_fn(|| c.poll_event()).collect();
        assert!(
            events.iter().any(|e| matches!(e, Event::MapNotify { .. })),
            "a blocking poll releases delayed events: {events:?}"
        );
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("delay", 1)]);
    }

    #[test]
    fn delayed_event_released_by_later_same_window_event() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
        c.select_input(w, mask::STRUCTURE_NOTIFY);
        c.flush();
        // Hold the MapNotify far beyond the horizon; the UnmapNotify on the
        // same window must still flush it out first (ICCCM ordering).
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().delay_at(0, 1, 1000)));
        c.map_window(w);
        c.unmap_window(w);
        let events: Vec<Event> = std::iter::from_fn(|| c.poll_event()).collect();
        let map_pos = events
            .iter()
            .position(|e| matches!(e, Event::MapNotify { .. }));
        let unmap_pos = events
            .iter()
            .position(|e| matches!(e, Event::UnmapNotify { .. }));
        assert!(map_pos.is_some() && unmap_pos.is_some(), "{events:?}");
        assert!(
            map_pos < unmap_pos,
            "same-window ordering must hold: {events:?}"
        );
    }

    #[test]
    fn reorder_fault_swaps_events_on_different_windows_only() {
        let d = Display::new();
        let c = d.connect();
        let w1 = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
        let w2 = c.create_window(c.root(), 20, 0, 10, 10, 0).unwrap();
        c.select_input(w1, mask::STRUCTURE_NOTIFY);
        c.select_input(w2, mask::STRUCTURE_NOTIFY);
        c.flush();
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().reorder_at(0, 2)));
        c.map_window(w1); // event 1
        c.map_window(w2); // event 2: swapped in front of event 1
        let events: Vec<Event> = std::iter::from_fn(|| c.poll_event()).collect();
        let windows: Vec<WindowId> = events.iter().map(Event::window).collect();
        assert_eq!(windows, vec![w2, w1], "{events:?}");
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("reorder", 1)]);
    }

    #[test]
    fn kill_fault_tears_down_the_connection_mid_flush() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
        c.flush();
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().kill_at(0, 2)));
        c.map_window(w); // seq 2: the kill
        c.clear_area(w, 0, 0, 1, 1); // seq 3: discarded with the batch
        let err = c.get_geometry(w).unwrap_err();
        assert_eq!(err.code, XErrorCode::ConnectionDead);
        assert!(!c.alive());
        // The server reclaimed the client's windows.
        assert!(d.with_server(|s| s.get_geometry(c.client_id(), w).is_none()));
        // Post-mortem observability survives the kill.
        let faults = c.with_obs(|o| o.fault_kind_counts()).unwrap();
        assert_eq!(faults, vec![("kill", 1)]);
        // Later traffic is silently discarded / fails fast.
        c.map_window(w);
        assert!(c.create_window(c.root(), 0, 0, 5, 5, 0).is_err());
        assert!(c.intern_atom("X").is_err());
        assert!(c.poll_event().is_none());
    }

    #[test]
    fn a_kill_discards_the_dead_clients_buffered_requests() {
        // The output buffer dies with its connection, codec on or off:
        // nothing buffered before the kill may reach the server after it.
        for wire in [true, false] {
            let d = Display::new();
            d.set_wire(wire);
            let c = d.connect();
            let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
            c.map_window(w);
            let gc = c.create_gc(GcValues::default());
            c.fill_rectangle(w, gc, 0, 0, 5, 5);
            d.peek_server(|s| s.kill_client(c.client_id()));
            assert_eq!(
                d.with_server(|s| s.audit()),
                Vec::<String>::new(),
                "wire {wire}"
            );
            assert!(
                d.with_server(|s| s.get_geometry(c.client_id(), w).is_none()),
                "wire {wire}"
            );
        }
    }

    #[test]
    fn a_kill_ahead_of_a_buffered_create_window_drops_its_reservation() {
        // The window id is handed out at issue time. A kill that lands
        // ahead of the buffered CreateWindow discards it, so the id must
        // stop counting as a window about to exist.
        for wire in [true, false] {
            let d = Display::new();
            d.set_wire(wire);
            let c = d.connect();
            let parent = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
            c.flush();
            let plan = FaultPlan::default().kill_at(c.client_id().0, 2);
            d.with_server(|s| s.install_fault_plan(plan));
            c.map_window(parent); // seq 2: the kill
            let w = c.create_window(parent, 0, 0, 5, 5, 0).unwrap(); // seq 3: discarded
            assert!(d.peek_server(|s| s.window_exists_or_pending(w)));
            c.flush();
            assert!(!c.alive(), "wire {wire}");
            assert!(
                !d.with_server(|s| s.window_exists_or_pending(w)),
                "wire {wire}"
            );
            assert_eq!(
                d.with_server(|s| s.audit()),
                Vec::<String>::new(),
                "wire {wire}"
            );
        }
    }

    #[test]
    fn a_fault_on_a_buffered_create_window_drops_its_reservation() {
        // A CreateWindow that a drop or error fault keeps from executing
        // never creates its window, so the id it reserved must stop
        // counting as a parent.
        for wire in [true, false] {
            for error in [false, true] {
                let d = Display::new();
                d.set_wire(wire);
                let c = d.connect();
                let client = c.client_id().0;
                let plan = match error {
                    false => FaultPlan::default().drop_at(client, 1),
                    true => FaultPlan::default().error_at(client, 1, XErrorCode::BadAlloc),
                };
                d.with_server(|s| s.install_fault_plan(plan));
                let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
                c.flush();
                let err = c.create_window(w, 0, 0, 5, 5, 0).unwrap_err();
                assert_eq!(err.code, XErrorCode::BadWindow, "wire {wire} error {error}");
                assert!(!d.peek_server(|s| s.window_exists_or_pending(w)));
                assert_eq!(d.with_server(|s| s.audit()), Vec::<String>::new());
            }
        }
    }

    #[test]
    fn a_display_clones_across_threads() {
        // Threads share one server through clones of its `Display`; this
        // stops compiling if `Display` ever stops being `Send + Sync`.
        fn send_sync<T: Clone + Send + Sync>() {}
        send_sync::<Display>();
    }

    #[test]
    fn dead_connection_fails_pending_cookies() {
        let d = Display::new();
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
        c.flush();
        d.with_server(|s| s.install_fault_plan(FaultPlan::default().kill_at(0, 2)));
        let cookie = c.send_get_geometry(w); // seq 2: killed before reply
        let err = c.wait(cookie).unwrap_err();
        assert_eq!(err.code, XErrorCode::ConnectionDead);
    }

    #[test]
    fn reset_stats_clears_fault_counters_and_fired_log() {
        let d = Display::new();
        let c = d.connect();
        d.with_server(|s| {
            s.install_fault_plan(FaultPlan::default().error_at(0, 1, XErrorCode::BadValue))
        });
        c.intern_atom("A").unwrap_err();
        assert_eq!(c.with_obs(|o| o.faults_injected).unwrap(), 1);
        assert_eq!(
            d.with_server(|s| s.fault_plan().map_or(0, |p| p.fired_log().len())),
            1
        );
        d.with_server(|s| s.reset_stats());
        assert_eq!(c.with_obs(|o| o.faults_injected).unwrap(), 0);
        assert_eq!(
            d.with_server(|s| s.fault_plan().map_or(0, |p| p.fired_log().len())),
            0,
            "fired log starts a new epoch"
        );
        // The consumed-spec markers survive: a spec fires at most once ever.
        let report = d.with_server(|s| s.fault_plan().map(FaultPlan::describe));
        assert!(report.unwrap().contains("[fired]"));
    }

    #[test]
    fn fault_keying_is_identical_batched_and_unbatched() {
        // The same plan must hit the same request whether the client
        // flushes after each request (batches of one) or once at the
        // end, because faults key on the per-client sequence number
        // assigned at issue time, not on flush boundaries.
        let run = |wire: bool, flush_each: bool| {
            let d = Display::new();
            d.set_wire(wire);
            let c = d.connect();
            d.with_server(|s| s.install_fault_plan(FaultPlan::default().drop_at(0, 2)));
            let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap(); // seq 1
            if flush_each {
                c.flush();
            }
            c.map_window(w); // seq 2: dropped
            c.flush();
            assert_eq!(c.stats().flushes, 1 + u64::from(flush_each));
            d.with_server(|s| s.is_viewable(c.client_id(), w))
        };
        for wire in [true, false] {
            assert!(!run(wire, false), "wire {wire}: one flush kept the map");
            assert!(!run(wire, true), "wire {wire}: two flushes kept the map");
        }
    }

    // --- the generated request surface ---

    /// Resources the request rows below act on.
    struct Fixture {
        w: WindowId,
        w2: WindowId,
        doomed: WindowId,
        gc: GcId,
        spare_gc: GcId,
        bitmap: crate::bitmap::BitmapId,
        spare_bitmap: crate::bitmap::BitmapId,
        atom: crate::atom::Atom,
        atom2: crate::atom::Atom,
        pixel: crate::ids::Pixel,
        font: crate::ids::FontId,
        cursor: crate::ids::CursorId,
    }

    fn fixture(c: &Connection) -> Fixture {
        let w = c.create_window(c.root(), 0, 0, 40, 30, 1).unwrap();
        let w2 = c.create_window(w, 5, 5, 10, 10, 0).unwrap();
        let doomed = c.create_window(w, 20, 5, 10, 10, 0).unwrap();
        c.map_window(w);
        let bits = |n| crate::bitmap::Bitmap::new(2, 2, vec![true, n, n, true]).unwrap();
        Fixture {
            w,
            w2,
            doomed,
            gc: c.create_gc(GcValues::default()),
            spare_gc: c.create_gc(GcValues::default()),
            bitmap: c.create_bitmap(bits(false)),
            spare_bitmap: c.create_bitmap(bits(true)),
            atom: c.intern_atom("RTK_ROW").unwrap(),
            atom2: c.intern_atom("RTK_ROW2").unwrap(),
            pixel: c.alloc_color(Rgb::new(1, 2, 3)).unwrap(),
            font: c.open_font("fixed").unwrap().unwrap(),
            cursor: c.create_cursor("xterm").unwrap().unwrap(),
        }
    }

    /// One request row: the kind it is counted as, its method, the window
    /// it is traced on, and a call through the method that prints the
    /// result.
    type Row = (
        RequestKind,
        &'static str,
        fn(&Fixture) -> WindowId,
        fn(&Connection, &Fixture) -> String,
    );

    /// Every row of the request table, in table order; a reply-bearing
    /// row through its blocking method.
    const ROWS: &[Row] = &[
        (
            RequestKind::CreateWindow,
            "create_window",
            |f| f.w,
            |c, f| format!("{:?}", c.create_window(f.w, 1, 1, 5, 5, 0)),
        ),
        (
            RequestKind::DestroyWindow,
            "destroy_window",
            |f| f.doomed,
            |c, f| {
                c.destroy_window(f.doomed);
                String::new()
            },
        ),
        (
            RequestKind::MapWindow,
            "map_window",
            |f| f.w2,
            |c, f| {
                c.map_window(f.w2);
                String::new()
            },
        ),
        (
            RequestKind::UnmapWindow,
            "unmap_window",
            |f| f.w2,
            |c, f| {
                c.unmap_window(f.w2);
                String::new()
            },
        ),
        (
            RequestKind::ConfigureWindow,
            "configure_window",
            |f| f.w,
            |c, f| {
                c.configure_window(f.w, Some(2), None, Some(48), Some(36), None);
                String::new()
            },
        ),
        (
            RequestKind::RaiseWindow,
            "raise_window",
            |f| f.w2,
            |c, f| {
                c.raise_window(f.w2);
                String::new()
            },
        ),
        (
            RequestKind::ReparentWindow,
            "reparent_window",
            |f| f.w2,
            |c, f| {
                c.reparent_window(f.w2, f.w, 3, 4);
                String::new()
            },
        ),
        (
            RequestKind::SelectInput,
            "select_input",
            |f| f.w,
            |c, f| {
                c.select_input(f.w, mask::EXPOSURE);
                String::new()
            },
        ),
        (
            RequestKind::ChangeWindowAttributes,
            "set_window_background",
            |f| f.w,
            |c, f| {
                c.set_window_background(f.w, f.pixel);
                String::new()
            },
        ),
        (
            RequestKind::ChangeWindowAttributes,
            "set_window_border",
            |f| f.w,
            |c, f| {
                c.set_window_border(f.w, f.pixel);
                String::new()
            },
        ),
        (
            RequestKind::ChangeWindowAttributes,
            "set_override_redirect",
            |f| f.w2,
            |c, f| {
                c.set_override_redirect(f.w2, false);
                String::new()
            },
        ),
        (
            RequestKind::ChangeWindowAttributes,
            "define_cursor",
            |f| f.w,
            |c, f| {
                c.define_cursor(f.w, f.cursor);
                String::new()
            },
        ),
        (
            RequestKind::ChangeProperty,
            "change_property",
            |f| f.w,
            |c, f| {
                c.change_property(f.w, f.atom, "one");
                String::new()
            },
        ),
        (
            RequestKind::ChangeProperty,
            "append_property",
            |f| f.w,
            |c, f| {
                c.append_property(f.w, f.atom, "two");
                String::new()
            },
        ),
        (
            RequestKind::DeleteProperty,
            "delete_property",
            |f| f.w,
            |c, f| {
                c.delete_property(f.w, f.atom2);
                String::new()
            },
        ),
        (
            RequestKind::FreeColor,
            "free_color",
            |_| Xid::NONE,
            |c, f| {
                c.free_color(f.pixel);
                String::new()
            },
        ),
        (
            RequestKind::CreateBitmap,
            "create_bitmap",
            |_| Xid::NONE,
            |c, _| {
                let bitmap = crate::bitmap::Bitmap::new(1, 1, vec![true]).unwrap();
                format!("{:?}", c.create_bitmap(bitmap))
            },
        ),
        (
            RequestKind::FreeBitmap,
            "free_bitmap",
            |_| Xid::NONE,
            |c, f| {
                c.free_bitmap(f.spare_bitmap);
                String::new()
            },
        ),
        (
            RequestKind::CopyBitmap,
            "copy_bitmap",
            |f| f.w,
            |c, f| {
                c.copy_bitmap(f.w, f.gc, 1, 1, f.bitmap);
                String::new()
            },
        ),
        (
            RequestKind::CreateGc,
            "create_gc",
            |_| Xid::NONE,
            |c, _| format!("{:?}", c.create_gc(GcValues::default())),
        ),
        (
            RequestKind::ChangeGc,
            "change_gc",
            |_| Xid::NONE,
            |c, f| {
                let values = GcValues {
                    line_width: 2,
                    ..GcValues::default()
                };
                c.change_gc(f.gc, values);
                String::new()
            },
        ),
        (
            RequestKind::FreeGc,
            "free_gc",
            |_| Xid::NONE,
            |c, f| {
                c.free_gc(f.spare_gc);
                String::new()
            },
        ),
        (
            RequestKind::FillRectangle,
            "fill_rectangle",
            |f| f.w,
            |c, f| {
                c.fill_rectangle(f.w, f.gc, 0, 0, 8, 8);
                String::new()
            },
        ),
        (
            RequestKind::DrawRectangle,
            "draw_rectangle",
            |f| f.w,
            |c, f| {
                c.draw_rectangle(f.w, f.gc, 1, 1, 6, 6);
                String::new()
            },
        ),
        (
            RequestKind::DrawLine,
            "draw_line",
            |f| f.w,
            |c, f| {
                c.draw_line(f.w, f.gc, 0, 0, 9, 9);
                String::new()
            },
        ),
        (
            RequestKind::DrawString,
            "draw_string",
            |f| f.w,
            |c, f| {
                c.draw_string(f.w, f.gc, 2, 12, "hi");
                String::new()
            },
        ),
        (
            RequestKind::ClearArea,
            "clear_area",
            |f| f.w,
            |c, f| {
                c.clear_area(f.w, 0, 0, 4, 4);
                String::new()
            },
        ),
        (
            RequestKind::SetClip,
            "set_clip",
            |f| f.w,
            |c, f| {
                c.set_clip(f.w, vec![crate::damage::Rect::new(0, 0, 5, 5)]);
                String::new()
            },
        ),
        (
            RequestKind::ClearClip,
            "clear_clip",
            |f| f.w,
            |c, f| {
                c.clear_clip(f.w);
                String::new()
            },
        ),
        (
            RequestKind::CopyArea,
            "copy_area",
            |f| f.w,
            |c, f| {
                c.copy_area(f.w, 0, 0, 4, 4, 6, 6);
                String::new()
            },
        ),
        (
            RequestKind::SetSelectionOwner,
            "set_selection_owner",
            |f| f.w2,
            |c, f| {
                c.set_selection_owner(f.atom, f.w2);
                String::new()
            },
        ),
        (
            RequestKind::ConvertSelection,
            "convert_selection",
            |f| f.w,
            |c, f| {
                c.convert_selection(f.w, f.atom, f.atom, f.atom2);
                String::new()
            },
        ),
        (
            RequestKind::SendEvent,
            "send_selection_notify",
            |f| f.w,
            |c, f| {
                c.send_selection_notify(f.w, f.atom, f.atom, f.atom2);
                String::new()
            },
        ),
        (
            RequestKind::SetInputFocus,
            "set_input_focus",
            |f| f.w,
            |c, f| {
                c.set_input_focus(f.w);
                String::new()
            },
        ),
        (
            RequestKind::InternAtom,
            "intern_atom",
            |_| Xid::NONE,
            |c, _| format!("{:?}", c.intern_atom("RTK_ROW")),
        ),
        (
            RequestKind::AllocColor,
            "alloc_color",
            |_| Xid::NONE,
            |c, _| format!("{:?}", c.alloc_color(Rgb::new(9, 8, 7))),
        ),
        (
            RequestKind::AllocColor,
            "alloc_named_color",
            |_| Xid::NONE,
            |c, _| format!("{:?}", c.alloc_named_color("red")),
        ),
        (
            RequestKind::GetProperty,
            "get_property",
            |f| f.w,
            |c, f| format!("{:?}", c.get_property(f.w, f.atom)),
        ),
        (
            RequestKind::GetGeometry,
            "get_geometry",
            |f| f.w,
            |c, f| format!("{:?}", c.get_geometry(f.w)),
        ),
        (
            RequestKind::GetAtomName,
            "atom_name",
            |_| Xid::NONE,
            |c, f| format!("{:?}", c.atom_name(f.atom)),
        ),
        (
            RequestKind::QueryTree,
            "query_tree",
            |f| f.w,
            |c, f| format!("{:?}", c.query_tree(f.w)),
        ),
        (
            RequestKind::GetWindowAttributes,
            "is_viewable",
            |f| f.w,
            |c, f| format!("{:?}", c.is_viewable(f.w)),
        ),
        (
            RequestKind::QueryColor,
            "query_color",
            |_| Xid::NONE,
            |c, f| format!("{:?}", c.query_color(f.pixel)),
        ),
        (
            RequestKind::OpenFont,
            "open_font",
            |_| Xid::NONE,
            |c, _| format!("{:?}", c.open_font("fixed")),
        ),
        (
            RequestKind::QueryFont,
            "font_metrics",
            |_| Xid::NONE,
            |c, f| format!("{:?}", c.font_metrics(f.font)),
        ),
        (
            RequestKind::CreateCursor,
            "create_cursor",
            |_| Xid::NONE,
            |c, _| format!("{:?}", c.create_cursor("watch")),
        ),
        (
            RequestKind::QueryBitmap,
            "bitmap_size",
            |_| Xid::NONE,
            |c, f| format!("{:?}", c.bitmap_size(f.bitmap)),
        ),
        (
            RequestKind::GetSelectionOwner,
            "get_selection_owner",
            |_| Xid::NONE,
            |c, f| format!("{:?}", c.get_selection_owner(f.atom)),
        ),
        (
            RequestKind::GetInputFocus,
            "get_input_focus",
            |_| Xid::NONE,
            |c, _| format!("{:?}", c.get_input_focus()),
        ),
        (
            RequestKind::GetProperty,
            "take_property",
            |f| f.w,
            |c, f| format!("{:?}", c.take_property(f.w, f.atom)),
        ),
    ];

    /// Issues every row once, each in an epoch of its own, checks what it
    /// was counted and traced as, and returns each row's printed result
    /// and whether it was traced as a round trip.
    fn issue_every_row(wire: bool) -> Vec<(String, bool)> {
        let d = Display::new();
        d.set_wire(wire);
        let c = d.connect();
        let f = fixture(&c);
        c.obs_set_trace(true);
        let mut out = Vec::new();
        for &(kind, method, traced, call) in ROWS {
            c.reset_obs();
            let result = call(&c, &f);
            assert_eq!(
                c.obs_kind_counts(),
                vec![(kind.name(), 1)],
                "{method}, wire {wire}"
            );
            let trace = c.obs_trace(2);
            assert_eq!(trace.len(), 1, "{method}, wire {wire}");
            let (got, class, window) = traced_request(&trace[0]);
            assert_eq!(got, kind, "{method}, wire {wire}");
            assert_eq!(window, traced(&f), "{method}, wire {wire}");
            out.push((result, class == "round-trip"));
        }
        assert!(c.alive());
        assert_eq!(d.with_server(|s| s.audit()), Vec::<String>::new());
        out
    }

    #[test]
    fn every_request_row_issues_through_its_method() {
        use crate::wire::{Message, QueuedRequest};
        assert_eq!(
            ROWS.len(),
            QueuedRequest::OPCODES.len(),
            "one call per table row"
        );
        let on = issue_every_row(true);
        let off = issue_every_row(false);
        for ((row, a), b) in ROWS.iter().zip(&on).zip(&off) {
            assert_eq!(a, b, "{}: codec on vs off", row.1);
        }
        // Every reply-bearing row has its pair in `REPLY_ROWS`.
        let round_trips = ROWS.iter().zip(&on).filter(|(_, (_, rt))| *rt);
        let names: Vec<&str> = round_trips.map(|(row, _)| row.1).collect();
        assert_eq!(names, REPLY_ROWS.iter().map(|r| r.0).collect::<Vec<_>>());
    }

    /// A reply-bearing row: its blocking method, a call through it, and
    /// the same call through `wait(send_*)`, each printing the result.
    type ReplyRow = (
        &'static str,
        fn(&Connection, &Fixture) -> String,
        fn(&Connection, &Fixture) -> String,
    );

    /// A [`ReplyRow`] from the blocking method, its `send_*` twin, and
    /// the arguments, which may read the fixture `$f`.
    macro_rules! reply_row {
        ($m:ident / $send:ident($f:ident $(, $arg:expr)*)) => {(
            stringify!($m),
            |c, $f| {
                let _ = $f;
                format!("{:?}", c.$m($($arg),*))
            },
            |c, $f| {
                let _ = $f;
                format!("{:?}", c.wait(c.$send($($arg),*)))
            },
        )};
    }

    /// Every reply-bearing row, in table order.
    const REPLY_ROWS: &[ReplyRow] = &[
        reply_row!(intern_atom / send_intern_atom(f, "RTK_ROW")),
        reply_row!(alloc_color / send_alloc_color(f, Rgb::new(9, 8, 7))),
        reply_row!(alloc_named_color / send_alloc_named_color(f, "red")),
        reply_row!(get_property / send_get_property(f, f.w, f.atom)),
        reply_row!(get_geometry / send_get_geometry(f, f.w)),
        reply_row!(atom_name / send_atom_name(f, f.atom)),
        reply_row!(query_tree / send_query_tree(f, f.w)),
        reply_row!(is_viewable / send_is_viewable(f, f.w)),
        reply_row!(query_color / send_query_color(f, f.pixel)),
        reply_row!(open_font / send_open_font(f, "fixed")),
        reply_row!(font_metrics / send_font_metrics(f, f.font)),
        reply_row!(create_cursor / send_create_cursor(f, "watch")),
        reply_row!(bitmap_size / send_bitmap_size(f, f.bitmap)),
        reply_row!(get_selection_owner / send_get_selection_owner(f, f.atom)),
        reply_row!(get_input_focus / send_get_input_focus(f)),
        reply_row!(take_property / send_take_property(f, f.w, f.atom)),
    ];

    /// One call on a fresh fixture under the fault plan `plan` builds for
    /// the call's client and sequence number: the printed result, that
    /// sequence number, and the `requests` and `round_trips` it added.
    fn call_once(
        wire: bool,
        plan: fn(u32, u64) -> FaultPlan,
        call: fn(&Connection, &Fixture) -> String,
    ) -> (String, u64, u64, u64) {
        let d = Display::new();
        d.set_wire(wire);
        let c = d.connect();
        let f = fixture(&c);
        let seq = c.sequence() + 1;
        d.with_server(|s| s.install_fault_plan(plan(c.client_id().0, seq)));
        let before = c.stats();
        let result = call(&c, &f);
        let after = c.stats();
        let requests = after.requests - before.requests;
        (
            result,
            seq,
            requests,
            after.round_trips - before.round_trips,
        )
    }

    /// A blocking call is its request and its wait: for every
    /// reply-bearing row, `<name>(..)` and `wait(send_<name>(..))` give
    /// the same result and add the same counts, clean, with an injected
    /// error at the request's sequence number, and with a kill there;
    /// codec on and off.
    #[test]
    fn a_blocking_call_is_its_cookie_and_its_wait() {
        let plans: [fn(u32, u64) -> FaultPlan; 3] = [
            |_, _| FaultPlan::default(),
            |client, seq| FaultPlan::default().error_at(client, seq, XErrorCode::BadValue),
            |client, seq| FaultPlan::default().kill_at(client, seq),
        ];
        for wire in [true, false] {
            for &(method, blocking, cookie) in REPLY_ROWS {
                for (i, &plan) in plans.iter().enumerate() {
                    let at = format!("{method}, plan {i}, wire {wire}");
                    let (result, seq, requests, round_trips) = call_once(wire, plan, blocking);
                    assert_eq!(
                        call_once(wire, plan, cookie),
                        (result.clone(), seq, requests, round_trips),
                        "{at}"
                    );
                    assert_eq!((requests, round_trips), (1, 1), "{at}");
                    let expected = match i {
                        0 => "Ok(".to_string(),
                        1 => format!("Err(XError {{ code: BadValue, seq: {seq}, kind: Some("),
                        _ => format!("{:?}", Err::<(), _>(XError::dead(seq))),
                    };
                    assert!(result.starts_with(&expected), "{at}: {result}");
                }
            }
        }
    }
}
