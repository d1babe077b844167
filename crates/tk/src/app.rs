//! The Tk application object and event loop.
//!
//! [`TkEnv`] is one simulated display plus the set of Tk applications
//! connected to it (the paper ran each application in its own UNIX
//! process; we run them in one process — see DESIGN.md). [`TkApp`] is one
//! application: a Tcl interpreter, an X connection, the window table, the
//! binding table, the resource caches, the option database, geometry
//! management, timers, and when-idle handlers.
//!
//! Everything is single-threaded and reentrant: event dispatch evaluates
//! Tcl scripts which may create windows, re-enter the event loop
//! (`update`), or `send` commands to sibling applications.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use tcl::{Exception, Interp, TclResult};
use xsim::event::mask;
use xsim::{Connection, DamageList, Display, Event, Rect, WindowId};

use crate::bind::{percent_substitute, BindingTable, EventInfo};
use crate::cache::ResourceCache;
use crate::optiondb::OptionDb;
use crate::pack::Packer;
use crate::selection::SelectionState;
use crate::send::SendState;
use crate::window::{parent_path, validate_path, TkWindow};

/// A scheduled `after` timer.
struct Timer {
    id: u64,
    deadline: u64,
    script: String,
}

/// A file handler (Section 3.2's "file events, which trigger when a file
/// becomes readable or writable"). The simulation polls the file during
/// event processing and fires when it appears or its contents change --
/// the moment new data "becomes readable".
struct FileHandler {
    id: u64,
    path: std::path::PathBuf,
    script: String,
    /// `(len, mtime)` at the last check; `None` until first seen.
    last: Option<(u64, std::time::SystemTime)>,
}

/// A when-idle task. Deferred work remembers the span that scheduled it
/// (`cause`), so the redraw/relayout span executed much later is still a
/// child of the event that made the window dirty.
pub(crate) enum IdleTask {
    /// Run a Tcl script.
    Script(String),
    /// Redraw the widget on this path.
    Redraw {
        path: String,
        cause: rtk_obs::SpanId,
    },
    /// Recompute a geometry master's layout.
    Relayout {
        master: String,
        cause: rtk_obs::SpanId,
    },
}

/// Pending damage for one scheduled widget redraw.
pub(crate) enum Damage {
    /// Repaint the whole widget (the pre-damage behavior).
    Full,
    /// Repaint only these widget-relative rects.
    Rects(DamageList),
}

/// The environment: one display shared by any number of Tk applications.
#[derive(Clone)]
pub struct TkEnv {
    display: Display,
    apps: Rc<RefCell<Vec<Weak<AppInner>>>>,
    clock: rtk_obs::VirtualClock,
    /// Shared wall-clock origin for span tracing: every application's
    /// tracer measures from here, so multi-app traces align on one
    /// timeline in the Chrome trace export.
    origin: std::time::Instant,
}

impl Default for TkEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl TkEnv {
    /// Creates a fresh display with no applications.
    pub fn new() -> TkEnv {
        TkEnv::with_display(Display::new())
    }

    /// Wraps an existing display (e.g. a clone of another thread's, so
    /// several environments on their own threads share one server).
    pub fn with_display(display: Display) -> TkEnv {
        TkEnv {
            display,
            apps: Rc::new(RefCell::new(Vec::new())),
            clock: rtk_obs::VirtualClock::new(),
            origin: std::time::Instant::now(),
        }
    }

    /// The underlying display (for input synthesis and screendumps).
    pub fn display(&self) -> &Display {
        &self.display
    }

    /// The current virtual time in milliseconds.
    pub fn now(&self) -> u64 {
        self.clock.get()
    }

    /// Creates a new application with interpreter and main window.
    pub fn app(&self, name: &str) -> TkApp {
        TkApp::new(self, name)
    }

    /// Processes pending work (events, idle tasks) for every application
    /// until nothing is pending. Returns true if anything ran. Bounded so
    /// that a pathological self-rescheduling idle handler cannot hang the
    /// environment.
    pub fn dispatch_all(&self) -> bool {
        let mut any = false;
        for _ in 0..1000 {
            let mut progressed = false;
            for app in self.live_apps() {
                if app.process_pending() {
                    progressed = true;
                }
                if app.run_idle_tasks() {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            any = true;
        }
        any
    }

    /// Advances virtual time by `ms`, firing due timers in every app, then
    /// settles all pending work.
    pub fn advance(&self, ms: u64) {
        self.clock.set(self.clock.get() + ms);
        for app in self.live_apps() {
            app.run_due_timers();
        }
        self.dispatch_all();
    }

    /// The applications still alive, in creation order.
    fn live_apps(&self) -> Vec<TkApp> {
        let apps = self.apps.borrow();
        apps.iter()
            .filter_map(Weak::upgrade)
            .map(|inner| TkApp { inner })
            .collect()
    }

    /// Applications currently registered for `send`, by name.
    pub fn application_names(&self) -> Vec<String> {
        self.apps
            .borrow()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|a| a.name.borrow().clone())
            .collect()
    }

    fn register_app(&self, inner: &Rc<AppInner>) {
        self.apps.borrow_mut().push(Rc::downgrade(inner));
        self.apps.borrow_mut().retain(|w| w.strong_count() > 0);
    }
}

/// Shared state of one Tk application.
pub struct AppInner {
    pub(crate) name: RefCell<String>,
    pub(crate) env: TkEnv,
    pub(crate) conn: Connection,
    pub(crate) interp: Interp,
    pub(crate) windows: RefCell<HashMap<String, Rc<TkWindow>>>,
    pub(crate) by_xid: RefCell<HashMap<WindowId, String>>,
    pub(crate) bindings: RefCell<BindingTable>,
    pub(crate) cache: ResourceCache,
    pub(crate) options: RefCell<OptionDb>,
    pub(crate) packer: RefCell<Packer>,
    pub(crate) selection: RefCell<SelectionState>,
    pub(crate) send: RefCell<SendState>,
    /// Toolkit-level observability: counters for event dispatch,
    /// bindings, redraw, relayout, timers, and idle work, and value
    /// histograms (`send_latency_ms`). Stage timings come from `tracer`.
    pub(crate) obs: crate::obs_cmd::ToolkitObs,
    /// Causal span tracing (rtk-trace): one store per application, shared
    /// with the X connection so client- and server-side records form one
    /// tree.
    pub(crate) tracer: rtk_obs::Tracer,
    timers: RefCell<Vec<Timer>>,
    next_timer: Cell<u64>,
    file_handlers: RefCell<Vec<FileHandler>>,
    idle: RefCell<Vec<IdleTask>>,
    /// Pending damage for scheduled redraws, by widget path.
    damage: RefCell<HashMap<String, Damage>>,
    /// Damage-narrowed redraw on/off. Off = every redraw repaints the
    /// whole widget, the pre-damage behavior (on at creation; equivalence
    /// tests flip it with [`TkApp::set_damage`]).
    damage_enabled: Cell<bool>,
    /// The invisible communication window used by `send`.
    pub(crate) comm: WindowId,
    destroyed: Cell<bool>,
}

/// One Tk application (cheaply clonable handle).
#[derive(Clone)]
pub struct TkApp {
    pub(crate) inner: Rc<AppInner>,
}

impl TkApp {
    /// Creates an application on `env` named `name`, with its interpreter,
    /// main window `"."`, and all Tk commands registered.
    pub fn new(env: &TkEnv, name: &str) -> TkApp {
        let conn = env.display.connect();
        let interp = Interp::new();
        // The send communication window: an unmapped child of the root on
        // which this app listens for property changes.
        let comm = conn
            .create_window(conn.root(), 0, 0, 1, 1, 0)
            .expect("root window exists");
        conn.select_input(comm, mask::PROPERTY_CHANGE);
        let tracer = rtk_obs::Tracer::new(env.origin);
        tracer.set_virtual_clock(env.clock.clone());
        conn.set_tracer(tracer.clone());
        let inner = Rc::new(AppInner {
            name: RefCell::new(name.to_string()),
            env: env.clone(),
            conn,
            interp,
            windows: RefCell::new(HashMap::new()),
            by_xid: RefCell::new(HashMap::new()),
            bindings: RefCell::new(BindingTable::new()),
            cache: ResourceCache::new(),
            options: RefCell::new(OptionDb::new()),
            packer: RefCell::new(Packer::new()),
            selection: RefCell::new(SelectionState::default()),
            send: RefCell::new(SendState::default()),
            obs: Default::default(),
            tracer,
            timers: RefCell::new(Vec::new()),
            next_timer: Cell::new(0),
            file_handlers: RefCell::new(Vec::new()),
            idle: RefCell::new(Vec::new()),
            damage: RefCell::new(HashMap::new()),
            damage_enabled: Cell::new(true),
            comm,
            destroyed: Cell::new(false),
        });
        let app = TkApp { inner };
        env.register_app(&app.inner);

        // The main window "." — a toplevel child of the root.
        let main_xid = app
            .conn()
            .create_window(app.conn().root(), 0, 0, 200, 200, 0)
            .expect("root window exists");
        let rec = Rc::new(TkWindow::new(".", "Toplevel", main_xid, 200, 200));
        app.select_standard_input(main_xid);
        app.inner.windows.borrow_mut().insert(".".into(), rec);
        app.inner.by_xid.borrow_mut().insert(main_xid, ".".into());
        app.conn().map_window(main_xid);

        crate::cmds::register_all(&app);
        crate::widget::register_all(&app);
        crate::pack::register(&app);
        crate::send::register(&app);
        crate::selection::register(&app);
        crate::send::announce(&app);
        app.process_pending();
        app
    }

    /// The event mask every Tk window selects.
    fn select_standard_input(&self, xid: WindowId) {
        self.conn().select_input(
            xid,
            mask::EXPOSURE
                | mask::STRUCTURE_NOTIFY
                | mask::BUTTON_PRESS
                | mask::BUTTON_RELEASE
                | mask::KEY_PRESS
                | mask::ENTER_WINDOW
                | mask::LEAVE_WINDOW
                | mask::POINTER_MOTION
                | mask::FOCUS_CHANGE,
        );
    }

    /// This application's `send` name.
    pub fn name(&self) -> String {
        self.inner.name.borrow().clone()
    }

    /// The Tcl interpreter.
    pub fn interp(&self) -> &Interp {
        &self.inner.interp
    }

    /// The X connection.
    pub fn conn(&self) -> &Connection {
        &self.inner.conn
    }

    /// The environment this app lives in.
    pub fn env(&self) -> &TkEnv {
        &self.inner.env
    }

    /// The resource cache.
    pub fn cache(&self) -> &ResourceCache {
        &self.inner.cache
    }

    /// Toolkit-level observability metrics for this application.
    pub fn obs(&self) -> &crate::obs_cmd::ToolkitObs {
        &self.inner.obs
    }

    /// The causal span tracer (rtk-trace) for this application.
    pub fn tracer(&self) -> &rtk_obs::Tracer {
        &self.inner.tracer
    }

    /// Evaluates a Tcl script in this application.
    pub fn eval(&self, script: &str) -> TclResult {
        self.inner.interp.eval(script)
    }

    /// Looks up a window record by path.
    pub fn window(&self, path: &str) -> Option<Rc<TkWindow>> {
        self.inner.windows.borrow().get(path).cloned()
    }

    /// Looks up a window record by path, or errors like Tk.
    pub fn require_window(&self, path: &str) -> Result<Rc<TkWindow>, Exception> {
        self.window(path)
            .ok_or_else(|| Exception::error(format!("bad window path name \"{path}\"")))
    }

    /// Path of the window with the given X id, if it is one of ours.
    pub fn path_of(&self, xid: WindowId) -> Option<String> {
        self.inner.by_xid.borrow().get(&xid).cloned()
    }

    /// All window paths, sorted.
    pub fn window_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.windows.borrow().keys().cloned().collect();
        v.sort();
        v
    }

    /// Creates a new Tk window (and its X window) at `path`.
    ///
    /// The parent path must already exist; the new window is registered but
    /// left unmapped — geometry managers map it when they place it.
    pub fn make_window(
        &self,
        path: &str,
        class: &'static str,
        width: u32,
        height: u32,
        border_width: u32,
    ) -> Result<Rc<TkWindow>, Exception> {
        validate_path(path)?;
        if self.inner.windows.borrow().contains_key(path) {
            return Err(Exception::error(format!(
                "window name \"{}\" already exists in parent",
                crate::window::name_of(path)
            )));
        }
        let parent = parent_path(path)
            .ok_or_else(|| Exception::error(format!("bad window path name \"{path}\"")))?;
        let parent_rec = self.require_window(parent)?;
        let xid = self
            .conn()
            .create_window(parent_rec.xid, 0, 0, width, height, border_width)
            .map_err(crate::cache::xerr)?;
        self.select_standard_input(xid);
        let rec = Rc::new(TkWindow::new(path, class, xid, width, height));
        rec.border_width.set(border_width);
        self.inner
            .windows
            .borrow_mut()
            .insert(path.to_string(), rec.clone());
        self.inner.by_xid.borrow_mut().insert(xid, path.to_string());
        Ok(rec)
    }

    /// Destroys a window and all its descendants: Tk records, widget
    /// commands, bindings, pack slots, and the X windows themselves.
    pub fn destroy_window(&self, path: &str) -> Result<(), Exception> {
        self.require_window(path)?;
        // Collect this window and all descendants by path prefix.
        let prefix = if path == "." {
            ".".to_string()
        } else {
            format!("{path}.")
        };
        let doomed: Vec<String> = self
            .inner
            .windows
            .borrow()
            .keys()
            .filter(|p| *p == path || p.starts_with(&prefix))
            .cloned()
            .collect();
        let mut xids = Vec::with_capacity(doomed.len());
        for p in &doomed {
            if let Some(w) = self.window(p) {
                let widget = w.widget.borrow().clone();
                if let Some(widget) = widget {
                    widget.destroyed(self, p);
                }
                self.inner.interp.unregister(p);
                self.inner.bindings.borrow_mut().forget_window(p);
                self.inner.packer.borrow_mut().forget(p);
                self.inner.by_xid.borrow_mut().remove(&w.xid);
                xids.push(w.xid);
            }
            self.inner.windows.borrow_mut().remove(p);
            self.inner.damage.borrow_mut().remove(p);
        }
        // Destroy every X window explicitly: reparented windows (menus)
        // are not X descendants of the subtree root; re-destroying an
        // already-gone id is a no-op.
        for xid in xids {
            self.conn().destroy_window(xid);
        }
        if path == "." {
            if !self.inner.destroyed.get() {
                // Deregister from the send registry and take the comm
                // window down with us: peers' liveness probes (and the
                // DestroyNotify broadcast) must see this application as
                // dead, not as a forever-silent send target.
                crate::send::withdraw(self);
                self.conn().destroy_window(self.inner.comm);
            }
            self.inner.destroyed.set(true);
        }
        Ok(())
    }

    /// Has the application's main window been destroyed?
    pub fn destroyed(&self) -> bool {
        self.inner.destroyed.get()
    }

    // ----- geometry management ----------------------------------------------

    /// `Tk_GeometryRequest`: a widget announces its preferred size; the
    /// geometry manager (or the pseudo window manager, for toplevels)
    /// reacts (Section 3.4).
    pub fn geometry_request(&self, path: &str, width: u32, height: u32) {
        let Some(rec) = self.window(path) else {
            return;
        };
        rec.req_width.set(width.max(1));
        rec.req_height.set(height.max(1));
        let manager = rec.manager.borrow().clone();
        if manager == "pack" {
            if let Some(master) = self.inner.packer.borrow().master_of(path) {
                self.schedule_relayout(&master);
            }
        } else if self.is_toplevel(path) {
            // No real window manager in the simulation: grant the request.
            self.configure(path, &rec, None, width, height);
        }
    }

    /// Is this path a toplevel (the main window or a Toplevel widget)?
    pub fn is_toplevel(&self, path: &str) -> bool {
        path == "." || self.window(path).is_some_and(|w| w.class == "Toplevel")
    }

    /// Moves/resizes a window and maps it (geometry managers call this).
    /// Like `Tk_MoveResizeWindow` and `Tk_MapWindow`, it writes the
    /// structure cache as it sends the requests, and sends nothing the
    /// cache already holds.
    pub fn place_window(&self, path: &str, x: i32, y: i32, width: u32, height: u32) {
        let Some(rec) = self.window(path) else {
            return;
        };
        self.configure(path, &rec, Some((x, y)), width, height);
        if !rec.mapped.replace(true) {
            self.conn().map_window(rec.xid);
        }
    }

    /// Unmaps a mapped window: the geometry managers' counterpart of
    /// [`TkApp::place_window`].
    pub fn unmap_window(&self, path: &str) {
        if let Some(rec) = self.window(path).filter(|r| r.mapped.replace(false)) {
            self.conn().unmap_window(rec.xid);
        }
    }

    /// Sends a ConfigureWindow, unless the structure cache already holds
    /// this geometry, and writes it through to the cache. A resized master
    /// re-arranges its packed slaves; the server exposes a resized
    /// viewable window, and that repaints it.
    fn configure(&self, path: &str, rec: &TkWindow, pos: Option<(i32, i32)>, w: u32, h: u32) {
        let (x, y) = pos.unwrap_or((rec.x.get(), rec.y.get()));
        let (w, h) = (w.max(1), h.max(1));
        let resized = (rec.width.get(), rec.height.get()) != (w, h);
        if !resized && (rec.x.get(), rec.y.get()) == (x, y) {
            return;
        }
        rec.x.set(x);
        rec.y.set(y);
        rec.width.set(w);
        rec.height.set(h);
        rec.configures.set(rec.configures.get() + 1);
        let (px, py) = (pos.map(|p| p.0), pos.map(|p| p.1));
        self.conn()
            .configure_window(rec.xid, px, py, Some(w), Some(h), None);
        if resized && self.inner.packer.borrow().has_slaves(path) {
            self.schedule_relayout(path);
        }
    }

    // ----- idle & timer machinery ----------------------------------------------

    /// Schedules a Tcl script to run when the application goes idle.
    pub fn schedule_idle_script(&self, script: &str) {
        self.inner
            .idle
            .borrow_mut()
            .push(IdleTask::Script(script.to_string()));
    }

    /// Schedules a full-widget redraw (deduplicated). Full damage
    /// swallows any rect damage already pending for the path. As in Tk,
    /// an unmapped window schedules nothing: mapping it exposes it.
    pub fn schedule_redraw(&self, path: &str) {
        if !self.is_mapped(path) {
            return;
        }
        self.inner.tracer.instant("damage", path, 0);
        self.inner
            .damage
            .borrow_mut()
            .insert(path.to_string(), Damage::Full);
        self.push_redraw_task(path);
    }

    /// Schedules a widget redraw narrowed to `rect` (widget-relative
    /// coordinates). The rect coalesces into damage already pending for
    /// the path; pending full damage stays full. With damage disabled
    /// this degenerates to [`TkApp::schedule_redraw`].
    pub fn schedule_redraw_damage(&self, path: &str, rect: Rect) {
        if !self.damage_enabled() || !self.is_mapped(path) {
            return self.schedule_redraw(path);
        }
        self.inner.tracer.instant("damage", path, 0);
        {
            let mut damage = self.inner.damage.borrow_mut();
            match damage.get_mut(path) {
                Some(Damage::Full) => {}
                Some(Damage::Rects(list)) => {
                    list.add(rect);
                }
                None => {
                    let mut list = DamageList::new();
                    list.add(rect);
                    damage.insert(path.to_string(), Damage::Rects(list));
                }
            }
        }
        self.push_redraw_task(path);
    }

    /// Records an Expose event's area as pending damage and schedules the
    /// widget's redraw. Widgets call this from their Expose arms; the
    /// rects of a multi-rect Expose batch (`count` > 0) coalesce into the
    /// one scheduled redraw.
    pub fn expose_damage(&self, path: &str, ev: &Event) {
        if let Event::Expose {
            x,
            y,
            width,
            height,
            ..
        } = ev
        {
            self.schedule_redraw_damage(path, Rect::new(*x, *y, *width, *height));
        }
    }

    /// Is damage-narrowed redrawing enabled?
    pub fn damage_enabled(&self) -> bool {
        self.inner.damage_enabled.get()
    }

    /// Turns damage-narrowed redrawing on or off (equivalence tests run
    /// the same script in both modes and compare framebuffers).
    pub fn set_damage(&self, on: bool) {
        self.inner.damage_enabled.set(on);
    }

    /// Is a repaint already pending for `path`? Every schedule path
    /// inserts into the damage map regardless of mode, so this predicate
    /// is mode-independent — widgets use it to decide whether a scroll
    /// blit is safe (blitting would shift not-yet-repainted damage).
    pub fn has_pending_damage(&self, path: &str) -> bool {
        self.inner.damage.borrow().contains_key(path)
    }

    /// Is the window mapped, as far as the structure cache knows?
    pub(crate) fn is_mapped(&self, path: &str) -> bool {
        self.window(path).is_some_and(|w| w.mapped.get())
    }

    fn push_redraw_task(&self, path: &str) {
        // The first scheduler's span is the redraw's cause; coalesced
        // re-schedules keep it (the span that first dirtied the window).
        let cause = self.inner.tracer.current();
        let mut idle = self.inner.idle.borrow_mut();
        if !idle
            .iter()
            .any(|t| matches!(t, IdleTask::Redraw { path: p, .. } if p == path))
        {
            idle.push(IdleTask::Redraw {
                path: path.to_string(),
                cause,
            });
        }
    }

    /// Schedules a packer relayout of `master` (deduplicated).
    pub fn schedule_relayout(&self, master: &str) {
        let cause = self.inner.tracer.current();
        let mut idle = self.inner.idle.borrow_mut();
        if !idle
            .iter()
            .any(|t| matches!(t, IdleTask::Relayout { master: p, .. } if p == master))
        {
            idle.push(IdleTask::Relayout {
                master: master.to_string(),
                cause,
            });
        }
    }

    /// Schedules `script` to run `ms` virtual milliseconds from now;
    /// returns a timer id for `after cancel`-style use.
    pub fn schedule_after(&self, ms: u64, script: &str) -> u64 {
        let id = self.inner.next_timer.get() + 1;
        self.inner.next_timer.set(id);
        self.inner.timers.borrow_mut().push(Timer {
            id,
            deadline: self.inner.env.now() + ms,
            script: script.to_string(),
        });
        id
    }

    /// Cancels a timer; true if it existed.
    pub fn cancel_after(&self, id: u64) -> bool {
        let mut timers = self.inner.timers.borrow_mut();
        let before = timers.len();
        timers.retain(|t| t.id != id);
        timers.len() != before
    }

    /// Runs timers whose deadline has passed.
    pub fn run_due_timers(&self) {
        let now = self.inner.env.now();
        loop {
            let due: Option<Timer> = {
                let mut timers = self.inner.timers.borrow_mut();
                timers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.deadline <= now)
                    .min_by_key(|(_, t)| (t.deadline, t.id))
                    .map(|(i, _)| i)
                    .map(|i| timers.remove(i))
            };
            match due {
                Some(t) => {
                    self.inner.obs.count().timers_fired += 1;
                    self.eval_background(&t.script);
                }
                None => break,
            }
        }
    }

    /// Registers a file handler: `script` runs whenever `path` appears or
    /// its contents change (checked during event processing). Returns an
    /// id for [`TkApp::delete_file_handler`].
    pub fn create_file_handler(&self, path: impl Into<std::path::PathBuf>, script: &str) -> u64 {
        let id = self.inner.next_timer.get() + 1;
        self.inner.next_timer.set(id);
        self.inner.file_handlers.borrow_mut().push(FileHandler {
            id,
            path: path.into(),
            script: script.to_string(),
            last: None,
        });
        id
    }

    /// Removes a file handler; true if it existed.
    pub fn delete_file_handler(&self, id: u64) -> bool {
        let mut handlers = self.inner.file_handlers.borrow_mut();
        let before = handlers.len();
        handlers.retain(|h| h.id != id);
        handlers.len() != before
    }

    /// Polls the registered file handlers, firing scripts for files whose
    /// state changed. Returns true if any fired.
    pub fn poll_file_handlers(&self) -> bool {
        let mut due: Vec<String> = Vec::new();
        {
            let mut handlers = self.inner.file_handlers.borrow_mut();
            for h in handlers.iter_mut() {
                let state = std::fs::metadata(&h.path)
                    .ok()
                    .map(|m| (m.len(), m.modified().unwrap_or(std::time::UNIX_EPOCH)));
                if let Some(state) = state {
                    if h.last != Some(state) {
                        h.last = Some(state);
                        due.push(h.script.clone());
                    }
                }
            }
        }
        let fired = !due.is_empty();
        for script in due {
            self.eval_background(&script);
        }
        fired
    }

    /// Runs queued idle tasks. Returns true if any ran.
    pub fn run_idle_tasks(&self) -> bool {
        let mut ran = false;
        // Idle tasks may schedule more idle tasks; loop until drained but
        // bound the number of generations to catch runaway loops.
        for _ in 0..100 {
            let tasks: Vec<IdleTask> = self.inner.idle.borrow_mut().drain(..).collect();
            if tasks.is_empty() {
                break;
            }
            ran = true;
            for task in tasks {
                match task {
                    IdleTask::Script(s) => {
                        self.inner.obs.count().idle_scripts += 1;
                        self.eval_background(&s);
                    }
                    IdleTask::Redraw { path, cause } => {
                        self.inner.obs.count().idle_redraws += 1;
                        let damage = self.inner.damage.borrow_mut().remove(&path);
                        // A window unmapped since the schedule is not drawn.
                        if let Some(rec) = self.window(&path).filter(|w| w.mapped.get()) {
                            let widget = rec.widget.borrow().clone();
                            if let Some(w) = widget {
                                // Both modes send the same request stream
                                // (SetClip, the widget's draws, ClearClip) so
                                // seq-keyed fault plans hit the same requests;
                                // only the clip payload differs. An empty rect
                                // list means unclipped — the full redraw.
                                let rects = match damage {
                                    Some(Damage::Rects(mut list)) if self.damage_enabled() => {
                                        list.take()
                                    }
                                    _ => Vec::new(),
                                };
                                let _scope = self.inner.tracer.scope(cause);
                                let _tspan = self.inner.tracer.begin("redraw", &*path, 0);
                                self.conn().set_clip(rec.xid, rects);
                                w.redraw(self, &path);
                                self.conn().clear_clip(rec.xid);
                            }
                        }
                    }
                    IdleTask::Relayout { master, cause } => {
                        self.inner.obs.count().idle_relayouts += 1;
                        let _scope = self.inner.tracer.scope(cause);
                        crate::pack::relayout(self, &master);
                    }
                }
            }
        }
        ran
    }

    /// Processes every queued X event (and polls file handlers, which are
    /// part of the Section 3.2 dispatcher). Returns true if any work ran.
    /// Noticing a dead connection tears the application down cleanly.
    pub fn process_pending(&self) -> bool {
        let mut any = false;
        while let Some(ev) = self.conn().poll_event() {
            any = true;
            self.dispatch_event(&ev);
        }
        // A dead connection polls nothing; a poll's flush can kill it.
        if !self.conn().alive() {
            return self.connection_died() || any;
        }
        if !self.inner.file_handlers.borrow().is_empty() && self.poll_file_handlers() {
            any = true;
        }
        any
    }

    /// Clean teardown after the X connection died (a real Tk would call
    /// `exit`): deregister from the `send` registry, destroy the window
    /// tree records, and mark the application destroyed. Returns true the
    /// first time (work was done), false on later calls.
    fn connection_died(&self) -> bool {
        if self.inner.destroyed.get() {
            return false;
        }
        self.inner.obs.count().connection_dead += 1;
        crate::send::withdraw_post_mortem(self);
        // The server already reclaimed the X windows at close-down; this
        // clears the Tk-side records (widget commands, bindings, pack
        // slots) and sets the destroyed flag.
        let _ = self.destroy_window(".");
        self.inner.destroyed.set(true);
        true
    }

    /// Processes events and idle tasks until both are drained (`update`).
    ///
    /// Bounded: an idle handler that perpetually re-schedules itself (the
    /// classic `DoWhenIdle` footgun) makes some progress and then returns
    /// instead of hanging the application.
    pub fn update(&self) {
        let _tspan = self.inner.tracer.begin("update", "", 0);
        for _ in 0..100 {
            let events = self.process_pending();
            let idle = self.run_idle_tasks();
            if !events && !idle {
                break;
            }
        }
        // Flush before going back to blocking/idle: any one-way requests
        // the idle handlers queued must reach the display now.
        self.conn().flush();
    }

    /// Evaluates a script whose errors are reported through `tkerror`
    /// rather than propagated (bindings, timers, idle scripts).
    pub fn eval_background(&self, script: &str) {
        // The span detail is a short, deterministic script prefix: its
        // first 32 characters.
        let end = script.char_indices().nth(32).map_or(script.len(), |c| c.0);
        let _tspan = self.inner.tracer.begin("eval", &script[..end], 0);
        if let Err(e) = self.inner.interp.eval(script) {
            if e.code != tcl::Code::Error {
                return; // break/continue/return at background level: ignore
            }
            self.inner.obs.count().background_errors += 1;
            let msg = e.msg.clone();
            if self.inner.interp.command("tkerror").is_some() {
                let call = tcl::format_list(&["tkerror".to_string(), msg]);
                let _ = self.inner.interp.eval(&call);
            } else {
                self.inner
                    .interp
                    .write_output(&format!("background error: {msg}\n"));
            }
        }
    }

    /// Dispatches one X event: structure cache, send/selection protocol,
    /// the widget's built-in handler, then user bindings.
    pub fn dispatch_event(&self, ev: &Event) {
        self.inner.obs.count().events_dispatched += 1;
        let _tspan = self.inner.tracer.begin("dispatch", ev.name(), 0);
        self.dispatch_event_inner(ev);
    }

    fn dispatch_event_inner(&self, ev: &Event) {
        // Selection protocol events (including SelectionNotify answers
        // that land on the comm window).
        match ev {
            Event::SelectionRequest { .. }
            | Event::SelectionClear { .. }
            | Event::SelectionNotify { .. } => {
                crate::selection::handle_event(self, ev);
                return;
            }
            _ => {}
        }
        // Send protocol traffic arrives on the comm window.
        if ev.window() == self.inner.comm {
            crate::send::handle_comm_event(self, ev);
            return;
        }
        // A DestroyNotify may be for a peer's comm window: fail any
        // in-flight sends aimed at it fast instead of waiting out the
        // deadline. (No-op unless the window matches a pending send.)
        if let Event::DestroyNotify { window } = ev {
            crate::send::handle_peer_destroyed(self, *window);
        }
        let Some(path) = self.path_of(ev.window()) else {
            return;
        };
        // Structure cache updates.
        if let Some(rec) = self.window(&path) {
            match ev {
                // The echo of an own configure is already in the cache.
                // One with a later configure in flight must not roll the
                // cache back.
                Event::ConfigureNotify { .. } if rec.configure_echo_is_stale() => {}
                Event::ConfigureNotify {
                    x,
                    y,
                    width,
                    height,
                    border_width,
                    ..
                } => {
                    rec.x.set(*x);
                    rec.y.set(*y);
                    let resized = rec.width.get() != *width || rec.height.get() != *height;
                    rec.width.set(*width);
                    rec.height.set(*height);
                    rec.border_width.set(*border_width);
                    if resized {
                        // A resized master must re-place its packed slaves.
                        if self.inner.packer.borrow().has_slaves(&path) {
                            self.schedule_relayout(&path);
                        }
                        self.schedule_redraw(&path);
                    }
                }
                Event::MapNotify { .. } => rec.mapped.set(true),
                Event::UnmapNotify { .. } => rec.mapped.set(false),
                Event::DestroyNotify { .. } => {
                    // Destroyed from outside `destroy` (e.g. a parent died
                    // server-side): clean up our records.
                    let _ = self.destroy_window(&path);
                    return;
                }
                _ => {}
            }
            // The widget's built-in (C-level, here Rust-level) handler.
            let widget = rec.widget.borrow().clone();
            if let Some(widget) = widget {
                widget.event(self, &path, ev);
            }
        }
        // User bindings (Figure 7).
        let class = self.window(&path).map_or("", |r| r.class);
        if let Some(info) = EventInfo::from_event(ev) {
            let script = self
                .inner
                .bindings
                .borrow_mut()
                .match_event(&path, class, &info);
            if let Some(script) = script {
                self.inner.obs.count().bind_matches += 1;
                let script = percent_substitute(&script, &info, &path);
                let _tspan = self
                    .inner
                    .tracer
                    .begin("bind", format_args!("{path} {info}"), 0);
                self.eval_background(&script);
            } else {
                self.inner.obs.count().bind_misses += 1;
            }
        }
    }

    /// Queries the option database for `path`'s option `name`/`class`,
    /// following Section 3.5's name/class matching.
    pub fn option_get(&self, path: &str, name: &str, class: &str) -> Option<String> {
        let levels = self.option_levels(path, name, class);
        self.inner.options.borrow().get(&levels).map(str::to_string)
    }

    /// The levels [`OptionDb::get`] matches for `path`'s option
    /// `name`/`class`: each window on the path, from the main window's
    /// child down to `path` itself, by name and class (one window lookup
    /// each), then the option. A widget builds them once for all of its
    /// options, rewriting only the last pair.
    pub(crate) fn option_levels<'a>(
        &self,
        path: &'a str,
        name: &'a str,
        class: &'a str,
    ) -> Vec<(&'a str, &'a str)> {
        let windows = self.inner.windows.borrow();
        let mut end = 0;
        let below_main = path.strip_prefix('.').filter(|rest| !rest.is_empty());
        let mut levels: Vec<_> = below_main
            .into_iter()
            .flat_map(|rest| rest.split('.'))
            .map(|level| {
                end += 1 + level.len();
                let class = windows.get(&path[..end]).map_or("Frame", |w| w.class);
                (level, class)
            })
            .collect();
        levels.push((name, class));
        levels
    }

    /// Registers a Tcl command whose closure receives this app (weakly,
    /// so the interpreter's registry does not keep the app alive).
    pub fn register_command<F>(&self, name: &str, f: F)
    where
        F: Fn(&TkApp, &Interp, &[String]) -> TclResult + 'static,
    {
        let weak = Rc::downgrade(&self.inner);
        self.inner.interp.register(name, move |interp, argv| {
            let Some(inner) = weak.upgrade() else {
                return Err(Exception::error("application has been destroyed"));
            };
            let app = TkApp { inner };
            f(&app, interp, argv)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_has_main_window() {
        let env = TkEnv::new();
        let app = env.app("test");
        let main = app.window(".").unwrap();
        assert_eq!(main.class, "Toplevel");
        assert!(app.path_of(main.xid).is_some());
    }

    #[test]
    fn make_window_validates_parent() {
        let env = TkEnv::new();
        let app = env.app("t");
        assert!(app.make_window(".a.b", "Frame", 10, 10, 0).is_err());
        app.make_window(".a", "Frame", 10, 10, 0).unwrap();
        app.make_window(".a.b", "Frame", 10, 10, 0).unwrap();
        // Duplicate names rejected.
        assert!(app.make_window(".a", "Frame", 10, 10, 0).is_err());
    }

    #[test]
    fn destroy_removes_subtree() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.make_window(".a", "Frame", 10, 10, 0).unwrap();
        app.make_window(".a.b", "Frame", 10, 10, 0).unwrap();
        app.make_window(".c", "Frame", 10, 10, 0).unwrap();
        app.destroy_window(".a").unwrap();
        assert!(app.window(".a").is_none());
        assert!(app.window(".a.b").is_none());
        assert!(app.window(".c").is_some());
    }

    #[test]
    fn structure_cache_tracks_configure() {
        let env = TkEnv::new();
        let app = env.app("t");
        let rec = app.make_window(".f", "Frame", 30, 40, 0).unwrap();
        app.conn()
            .configure_window(rec.xid, Some(7), Some(8), Some(50), Some(60), None);
        app.process_pending();
        assert_eq!(rec.x.get(), 7);
        assert_eq!(rec.width.get(), 50);
        assert_eq!(rec.height.get(), 60);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set order {}").unwrap();
        app.schedule_after(200, "lappend order b");
        app.schedule_after(100, "lappend order a");
        env.advance(50);
        assert_eq!(app.eval("set order").unwrap(), "");
        env.advance(100);
        assert_eq!(app.eval("set order").unwrap(), "a");
        env.advance(100);
        assert_eq!(app.eval("set order").unwrap(), "a b");
    }

    #[test]
    fn cancel_timer() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set hits 0").unwrap();
        let id = app.schedule_after(10, "incr hits");
        assert!(app.cancel_after(id));
        assert!(!app.cancel_after(id));
        env.advance(100);
        assert_eq!(app.eval("set hits").unwrap(), "0");
    }

    #[test]
    fn idle_scripts_run_on_update() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set x 0").unwrap();
        app.schedule_idle_script("set x 1");
        assert_eq!(app.eval("set x").unwrap(), "0");
        app.update();
        assert_eq!(app.eval("set x").unwrap(), "1");
    }

    #[test]
    fn background_errors_go_to_tkerror() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("proc tkerror {msg} {global caught; set caught $msg}")
            .unwrap();
        app.schedule_idle_script("error boom");
        app.update();
        assert_eq!(app.eval("set caught").unwrap(), "boom");
    }

    #[test]
    fn register_command_receives_app() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.register_command("appname", |app, _i, _argv| Ok(app.name()));
        assert_eq!(app.eval("appname").unwrap(), "t");
    }

    #[test]
    fn option_get_resolves_classes() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.make_window(".b", "Button", 10, 10, 0).unwrap();
        app.inner
            .options
            .borrow_mut()
            .add("*Button.background", "red", 60);
        assert_eq!(
            app.option_get(".b", "background", "Background"),
            Some("red".into())
        );
        assert_eq!(app.option_get(".b", "foreground", "Foreground"), None);
    }
}

#[cfg(test)]
mod file_handler_tests {
    use super::*;

    #[test]
    fn file_handler_fires_on_appearance_and_change() {
        let env = TkEnv::new();
        let app = env.app("t");
        let dir = std::env::temp_dir().join("rtk_filehandler_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watched.log");
        let _ = std::fs::remove_file(&path);
        app.eval("set fires 0").unwrap();
        let id = app.create_file_handler(&path, "incr fires");
        app.update();
        assert_eq!(app.eval("set fires").unwrap(), "0", "no file yet");
        std::fs::write(&path, "first").unwrap();
        app.update();
        assert_eq!(app.eval("set fires").unwrap(), "1", "file appeared");
        app.update();
        assert_eq!(app.eval("set fires").unwrap(), "1", "no change, no fire");
        std::fs::write(&path, "second-longer").unwrap();
        app.update();
        assert_eq!(app.eval("set fires").unwrap(), "2", "contents changed");
        assert!(app.delete_file_handler(id));
        std::fs::write(&path, "third!").unwrap();
        app.update();
        assert_eq!(app.eval("set fires").unwrap(), "2", "handler removed");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    #[test]
    fn connection_death_tears_the_application_down() {
        let env = TkEnv::new();
        let a = env.app("doomed");
        let b = env.app("survivor");
        a.eval("button .b -text hi").unwrap();
        a.update();
        assert!(env.application_names().contains(&"doomed".to_string()));
        let seq = a.conn().sequence();
        env.display().with_server(|s| {
            s.install_fault_plan(
                xsim::FaultPlan::default().kill_at(a.conn().client_id().0, seq + 1),
            )
        });
        // The kill fires at flush time, so the command itself may complete
        // (the death is asynchronous, as with a real X socket).
        let _ = a.eval("frame .f");
        env.dispatch_all();
        assert!(a.destroyed(), "app must notice its dead connection");
        // The registry no longer lists the dead app; the survivor still works.
        let names = crate::send::interps(&b);
        assert!(!names.contains(&"doomed".to_string()), "{names:?}");
        assert!(names.contains(&"survivor".to_string()), "{names:?}");
        b.eval("button .b -text fine").unwrap();
        b.update();
        // Further scripting in the dead app fails cleanly, never panics.
        assert!(a.eval("frame .g").is_err());
    }

    #[test]
    fn a_connection_killed_mid_batch_delivers_nothing_more() {
        let env = TkEnv::new();
        let a = env.app("doomed");
        a.eval("frame .f -geometry 60x60; pack append . .f {top}")
            .unwrap();
        a.eval("set hits 0; bind .f <Motion> {incr hits; focus}")
            .unwrap();
        a.update();
        let rec = a.window(".f").unwrap();
        // Five motion events wait in the server queue: one read brings
        // them all into the read-ahead.
        for i in 0..5 {
            env.display()
                .move_pointer(rec.x.get() + 5 + i, rec.y.get() + 5);
        }
        assert_eq!(a.conn().pending(), 5);
        // The first handler's `focus` is the next request: a round trip,
        // and the connection dies on it.
        let seq = a.conn().sequence();
        let client = a.conn().client_id();
        env.display().with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().kill_at(client.0, seq + 1))
        });
        let out = a.interp().capture_output();
        env.dispatch_all();
        assert_eq!(
            a.conn().sequence(),
            seq + 1,
            "the round trip was the last request"
        );
        // The failed `focus` is the binding's background error.
        assert_eq!(*out.borrow(), "background error: X connection broken\n");
        assert_eq!(
            a.conn().with_obs(|o| o.fault_kind_counts()).unwrap(),
            vec![("kill", 1)]
        );
        // The four events read ahead behind it died with the connection.
        assert_eq!(a.eval("set hits").unwrap(), "1");
        assert!(a.destroyed());
        assert_eq!(a.obs().counter("connection.dead"), 1);
        let audit = crate::send::audit(&env);
        assert!(audit.is_empty(), "{audit:?}");
    }

    #[test]
    fn protocol_error_in_command_becomes_tcl_error() {
        let env = TkEnv::new();
        let app = env.app("t");
        let seq = app.conn().sequence();
        env.display().with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().error_at(
                0,
                seq + 1,
                xsim::XErrorCode::BadWindow,
            ))
        });
        let err = app.eval("focus").unwrap_err();
        assert!(err.msg.contains("X protocol error"), "{}", err.msg);
        assert!(err.msg.contains("BadWindow"), "{}", err.msg);
        // The app survives and keeps working.
        app.eval("focus").unwrap();
    }

    #[test]
    fn background_protocol_error_routes_to_tkerror() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("proc tkerror {msg} {global caught; set caught $msg}")
            .unwrap();
        let seq = app.conn().sequence();
        env.display().with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().error_at(
                0,
                seq + 1,
                xsim::XErrorCode::BadAtom,
            ))
        });
        app.eval_background("focus");
        let caught = app.eval("set caught").unwrap();
        assert!(caught.contains("X protocol error"), "{caught}");
    }
}
