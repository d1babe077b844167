//! rtk-trace: causal span records across the event→script→redraw pipeline.
//!
//! A [`Tracer`] is a per-application, bounded, epoch-scoped store of
//! [`SpanRecord`]s. Spans carry both clocks — wall nanoseconds (for
//! profiling) and the virtual millisecond clock (deterministic) — plus a
//! sequence-number correlation key, so client-side spans line up with the
//! server-side flush batches and fault injections that share the same
//! sequence numbers. Causality is tracked two ways:
//!
//! * **Implicit nesting.** [`Tracer::begin`] parents the new span on the
//!   innermost open span (a stack, maintained by RAII [`SpanGuard`]s) —
//!   the natural shape for dispatch→binding→eval→damage.
//! * **Explicit causes.** Deferred work (an idle-queue redraw caused by an
//!   earlier damage event) records the causing span's id at schedule time
//!   and re-enters it with [`Tracer::scope`] at execution time, so the
//!   redraw span is a child of the event that damaged the window even
//!   though it runs much later.
//!
//! The store is bounded: once `cap` spans exist in the current epoch, new
//! spans are counted in `dropped` and not recorded. Dropping never
//! orphans a recorded span — a dropped span contributes no stack entry,
//! so its children attach to the nearest *recorded* ancestor.
//!
//! Span *structure* (counts by kind, parent/child edges) is deterministic
//! for deterministic workloads, which is what lets CI pin span-tree
//! shapes in `BUDGETS.json`; durations are report-only.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::json;

/// A span identifier. `0` is reserved for "no span" / the epoch root.
pub type SpanId = u64;

/// A shared virtual clock in simulated milliseconds. Clones share the
/// same underlying counter; it is `Send + Sync` so the same clock can be
/// read from the server's dispatch thread while the owning application
/// advances it.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock starting at 0 virtual milliseconds.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// The current virtual time in milliseconds.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Sets the virtual time.
    pub fn set(&self, vms: u64) {
        self.0.store(vms, Ordering::Relaxed);
    }

    /// Advances the virtual time by `ms` and returns the new value.
    pub fn advance(&self, ms: u64) -> u64 {
        self.0.fetch_add(ms, Ordering::Relaxed) + ms
    }
}

/// Default bound on spans recorded per epoch.
pub const DEFAULT_SPAN_CAP: usize = 1 << 17;

/// One recorded span (or instant, when `start_ns == end_ns` and the span
/// was never open).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique within the tracer (never reused across epochs).
    pub id: SpanId,
    /// Parent span id; `0` = a root of its epoch.
    pub parent: SpanId,
    /// Pipeline stage, e.g. `"dispatch"`, `"redraw"`, `"flush"`.
    pub kind: &'static str,
    /// Free-form deterministic detail (widget path, event name, ...).
    pub detail: String,
    /// X client id of the connection this span belongs to (0 = unknown).
    pub client: u32,
    /// Sequence-number correlation key (request seq, event index, or send
    /// serial, depending on `kind`); 0 = none.
    pub seq: u64,
    /// Wall-clock start, nanoseconds since the tracer's shared origin.
    pub start_ns: u64,
    /// Wall-clock end; equals `start_ns` for instants and open spans.
    pub end_ns: u64,
    /// Virtual clock (simulated ms) at start.
    pub start_vms: u64,
    /// Virtual clock at end.
    pub end_vms: u64,
    /// Epoch the span belongs to (bumped by [`Tracer::reset_epoch`]).
    pub epoch: u64,
    /// Still in flight (its guard has not been dropped yet).
    pub open: bool,
}

impl SpanRecord {
    /// Wall-clock duration (0 for instants and open spans).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Virtual-clock duration in simulated milliseconds.
    pub fn dur_vms(&self) -> u64 {
        self.end_vms.saturating_sub(self.start_vms)
    }

    /// An instant is a zero-width marker that was never open.
    pub fn is_instant(&self) -> bool {
        !self.open && self.start_ns == self.end_ns && self.start_vms == self.end_vms
    }
}

struct TracerInner {
    spans: Vec<SpanRecord>,
    /// id → index into `spans` for the current epoch.
    index: BTreeMap<SpanId, usize>,
    /// Open-context stack: innermost span (or explicitly scoped cause) last.
    stack: Vec<SpanId>,
    next_id: SpanId,
    epoch: u64,
    dropped: u64,
    cap: usize,
    origin: Instant,
    vclock: Option<VirtualClock>,
    client: u32,
}

impl TracerInner {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn now_vms(&self) -> u64 {
        self.vclock.as_ref().map(|c| c.get()).unwrap_or(0)
    }

    /// The innermost stack entry that still refers to a recorded span
    /// (entries can dangle after an epoch reset dropped their record).
    fn resolve_parent(&self) -> SpanId {
        for &id in self.stack.iter().rev() {
            if self.index.contains_key(&id) {
                return id;
            }
        }
        0
    }

    /// Stores one record under `parent` and returns its id; an open one
    /// also becomes the innermost context. When the store is full the
    /// record is counted in `dropped` instead and the id is `0`.
    fn record(
        &mut self,
        kind: &'static str,
        detail: String,
        seq: u64,
        parent: SpanId,
        open: bool,
    ) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let (now, vms) = (self.now_ns(), self.now_vms());
        self.spans.push(SpanRecord {
            id,
            parent,
            kind,
            detail,
            client: self.client,
            seq,
            start_ns: now,
            end_ns: now,
            start_vms: vms,
            end_vms: vms,
            epoch: self.epoch,
            open,
        });
        self.index.insert(id, self.spans.len() - 1);
        if open {
            self.stack.push(id);
        }
        id
    }
}

/// A shared handle to a per-application span store. Cloning is cheap and
/// all clones see the same store (the xsim connection and the toolkit
/// layers share one tracer per application). The store is behind a
/// `Mutex` so another app thread driving the shared wire server can
/// record flush and fault spans into the tree this client thread builds.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.inner.lock().unwrap();
        f.debug_struct("Tracer")
            .field("spans", &t.spans.len())
            .field("epoch", &t.epoch)
            .field("dropped", &t.dropped)
            .finish()
    }
}

impl Default for Tracer {
    /// A tracer whose wall clock starts now.
    fn default() -> Tracer {
        Tracer::new(Instant::now())
    }
}

impl Tracer {
    /// A tracer whose wall clock starts at `origin` (share one origin
    /// across applications so their traces align on a common timeline).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                spans: Vec::new(),
                index: BTreeMap::new(),
                stack: Vec::new(),
                next_id: 1,
                epoch: 0,
                dropped: 0,
                cap: DEFAULT_SPAN_CAP,
                origin,
                vclock: None,
                client: 0,
            })),
        }
    }

    /// Attaches the simulated clock; spans started afterwards carry
    /// virtual start/end times.
    pub fn set_virtual_clock(&self, clock: VirtualClock) {
        self.inner.lock().unwrap().vclock = Some(clock);
    }

    /// Stamps subsequent spans with the owning X client id.
    pub fn set_client(&self, client: u32) {
        self.inner.lock().unwrap().client = client;
    }

    /// Overrides the per-epoch span bound (clamped to at least 16).
    pub fn set_cap(&self, cap: usize) {
        self.inner.lock().unwrap().cap = cap.max(16);
    }

    /// The innermost open span, `0` if none — the "cause" a scheduler
    /// captures for work it defers.
    pub fn current(&self) -> SpanId {
        self.inner.lock().unwrap().resolve_parent()
    }

    /// Opens a span parented on the innermost open span. The returned
    /// guard closes it on drop.
    pub fn begin(&self, kind: &'static str, detail: impl Into<String>, seq: u64) -> SpanGuard {
        let mut t = self.inner.lock().unwrap();
        let parent = t.resolve_parent();
        SpanGuard {
            id: t.record(kind, detail.into(), seq, parent, true),
            tracer: self.clone(),
        }
    }

    /// Records a zero-width marker (damage event, fault injection, event
    /// enqueue, traced request) attached to the innermost open span.
    pub fn instant(&self, kind: &'static str, detail: impl Into<String>, seq: u64) {
        let mut t = self.inner.lock().unwrap();
        let parent = t.resolve_parent();
        t.record(kind, detail.into(), seq, parent, false);
    }

    /// Pushes an explicit parent context (typically a cause captured at
    /// schedule time) without opening a span; `begin` calls made while the
    /// guard lives parent on it. Pushing `0` is allowed and pins children
    /// to the epoch root.
    pub fn scope(&self, parent: SpanId) -> ScopeGuard {
        self.inner.lock().unwrap().stack.push(parent);
        ScopeGuard {
            tracer: self.clone(),
            id: parent,
        }
    }

    fn end(&self, id: SpanId) {
        if id == 0 {
            return;
        }
        let mut t = self.inner.lock().unwrap();
        // Normally `id` is the innermost entry; tolerate interleaved
        // drops by removing the matching entry wherever it sits.
        if let Some(pos) = t.stack.iter().rposition(|&s| s == id) {
            t.stack.remove(pos);
        }
        let (now, vms) = (t.now_ns(), t.now_vms());
        if let Some(&idx) = t.index.get(&id) {
            let rec = &mut t.spans[idx];
            if rec.open {
                rec.end_ns = now;
                rec.end_vms = vms;
                rec.open = false;
            }
        }
    }

    fn end_scope(&self, id: SpanId) {
        let mut t = self.inner.lock().unwrap();
        if let Some(pos) = t.stack.iter().rposition(|&s| s == id) {
            t.stack.remove(pos);
        }
    }

    /// Clears the store and bumps the epoch. In-flight spans survive:
    /// they move to the new epoch, keeping their nesting among themselves;
    /// an open span whose parent was closed (and therefore cleared)
    /// re-parents to the new epoch root instead of dangling.
    pub fn reset_epoch(&self) {
        let mut t = self.inner.lock().unwrap();
        t.epoch += 1;
        let epoch = t.epoch;
        let survivors: Vec<SpanRecord> = t.spans.iter().filter(|s| s.open).cloned().collect();
        let kept: BTreeMap<SpanId, ()> = survivors.iter().map(|s| (s.id, ())).collect();
        t.spans.clear();
        t.index.clear();
        for mut s in survivors {
            s.epoch = epoch;
            if !kept.contains_key(&s.parent) {
                s.parent = 0;
            }
            let id = s.id;
            t.spans.push(s);
            let idx = t.spans.len() - 1;
            t.index.insert(id, idx);
        }
        t.dropped = 0;
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap().epoch
    }

    /// Spans recorded in the current epoch.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().spans.len()
    }

    /// True when no spans have been recorded this epoch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped this epoch because the store was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Spans still in flight.
    pub fn open_count(&self) -> usize {
        let t = self.inner.lock().unwrap();
        t.spans.iter().filter(|s| s.open).count()
    }

    /// A copy of the current epoch's spans, in id order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let t = self.inner.lock().unwrap();
        let mut spans = t.spans.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Verifies the span tree is well-formed: every non-root parent
    /// exists, no span is still open (call at quiescence), and every
    /// closed interval is ordered. Returns the first violation.
    pub fn check_integrity(&self) -> Result<(), String> {
        let t = self.inner.lock().unwrap();
        for s in &t.spans {
            if s.parent != 0 && !t.index.contains_key(&s.parent) {
                return Err(format!(
                    "orphan span: id={} kind={} parent={} missing",
                    s.id, s.kind, s.parent
                ));
            }
            if s.open {
                return Err(format!("unclosed span: id={} kind={}", s.id, s.kind));
            }
            if s.end_ns < s.start_ns || s.end_vms < s.start_vms {
                return Err(format!("negative duration: id={} kind={}", s.id, s.kind));
            }
        }
        Ok(())
    }
}

/// RAII guard returned by [`Tracer::begin`]; closes the span on drop.
pub struct SpanGuard {
    tracer: Tracer,
    id: SpanId,
}

impl SpanGuard {
    /// The opened span's id (0 if the store was full and the span was
    /// dropped) — the value schedulers capture as a cause.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.tracer.end(self.id);
    }
}

/// RAII guard returned by [`Tracer::scope`]; pops the context on drop.
pub struct ScopeGuard {
    tracer: Tracer,
    id: SpanId,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        self.tracer.end_scope(self.id);
    }
}

// ---------------------------------------------------------------------------
// Exports: JSON, tree/flat text, Chrome trace events, folded stacks, and
// the virtual-clock profile.
// ---------------------------------------------------------------------------

/// Serializes spans as a JSON array (the `obs spans json` format).
pub fn spans_to_json(spans: &[SpanRecord]) -> String {
    let mut arr = json::Array::new();
    for s in spans {
        let mut o = json::Object::new();
        o.field_u64("id", s.id)
            .field_u64("parent", s.parent)
            .field_str("kind", s.kind)
            .field_str("detail", &s.detail)
            .field_u64("client", s.client as u64)
            .field_u64("seq", s.seq)
            .field_u64("start_ns", s.start_ns)
            .field_u64("end_ns", s.end_ns)
            .field_u64("start_vms", s.start_vms)
            .field_u64("end_vms", s.end_vms)
            .field_u64("epoch", s.epoch)
            .field_bool("open", s.open);
        arr.push_raw(&o.build());
    }
    arr.build()
}

fn children_map(spans: &[SpanRecord]) -> BTreeMap<SpanId, Vec<usize>> {
    let ids: BTreeMap<SpanId, ()> = spans.iter().map(|s| (s.id, ())).collect();
    let mut map: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = if ids.contains_key(&s.parent) {
            s.parent
        } else {
            0
        };
        map.entry(parent).or_default().push(i);
    }
    map
}

fn one_line(s: &SpanRecord) -> String {
    let timing = if s.is_instant() {
        format!("@{}ns", s.start_ns)
    } else if s.open {
        "open".to_string()
    } else {
        format!("{}ns/{}vms", s.dur_ns(), s.dur_vms())
    };
    let mut line = format!("{} id={} {}", s.kind, s.id, timing);
    if s.seq != 0 {
        line.push_str(&format!(" seq={}", s.seq));
    }
    if !s.detail.is_empty() {
        line.push_str(&format!(" [{}]", s.detail));
    }
    line
}

/// Renders spans as an indented tree (the `obs spans tree` format).
pub fn spans_to_tree(spans: &[SpanRecord]) -> String {
    let map = children_map(spans);
    let mut out = String::new();
    fn walk(
        spans: &[SpanRecord],
        map: &BTreeMap<SpanId, Vec<usize>>,
        id: SpanId,
        depth: usize,
        out: &mut String,
    ) {
        if let Some(kids) = map.get(&id) {
            for &i in kids {
                let s = &spans[i];
                out.push_str(&"  ".repeat(depth));
                out.push_str(&one_line(s));
                out.push('\n');
                walk(spans, map, s.id, depth + 1, out);
            }
        }
    }
    walk(spans, &map, 0, 0, &mut out);
    out
}

/// Renders spans one per line, in id order (the `obs spans flat` format).
pub fn spans_to_flat(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!("parent={} {}\n", s.parent, one_line(s)));
    }
    out
}

/// Pipeline stages in thread-id order for the Chrome trace export; spans
/// of unknown kinds get tids after these.
const STAGES: [&str; 15] = [
    "event",
    "dispatch",
    "bind",
    "eval",
    "damage",
    "relayout",
    "redraw",
    "update",
    "send",
    "send.eval",
    "request",
    "flush",
    "rasterize",
    "fault",
    "script",
];

fn stage_tid(kind: &str, extra: &mut Vec<String>) -> u64 {
    if let Some(i) = STAGES.iter().position(|s| *s == kind) {
        return i as u64 + 1;
    }
    if let Some(i) = extra.iter().position(|s| s == kind) {
        return STAGES.len() as u64 + 1 + i as u64;
    }
    extra.push(kind.to_string());
    STAGES.len() as u64 + extra.len() as u64
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Emits Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`)
/// for one or more applications: one pid per application, one tid per
/// pipeline stage, `X` complete events for spans, `i` instant events for
/// zero-width markers (damage, event enqueues, injected faults, traced
/// requests).
pub fn chrome_trace(apps: &[(String, Vec<SpanRecord>)]) -> String {
    let mut events = json::Array::new();
    for (pid0, (name, spans)) in apps.iter().enumerate() {
        let pid = pid0 as u64 + 1;
        let mut meta = json::Object::new();
        let mut args = json::Object::new();
        args.field_str("name", name);
        meta.field_str("ph", "M")
            .field_u64("pid", pid)
            .field_str("name", "process_name")
            .field_raw("args", &args.build());
        events.push_raw(&meta.build());

        let mut extra: Vec<String> = Vec::new();
        let mut named_tids: Vec<(u64, String)> = Vec::new();
        for s in spans {
            let tid = stage_tid(s.kind, &mut extra);
            if !named_tids.iter().any(|(t, _)| *t == tid) {
                named_tids.push((tid, s.kind.to_string()));
            }
            let mut args = json::Object::new();
            args.field_u64("id", s.id)
                .field_u64("parent", s.parent)
                .field_u64("seq", s.seq)
                .field_u64("epoch", s.epoch)
                .field_u64("vms", s.dur_vms())
                .field_str("detail", &s.detail);
            let mut ev = json::Object::new();
            if s.is_instant() {
                ev.field_str("ph", "i")
                    .field_str("s", "t")
                    .field_raw("ts", &micros(s.start_ns));
            } else {
                ev.field_str("ph", "X")
                    .field_raw("ts", &micros(s.start_ns))
                    .field_raw("dur", &micros(s.dur_ns()));
            }
            ev.field_u64("pid", pid)
                .field_u64("tid", tid)
                .field_str("name", s.kind)
                .field_str("cat", s.kind)
                .field_raw("args", &args.build());
            events.push_raw(&ev.build());
        }
        for (tid, kind) in named_tids {
            let mut args = json::Object::new();
            args.field_str("name", &kind);
            let mut meta = json::Object::new();
            meta.field_str("ph", "M")
                .field_u64("pid", pid)
                .field_u64("tid", tid)
                .field_str("name", "thread_name")
                .field_raw("args", &args.build());
            events.push_raw(&meta.build());
        }
    }
    let mut root = json::Object::new();
    root.field_raw("traceEvents", &events.build());
    root.field_str("displayTimeUnit", "ms");
    root.build()
}

/// Aggregates spans into folded stacks (`app;kind;kind value` lines, one
/// per unique stack) weighted by wall-clock *self* time — the input format
/// flamegraph tooling expects.
pub fn folded_stacks(apps: &[(String, Vec<SpanRecord>)]) -> String {
    aggregate_stacks(apps, |s| s.dur_ns(), false)
}

/// The virtual-clock profile: the same folded aggregation, but weighted by
/// simulated milliseconds of self time. Virtual durations are
/// deterministic, so this attribution reproduces exactly run to run.
pub fn virtual_profile(apps: &[(String, Vec<SpanRecord>)]) -> String {
    aggregate_stacks(apps, |s| s.dur_vms(), true)
}

fn aggregate_stacks(
    apps: &[(String, Vec<SpanRecord>)],
    weight: impl Fn(&SpanRecord) -> u64,
    keep_zero_roots: bool,
) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for (name, spans) in apps {
        let index: BTreeMap<SpanId, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Sum each span's children so self time = total - children.
        let mut child_sum: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 && index.contains_key(&s.parent) {
                *child_sum.entry(s.parent).or_insert(0) += weight(s);
            }
        }
        for s in spans {
            if s.is_instant() {
                continue;
            }
            let total = weight(s);
            let self_w = total.saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0));
            if self_w == 0 && !(keep_zero_roots && s.parent == 0) {
                continue;
            }
            // Build the stack path root→self.
            let mut path: Vec<&str> = vec![s.kind];
            let mut cur = s.parent;
            let mut hops = 0;
            while cur != 0 && hops < 64 {
                let Some(&i) = index.get(&cur) else { break };
                path.push(spans[i].kind);
                cur = spans[i].parent;
                hops += 1;
            }
            path.push(name.as_str());
            path.reverse();
            *agg.entry(path.join(";")).or_insert(0) += self_w;
        }
    }
    let mut out = String::new();
    for (stack, w) in agg {
        out.push_str(&format!("{stack} {w}\n"));
    }
    out
}

/// One pipeline stage's rollup in a span set (see [`stage_totals`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The span kind, e.g. `"dispatch"`.
    pub kind: &'static str,
    /// Records of this kind, instants and still-open spans included.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u64,
    /// Total virtual milliseconds.
    pub total_vms: u64,
    /// Wall durations of the kind's closed spans: what `obs histogram
    /// <kind>_ns` reports. `None` for a kind with only instants.
    pub ns: Option<Histogram>,
}

/// Per-stage rollup of a span set, sorted by kind — the one source of the
/// `--stats` breakdown, the `obs dump` stages, and the `<kind>_ns` stage
/// histograms. Instants count but contribute no time.
pub fn stage_totals(spans: &[SpanRecord]) -> Vec<Stage> {
    let mut agg: BTreeMap<&'static str, Stage> = BTreeMap::new();
    for s in spans {
        let e = agg.entry(s.kind).or_insert(Stage {
            kind: s.kind,
            count: 0,
            total_ns: 0,
            total_vms: 0,
            ns: None,
        });
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.total_vms += s.dur_vms();
        if !s.open && !s.is_instant() {
            e.ns.get_or_insert_with(Histogram::new).record(s.dur_ns());
        }
    }
    agg.into_values().collect()
}

/// The deterministic *shape* of a span tree: counts by kind, parent→child
/// edge counts, and the orphan/open tallies — what CI pins in
/// `BUDGETS.json`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanShape {
    /// Span count per kind.
    pub by_kind: BTreeMap<String, u64>,
    /// Edge count per `"parent>child"` kind pair (`"root>kind"` for
    /// epoch-root spans).
    pub edges: BTreeMap<String, u64>,
    /// Spans whose parent id is missing from the store (must be 0).
    pub orphans: u64,
    /// Spans still open at collection time (must be 0 at quiescence).
    pub open: u64,
}

impl SpanShape {
    /// Computes the shape of a span set (one application), or folds
    /// additional spans into an existing shape to aggregate applications.
    pub fn collect(&mut self, spans: &[SpanRecord]) {
        let ids: BTreeMap<SpanId, &str> = spans.iter().map(|s| (s.id, s.kind)).collect();
        for s in spans {
            *self.by_kind.entry(s.kind.to_string()).or_insert(0) += 1;
            let parent_kind = if s.parent == 0 {
                "root"
            } else if let Some(k) = ids.get(&s.parent) {
                k
            } else {
                self.orphans += 1;
                "orphan"
            };
            *self
                .edges
                .entry(format!("{parent_kind}>{}", s.kind))
                .or_insert(0) += 1;
            if s.open {
                self.open += 1;
            }
        }
    }

    /// Serializes the shape for `BUDGETS.json`.
    pub fn to_json(&self) -> String {
        let mut kinds = json::Object::new();
        for (k, v) in &self.by_kind {
            kinds.field_u64(k, *v);
        }
        let mut edges = json::Object::new();
        for (k, v) in &self.edges {
            edges.field_u64(k, *v);
        }
        let mut o = json::Object::new();
        o.field_raw("by_kind", &kinds.build())
            .field_raw("edges", &edges.build())
            .field_u64("orphans", self.orphans)
            .field_u64("open", self.open);
        o.build()
    }

    /// Rebuilds a shape from parsed `BUDGETS.json` data.
    pub fn from_value(v: &json::Value) -> Option<SpanShape> {
        let mut shape = SpanShape::default();
        for (key, map) in [("by_kind", &mut shape.by_kind), ("edges", &mut shape.edges)] {
            for (k, n) in v.get(key)?.as_object()? {
                map.insert(k.clone(), n.as_u64()?);
            }
        }
        shape.orphans = v.get("orphans")?.as_u64()?;
        shape.open = v.get("open")?.as_u64()?;
        Some(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(Instant::now())
    }

    #[test]
    fn spans_nest_on_the_stack() {
        let t = tracer();
        {
            let a = t.begin("dispatch", "ev", 1);
            assert_eq!(t.current(), a.id());
            {
                let b = t.begin("bind", "script", 0);
                assert_eq!(t.current(), b.id());
                t.instant("damage", ".b", 0);
            }
            assert_eq!(t.current(), a.id());
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert!(spans[2].is_instant());
        assert_eq!(t.open_count(), 0);
        t.check_integrity().unwrap();
    }

    #[test]
    fn explicit_cause_parents_deferred_work() {
        let t = tracer();
        let cause = {
            let d = t.begin("dispatch", "", 0);
            d.id()
        };
        // Later, outside the dispatch span: re-enter the cause.
        {
            let _scope = t.scope(cause);
            let _r = t.begin("redraw", ".b", 0);
        }
        let spans = t.snapshot();
        assert_eq!(spans[1].kind, "redraw");
        assert_eq!(spans[1].parent, cause);
        t.check_integrity().unwrap();
    }

    #[test]
    fn store_is_bounded_and_never_orphans() {
        let t = tracer();
        t.set_cap(16);
        let _outer = t.begin("dispatch", "", 0);
        for _ in 0..40 {
            t.instant("damage", "", 0);
        }
        assert_eq!(t.len(), 16);
        assert!(t.dropped() > 0);
        // A span begun while full is dropped; its children re-attach to
        // the recorded ancestor.
        let g = t.begin("bind", "", 0);
        assert_eq!(g.id(), 0);
        drop(g);
        drop(_outer);
        t.check_integrity().unwrap();
    }

    #[test]
    fn reset_epoch_reparents_open_spans() {
        let t = tracer();
        let outer = t.begin("dispatch", "", 0);
        let inner = t.begin("bind", "", 0);
        t.instant("damage", "", 0);
        assert_eq!(t.len(), 3);
        t.reset_epoch();
        // Both open spans survive into the new epoch; the instant is gone.
        assert_eq!(t.len(), 2);
        assert_eq!(t.epoch(), 1);
        let spans = t.snapshot();
        assert_eq!(spans[0].parent, 0, "outer re-parents to the epoch root");
        assert_eq!(spans[1].parent, spans[0].id, "nesting among survivors kept");
        assert!(spans.iter().all(|s| s.epoch == 1));
        // The guards still close their spans after the reset.
        drop(inner);
        drop(outer);
        assert_eq!(t.open_count(), 0);
        t.check_integrity().unwrap();
        // New spans parent under the surviving context correctly.
        let _g = t.begin("eval", "", 0);
        assert_eq!(t.snapshot()[2].parent, 0);
    }

    #[test]
    fn virtual_clock_is_recorded() {
        let t = tracer();
        let clock = VirtualClock::new();
        clock.set(100);
        t.set_virtual_clock(clock.clone());
        let g = t.begin("send", "", 7);
        clock.set(250);
        drop(g);
        let s = &t.snapshot()[0];
        assert_eq!((s.start_vms, s.end_vms), (100, 250));
        assert_eq!(s.dur_vms(), 150);
        assert_eq!(s.seq, 7);
    }

    #[test]
    fn exports_are_valid_and_complete() {
        let t = tracer();
        t.set_client(3);
        {
            let _d = t.begin("dispatch", "ButtonPress", 5);
            let _b = t.begin("bind", "<ButtonPress-1>", 0);
            t.instant("fault", "drop", 9);
        }
        let spans = t.snapshot();
        let j = spans_to_json(&spans);
        assert!(json::parse(&j).is_ok(), "{j}");
        assert!(j.contains("\"kind\":\"bind\""));
        let tree = spans_to_tree(&spans);
        assert!(tree.contains("dispatch"), "{tree}");
        assert!(tree.contains("  bind"), "nested indent missing: {tree}");
        let flat = spans_to_flat(&spans);
        assert_eq!(flat.lines().count(), 3);

        let apps = vec![("app".to_string(), spans)];
        let chrome = chrome_trace(&apps);
        assert!(json::parse(&chrome).is_ok(), "{chrome}");
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""), "fault instant missing");
        assert!(chrome.contains("\"process_name\""));
        assert!(chrome.contains("\"thread_name\""));
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let t = tracer();
        {
            let _a = t.begin("dispatch", "", 0);
            let _b = t.begin("bind", "", 0);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let folded = folded_stacks(&[("app".to_string(), t.snapshot())]);
        assert!(folded.contains("app;dispatch;bind "), "{folded}");
    }

    #[test]
    fn virtual_profile_is_deterministic() {
        let make = || {
            let t = tracer();
            let clock = VirtualClock::new();
            t.set_virtual_clock(clock.clone());
            let g = t.begin("send", "", 1);
            clock.set(200);
            drop(g);
            virtual_profile(&[("app".to_string(), t.snapshot())])
        };
        let p = make();
        assert_eq!(p, make());
        assert!(p.contains("app;send 200"), "{p}");
    }

    #[test]
    fn stage_totals_histogram_closed_spans_only() {
        let t = tracer();
        for _ in 0..3 {
            let _d = t.begin("dispatch", "", 0);
            t.instant("damage", "", 0);
        }
        let _open = t.begin("dispatch", "", 0);
        let stages = stage_totals(&t.snapshot());
        let kinds: Vec<&str> = stages.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, ["damage", "dispatch"]);
        assert_eq!(stages[0].count, 3);
        assert!(stages[0].ns.is_none(), "an instant kind has no histogram");
        assert_eq!(stages[1].count, 4, "the open span counts");
        let h = stages[1].ns.as_ref().unwrap();
        assert_eq!(h.count(), 3, "but only closed spans are timed");
        assert_eq!(h.sum(), stages[1].total_ns);
    }

    #[test]
    fn shape_round_trips_through_json() {
        let t = tracer();
        {
            let _d = t.begin("dispatch", "", 0);
            t.instant("damage", "", 0);
        }
        let mut shape = SpanShape::default();
        shape.collect(&t.snapshot());
        assert_eq!(shape.by_kind["dispatch"], 1);
        assert_eq!(shape.edges["dispatch>damage"], 1);
        assert_eq!(shape.edges["root>dispatch"], 1);
        assert_eq!(shape.orphans, 0);
        assert_eq!(shape.open, 0);
        let j = shape.to_json();
        assert!(json::parse(&j).is_ok(), "{j}");
        let parsed = SpanShape::from_value(&json::parse(&j).unwrap()).unwrap();
        assert_eq!(parsed, shape);
    }
}
