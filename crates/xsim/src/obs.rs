//! Per-connection protocol observability (the `rtk-obs` layer of xsim).
//!
//! [`ClientObs`] is the one record a connection's accounting lives in:
//! the [`ProtocolCounters`] and [`WireStats`] counter sets, a counter per
//! [`RequestKind`] and per fault kind, and the protocol trace toggle
//! (off by default). Each traced request becomes a `request` instant in
//! the client's span tracer, keyed on its sequence number and detailed
//! as `Kind one-way|round-trip 0xWINDOW duration_ns`, so it joins the
//! `flush` span that carried it on `seq`; the `request_ns` and
//! `round_trip_ns` histograms are built from those records when asked.
//! [`ClientStats`] is a view of the record.
//!
//! Everything is always-on-cheap: counters are field and array bumps, and
//! an untraced request reads no clock.

use rtk_obs::{Histogram, SpanRecord, Tracer};

use crate::ids::WindowId;

/// Declares [`RequestKind`] with its `COUNT`, `ALL` and `name()` from one
/// list. Keep the order: an error frame carries `kind as u16`, so the
/// list is part of the wire format (docs/PROTOCOL.md).
macro_rules! request_kinds {
    ($($k:ident,)*) => {
        /// Every protocol request the simulated server understands,
        /// mirroring the [`Connection`](crate::connection::Connection)
        /// calling surface.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum RequestKind {
            $($k,)*
        }

        impl RequestKind {
            /// Number of request kinds (array sizing).
            pub const COUNT: usize = [$(stringify!($k),)*].len();

            /// All kinds, in declaration order.
            pub const ALL: [RequestKind; RequestKind::COUNT] = [$(RequestKind::$k,)*];

            /// The protocol name, used in `obs counters` and JSON dumps.
            pub fn name(self) -> &'static str {
                match self {
                    $(RequestKind::$k => stringify!($k),)*
                }
            }
        }
    };
}

request_kinds! {
    InternAtom,
    GetAtomName,
    CreateWindow,
    DestroyWindow,
    MapWindow,
    UnmapWindow,
    ConfigureWindow,
    RaiseWindow,
    ReparentWindow,
    SelectInput,
    ChangeWindowAttributes,
    QueryTree,
    GetGeometry,
    GetWindowAttributes,
    ChangeProperty,
    GetProperty,
    DeleteProperty,
    AllocColor,
    FreeColor,
    QueryColor,
    OpenFont,
    QueryFont,
    CreateCursor,
    CreateBitmap,
    FreeBitmap,
    QueryBitmap,
    CopyBitmap,
    CreateGc,
    ChangeGc,
    FreeGc,
    FillRectangle,
    DrawRectangle,
    DrawLine,
    DrawString,
    ClearArea,
    SetSelectionOwner,
    GetSelectionOwner,
    ConvertSelection,
    SendEvent,
    SetInputFocus,
    GetInputFocus,
    SetClip,
    ClearClip,
    CopyArea,
}

impl RequestKind {
    /// Does this request rasterize pixels? Used by the tracer to decide
    /// whether a flushed batch gets a `rasterize` child span.
    pub fn is_drawing(self) -> bool {
        matches!(
            self,
            RequestKind::FillRectangle
                | RequestKind::DrawRectangle
                | RequestKind::DrawLine
                | RequestKind::DrawString
                | RequestKind::ClearArea
                | RequestKind::CopyArea
        )
    }
}

/// The protocol trace of `tracer`'s current epoch: its last `n`
/// `request` and `fault` records, oldest first.
pub fn trace_records(tracer: &Tracer, n: usize) -> Vec<SpanRecord> {
    let mut records: Vec<SpanRecord> = tracer
        .snapshot()
        .into_iter()
        .filter(|s| s.kind == "request" || s.kind == "fault")
        .collect();
    records.drain(..records.len().saturating_sub(n));
    records
}

rtk_obs::counter_set! {
    /// Per-client protocol counters, each bumped at the one site where its
    /// work happens. `protocol.requests` and `protocol.round_trips` are
    /// not stored: they are the sums of [`ClientObs`]'s per-kind arrays.
    pub struct ProtocolCounters {
        /// Events delivered to this client.
        events => "protocol.events",
        /// Non-empty output-buffer flushes: each one is a single
        /// client-to-server write carrying every request queued since the
        /// previous flush.
        flushes => "protocol.flushes",
        /// Requests that traveled through the output buffer: every
        /// request, since the transport always buffers.
        batched_requests => "protocol.batched_requests",
        /// Largest number of requests carried by one flush.
        max_batch => "protocol.max_batch",
        /// High-water mark of outstanding pipelined replies (cookies
        /// issued but not yet redeemed).
        max_pending_replies => "protocol.max_pending_replies",
        /// Pixels rasterized by this client's drawing requests, after
        /// clipping. Blits (CopyArea) move pixels without rasterizing and
        /// do not count.
        pixels_drawn => "protocol.pixels_drawn",
        /// Damage rectangles recorded against windows this client owns.
        damage_rects => "protocol.damage_rects",
        /// Damage-coalescing steps (contained-drop / overlap-merge /
        /// overflow-collapse) on windows this client owns.
        expose_coalesced => "protocol.expose_coalesced",
    }
}

rtk_obs::counter_set! {
    /// Per-client wire-transport counters. All zero with the codec off
    /// (`RTK_NO_WIRE=1`) except `backpressure_stalls`: the others count
    /// framed bytes crossing the byte transport, so "did anything go over
    /// the wire" is observable from the counters alone.
    pub struct WireStats {
        /// Frames encoded on behalf of this client (its requests, and
        /// the replies and events the server sends it).
        frames_encoded => "wire.frames_encoded",
        /// Total encoded bytes, including each frame's length prefix.
        bytes_encoded => "wire.bytes_encoded",
        /// Frames decoded (its requests on the server side, its replies
        /// and events on the client side).
        frames_decoded => "wire.frames_decoded",
        /// Total decoded bytes, including each frame's length prefix.
        bytes_decoded => "wire.bytes_decoded",
        /// Buffered-frame batches decoded and applied by the server.
        flushes => "wire.flushes",
        /// Flush batches the per-client request quota cut short: the
        /// overflow was deferred (never dropped). Counted with the codec
        /// on or off: the quota lives in the shared batch executor.
        backpressure_stalls => "wire.backpressure_stalls",
        /// Frame-integrity failures on this client's stream (bad CRC,
        /// truncation, garbage between frames); each one kills the
        /// connection.
        checksum_errors => "wire.checksum_errors",
        /// Flushes that decoded fewer frames than the client buffered
        /// requests (a frame lost whole on the stream); each one kills
        /// the connection.
        lost_frames => "wire.lost_frames",
        /// Control frames whose injected dispatch stall reached the wire
        /// deadline (virtual time), surfaced as a dead connection.
        watchdog_fires => "wire.watchdog_fires",
    }
}

impl WireStats {
    /// Did any traffic cross the wire? (False with the codec off.)
    pub fn active(&self) -> bool {
        self.frames_encoded + self.frames_decoded > 0
    }
}

/// The one observability record of a client connection: its counter
/// sets, the per-kind request and fault arrays, the fault total, and the
/// trace toggle.
#[derive(Debug, Clone)]
pub struct ClientObs {
    /// The scalar protocol counters.
    pub counters: ProtocolCounters,
    /// The wire-transport counters.
    pub wire: WireStats,
    /// Size distribution of encoded frames, in bytes.
    pub frame_bytes: Histogram,
    /// Requests issued, by kind.
    pub kind_counts: [u64; RequestKind::COUNT],
    /// Round-trip (reply-bearing) requests issued, by kind; subtracting
    /// from `kind_counts` gives the one-way count per kind.
    pub kind_round_trips: [u64; RequestKind::COUNT],
    /// Injected faults observed by this client.
    pub faults_injected: u64,
    /// Injected faults by kind (see [`crate::fault::FAULT_KIND_NAMES`]).
    pub fault_counts: [u64; crate::fault::FAULT_KIND_COUNT],
    /// Are requests traced into the client's span tracer?
    pub trace_enabled: bool,
}

impl Default for ClientObs {
    fn default() -> Self {
        ClientObs {
            counters: ProtocolCounters::default(),
            wire: WireStats::default(),
            frame_bytes: Histogram::new(),
            kind_counts: [0; RequestKind::COUNT],
            kind_round_trips: [0; RequestKind::COUNT],
            faults_injected: 0,
            fault_counts: [0; crate::fault::FAULT_KIND_COUNT],
            trace_enabled: false,
        }
    }
}

impl ClientObs {
    /// Counts one issued request: the one site every request total
    /// derives from. `traced` is its duration, measured only while the
    /// trace is on; then the request also becomes a `request` instant in
    /// `tracer`.
    pub fn record(
        &mut self,
        tracer: &Tracer,
        seq: u64,
        kind: RequestKind,
        round_trip: bool,
        window: WindowId,
        traced: Option<std::time::Duration>,
    ) {
        self.kind_counts[kind as usize] += 1;
        if round_trip {
            self.kind_round_trips[kind as usize] += 1;
        }
        if let Some(duration) = traced {
            let ns = duration.as_nanos().min(u64::MAX as u128);
            let way = if round_trip { "round-trip" } else { "one-way" };
            let (name, win) = (kind.name(), window.0);
            tracer.instant("request", format_args!("{name} {way} 0x{win:x} {ns}"), seq);
        }
    }

    /// Records one injected fault: bumps the total and per-kind counters
    /// and records a `fault` instant keyed on `at` (the faulted request's
    /// sequence number, or the event or frame index the fault fired on),
    /// so a trace shows exactly where the schedule fired.
    pub fn record_fault(&mut self, tracer: &Tracer, at: u64, action: crate::fault::FaultAction) {
        self.faults_injected += 1;
        self.fault_counts[action.kind_index()] += 1;
        tracer.instant("fault", action.kind_name(), at);
    }

    /// Fault kinds with a non-zero count, as `(name, count)` pairs.
    pub fn fault_kind_counts(&self) -> Vec<(&'static str, u64)> {
        nonzero(
            crate::fault::FAULT_KIND_NAMES.iter().copied(),
            &self.fault_counts,
        )
    }

    /// Kinds with a non-zero count, as `(name, count)` pairs.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        nonzero(RequestKind::ALL.iter().map(|k| k.name()), &self.kind_counts)
    }

    /// Round-trip kinds with a non-zero count, as `(name, count)` pairs.
    pub fn kind_round_trip_counts(&self) -> Vec<(&'static str, u64)> {
        nonzero(
            RequestKind::ALL.iter().map(|k| k.name()),
            &self.kind_round_trips,
        )
    }

    /// Total requests recorded (sum over kinds).
    pub fn total_requests(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// Total round trips recorded (sum over kinds).
    pub fn total_round_trips(&self) -> u64 {
        self.kind_round_trips.iter().sum()
    }

    /// The scalar counters by `obs` name: the request and fault totals,
    /// then the [`ProtocolCounters`] and [`WireStats`] sets.
    fn scalars(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let totals = [
            ("protocol.requests", self.total_requests()),
            ("protocol.round_trips", self.total_round_trips()),
            ("protocol.faults_injected", self.faults_injected),
        ];
        totals
            .into_iter()
            .chain(self.counters.iter())
            .chain(self.wire.iter())
    }

    /// Every counter of this record by its `obs` name, in `obs counters`
    /// order: the scalars, then the non-zero `req.<Kind>` and
    /// `fault.<kind>` entries.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let kinds = self
            .kind_counts()
            .into_iter()
            .map(|(k, n)| (format!("req.{k}"), n));
        let faults = self.fault_kind_counts().into_iter();
        let faults = faults.map(|(k, n)| (format!("fault.{k}"), n));
        let scalars = self.scalars().map(|(n, v)| (n.to_string(), v));
        scalars.chain(kinds).chain(faults).collect()
    }

    /// Clears every counter; keeps the trace toggle. (The trace itself
    /// lives in the tracer, which starts a new epoch alongside.)
    pub fn reset(&mut self) {
        let enabled = self.trace_enabled;
        *self = ClientObs::default();
        self.trace_enabled = enabled;
    }

    /// JSON object with the scalar counters (`wire` nested), the per-kind
    /// tables, the frame-size histogram, and (only while tracing)
    /// `tracer`'s protocol trace records.
    pub fn to_json(&self, tracer: &Tracer) -> String {
        let table = |pairs| rtk_obs::json::Object::new().counters("", pairs).build();
        let mut o = rtk_obs::json::Object::new();
        o.counters("protocol.", self.scalars())
            .field_raw("by_kind", &table(self.kind_counts()))
            .field_raw("by_kind_round_trip", &table(self.kind_round_trip_counts()))
            .field_raw("by_fault", &table(self.fault_kind_counts()))
            .field_raw("frame_bytes", &self.frame_bytes.to_json());
        if self.trace_enabled {
            let trace = trace_records(tracer, usize::MAX);
            o.field_bool("trace_enabled", true);
            o.field_u64("trace_dropped", tracer.dropped());
            o.field_raw("trace", &rtk_obs::span::spans_to_json(&trace));
        }
        o.build()
    }
}

/// Per-client protocol statistics: a view of the client's [`ClientObs`]
/// (see [`ProtocolCounters`] for what each field counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Total requests issued (the sum of the per-kind counts).
    pub requests: u64,
    /// Requests that required a reply (the sum of the per-kind round trips).
    pub round_trips: u64,
    pub events: u64,
    pub flushes: u64,
    pub batched_requests: u64,
    pub max_batch: u64,
    pub max_pending_replies: u64,
    pub pixels_drawn: u64,
}

impl From<&ClientObs> for ClientStats {
    fn from(o: &ClientObs) -> ClientStats {
        ClientStats {
            requests: o.total_requests(),
            round_trips: o.total_round_trips(),
            events: o.counters.events,
            flushes: o.counters.flushes,
            batched_requests: o.counters.batched_requests,
            max_batch: o.counters.max_batch,
            max_pending_replies: o.counters.max_pending_replies,
            pixels_drawn: o.counters.pixels_drawn,
        }
    }
}

/// `names` zipped with `counts`, zero counts left out.
fn nonzero(names: impl Iterator<Item = &'static str>, counts: &[u64]) -> Vec<(&'static str, u64)> {
    names
        .zip(counts.iter().copied())
        .filter(|(_, n)| *n > 0)
        .collect()
}

/// The `request_ns` and `round_trip_ns` latency histograms of `tracer`'s
/// current epoch, built from its traced `request` records when asked: no
/// clock is read for an untraced request, so both are empty while the
/// trace is off.
pub fn request_histograms(tracer: &Tracer) -> (Histogram, Histogram) {
    let (mut all, mut round_trips) = (Histogram::new(), Histogram::new());
    for r in tracer.snapshot().iter().filter(|r| r.kind == "request") {
        let words: Vec<&str> = r.detail.split(' ').collect();
        let ns = words.last().and_then(|w| w.parse().ok()).unwrap_or(0);
        all.record(ns);
        if words.get(1) == Some(&"round-trip") {
            round_trips.record(ns);
        }
    }
    (all, round_trips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Xid;
    use std::time::Duration;

    fn tracer() -> Tracer {
        Tracer::new(std::time::Instant::now())
    }

    #[test]
    fn all_list_matches_count_and_indices() {
        assert_eq!(RequestKind::ALL.len(), RequestKind::COUNT);
        for (i, k) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{} out of order", k.name());
        }
    }

    #[test]
    fn record_counts_by_kind_and_latency_class() {
        let t = tracer();
        let mut o = ClientObs::default();
        o.record(
            &t,
            1,
            RequestKind::CreateWindow,
            false,
            Xid(5),
            Some(Duration::from_micros(2)),
        );
        o.record(
            &t,
            2,
            RequestKind::GetGeometry,
            true,
            Xid(5),
            Some(Duration::from_micros(9)),
        );
        assert_eq!(o.total_requests(), 2);
        assert_eq!(
            o.kind_counts(),
            vec![("CreateWindow", 1), ("GetGeometry", 1)]
        );
        assert_eq!(o.kind_round_trip_counts(), vec![("GetGeometry", 1)]);
        let (all, round_trips) = request_histograms(&t);
        assert_eq!((all.count(), round_trips.count()), (2, 1));
    }

    #[test]
    fn trace_records_only_when_enabled() {
        let t = tracer();
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        o.record(
            &t,
            7,
            RequestKind::MapWindow,
            false,
            Xid(3),
            Some(Duration::from_nanos(100)),
        );
        let trace = trace_records(&t, usize::MAX);
        assert_eq!(trace.len(), 1);
        let e = &trace[0];
        assert_eq!(e.kind, "request");
        assert_eq!(e.seq, 7);
        assert_eq!(e.detail, "MapWindow one-way 0x3 100");
        // An untraced request is counted and leaves no record.
        o.record(&t, 8, RequestKind::MapWindow, false, Xid(3), None);
        assert_eq!(
            (o.total_requests(), trace_records(&t, usize::MAX).len()),
            (2, 1)
        );
        assert_eq!(request_histograms(&t).0.count(), 1);
    }

    #[test]
    fn reset_clears_but_keeps_trace_toggle() {
        let t = tracer();
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        o.record(
            &t,
            1,
            RequestKind::DrawLine,
            false,
            Xid::NONE,
            Some(Duration::from_nanos(5)),
        );
        o.record_fault(&t, 2, crate::fault::FaultAction::DropRequest);
        assert_eq!(o.faults_injected, 1);
        o.reset();
        // The server starts the tracer's new epoch alongside.
        t.reset_epoch();
        assert_eq!(o.total_requests(), 0);
        assert!(request_histograms(&t).0.is_empty());
        assert!(trace_records(&t, usize::MAX).is_empty());
        assert_eq!(o.faults_injected, 0, "fault counters reset too");
        assert!(o.fault_kind_counts().is_empty());
        assert!(o.trace_enabled, "toggle survives reset");
    }

    #[test]
    fn record_fault_counts_splits_and_traces() {
        let t = tracer();
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        let kill = crate::fault::FaultAction::KillConnection;
        o.record(
            &t,
            9,
            RequestKind::MapWindow,
            false,
            Xid(4),
            Some(Duration::from_nanos(1)),
        );
        o.record_fault(&t, 9, kill);
        o.record_fault(&t, 11, crate::fault::FaultAction::ReorderEvent);
        assert_eq!(o.faults_injected, 2);
        assert_eq!(
            o.fault_kind_counts(),
            vec![("reorder", 1), ("kill", 1)],
            "per-kind split"
        );
        let faults: Vec<_> = trace_records(&t, usize::MAX)
            .into_iter()
            .filter(|r| r.kind == "fault")
            .collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].detail, "kill");
        // The faulted request joins its fault on the sequence number.
        let faulted = trace_records(&t, usize::MAX)
            .into_iter()
            .find(|r| r.kind == "request" && r.seq == faults[0].seq)
            .expect("the faulted request is traced");
        assert!(
            faulted.detail.starts_with("MapWindow "),
            "{}",
            faulted.detail
        );
        assert_eq!(faults[1].detail, "reorder");
        let j = o.to_json(&t);
        assert!(rtk_obs::json::parse(&j).is_ok(), "{j}");
        assert!(j.contains("\"faults_injected\":2"), "{j}");
        assert!(j.contains("\"by_fault\":{\"reorder\":1,\"kill\":1}"), "{j}");
        assert!(j.contains("\"kind\":\"fault\",\"detail\":\"kill\""), "{j}");
    }

    #[test]
    fn json_is_valid_and_contains_kinds() {
        let t = tracer();
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        o.record(
            &t,
            1,
            RequestKind::InternAtom,
            true,
            Xid::NONE,
            Some(Duration::from_micros(1)),
        );
        let j = o.to_json(&t);
        assert!(rtk_obs::json::parse(&j).is_ok(), "{j}");
        assert!(j.contains("\"InternAtom\":1"), "{j}");
        assert!(
            j.contains("\"by_kind_round_trip\":{\"InternAtom\":1}"),
            "{j}"
        );
        assert!(j.contains("\"requests\":1,\"round_trips\":1"), "{j}");
        assert!(j.contains("\"trace\":[{"), "{j}");
    }
}
