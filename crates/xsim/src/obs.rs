//! Per-connection protocol observability (the `rtk-obs` layer of xsim).
//!
//! [`ClientStats`](crate::server::ClientStats) keeps the three coarse
//! totals the seed exposed; this module extends per-connection accounting
//! into a structured view: a counter per [`RequestKind`], latency
//! histograms for all requests and for round trips specifically, and a
//! protocol trace (off by default): each traced request becomes a
//! `request` instant in the client's span tracer, keyed on its sequence
//! number and detailed as `Kind one-way|round-trip 0xWINDOW duration_ns`,
//! so it joins the `flush` span that carried it on `seq`.
//!
//! Everything is always-on-cheap: counters are array bumps, histograms
//! are one bucket increment, and the trace costs nothing until enabled.

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

/// Per-client wire-transport counters. All zero with the codec off
/// (`RTK_NO_WIRE=1`): every field counts
/// actual framed bytes crossing the byte transport, so "did anything go
/// over the wire" is observable from the counters alone.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    /// Frames encoded on behalf of this client (requests, control
    /// frames, and the server's response frames).
    pub frames_encoded: u64,
    /// Total encoded bytes, including each frame's length prefix.
    pub bytes_encoded: u64,
    /// Frames decoded (client-side responses and server-side dispatch).
    pub frames_decoded: u64,
    /// Total decoded bytes, including each frame's length prefix.
    pub bytes_decoded: u64,
    /// Buffered-frame batches decoded and applied by the server (the wire
    /// analogue of `ClientStats::flushes`).
    pub flushes: u64,
    /// Flush batches the per-client request quota cut short: the
    /// overflow was deferred (never dropped) to keep one hot client
    /// from starving the rest. Counted with the codec on or off —
    /// the quota lives in the shared batch executor.
    pub backpressure_stalls: u64,
    /// Frame-integrity failures detected on this client's stream (bad
    /// CRC, truncation, garbage between frames). Each one kills the
    /// connection — corruption is never silently skipped.
    pub checksum_errors: u64,
    /// Sync-watchdog expiries: control frames whose injected dispatch
    /// stall reached the wire deadline (virtual time), surfaced to the
    /// client as a dead connection instead of a hang.
    pub watchdog_fires: u64,
    /// Size distribution of encoded frames, in bytes.
    pub frame_bytes: Histogram,
}

impl WireStats {
    /// Did any traffic cross the wire? (False with the codec off.)
    pub fn active(&self) -> bool {
        self.frames_encoded + self.frames_decoded > 0
    }
}

/// Structured observability state for one client connection.
#[derive(Debug, Clone)]
pub struct ClientObs {
    /// Requests issued, by kind.
    pub kind_counts: [u64; RequestKind::COUNT],
    /// Round-trip (reply-bearing) requests issued, by kind; subtracting
    /// from `kind_counts` gives the one-way count per kind.
    pub kind_round_trips: [u64; RequestKind::COUNT],
    /// Latency of every request.
    pub request_ns: Histogram,
    /// Latency of round-trip requests only (the paper's expensive class).
    pub round_trip_ns: Histogram,
    /// Are requests traced into the client's span tracer?
    pub trace_enabled: bool,
    /// Total injected faults observed by this client.
    pub faults_injected: u64,
    /// Injected faults split by kind (see
    /// [`crate::fault::FAULT_KIND_NAMES`]).
    pub fault_counts: [u64; crate::fault::FAULT_KIND_COUNT],
    /// Pixels actually rasterized by this client's drawing requests
    /// (post-clip: pixels outside a window's clip region cost — and
    /// count — nothing).
    pub pixels_drawn: u64,
    /// Damage rectangles recorded against windows this client owns.
    pub damage_rects: u64,
    /// Damage-coalescing steps (contained-drop / overlap-merge /
    /// overflow-collapse) on windows this client owns.
    pub expose_coalesced: u64,
    /// Wire-transport frame/byte counters (all zero with the codec
    /// off).
    pub wire: WireStats,
}

impl Default for ClientObs {
    fn default() -> Self {
        ClientObs {
            kind_counts: [0; RequestKind::COUNT],
            kind_round_trips: [0; RequestKind::COUNT],
            request_ns: Histogram::new(),
            round_trip_ns: Histogram::new(),
            trace_enabled: false,
            faults_injected: 0,
            fault_counts: [0; crate::fault::FAULT_KIND_COUNT],
            pixels_drawn: 0,
            damage_rects: 0,
            expose_coalesced: 0,
            wire: WireStats::default(),
        }
    }
}

impl ClientObs {
    /// Records one completed request; while tracing, also a `request`
    /// instant in `tracer`.
    pub fn record(
        &mut self,
        tracer: &Tracer,
        seq: u64,
        kind: RequestKind,
        round_trip: bool,
        window: WindowId,
        duration: std::time::Duration,
    ) {
        let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        self.kind_counts[kind as usize] += 1;
        self.request_ns.record(ns);
        if round_trip {
            self.kind_round_trips[kind as usize] += 1;
            self.round_trip_ns.record(ns);
        }
        if self.trace_enabled {
            let class = if round_trip { "round-trip" } else { "one-way" };
            let detail = format!("{} {class} 0x{:x} {ns}", kind.name(), window.0);
            tracer.instant("request", detail, seq);
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
        crate::fault::FAULT_KIND_NAMES
            .iter()
            .zip(self.fault_counts.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(name, n)| (*name, *n))
            .collect()
    }

    /// Kinds with a non-zero count, as `(name, count)` pairs.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        RequestKind::ALL
            .iter()
            .filter(|k| self.kind_counts[**k as usize] > 0)
            .map(|k| (k.name(), self.kind_counts[*k as usize]))
            .collect()
    }

    /// Round-trip kinds with a non-zero count, as `(name, count)` pairs.
    pub fn kind_round_trip_counts(&self) -> Vec<(&'static str, u64)> {
        RequestKind::ALL
            .iter()
            .filter(|k| self.kind_round_trips[**k as usize] > 0)
            .map(|k| (k.name(), self.kind_round_trips[*k as usize]))
            .collect()
    }

    /// Total requests recorded (sum over kinds).
    pub fn total_requests(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// Clears counters and histograms; keeps the trace toggle. (The trace
    /// itself lives in the tracer, which starts a new epoch alongside.)
    pub fn reset(&mut self) {
        let enabled = self.trace_enabled;
        *self = ClientObs::default();
        self.trace_enabled = enabled;
    }

    /// JSON object with the per-kind counters, both histograms, and —
    /// only while tracing — `tracer`'s protocol trace records.
    pub fn to_json(&self, tracer: &Tracer) -> String {
        let mut by_kind = rtk_obs::json::Object::new();
        for (name, count) in self.kind_counts() {
            by_kind.field_u64(name, count);
        }
        let mut by_kind_rt = rtk_obs::json::Object::new();
        for (name, count) in self.kind_round_trip_counts() {
            by_kind_rt.field_u64(name, count);
        }
        let mut by_fault = rtk_obs::json::Object::new();
        for (name, count) in self.fault_kind_counts() {
            by_fault.field_u64(name, count);
        }
        let mut o = rtk_obs::json::Object::new();
        o.field_raw("by_kind", &by_kind.build());
        o.field_raw("by_kind_round_trip", &by_kind_rt.build());
        o.field_u64("faults_injected", self.faults_injected);
        o.field_raw("by_fault", &by_fault.build());
        o.field_u64("pixels_drawn", self.pixels_drawn);
        o.field_u64("damage_rects", self.damage_rects);
        o.field_u64("expose_coalesced", self.expose_coalesced);
        o.field_raw("request_ns", &self.request_ns.to_json());
        o.field_raw("round_trip_ns", &self.round_trip_ns.to_json());
        if self.wire.active() {
            let mut w = rtk_obs::json::Object::new();
            w.field_u64("frames_encoded", self.wire.frames_encoded);
            w.field_u64("bytes_encoded", self.wire.bytes_encoded);
            w.field_u64("frames_decoded", self.wire.frames_decoded);
            w.field_u64("bytes_decoded", self.wire.bytes_decoded);
            w.field_u64("flushes", self.wire.flushes);
            w.field_u64("backpressure_stalls", self.wire.backpressure_stalls);
            w.field_u64("checksum_errors", self.wire.checksum_errors);
            w.field_u64("watchdog_fires", self.wire.watchdog_fires);
            w.field_raw("frame_bytes", &self.wire.frame_bytes.to_json());
            o.field_raw("wire", &w.build());
        }
        if self.trace_enabled {
            let trace = trace_records(tracer, usize::MAX);
            o.field_bool("trace_enabled", true);
            o.field_u64("trace_dropped", tracer.dropped());
            o.field_raw("trace", &rtk_obs::span::spans_to_json(&trace));
        }
        o.build()
    }
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
            Duration::from_micros(2),
        );
        o.record(
            &t,
            2,
            RequestKind::GetGeometry,
            true,
            Xid(5),
            Duration::from_micros(9),
        );
        assert_eq!(o.total_requests(), 2);
        assert_eq!(
            o.kind_counts(),
            vec![("CreateWindow", 1), ("GetGeometry", 1)]
        );
        assert_eq!(o.kind_round_trip_counts(), vec![("GetGeometry", 1)]);
        assert_eq!(o.request_ns.count(), 2);
        assert_eq!(o.round_trip_ns.count(), 1);
        // Trace off by default: nothing recorded.
        assert!(trace_records(&t, usize::MAX).is_empty());
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
            Duration::from_nanos(100),
        );
        let trace = trace_records(&t, usize::MAX);
        assert_eq!(trace.len(), 1);
        let e = &trace[0];
        assert_eq!(e.kind, "request");
        assert_eq!(e.seq, 7);
        assert_eq!(e.detail, "MapWindow one-way 0x3 100");
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
            Duration::from_nanos(5),
        );
        o.record_fault(&t, 2, crate::fault::FaultAction::DropRequest);
        assert_eq!(o.faults_injected, 1);
        o.reset();
        // The server starts the tracer's new epoch alongside.
        t.reset_epoch();
        assert_eq!(o.total_requests(), 0);
        assert!(o.request_ns.is_empty());
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
            Duration::from_nanos(1),
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
        assert!(rtk_obs::json::is_valid(&j), "{j}");
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
            Duration::from_micros(1),
        );
        let j = o.to_json(&t);
        assert!(rtk_obs::json::is_valid(&j), "{j}");
        assert!(j.contains("\"InternAtom\":1"), "{j}");
        assert!(
            j.contains("\"by_kind_round_trip\":{\"InternAtom\":1}"),
            "{j}"
        );
        assert!(j.contains("\"round_trip_ns\""), "{j}");
        assert!(j.contains("\"trace\":[{"), "{j}");
    }
}
