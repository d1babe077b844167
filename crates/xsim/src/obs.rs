//! Per-connection protocol observability (the `rtk-obs` layer of xsim).
//!
//! [`ClientStats`](crate::server::ClientStats) keeps the three coarse
//! totals the seed exposed; this module extends per-connection accounting
//! into a structured view: a counter per [`RequestKind`], latency
//! histograms for all requests and for round trips specifically, and a
//! bounded protocol trace (off by default) whose entries record sequence
//! number, request kind, one-way/round-trip, target window, and duration.
//!
//! Everything is always-on-cheap: counters are array bumps, histograms
//! are one bucket increment, and the trace costs nothing until enabled.

use rtk_obs::{Histogram, Ring};

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

/// One entry in the protocol trace ring.
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry {
    /// Server sequence number (the server clock tick of the request).
    pub seq: u64,
    /// What kind of request this was.
    pub kind: RequestKind,
    /// Did the request require a reply (a full round trip)?
    pub round_trip: bool,
    /// The window the request targeted (`Xid::NONE` for windowless ones).
    pub window: WindowId,
    /// Wall time the request spent in the server, including the synthetic
    /// round-trip cost when configured.
    pub duration_ns: u64,
    /// When a fault fired on this request, its counter name
    /// (`"error.BadWindow"`, `"drop"`, ...); `None` for normal requests.
    pub fault: Option<&'static str>,
}

/// Default trace ring capacity (entries).
pub const TRACE_CAPACITY: usize = 1024;

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
    /// Bounded protocol trace, recorded only while `trace_enabled`.
    pub trace: Ring<TraceEntry>,
    /// Is the trace ring recording?
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
            trace: Ring::new(TRACE_CAPACITY),
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
    /// Records one completed request.
    pub fn record(
        &mut self,
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
            self.trace.push(TraceEntry {
                seq,
                kind,
                round_trip,
                window,
                duration_ns: ns,
                fault: None,
            });
        }
    }

    /// Records one injected fault: bumps the total and per-kind counters
    /// and, when tracing, pushes a marked trace entry so a dumped trace
    /// shows exactly where the schedule fired. `kind` is the faulted
    /// request's kind when known (event faults have none and reuse
    /// `SendEvent` as the delivery-path marker).
    pub fn record_fault(
        &mut self,
        seq: u64,
        action: crate::fault::FaultAction,
        kind: Option<RequestKind>,
        window: WindowId,
    ) {
        self.faults_injected += 1;
        self.fault_counts[action.kind_index()] += 1;
        if self.trace_enabled {
            self.trace.push(TraceEntry {
                seq,
                kind: kind.unwrap_or(RequestKind::SendEvent),
                round_trip: false,
                window,
                duration_ns: 0,
                fault: Some(action.kind_name()),
            });
        }
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

    /// Clears counters, histograms, and the trace; keeps the trace toggle.
    pub fn reset(&mut self) {
        let enabled = self.trace_enabled;
        *self = ClientObs::default();
        self.trace_enabled = enabled;
    }

    /// JSON object with the per-kind counters, both histograms, and —
    /// only while the trace ring is recording — the trace contents. An
    /// idle ring used to emit dead `"trace_enabled":false,"trace":[]`
    /// fields into every dump; now the trace block appears exactly when
    /// there is (or could be) something in it.
    pub fn to_json(&self) -> String {
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
            let mut trace = rtk_obs::json::Array::new();
            for e in self.trace.iter() {
                let mut t = rtk_obs::json::Object::new();
                t.field_u64("seq", e.seq);
                t.field_str("kind", e.kind.name());
                t.field_bool("round_trip", e.round_trip);
                t.field_u64("window", e.window.0 as u64);
                t.field_u64("duration_ns", e.duration_ns);
                if let Some(fault) = e.fault {
                    t.field_str("fault", fault);
                }
                trace.push_raw(&t.build());
            }
            o.field_bool("trace_enabled", true);
            o.field_u64(
                "trace_dropped",
                self.trace.total_pushed() - self.trace.len() as u64,
            );
            o.field_raw("trace", &trace.build());
        }
        o.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Xid;
    use std::time::Duration;

    #[test]
    fn all_list_matches_count_and_indices() {
        assert_eq!(RequestKind::ALL.len(), RequestKind::COUNT);
        for (i, k) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{} out of order", k.name());
        }
    }

    #[test]
    fn record_counts_by_kind_and_latency_class() {
        let mut o = ClientObs::default();
        o.record(
            1,
            RequestKind::CreateWindow,
            false,
            Xid(5),
            Duration::from_micros(2),
        );
        o.record(
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
        assert!(o.trace.is_empty());
    }

    #[test]
    fn trace_records_only_when_enabled() {
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        o.record(
            7,
            RequestKind::MapWindow,
            false,
            Xid(3),
            Duration::from_nanos(100),
        );
        assert_eq!(o.trace.len(), 1);
        let e = o.trace.iter().next().unwrap();
        assert_eq!(e.seq, 7);
        assert_eq!(e.kind, RequestKind::MapWindow);
        assert_eq!(e.window, Xid(3));
        assert!(!e.round_trip);
    }

    #[test]
    fn reset_clears_but_keeps_trace_toggle() {
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        o.record(
            1,
            RequestKind::DrawLine,
            false,
            Xid::NONE,
            Duration::from_nanos(5),
        );
        o.record_fault(
            2,
            crate::fault::FaultAction::DropRequest,
            Some(RequestKind::ClearArea),
            Xid::NONE,
        );
        assert_eq!(o.faults_injected, 1);
        o.reset();
        assert_eq!(o.total_requests(), 0);
        assert!(o.request_ns.is_empty());
        assert!(o.trace.is_empty());
        assert_eq!(o.faults_injected, 0, "fault counters reset too");
        assert!(o.fault_kind_counts().is_empty());
        assert!(o.trace_enabled, "toggle survives reset");
    }

    #[test]
    fn record_fault_counts_splits_and_traces() {
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        let kill = crate::fault::FaultAction::KillConnection;
        o.record_fault(9, kill, Some(RequestKind::MapWindow), Xid(4));
        o.record_fault(11, crate::fault::FaultAction::ReorderEvent, None, Xid(4));
        assert_eq!(o.faults_injected, 2);
        assert_eq!(
            o.fault_kind_counts(),
            vec![("reorder", 1), ("kill", 1)],
            "per-kind split"
        );
        let entries: Vec<_> = o.trace.iter().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].fault, Some("kill"));
        assert_eq!(entries[0].kind, RequestKind::MapWindow);
        assert_eq!(entries[1].fault, Some("reorder"));
        let j = o.to_json();
        assert!(rtk_obs::json::is_valid(&j), "{j}");
        assert!(j.contains("\"faults_injected\":2"), "{j}");
        assert!(j.contains("\"by_fault\":{\"reorder\":1,\"kill\":1}"), "{j}");
        assert!(j.contains("\"fault\":\"kill\""), "{j}");
    }

    #[test]
    fn json_is_valid_and_contains_kinds() {
        let mut o = ClientObs {
            trace_enabled: true,
            ..Default::default()
        };
        o.record(
            1,
            RequestKind::InternAtom,
            true,
            Xid::NONE,
            Duration::from_micros(1),
        );
        let j = o.to_json();
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
