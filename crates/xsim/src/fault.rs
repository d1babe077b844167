//! Deterministic fault injection for the simulated X transport.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s, each naming a client, an
//! index on that client's timeline, and a [`FaultAction`]. Request faults
//! key on the client's request *sequence number* (assigned at issue time,
//! identical whether the transport batches or not); event faults key on
//! the client's event *enqueue index* (events are generated in the same
//! order under both transports). This keying is what makes every plan
//! transport-independent: the batched and unbatched runs inject exactly
//! the same faults, so pixel-equivalence holds even under chaos.
//!
//! The four fault classes mirror what a real X connection can do to a
//! client:
//!
//! * **Error replies** (`BadWindow`, `BadAtom`, `BadValue`, `BadAlloc`)
//!   from reply-bearing requests — filed as the request's reply and
//!   surfaced as [`XError`] by the wait that takes it, `Connection::wait`
//!   or a blocking method (a reply-bearing request has no other path).
//!   On a one-way request the same action models an asynchronous
//!   protocol error: the request is not executed (and no reply exists to
//!   carry the error back).
//! * **Drop / duplicate** of queued one-way requests at flush time
//!   (a lossy or stuttering transport).
//! * **Delay / reorder** of event delivery, within ICCCM-legal bounds: a
//!   delayed event is never held past a later event for the *same*
//!   window, and a reorder only swaps adjacent events targeting
//!   *different* windows, so per-window event order is preserved.
//! * **Kill** — the connection dies mid-flush; the server performs
//!   close-down (destroys the client's windows, releases its selections)
//!   and every later request fails with `ConnectionDead`.
//!
//! Every fired fault is counted in the client's `rtk-obs` counters
//! (`faults_injected` plus a per-kind split), recorded as a `fault`
//! instant in the client's span tracer, and appended to the plan's
//! fired-fault log so a failing run can print exactly what was injected
//! ([`FaultPlan::describe`]).

use crate::ids::ClientId;
use crate::obs::RequestKind;
use crate::rng::XorShift;

/// X protocol error codes the fault layer can inject, plus the
/// out-of-band `ConnectionDead` that every request reports after a kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XErrorCode {
    BadWindow,
    BadAtom,
    BadValue,
    BadAlloc,
    /// Not a wire error: the connection itself is gone.
    ConnectionDead,
}

impl XErrorCode {
    /// Protocol-style name (`"BadWindow"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            XErrorCode::BadWindow => "BadWindow",
            XErrorCode::BadAtom => "BadAtom",
            XErrorCode::BadValue => "BadValue",
            XErrorCode::BadAlloc => "BadAlloc",
            XErrorCode::ConnectionDead => "ConnectionDead",
        }
    }
}

/// An X protocol error as seen by the client: the error code, the
/// sequence number of the request that failed, and (when known) its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XError {
    pub code: XErrorCode,
    pub seq: u64,
    pub kind: Option<RequestKind>,
}

impl XError {
    /// Builds the error every request on a dead connection reports.
    pub fn dead(seq: u64) -> XError {
        XError {
            code: XErrorCode::ConnectionDead,
            seq,
            kind: None,
        }
    }

    /// Is this one of the alloc-class errors a cache should retry once?
    pub fn retryable(&self) -> bool {
        matches!(self.code, XErrorCode::BadValue | XErrorCode::BadAlloc)
    }
}

impl std::fmt::Display for XError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            Some(k) => write!(
                f,
                "X error {} on request {} ({})",
                self.code.name(),
                self.seq,
                k.name()
            ),
            None => write!(f, "X error {} on request {}", self.code.name(), self.seq),
        }
    }
}

impl std::error::Error for XError {}

/// What a fault does when its index comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the request at this sequence number with an X error. A
    /// reply-bearing request surfaces the error from the wait for its
    /// reply; a one-way request is silently not executed
    /// (X's asynchronous error semantics).
    Error(XErrorCode),
    /// Drop the one-way request at this sequence number at flush time.
    DropRequest,
    /// Execute the one-way request at this sequence number twice.
    DuplicateRequest,
    /// Hold the event at this enqueue index until `n` more events have
    /// been enqueued (or a same-window event / a blocking poll forces
    /// release).
    DelayEvent(u32),
    /// Swap the event at this enqueue index with the previously queued
    /// event, if they target different windows.
    ReorderEvent,
    /// Kill the connection when this sequence number is reached.
    KillConnection,
    /// Byte-layer, wire-only: XOR one byte of the encoded frame at this
    /// per-client frame index (`offset` wraps modulo the frame length).
    /// The v2 CRC maps the damage to `WireError::Checksum` server-side.
    CorruptByte { offset: u16, xor: u8 },
    /// Byte-layer, wire-only: keep only the first `keep` bytes (modulo
    /// the frame length) of the encoded frame — a write cut short.
    TruncateFrame { keep: u16 },
    /// Byte-layer, wire-only: append `bytes` seed-derived garbage bytes
    /// after the encoded frame — line noise between writes.
    InjectGarbage { bytes: u16 },
    /// Byte-layer, wire-only: emit the encoded frame as two writes split
    /// at `at` (modulo the frame length). Behavior-invisible by design:
    /// the frame reader reassembles across write boundaries.
    SplitWrite { at: u16 },
    /// Byte-layer, wire-only: stall dispatch of this client's next
    /// control frame by `ticks` ×10 ms of virtual time. A stall that
    /// reaches the wire deadline (`Display::set_wire_deadline`) trips the
    /// watchdog: the connection dies and the client sees
    /// `ConnectionDead`. A shorter stall costs nothing.
    StallDispatch { ticks: u32 },
}

/// Number of distinct fault-counter kinds (see [`FAULT_KIND_NAMES`]).
pub const FAULT_KIND_COUNT: usize = 14;

/// Counter names for the per-kind fault split, indexed by
/// [`FaultAction::kind_index`].
pub const FAULT_KIND_NAMES: [&str; FAULT_KIND_COUNT] = [
    "error.BadWindow",
    "error.BadAtom",
    "error.BadValue",
    "error.BadAlloc",
    "drop",
    "duplicate",
    "delay",
    "reorder",
    "kill",
    "byte.corrupt",
    "byte.truncate",
    "byte.garbage",
    "byte.split",
    "byte.stall",
];

impl FaultAction {
    /// Index into the per-kind fault counters.
    pub fn kind_index(self) -> usize {
        match self {
            FaultAction::Error(XErrorCode::BadWindow) => 0,
            FaultAction::Error(XErrorCode::BadAtom) => 1,
            FaultAction::Error(XErrorCode::BadValue) => 2,
            FaultAction::Error(XErrorCode::BadAlloc) => 3,
            // ConnectionDead is never planned; bucket it with kill.
            FaultAction::Error(XErrorCode::ConnectionDead) => 8,
            FaultAction::DropRequest => 4,
            FaultAction::DuplicateRequest => 5,
            FaultAction::DelayEvent(_) => 6,
            FaultAction::ReorderEvent => 7,
            FaultAction::KillConnection => 8,
            FaultAction::CorruptByte { .. } => 9,
            FaultAction::TruncateFrame { .. } => 10,
            FaultAction::InjectGarbage { .. } => 11,
            FaultAction::SplitWrite { .. } => 12,
            FaultAction::StallDispatch { .. } => 13,
        }
    }

    /// Counter name for this action.
    pub fn kind_name(self) -> &'static str {
        FAULT_KIND_NAMES[self.kind_index()]
    }

    /// Does this action trigger on a request sequence number (as opposed
    /// to an event enqueue index or an encoded-frame index)?
    pub fn is_request_fault(self) -> bool {
        matches!(
            self,
            FaultAction::Error(_)
                | FaultAction::DropRequest
                | FaultAction::DuplicateRequest
                | FaultAction::KillConnection
        )
    }

    /// Does this action attack encoded frame bytes (or dispatch timing)
    /// rather than protocol semantics? Byte faults key on the
    /// client's encoded-frame index and only the transport's codec
    /// applies them — a byte-fault plan is a strict no-op under `RTK_NO_WIRE=1`.
    pub fn is_byte_fault(self) -> bool {
        matches!(
            self,
            FaultAction::CorruptByte { .. }
                | FaultAction::TruncateFrame { .. }
                | FaultAction::InjectGarbage { .. }
                | FaultAction::SplitWrite { .. }
                | FaultAction::StallDispatch { .. }
        )
    }

    fn describe(self) -> String {
        match self {
            FaultAction::Error(code) => format!("error {}", code.name()),
            FaultAction::DropRequest => "drop".into(),
            FaultAction::DuplicateRequest => "duplicate".into(),
            FaultAction::DelayEvent(n) => format!("delay {n}"),
            FaultAction::ReorderEvent => "reorder".into(),
            FaultAction::KillConnection => "kill".into(),
            FaultAction::CorruptByte { offset, xor } => {
                format!("corrupt byte at {offset} xor {xor:#04x}")
            }
            FaultAction::TruncateFrame { keep } => format!("truncate to {keep}"),
            FaultAction::InjectGarbage { bytes } => format!("garbage {bytes}"),
            FaultAction::SplitWrite { at } => format!("split at {at}"),
            FaultAction::StallDispatch { ticks } => format!("stall {ticks}"),
        }
    }
}

/// One planned fault: on `client` (the raw client id; 0 = any client), at
/// request sequence number / event enqueue index `at`, do `action`.
/// Each spec fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub client: u32,
    pub at: u64,
    pub action: FaultAction,
}

/// A record of a fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    pub client: u32,
    pub at: u64,
    pub action: FaultAction,
}

/// A deterministic fault schedule, installed on the server with
/// `Server::install_fault_plan`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    fired: Vec<bool>,
    log: Vec<FiredFault>,
}

impl FaultPlan {
    /// A plan from an explicit spec list.
    pub fn new(specs: Vec<FaultSpec>) -> FaultPlan {
        let fired = vec![false; specs.len()];
        FaultPlan {
            specs,
            fired,
            log: Vec::new(),
        }
    }

    /// Generates a random plan: `faults` specs spread over `clients`
    /// clients (ids `1..=clients`) and indices `1..horizon`. The same
    /// `(seed, faults, clients, horizon)` always yields the same plan.
    pub fn from_seed(seed: u64, faults: usize, clients: u32, horizon: u64) -> FaultPlan {
        let mut rng = XorShift::new(seed);
        let mut specs = Vec::with_capacity(faults);
        for _ in 0..faults {
            let client = 1 + rng.below(clients.max(1) as u64) as u32;
            let at = rng.range(1, horizon.max(2));
            let action = match rng.below(10) {
                0 => FaultAction::Error(XErrorCode::BadWindow),
                1 => FaultAction::Error(XErrorCode::BadAtom),
                2 => FaultAction::Error(XErrorCode::BadValue),
                3 => FaultAction::Error(XErrorCode::BadAlloc),
                4 => FaultAction::DropRequest,
                5 => FaultAction::DuplicateRequest,
                6 | 7 => FaultAction::DelayEvent(1 + rng.below(4) as u32),
                8 => FaultAction::ReorderEvent,
                _ => FaultAction::KillConnection,
            };
            specs.push(FaultSpec { client, at, action });
        }
        FaultPlan::new(specs)
    }

    /// Generates a random byte-layer plan: `faults` specs over clients
    /// `1..=clients` and per-client encoded-frame indices `1..horizon`.
    /// Only byte-fault actions are drawn (seed space disjoint from
    /// [`FaultPlan::from_seed`]), so the plan is a strict no-op with the
    /// codec off — the `chaos --bytes` harness relies
    /// on that to diff a faulted wire run against a fault-free one.
    pub fn bytes_from_seed(seed: u64, faults: usize, clients: u32, horizon: u64) -> FaultPlan {
        let mut rng = XorShift::new(seed ^ 0xB17E_C4A0_05EE_D000);
        let mut specs = Vec::with_capacity(faults);
        for _ in 0..faults {
            let client = 1 + rng.below(clients.max(1) as u64) as u32;
            let at = rng.range(1, horizon.max(2));
            let action = match rng.below(10) {
                0..=2 => FaultAction::CorruptByte {
                    offset: rng.below(64) as u16,
                    xor: 1 + rng.below(255) as u8,
                },
                3 | 4 => FaultAction::TruncateFrame {
                    keep: rng.below(40) as u16,
                },
                5 | 6 => FaultAction::InjectGarbage {
                    bytes: 1 + rng.below(96) as u16,
                },
                7 | 8 => FaultAction::SplitWrite {
                    at: 1 + rng.below(32) as u16,
                },
                _ => FaultAction::StallDispatch {
                    ticks: 1 + rng.below(40) as u32,
                },
            };
            specs.push(FaultSpec { client, at, action });
        }
        FaultPlan::new(specs)
    }

    // --- builder helpers (used by tests and the checked-in corpus) ---

    fn push(mut self, client: u32, at: u64, action: FaultAction) -> Self {
        self.specs.push(FaultSpec { client, at, action });
        self.fired.push(false);
        self
    }

    /// Plans an error reply on `client`'s request `seq`.
    pub fn error_at(self, client: u32, seq: u64, code: XErrorCode) -> Self {
        self.push(client, seq, FaultAction::Error(code))
    }

    /// Plans a dropped one-way request.
    pub fn drop_at(self, client: u32, seq: u64) -> Self {
        self.push(client, seq, FaultAction::DropRequest)
    }

    /// Plans a duplicated one-way request.
    pub fn duplicate_at(self, client: u32, seq: u64) -> Self {
        self.push(client, seq, FaultAction::DuplicateRequest)
    }

    /// Plans an event delay of `hold` enqueues at event index `idx`.
    pub fn delay_at(self, client: u32, idx: u64, hold: u32) -> Self {
        self.push(client, idx, FaultAction::DelayEvent(hold))
    }

    /// Plans an adjacent-event reorder at event index `idx`.
    pub fn reorder_at(self, client: u32, idx: u64) -> Self {
        self.push(client, idx, FaultAction::ReorderEvent)
    }

    /// Plans a connection kill at request `seq`.
    pub fn kill_at(self, client: u32, seq: u64) -> Self {
        self.push(client, seq, FaultAction::KillConnection)
    }

    /// The planned specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The faults that have fired so far, in firing order.
    pub fn fired_log(&self) -> &[FiredFault] {
        &self.log
    }

    /// Clears the fired-fault log (an `obs reset` epoch boundary). The
    /// per-spec fired flags are kept: a spec still fires at most once.
    pub fn clear_log(&mut self) {
        self.log.clear();
    }

    /// Clears log entries for one client only.
    pub fn clear_log_for(&mut self, client: u32) {
        self.log.retain(|f| f.client != client);
    }

    /// Finds, fires, and returns the first unfired spec matching
    /// `(client, at)` whose action satisfies `applicable`.
    pub(crate) fn fire(
        &mut self,
        client: ClientId,
        at: u64,
        applicable: impl Fn(FaultAction) -> bool,
    ) -> Option<FaultAction> {
        for (i, spec) in self.specs.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if spec.client != 0 && spec.client != client.0 {
                continue;
            }
            if spec.at != at || !applicable(spec.action) {
                continue;
            }
            self.fired[i] = true;
            self.log.push(FiredFault {
                client: client.0,
                at,
                action: spec.action,
            });
            return Some(spec.action);
        }
        None
    }

    /// Human-readable plan dump: every spec, with a `[fired]` marker on
    /// the ones that triggered, then the firing log. This is what a
    /// failing chaos run prints so the injected schedule is never a
    /// mystery.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fault plan ({} specs):\n", self.specs.len()));
        for (i, spec) in self.specs.iter().enumerate() {
            out.push_str(&format!(
                "  client {} at {:>5}: {}{}\n",
                spec.client,
                spec.at,
                spec.action.describe(),
                if self.fired[i] { "  [fired]" } else { "" }
            ));
        }
        out.push_str(&format!(
            "fired: {} of {}\n",
            self.log.len(),
            self.specs.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        let a = FaultPlan::from_seed(99, 8, 2, 500);
        let b = FaultPlan::from_seed(99, 8, 2, 500);
        assert_eq!(a.specs(), b.specs());
        assert_eq!(a.specs().len(), 8);
        for s in a.specs() {
            assert!((1..=2).contains(&s.client));
            assert!((1..500).contains(&s.at));
        }
    }

    #[test]
    fn specs_fire_at_most_once_and_are_logged() {
        let mut p = FaultPlan::default().drop_at(1, 10).kill_at(1, 12);
        assert!(p
            .fire(ClientId(1), 10, |a| a == FaultAction::DropRequest)
            .is_some());
        assert!(p.fire(ClientId(1), 10, |_| true).is_none(), "single fire");
        // Client mismatch: no fire.
        assert!(p.fire(ClientId(2), 12, |_| true).is_none());
        assert_eq!(p.fired_log().len(), 1);
        assert_eq!(p.fired_log()[0].at, 10);
        p.clear_log();
        assert!(p.fired_log().is_empty());
    }

    #[test]
    fn describe_prints_every_spec_and_fired_markers() {
        let mut p = FaultPlan::default()
            .error_at(1, 3, XErrorCode::BadWindow)
            .reorder_at(2, 7);
        p.fire(ClientId(1), 3, |a| a.is_request_fault());
        let d = p.describe();
        assert!(d.contains("error BadWindow"), "{d}");
        assert!(d.contains("[fired]"), "{d}");
        assert!(d.contains("reorder"), "{d}");
        assert!(d.contains("fired: 1 of 2"), "{d}");
    }

    #[test]
    fn kind_indices_cover_all_names() {
        let actions = [
            FaultAction::Error(XErrorCode::BadWindow),
            FaultAction::Error(XErrorCode::BadAtom),
            FaultAction::Error(XErrorCode::BadValue),
            FaultAction::Error(XErrorCode::BadAlloc),
            FaultAction::DropRequest,
            FaultAction::DuplicateRequest,
            FaultAction::DelayEvent(2),
            FaultAction::ReorderEvent,
            FaultAction::KillConnection,
            FaultAction::CorruptByte {
                offset: 3,
                xor: 0x40,
            },
            FaultAction::TruncateFrame { keep: 5 },
            FaultAction::InjectGarbage { bytes: 9 },
            FaultAction::SplitWrite { at: 2 },
            FaultAction::StallDispatch { ticks: 7 },
        ];
        let mut seen = [false; FAULT_KIND_COUNT];
        for a in actions {
            seen[a.kind_index()] = true;
            assert_eq!(a.kind_name(), FAULT_KIND_NAMES[a.kind_index()]);
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn byte_plans_are_deterministic_and_byte_only() {
        let a = FaultPlan::bytes_from_seed(7, 12, 3, 200);
        let b = FaultPlan::bytes_from_seed(7, 12, 3, 200);
        assert_eq!(a.specs(), b.specs());
        assert_eq!(a.specs().len(), 12);
        for s in a.specs() {
            assert!((1..=3).contains(&s.client));
            assert!((1..200).contains(&s.at));
            assert!(s.action.is_byte_fault());
            assert!(!s.action.is_request_fault());
            if let FaultAction::CorruptByte { xor, .. } = s.action {
                assert_ne!(xor, 0, "a zero xor would be a silent no-op");
            }
        }
        // The seed space is distinct from the semantic generator's.
        assert_ne!(
            FaultPlan::bytes_from_seed(7, 12, 3, 200).specs(),
            FaultPlan::from_seed(7, 12, 3, 200).specs()
        );
    }

    #[test]
    fn xerror_display_names_code_and_request() {
        let e = XError {
            code: XErrorCode::BadAtom,
            seq: 42,
            kind: Some(RequestKind::InternAtom),
        };
        assert_eq!(e.to_string(), "X error BadAtom on request 42 (InternAtom)");
        assert!(XError::dead(7).to_string().contains("ConnectionDead"));
        assert!(!XError::dead(7).retryable());
        assert!(XError {
            code: XErrorCode::BadAlloc,
            seq: 1,
            kind: None
        }
        .retryable());
    }
}
