//! `rtk-obs` — the observability core shared by every layer of the
//! toolkit (xsim server, Tk intrinsics, wish, benchmarks).
//!
//! The paper's empirical claims (Table II, the Section 3.3 cache
//! argument) all rest on counting and timing protocol traffic, so this
//! crate provides the primitives to do that *cheaply enough to leave on
//! in production*:
//!
//! * [`counter_set!`] — counter sets with static keys: one `u64` field
//!   per counter, named once, walked by every surface that shows them;
//! * [`Histogram`] — fixed log₂-bucket latency histograms (no external
//!   dependencies, constant memory, O(1) record);
//! * [`span`] — rtk-trace: causal span records across the pipeline, the
//!   toolkit's one timing source (per-stage histograms and the protocol
//!   trace are views of its store), with Chrome trace-event, folded-stack,
//!   and virtual-clock-profile exports;
//! * [`json`] — a tiny hand-rolled JSON emitter used by `obs dump`.
//!
//! A counter bump is a field add on whatever owns the set. The
//! [`Tracer`] and [`VirtualClock`] are `Send + Sync` (`Mutex`/atomics)
//! because, on the wire transport, whichever app thread holds the server
//! lock may flush another app's buffer and record flush and fault spans
//! into that app's span tree.

mod hist;
pub mod json;
mod registry;
pub mod span;

pub use hist::Histogram;
pub use span::{Detail, SpanGuard, SpanId, SpanRecord, SpanShape, Tracer, VirtualClock};
