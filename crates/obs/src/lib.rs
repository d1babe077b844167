//! `rtk-obs` — the observability core shared by every layer of the
//! toolkit (xsim server, Tk intrinsics, wish, benchmarks).
//!
//! The paper's empirical claims (Table II, the Section 3.3 cache
//! argument) all rest on counting and timing protocol traffic, so this
//! crate provides the primitives to do that *cheaply enough to leave on
//! in production*:
//!
//! * [`Registry`] — named monotonic counters and value histograms with
//!   interior mutability, so instrumented code needs only `&Registry`;
//! * [`Histogram`] — fixed log₂-bucket latency histograms (no external
//!   dependencies, constant memory, O(1) record);
//! * [`span`] — rtk-trace: causal span records across the pipeline, the
//!   toolkit's one timing source (per-stage histograms and the protocol
//!   trace are views of its store), with Chrome trace-event, folded-stack,
//!   and virtual-clock-profile exports;
//! * [`json`] — a tiny hand-rolled JSON emitter used by `obs dump`.
//!
//! The counter/histogram [`Registry`] stays single-threaded
//! (`Cell`/`RefCell`) because each Tk application owns its registry on
//! its own thread; the [`Tracer`] and [`VirtualClock`] are `Send + Sync`
//! (`Mutex`/atomics) because, on the wire transport, whichever app thread
//! holds the server lock may flush another app's buffer and record flush
//! and fault spans into that app's span tree.
//! Counters are plain integer bumps and histogram records are one array
//! increment either way.

mod hist;
pub mod json;
mod registry;
pub mod span;

pub use hist::Histogram;
pub use registry::Registry;
pub use span::{SpanGuard, SpanId, SpanRecord, SpanShape, Tracer, VirtualClock};
