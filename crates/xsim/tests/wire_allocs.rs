//! Heap allocations per transport exchange, codec on, pinned exactly.
//!
//! A counting global allocator tallies `alloc`, `alloc_zeroed` and
//! `realloc` calls made by the current thread while a measurement is
//! open; the count is thread-local, so the test harness's other threads
//! do not leak into it. Each exchange runs a few times first, so every
//! reused buffer (the transport's outgoing and response buffers, the
//! client's read-ahead) holds its final capacity, and then once under
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xsim::event::mask;
use xsim::{Connection, Display, WindowId};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `setup` then `op` a few times uncounted, then `setup` once more
/// and `op` once with only `op` counted; returns its allocation count.
fn allocs<R>(mut setup: impl FnMut(), mut op: impl FnMut() -> R) -> u64 {
    for _ in 0..3 {
        setup();
        op();
    }
    setup();
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let r = op();
    COUNTING.with(|on| on.set(false));
    drop(r);
    COUNT.with(Cell::get)
}

/// A codec-on display with one client and one mapped window that
/// selects pointer motion.
fn setup() -> (Display, Connection, WindowId) {
    let d = Display::new();
    d.set_wire(true);
    let c = d.connect();
    let w = c.create_window(c.root(), 0, 0, 100, 40, 0).unwrap();
    c.select_input(w, mask::POINTER_MOTION);
    c.map_window(w);
    while c.poll_event().is_some() {}
    (d, c, w)
}

#[test]
fn an_empty_poll_exchange() {
    let (_d, c, _) = setup();
    let n = allocs(|| {}, || assert!(c.poll_event().is_none()));
    assert_eq!(n, 0, "empty poll_event");
}

#[test]
fn a_pending_exchange() {
    let (_d, c, _) = setup();
    let n = allocs(|| {}, || assert_eq!(c.pending(), 0));
    assert_eq!(n, 0, "pending with nothing queued");
}

#[test]
fn a_get_geometry_round_trip() {
    let (_d, c, w) = setup();
    let n = allocs(
        || {},
        || assert_eq!(c.get_geometry(w), Ok(Some((0, 0, 100, 40, 0)))),
    );
    assert_eq!(n, 0, "get_geometry round trip");
}

/// One refill brings all three motion events into the read-ahead and
/// hands back the first. The events cross as frames encoded into the
/// transport's response buffer and decoded straight into the warm
/// read-ahead, so no `Vec` is built on either side.
#[test]
fn a_poll_that_returns_three_events() {
    let (d, c, _) = setup();
    let mut x = 0;
    let n = allocs(
        || {
            d.peek_server(|s| {
                for _ in 0..3 {
                    x = (x + 1) % 90;
                    s.warp_pointer(x + 1, 20);
                }
                assert_eq!(s.pending(c.client_id()), 3);
            })
        },
        || {
            assert!(c.poll_event().is_some());
            c.poll_event();
            c.poll_event();
        },
    );
    assert_eq!(n, 0, "poll returning 3 events");
}

/// A one-way request is buffered, then shipped by its flush exchange;
/// the server applies the batch under one `flush` span, recorded into a
/// warm span store (each run starts a new epoch, as rtkbench does per
/// op). The server decodes the frames into the client's reused output
/// buffer, so nothing allocates.
#[test]
fn a_one_way_request_and_its_flush_exchange() {
    let (_d, c, w) = setup();
    let tracer = rtk_obs::Tracer::default();
    c.set_tracer(tracer.clone());
    let n = allocs(
        || tracer.reset_epoch(),
        || {
            c.map_window(w);
            c.flush();
        },
    );
    assert_eq!(n, 0, "one-way request and flush");
    let spans = tracer.snapshot();
    assert_eq!(spans[0].detail, format!("seq {0}..{0}", spans[0].seq));
}
