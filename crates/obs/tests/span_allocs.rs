//! Heap allocations per span record, pinned at zero once the store is
//! warm.
//!
//! A counting global allocator tallies `alloc`, `alloc_zeroed` and
//! `realloc` calls made by the current thread while a measurement is
//! open, as `crates/xsim/tests/wire_allocs.rs` does for the transport.
//! Each record runs a few times first, each run in a new epoch (as
//! rtkbench resets the store after every op), so the store and the
//! context stack hold their final capacity; then once under the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtk_obs::Tracer;

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

/// Runs `op` a few times uncounted, each in a new epoch of `t`, then
/// once more counted; returns that run's allocation count.
fn allocs(t: &Tracer, mut op: impl FnMut()) -> u64 {
    for _ in 0..3 {
        t.reset_epoch();
        op();
    }
    t.reset_epoch();
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    op();
    COUNTING.with(|on| on.set(false));
    COUNT.with(Cell::get)
}

/// The text `t`'s only record (or its `n`th) carries.
fn detail(t: &Tracer, n: usize) -> String {
    t.snapshot()[n].detail.clone()
}

#[test]
fn a_begin_end_with_a_static_detail() {
    let t = Tracer::default();
    let n = allocs(&t, || drop(t.begin("dispatch", "ButtonPress", 0)));
    assert_eq!(n, 0, "begin/end, static detail");
    assert_eq!(detail(&t, 0), "ButtonPress");
}

#[test]
fn a_begin_end_with_a_widget_path() {
    let t = Tracer::default();
    let path = String::from(".f.list.b");
    assert_eq!(path.len(), 9);
    let n = allocs(&t, || drop(t.begin("redraw", path.as_str(), 0)));
    assert_eq!(n, 0, "begin/end, 9-byte path");
    assert_eq!(detail(&t, 0), path);
}

#[test]
fn a_begin_end_with_a_script_prefix() {
    let t = Tracer::default();
    let script = "set total [expr {$total + $cell(a1)}]; update";
    let prefix = &script[..32];
    let n = allocs(&t, || drop(t.begin("eval", prefix, 0)));
    assert_eq!(n, 0, "begin/end, 32-char prefix");
    assert_eq!(detail(&t, 0), prefix);
}

#[test]
fn an_instant() {
    let t = Tracer::default();
    let n = allocs(&t, || t.instant("event", "MotionNotify", 7));
    assert_eq!(n, 0, "instant");
    assert_eq!(detail(&t, 0), "MotionNotify");
}

#[test]
fn a_scope_around_a_span() {
    let t = Tracer::default();
    let n = allocs(&t, || {
        let cause = t.begin("dispatch", "KeyPress", 0).id();
        let _scope = t.scope(cause);
        drop(t.begin("redraw", ".e", 0));
    });
    assert_eq!(n, 0, "scope");
    let spans = t.snapshot();
    assert_eq!(
        spans[1].parent, spans[0].id,
        "the redraw parents on its cause"
    );
}

#[test]
fn a_formatted_sequence_range() {
    let t = Tracer::default();
    let (first, last) = (1_000_001u64, 1_000_042u64);
    let n = allocs(&t, || {
        drop(t.begin("flush", format_args!("seq {first}..{last}"), first))
    });
    assert_eq!(n, 0, "seq A..B detail");
    assert_eq!(detail(&t, 0), "seq 1000001..1000042");
}
