//! Heap allocations per variable access and proc call, pinned exactly.
//!
//! A counting global allocator tallies `alloc`, `alloc_zeroed` and
//! `realloc` calls made by the current thread while a measurement is
//! open; the count is thread-local, so the test harness's other threads
//! do not leak into it. Each op runs a few times first, so its program is
//! cached and its variables hold their final capacity, and then once
//! under the counter.
//!
//! The counts differ by eval mode: the direct path (`RTK_NO_COMPILE=1`)
//! parses every command again, so each op carries its parse's allocations
//! on top of the variable work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tcl::Interp;

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

/// Runs `setup` then `op` a few times uncounted, then once more with only
/// `op` counted, and returns its allocation count.
fn allocs(interp: &Interp, setup: &str, op: &str) -> u64 {
    for _ in 0..3 {
        interp.eval(setup).unwrap();
        interp.eval(op).unwrap();
    }
    interp.eval(setup).unwrap();
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let result = interp.eval(op);
    COUNTING.with(|on| on.set(false));
    result.unwrap();
    COUNT.with(Cell::get)
}

/// The pinned count for the interpreter's eval mode: `compiled` for a
/// cached program, `direct` for the `RTK_NO_COMPILE` path.
fn expect(interp: &Interp, compiled: u64, direct: u64) -> u64 {
    if interp.compile_enabled() {
        compiled
    } else {
        direct
    }
}

fn interp() -> Interp {
    let i = Interp::new();
    i.eval("set x 12345; set y 0; set i 0; set s abc; proc p {a} {}")
        .unwrap();
    i
}

#[test]
fn dollar_read_into_an_existing_scalar() {
    let i = interp();
    let n = allocs(&i, "", "set y $x");
    assert_eq!(n, expect(&i, 1, 17), "set y $x");
}

#[test]
fn set_over_an_existing_scalar() {
    let i = interp();
    let n = allocs(&i, "", "set x 54321");
    assert_eq!(n, expect(&i, 1, 23), "set x 54321");
}

#[test]
fn incr_in_place() {
    let i = interp();
    let n = allocs(&i, "", "incr i");
    assert_eq!(n, expect(&i, 1, 15), "incr i");
}

#[test]
fn append_in_place() {
    let i = interp();
    let n = allocs(&i, "set s abc", "append s x");
    assert_eq!(n, expect(&i, 1, 21), "append s x");
}

#[test]
fn one_argument_empty_proc_call() {
    let i = interp();
    let n = allocs(&i, "", "p 1");
    assert_eq!(n, expect(&i, 2, 13), "p 1");
}

/// Both operands are parsed where they live; the one allocation left on
/// the compiled path is the result string.
#[test]
fn expr_compares_two_numeric_variables() {
    let i = interp();
    i.eval("set n 10").unwrap();
    let n = allocs(&i, "", "expr {$i < $n}");
    assert_eq!(n, expect(&i, 1, 20), "expr {{$i < $n}}");
}
