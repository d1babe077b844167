//! Heap allocations per widget creation, held under a ceiling per class.
//!
//! A counting global allocator tallies `alloc`, `alloc_zeroed` and
//! `realloc` calls made by the current thread while a measurement is
//! open, as `crates/tcl/tests/var_allocs.rs` does. Each class is created
//! a few times first (the creation script is compiled and cached, the
//! buffers hold their capacity), and then once more under the counter,
//! always under a fresh path in a nested frame `.p.f`: the whole
//! creation — window, option resolution, option table, widget command —
//! with an empty option database.
//!
//! The ceilings sit a little above today's counts rather than on them:
//! the standard library may allocate differently on another toolchain.
//! They hold only while a widget resolves its option-database levels
//! once (not once per option) and keeps its values in a table sized at
//! creation, with each default borrowed from its spec.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tk::TkEnv;

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

/// Creates a widget with `create` (a script reading its fresh path from
/// `$w`) a few times uncounted, then once counted; returns that count.
fn creation_allocs(create: &str) -> u64 {
    let env = TkEnv::new();
    let app = env.app("allocs");
    app.eval("frame .p; frame .p.f; set i 0").unwrap();
    let next = "incr i; set w .p.f.w$i";
    for _ in 0..4 {
        app.eval(next).unwrap();
        app.eval(create).unwrap();
    }
    app.eval(next).unwrap();
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let result = app.eval(create);
    COUNTING.with(|on| on.set(false));
    assert_eq!(result.unwrap(), app.eval("set w").unwrap());
    COUNT.with(Cell::get)
}

#[test]
fn button_creation() {
    let n = creation_allocs("button $w -text Hello");
    assert!(n <= 35, "button: {n} allocations");
}

#[test]
fn label_creation() {
    let n = creation_allocs("label $w -text Hello");
    assert!(n <= 33, "label: {n} allocations");
}

#[test]
fn checkbutton_creation() {
    let n = creation_allocs("checkbutton $w -text Hello");
    assert!(n <= 35, "checkbutton: {n} allocations");
}

#[test]
fn entry_creation() {
    let n = creation_allocs("entry $w");
    assert!(n <= 30, "entry: {n} allocations");
}
