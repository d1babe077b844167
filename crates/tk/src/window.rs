//! Tk window records and path names (Section 3.1).
//!
//! Every Tk window has a *name* unique among its siblings, a *class*, and
//! a *path name* like `.a.b.c` that identifies it within the application.
//! `"."` is the application's main window. The record also carries the
//! structure cache: geometry fields mirrored from the server so widgets
//! and `winfo` never need a round trip to read them.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tcl::Exception;
use xsim::WindowId;

use crate::widget::WidgetOps;

/// A Tk window: path name, class, server window, cached structure, and the
/// widget (if any) attached to it.
pub struct TkWindow {
    /// Full path name (`.a.b`).
    pub path: String,
    /// Widget class (`Button`, `Frame`, ...).
    pub class: &'static str,
    /// The server-side window.
    pub xid: WindowId,
    /// Structure cache: position in the parent.
    pub x: Cell<i32>,
    /// Structure cache: position in the parent.
    pub y: Cell<i32>,
    /// Structure cache: current interior width.
    pub width: Cell<u32>,
    /// Structure cache: current interior height.
    pub height: Cell<u32>,
    /// Structure cache: border width.
    pub border_width: Cell<u32>,
    /// Structure cache: is the window mapped?
    pub mapped: Cell<bool>,
    /// ConfigureWindow requests the app sent whose ConfigureNotify has
    /// not come back yet.
    pub configures: Cell<u32>,
    /// The size the widget asked its geometry manager for.
    pub req_width: Cell<u32>,
    /// The size the widget asked its geometry manager for.
    pub req_height: Cell<u32>,
    /// Width of the widget's internal border (its `-borderwidth`): space
    /// geometry managers must leave free inside the window's edges.
    pub internal_border: Cell<u32>,
    /// Name of the geometry manager controlling this window ("" = none).
    pub manager: RefCell<String>,
    /// The widget implementation attached to this window.
    pub widget: RefCell<Option<Rc<dyn WidgetOps>>>,
}

impl TkWindow {
    /// Creates the record of an unmapped window of the given size at the
    /// origin, which also asks for that size.
    pub fn new(path: &str, class: &'static str, xid: WindowId, w: u32, h: u32) -> TkWindow {
        let (width, height) = (w.max(1), h.max(1));
        TkWindow {
            path: path.to_string(),
            class,
            xid,
            x: Cell::new(0),
            y: Cell::new(0),
            width: Cell::new(width),
            height: Cell::new(height),
            border_width: Cell::new(0),
            mapped: Cell::new(false),
            configures: Cell::new(0),
            req_width: Cell::new(width),
            req_height: Cell::new(height),
            internal_border: Cell::new(0),
            manager: RefCell::new(String::new()),
            widget: RefCell::new(None),
        }
    }

    /// Counts one ConfigureNotify against the configures in flight; true
    /// while a later one is still in flight.
    pub fn configure_echo_is_stale(&self) -> bool {
        let in_flight = self.configures.get();
        self.configures.set(in_flight.saturating_sub(1));
        in_flight > 1
    }

    /// The window's own name (last path component).
    pub fn name(&self) -> &str {
        name_of(&self.path)
    }
}

/// The parent path of a window path (`".a.b"` → `".a"`, `".a"` → `"."`).
/// The root (`"."`) has no parent.
pub fn parent_path(path: &str) -> Option<&str> {
    if path == "." {
        return None;
    }
    match path.rfind('.') {
        Some(0) => Some("."),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

/// The final component of a path (`".a.b"` → `"b"`, `"."` → `""`).
pub fn name_of(path: &str) -> &str {
    if path == "." {
        return "";
    }
    match path.rfind('.') {
        Some(i) => &path[i + 1..],
        None => path,
    }
}

/// Joins a parent path and a child name.
pub fn join(parent: &str, name: &str) -> String {
    if parent == "." {
        format!(".{name}")
    } else {
        format!("{parent}.{name}")
    }
}

/// Validates a new window path name: must start with `.`, have non-empty
/// components, and components must not start with an upper-case letter
/// (upper-case names are reserved for classes, as in Tk).
pub fn validate_path(path: &str) -> Result<(), Exception> {
    if path == "." {
        return Ok(());
    }
    if !path.starts_with('.') {
        return Err(Exception::error(format!(
            "bad window path name \"{path}\": must start with \".\""
        )));
    }
    for comp in path[1..].split('.') {
        if comp.is_empty() {
            return Err(Exception::error(format!(
                "bad window path name \"{path}\": empty component"
            )));
        }
        if comp.chars().next().unwrap().is_ascii_uppercase() {
            return Err(Exception::error(format!(
                "window name \"{comp}\" can't start with an upper-case letter"
            )));
        }
    }
    Ok(())
}

/// Splits a path into its components, excluding the root
/// (`".a.b"` → `["a", "b"]`, `"."` → `[]`).
pub fn components(path: &str) -> Vec<&str> {
    if path == "." {
        return Vec::new();
    }
    path[1..].split('.').collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_paths() {
        assert_eq!(parent_path(".a.b.c"), Some(".a.b"));
        assert_eq!(parent_path(".a"), Some("."));
        assert_eq!(parent_path("."), None);
    }

    #[test]
    fn names() {
        assert_eq!(name_of(".a.b.c"), "c");
        assert_eq!(name_of(".a"), "a");
        assert_eq!(name_of("."), "");
    }

    #[test]
    fn joins() {
        assert_eq!(join(".", "a"), ".a");
        assert_eq!(join(".a", "b"), ".a.b");
    }

    #[test]
    fn validation() {
        assert!(validate_path(".").is_ok());
        assert!(validate_path(".a.b").is_ok());
        assert!(validate_path("a").is_err());
        assert!(validate_path("..a").is_err());
        assert!(validate_path(".a.").is_err());
        assert!(validate_path(".A").is_err());
        assert!(validate_path(".a.Bad").is_err());
    }

    #[test]
    fn component_lists() {
        assert_eq!(components(".a.b.c"), vec!["a", "b", "c"]);
        assert!(components(".").is_empty());
    }

    #[test]
    fn window_record_name() {
        let w = TkWindow::new(".x.y", "Button", xsim::Xid(5), 0, 0);
        assert_eq!(w.name(), "y");
        assert_eq!(w.class, "Button");
        assert_eq!((w.width.get(), w.req_height.get()), (1, 1));
    }
}
