//! The widget framework: the [`WidgetOps`] trait, creation plumbing, and
//! registration of all widget-creation commands (Section 4).
//!
//! For each widget type there is one Tcl command named after the type
//! (`button .hello -text ...`). Creating a widget also creates a *widget
//! command* named after the window's path name (`.hello flash`), which is
//! used to manipulate the widget afterwards.

pub mod button;
pub mod canvas;
pub mod entry;
pub mod frame;
pub mod listbox;
pub mod menu;
pub mod message;
pub mod scale;
pub mod scrollbar;

use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::Event;

use crate::app::TkApp;
use crate::config::ConfigStore;

/// Behavior every widget implements.
pub trait WidgetOps {
    /// The widget class name (`"Button"`).
    fn class(&self) -> &'static str;

    /// The widget's option storage.
    fn config(&self) -> &ConfigStore;

    /// Handles the widget command (`.path subcommand args...`).
    fn command(&self, app: &TkApp, path: &str, argv: &[String]) -> TclResult;

    /// Re-applies configuration: window attributes, geometry request, and
    /// a redraw. Called after creation and every `configure`.
    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception>;

    /// Built-in event handler (the C-level handlers of real Tk).
    fn event(&self, _app: &TkApp, _path: &str, _ev: &Event) {}

    /// A watched `-variable` changed: schedule whatever repaint the
    /// widget needs. The default repaints everything; widgets with a
    /// small state indicator narrow the damage.
    fn variable_changed(&self, app: &TkApp, path: &str) {
        app.schedule_redraw(path);
    }

    /// Repaints the widget. The idle loop calls it only while the
    /// widget's window is mapped.
    fn redraw(&self, _app: &TkApp, _path: &str) {}

    /// Cleanup hook when the window is destroyed.
    fn destroyed(&self, _app: &TkApp, _path: &str) {}
}

/// Registers every widget-creation command on an application.
pub fn register_all(app: &TkApp) {
    button::register(app);
    canvas::register(app);
    entry::register(app);
    frame::register(app);
    listbox::register(app);
    menu::register(app);
    message::register(app);
    scale::register(app);
    scrollbar::register(app);
}

/// Shared creation path: makes the window, attaches the widget, resolves
/// options (command line > option database > defaults), and registers the
/// widget command. Returns the path name, Tk's creation result.
pub fn create_widget(app: &TkApp, argv: &[String], widget: Rc<dyn WidgetOps>) -> TclResult {
    if argv.len() < 2 {
        return Err(Exception::error(format!(
            "wrong # args: should be \"{} pathName ?options?\"",
            argv.first().map(String::as_str).unwrap_or("widget")
        )));
    }
    let path = argv[1].clone();
    let rec = app.make_window(&path, widget.class(), 1, 1, 0)?;
    *rec.widget.borrow_mut() = Some(widget.clone());
    let result = (|| -> Result<(), Exception> {
        widget.config().init(app, &path)?;
        widget.config().set_args(app, &argv[2..])?;
        widget.apply_config(app, &path)?;
        Ok(())
    })();
    if let Err(e) = result {
        // Creation failed after the window existed: tear it down.
        let _ = app.destroy_window(&path);
        return Err(e);
    }
    register_widget_command(app, &path);
    Ok(path)
}

/// Registers the per-widget Tcl command named after the window path.
pub fn register_widget_command(app: &TkApp, path: &str) {
    app.register_command(path, move |app, _interp, argv| {
        let path = &argv[0];
        let rec = app.require_window(path)?;
        let widget = rec.widget.borrow().clone();
        match widget {
            Some(w) => w.command(app, path, argv),
            None => Err(Exception::error(format!(
                "window \"{path}\" has no widget command"
            ))),
        }
    });
}

/// Handles the `configure` subcommand shared by every widget command
/// ("the configure form is supported by all widget commands").
///
/// Returns `Some(result)` when `argv[1]` was `configure`, `None` otherwise.
pub fn handle_configure(
    app: &TkApp,
    widget: &dyn WidgetOps,
    path: &str,
    argv: &[String],
) -> Option<TclResult> {
    if argv.len() < 2 || argv[1] != "configure" {
        return None;
    }
    Some(match argv.len() {
        2 => widget.config().info(None),
        3 => widget.config().info(Some(&argv[2])),
        _ => widget
            .config()
            .set_args(app, &argv[2..])
            .and_then(|_| widget.apply_config(app, path))
            .map(|_| String::new()),
    })
}

/// The standard "bad subcommand" error.
pub fn bad_subcommand(path: &str, sub: &str, expected: &str) -> Exception {
    Exception::error(format!(
        "bad option \"{sub}\" for window \"{path}\": should be {expected}"
    ))
}
