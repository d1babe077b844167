//! The entry widget: a one-line editable text field.
//!
//! One of the two widgets the paper lists as still unimplemented ("two
//! major widget types, entries and menus, are still left to be
//! implemented") — delivered here. Printable keys insert at the cursor,
//! BackSpace/Delete erase, and clicking positions the cursor; all of that
//! also works from Tcl through the widget command, which is what makes the
//! paper's Section 5 `Control-w` example possible without C code.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues, Rect};

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::draw::draw_3d_rect;
use crate::widget::{bad_subcommand, create_widget, handle_configure, WidgetOps};

static SPECS: &[OptSpec] = &[
    opt(
        "-background",
        "background",
        "Background",
        "white",
        OptKind::Color,
    ),
    synonym("-bg", "-background"),
    opt(
        "-borderwidth",
        "borderWidth",
        "BorderWidth",
        "2",
        OptKind::Pixels,
    ),
    synonym("-bd", "-borderwidth"),
    opt("-cursor", "cursor", "Cursor", "xterm", OptKind::Cursor),
    opt("-font", "font", "Font", "fixed", OptKind::Font),
    opt(
        "-foreground",
        "foreground",
        "Foreground",
        "black",
        OptKind::Color,
    ),
    synonym("-fg", "-foreground"),
    opt("-relief", "relief", "Relief", "sunken", OptKind::Relief),
    opt(
        "-scroll",
        "scrollCommand",
        "ScrollCommand",
        "",
        OptKind::Str,
    ),
    synonym("-scrollcommand", "-scroll"),
    opt(
        "-selectbackground",
        "selectBackground",
        "Foreground",
        "lightsteelblue",
        OptKind::Color,
    ),
    opt(
        "-textvariable",
        "textVariable",
        "Variable",
        "",
        OptKind::Str,
    ),
    opt("-width", "width", "Width", "20", OptKind::Int),
];

/// The entry widget state.
pub struct Entry {
    config: ConfigStore,
    text: RefCell<String>,
    /// Insertion cursor, as a character index.
    icursor: Cell<usize>,
    /// First visible character.
    view: Cell<usize>,
    /// Selected character range, inclusive.
    selection: Cell<Option<(usize, usize)>>,
    /// The `(variable, trace id)` mirroring `-textvariable` both ways.
    var_trace: RefCell<Option<(String, u64)>>,
}

/// Registers the `entry` creation command.
pub fn register(app: &TkApp) {
    app.register_command("entry", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Entry {
                config: ConfigStore::new(SPECS),
                text: RefCell::new(String::new()),
                icursor: Cell::new(0),
                view: Cell::new(0),
                selection: Cell::new(None),
                var_trace: RefCell::new(None),
            }),
        )
    });
}

impl Entry {
    fn char_len(&self) -> usize {
        self.text.borrow().chars().count()
    }

    /// Parses an entry index: a number, `end`, `insert`, or `sel.first`.
    fn index(&self, spec: &str) -> Result<usize, Exception> {
        match spec {
            "end" => Ok(self.char_len()),
            "insert" => Ok(self.icursor.get()),
            _ => spec
                .parse::<usize>()
                .map(|i| i.min(self.char_len()))
                .map_err(|_| Exception::error(format!("bad entry index \"{spec}\""))),
        }
    }

    fn byte_of(&self, char_idx: usize) -> usize {
        let text = self.text.borrow();
        text.char_indices()
            .nth(char_idx)
            .map(|(b, _)| b)
            .unwrap_or(text.len())
    }

    fn insert_text(&self, app: &TkApp, path: &str, at: usize, what: &str) {
        let b = self.byte_of(at);
        let added = what.chars().count();
        self.text.borrow_mut().insert_str(b, what);
        if self.icursor.get() >= at {
            self.icursor.set(self.icursor.get() + added);
        }
        self.sync_variable(app);
        self.notify_scroll(app, path);
        if at + added == self.char_len() {
            // Appended at the end: no glyphs shift, so only the new
            // cells and the cursor bar change (typing stays ~2 cells).
            self.damage_char_range(app, path, at, self.char_len() + 1);
        } else {
            self.damage_tail(app, path, at);
        }
    }

    fn delete_range(&self, app: &TkApp, path: &str, first: usize, last: usize) {
        let (b0, b1) = (self.byte_of(first), self.byte_of(last));
        if b0 < b1 {
            let deleted_tail = last >= self.char_len();
            self.text.borrow_mut().drain(b0..b1);
            let cur = self.icursor.get();
            if cur > first {
                self.icursor
                    .set(first.max(cur.saturating_sub(last - first)));
            }
            self.sync_variable(app);
            self.notify_scroll(app, path);
            if deleted_tail {
                // Erased the tail: only the removed cells (and the bars
                // that sat on them) need clearing.
                self.damage_char_range(app, path, first, last + 1);
            } else {
                self.damage_tail(app, path, first);
            }
        }
    }

    /// Layout numbers damage rects need: `(x0, char_width, width, height)`.
    /// `None` before the window or font exists.
    fn text_geometry(&self, app: &TkApp, path: &str) -> Option<(i32, u32, u32, u32)> {
        let rec = app.window(path)?;
        let (_, m) = app
            .cache()
            .font(app.conn(), &self.config.get("-font"))
            .ok()?;
        let bw = self.config.get_pixels("-borderwidth").max(0) as i32;
        Some((bw + 2, m.char_width, rec.width.get(), rec.height.get()))
    }

    /// Damages from character `from` (absolute index) to the right edge:
    /// the minimal region an edit at `from` can change, since glyphs to
    /// its left keep their positions. Edits left of the view force a full
    /// repaint.
    fn damage_tail(&self, app: &TkApp, path: &str, from: usize) {
        let Some((x0, cw, w, h)) = self.text_geometry(app, path) else {
            return app.schedule_redraw(path);
        };
        let view = self.view.get();
        if from < view {
            return app.schedule_redraw(path);
        }
        let dx = x0 + ((from - view) as i32) * cw as i32;
        let dw = (w as i32 - dx).max(1) as u32;
        app.schedule_redraw_damage(path, Rect::new(dx, 0, dw, h));
    }

    /// Damages the character cells `[from, to)` (absolute indices),
    /// clamped to the view; a cell also covers the cursor bar drawn on
    /// its left edge, and the extra pixel covers a bar sitting on `to`.
    fn damage_char_range(&self, app: &TkApp, path: &str, from: usize, to: usize) {
        let Some((x0, cw, _, h)) = self.text_geometry(app, path) else {
            return app.schedule_redraw(path);
        };
        let view = self.view.get();
        let from = from.max(view);
        let to = to.max(from + 1);
        let dx = x0 + ((from - view) as i32) * cw as i32;
        let dw = (to - from) as u32 * cw + 1;
        app.schedule_redraw_damage(path, Rect::new(dx, 0, dw, h));
    }

    /// Damages the union of the old and new selection ranges.
    fn damage_selection_change(
        &self,
        app: &TkApp,
        path: &str,
        old: Option<(usize, usize)>,
        new: Option<(usize, usize)>,
    ) {
        let spans: Vec<(usize, usize)> = old.into_iter().chain(new).collect();
        let Some(lo) = spans.iter().map(|s| s.0).min() else {
            return app.schedule_redraw(path);
        };
        let hi = spans.iter().map(|s| s.1).max().unwrap();
        self.damage_char_range(app, path, lo, hi + 1);
    }

    /// Mirrors the text into `-textvariable`, if configured.
    fn sync_variable(&self, app: &TkApp) {
        let var = self.config.get("-textvariable");
        if !var.is_empty() {
            let _ = app.interp().set_var_at(0, &var, None, &self.text.borrow());
        }
    }

    /// Characters that fit in the window.
    fn visible_chars(&self, app: &TkApp, path: &str) -> usize {
        let Some(rec) = app.window(path) else {
            return 1;
        };
        let Ok((_, m)) = app.cache().font(app.conn(), &self.config.get("-font")) else {
            return 1;
        };
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        (rec.width.get().saturating_sub(2 * (bw + 2)) / m.char_width).max(1) as usize
    }

    /// The currently selected text.
    fn selected_text(&self) -> String {
        let Some((a, b)) = self.selection.get() else {
            return String::new();
        };
        let text = self.text.borrow();
        text.chars().skip(a).take(b.saturating_sub(a) + 1).collect()
    }

    /// Claims the X selection for this entry (Section 3.6), with a handler
    /// returning the selected characters.
    fn claim_selection(&self, app: &TkApp, path: &str) {
        let fetch_path = path.to_string();
        let lost_path = path.to_string();
        crate::selection::claim(
            app,
            path,
            Some(crate::selection::NativeHandler {
                fetch: Rc::new(move |app: &TkApp| {
                    let Some(rec) = app.window(&fetch_path) else {
                        return String::new();
                    };
                    let widget = rec.widget.borrow().clone();
                    widget
                        .and_then(|w| {
                            w.command(app, &fetch_path, &[fetch_path.clone(), "_selected".into()])
                                .ok()
                        })
                        .unwrap_or_default()
                }),
                lost: Rc::new(move |app: &TkApp| {
                    if let Some(rec) = app.window(&lost_path) {
                        let widget = rec.widget.borrow().clone();
                        if let Some(w) = widget {
                            let _ = w.command(
                                app,
                                &lost_path,
                                &[lost_path.clone(), "select".into(), "clear".into()],
                            );
                        }
                    }
                }),
            }),
        );
    }

    /// Reports the view to the `-scroll` command (`total window first
    /// last`, in characters), like the listbox does in lines.
    fn notify_scroll(&self, app: &TkApp, path: &str) {
        let cmd = self.config.get("-scroll");
        if cmd.is_empty() {
            return;
        }
        let total = self.char_len();
        let window = self.visible_chars(app, path);
        let first = self.view.get();
        let last = (first + window).min(total).saturating_sub(1);
        app.eval_background(&format!("{cmd} {total} {window} {first} {last}"));
    }
}

impl WidgetOps for Entry {
    fn class(&self) -> &'static str {
        "Entry"
    }

    fn config(&self) -> &ConfigStore {
        &self.config
    }

    fn command(&self, app: &TkApp, path: &str, argv: &[String]) -> TclResult {
        if let Some(r) = handle_configure(app, self, path, argv) {
            return r;
        }
        let sub = argv
            .get(1)
            .ok_or_else(|| {
                Exception::error(format!(
                    "wrong # args: should be \"{path} option ?arg ...?\""
                ))
            })?
            .as_str();
        match sub {
            "get" => Ok(self.text.borrow().clone()),
            "_selected" => Ok(self.selected_text()),
            "insert" => {
                if argv.len() != 4 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} insert index text\""
                    )));
                }
                let at = self.index(&argv[2])?;
                self.insert_text(app, path, at, &argv[3]);
                Ok(String::new())
            }
            "delete" => {
                if argv.len() != 3 && argv.len() != 4 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} delete first ?last?\""
                    )));
                }
                let first = self.index(&argv[2])?;
                let last = if argv.len() == 4 {
                    self.index(&argv[3])?
                } else {
                    first + 1
                };
                self.delete_range(app, path, first, last.min(self.char_len()));
                Ok(String::new())
            }
            "icursor" => {
                if argv.len() != 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} icursor index\""
                    )));
                }
                let old = self.icursor.get();
                self.icursor.set(self.index(&argv[2])?);
                let new = self.icursor.get();
                self.damage_char_range(app, path, old.min(new), old.max(new) + 1);
                Ok(String::new())
            }
            "index" => {
                if argv.len() != 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} index index\""
                    )));
                }
                Ok(self.index(&argv[2])?.to_string())
            }
            "view" => {
                if argv.len() != 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} view index\""
                    )));
                }
                self.view.set(self.index(&argv[2])?);
                self.notify_scroll(app, path);
                app.schedule_redraw(path);
                Ok(String::new())
            }
            "select" => {
                // select from i | select to i | select clear — and the
                // selected range becomes the X selection (Section 3.6).
                match argv.get(2).map(String::as_str) {
                    Some("from") => {
                        let i = self.index(argv.get(3).ok_or_else(|| {
                            Exception::error("wrong # args: select from index")
                        })?)?;
                        let old = self.selection.get();
                        self.selection.set(Some((i, i)));
                        self.claim_selection(app, path);
                        self.damage_selection_change(app, path, old, Some((i, i)));
                        Ok(String::new())
                    }
                    Some("to") => {
                        let i = self
                            .index(argv.get(3).ok_or_else(|| {
                                Exception::error("wrong # args: select to index")
                            })?)?;
                        let old = self.selection.get();
                        let anchor = old.map(|(a, _)| a).unwrap_or(i);
                        let new = (anchor.min(i), anchor.max(i));
                        self.selection.set(Some(new));
                        self.claim_selection(app, path);
                        self.damage_selection_change(app, path, old, Some(new));
                        Ok(String::new())
                    }
                    Some("clear") => {
                        let old = self.selection.get();
                        self.selection.set(None);
                        self.damage_selection_change(app, path, old, None);
                        Ok(String::new())
                    }
                    _ => Err(Exception::error(
                        "bad select option: should be from, to, or clear",
                    )),
                }
            }
            other => Err(bad_subcommand(
                path,
                other,
                "configure, delete, get, icursor, index, insert, select, or view",
            )),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        let bg = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, bg);
        let (_, m) = app.cache().font(app.conn(), &self.config.get("-font"))?;
        let chars = self.config.get_int("-width").max(1);
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        app.geometry_request(
            path,
            chars as u32 * m.char_width + 2 * (bw + 2),
            m.line_height() + 2 * (bw + 2),
        );
        // Adopt the variable's current value, if one is set.
        let var = self.config.get("-textvariable");
        if !var.is_empty() {
            if let Ok(v) = app.interp().get_var_at(0, &var, None) {
                *self.text.borrow_mut() = v;
                let len = self.char_len();
                if self.icursor.get() > len {
                    self.icursor.set(len);
                }
            } else {
                self.sync_variable(app);
            }
        }
        // Mirror external variable writes back into the entry with a
        // write trace (how real Tk keeps -textvariable two-way).
        {
            let mut slot = self.var_trace.borrow_mut();
            let changed = slot.as_ref().map(|(v, _)| v != &var).unwrap_or(true);
            if changed {
                if let Some((old, id)) = slot.take() {
                    app.interp().trace_remove(&old, id);
                }
                if !var.is_empty() {
                    let weak = std::rc::Rc::downgrade(&app.inner);
                    let path_owned = path.to_string();
                    let var_name = var.clone();
                    let id = app.interp().trace_variable(
                        &var,
                        tcl::TraceOps {
                            write: true,
                            ..Default::default()
                        },
                        tcl::TraceAction::Native(Rc::new(move |_i, _n1, _n2, _op| {
                            let Some(inner) = weak.upgrade() else { return };
                            let app = crate::app::TkApp { inner };
                            let Some(rec) = app.window(&path_owned) else {
                                return;
                            };
                            let widget = rec.widget.borrow().clone();
                            let Some(widget) = widget else { return };
                            let value = app
                                .interp()
                                .get_var_at(0, &var_name, None)
                                .unwrap_or_default();
                            let current = widget
                                .command(&app, &path_owned, &[path_owned.clone(), "get".into()])
                                .unwrap_or_default();
                            if current != value {
                                let _ = widget.command(
                                    &app,
                                    &path_owned,
                                    &[
                                        path_owned.clone(),
                                        "delete".into(),
                                        "0".into(),
                                        "end".into(),
                                    ],
                                );
                                let _ = widget.command(
                                    &app,
                                    &path_owned,
                                    &[path_owned.clone(), "insert".into(), "0".into(), value],
                                );
                            }
                        })),
                    );
                    *slot = Some((var, id));
                }
            }
        }
        app.schedule_redraw(path);
        Ok(())
    }

    fn destroyed(&self, app: &TkApp, _path: &str) {
        if let Some((var, id)) = self.var_trace.borrow_mut().take() {
            app.interp().trace_remove(&var, id);
        }
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        match ev {
            Event::Expose { .. } => app.expose_damage(path, ev),
            Event::ButtonPress { button: 1, x, .. } => {
                // Click positions the insertion cursor and takes the focus.
                let old = self.icursor.get();
                if let Ok((_, m)) = app.cache().font(app.conn(), &self.config.get("-font")) {
                    let bw = self.config.get_pixels("-borderwidth").max(0);
                    let char_i = ((*x as i64 - bw - 2).max(0) / m.char_width as i64) as usize
                        + self.view.get();
                    self.icursor.set(char_i.min(self.char_len()));
                }
                if let Some(rec) = app.window(path) {
                    app.conn().set_input_focus(rec.xid);
                }
                let new = self.icursor.get();
                self.damage_char_range(app, path, old.min(new), old.max(new) + 1);
            }
            Event::KeyPress { keysym, state, .. } => match keysym.name.as_str() {
                "BackSpace" | "Delete" => {
                    let cur = self.icursor.get();
                    if cur > 0 {
                        self.delete_range(app, path, cur - 1, cur);
                    }
                }
                "Return" | "Tab" | "Escape" => {}
                _ => {
                    // Control/Meta chords are left to user bindings (the
                    // Section 5 Control-w example relies on this).
                    let chord =
                        state & (xsim::event::state::CONTROL | xsim::event::state::MOD1) != 0;
                    if let Some(ch) = keysym.ch {
                        if !ch.is_control() && !chord {
                            self.insert_text(app, path, self.icursor.get(), &ch.to_string());
                        }
                    }
                }
            },
            _ => {}
        }
    }

    fn redraw(&self, app: &TkApp, path: &str) {
        let Some(rec) = app.window(path) else { return };
        let conn = app.conn();
        let cache = app.cache();
        let Ok(border) = cache.border(conn, &self.config.get("-background")) else {
            return;
        };
        let Ok(fg) = cache.color(conn, &self.config.get("-foreground")) else {
            return;
        };
        let Ok((font, m)) = cache.font(conn, &self.config.get("-font")) else {
            return;
        };
        let (w, h) = (rec.width.get(), rec.height.get());
        conn.clear_area(rec.xid, 0, 0, 0, 0);
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        draw_3d_rect(
            conn,
            cache,
            rec.xid,
            border,
            0,
            0,
            w,
            h,
            bw,
            self.config.get_relief("-relief"),
        );
        let text_gc = cache.gc(
            conn,
            GcValues {
                foreground: fg,
                font,
                ..Default::default()
            },
        );
        let text = self.text.borrow();
        let visible: String = text.chars().skip(self.view.get()).collect();
        let x0 = bw as i32 + 2;
        let baseline = (h as i32 + m.ascent as i32 - m.descent as i32) / 2;
        // Selection highlight behind the selected characters.
        if let Some((a, b)) = self.selection.get() {
            if let Ok(selbg) = cache.color(conn, &self.config.get("-selectbackground")) {
                let view = self.view.get();
                let first = a.max(view).saturating_sub(view);
                let last = (b + 1).saturating_sub(view);
                if last > first {
                    let sel_gc = cache.gc(
                        conn,
                        GcValues {
                            foreground: selbg,
                            ..Default::default()
                        },
                    );
                    conn.fill_rectangle(
                        rec.xid,
                        sel_gc,
                        x0 + first as i32 * m.char_width as i32,
                        baseline - m.ascent as i32,
                        (last - first) as u32 * m.char_width,
                        m.line_height(),
                    );
                }
            }
        }
        conn.draw_string(rec.xid, text_gc, x0, baseline, &visible);
        // The insertion cursor: a vertical bar.
        let cur = self.icursor.get().saturating_sub(self.view.get());
        let cx = x0 + (cur as i32) * m.char_width as i32;
        conn.draw_line(
            rec.xid,
            text_gc,
            cx,
            baseline - m.ascent as i32,
            cx,
            baseline + m.descent as i32,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    fn setup() -> (TkEnv, crate::app::TkApp) {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("entry .e -width 10").unwrap();
        app.eval("pack append . .e {top}").unwrap();
        app.update();
        (env, app)
    }

    #[test]
    fn insert_delete_get() {
        let (_env, app) = setup();
        app.eval(".e insert 0 hello").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "hello");
        app.eval(".e insert end !").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "hello!");
        app.eval(".e insert 5 ,").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "hello,!");
        app.eval(".e delete 5").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "hello!");
        app.eval(".e delete 0 end").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "");
    }

    #[test]
    fn icursor_and_index() {
        let (_env, app) = setup();
        app.eval(".e insert 0 abcdef").unwrap();
        app.eval(".e icursor 3").unwrap();
        assert_eq!(app.eval(".e index insert").unwrap(), "3");
        assert_eq!(app.eval(".e index end").unwrap(), "6");
    }

    #[test]
    fn typing_inserts_at_cursor() {
        let (env, app) = setup();
        let rec = app.window(".e").unwrap();
        env.display()
            .move_pointer(rec.x.get() + 5, rec.y.get() + rec.height.get() as i32 / 2);
        env.display().click(1); // focus + cursor at 0
        env.dispatch_all();
        env.display().type_string("hi there");
        env.dispatch_all();
        assert_eq!(app.eval(".e get").unwrap(), "hi there");
        env.display().press_key("BackSpace");
        env.dispatch_all();
        assert_eq!(app.eval(".e get").unwrap(), "hi ther");
    }

    #[test]
    fn click_positions_cursor() {
        let (env, app) = setup();
        app.eval(".e insert 0 abcdef").unwrap();
        app.update();
        let rec = app.window(".e").unwrap();
        // Click between c and d: borderwidth 2 + 2 + 3 chars * 6px = ~22.
        env.display().move_pointer(
            rec.x.get() + 4 + 3 * 6,
            rec.y.get() + rec.height.get() as i32 / 2,
        );
        env.display().click(1);
        env.dispatch_all();
        assert_eq!(app.eval(".e index insert").unwrap(), "3");
        env.display().type_char('X');
        env.dispatch_all();
        assert_eq!(app.eval(".e get").unwrap(), "abcXdef");
    }

    #[test]
    fn textvariable_mirrors() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set v seed").unwrap();
        app.eval("entry .e -textvariable v").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "seed");
        app.eval(".e insert end ling").unwrap();
        assert_eq!(app.eval("set v").unwrap(), "seedling");
    }

    #[test]
    fn section5_control_w_binding() {
        // "backspace over a whole word when Control-w is typed in an entry
        // widget ... the application itself would not have to be modified
        // in any way" — pure Tcl, via bind and the entry widget commands.
        let (env, app) = setup();
        app.eval(
            r#"bind .e <Control-w> {
                set s [.e get]
                set i [.e index insert]
                set j $i
                while {$j > 0 && [string index $s [expr $j-1]] == " "} {set j [expr $j-1]}
                while {$j > 0 && [string index $s [expr $j-1]] != " "} {set j [expr $j-1]}
                .e delete $j $i
                .e icursor $j
            }"#,
        )
        .unwrap();
        app.eval(".e insert 0 {hello brave world}").unwrap();
        app.eval(".e icursor end").unwrap();
        app.update();
        let rec = app.window(".e").unwrap();
        env.display().move_pointer(rec.x.get() + 2, rec.y.get() + 2);
        env.dispatch_all();
        app.eval("focus .e").unwrap();
        env.display().set_modifiers(xsim::event::state::CONTROL);
        env.display().type_char('w');
        env.display().set_modifiers(0);
        env.dispatch_all();
        assert_eq!(app.eval(".e get").unwrap(), "hello brave ");
    }
}

#[cfg(test)]
mod trace_tests {
    use crate::app::TkEnv;

    #[test]
    fn external_variable_write_updates_entry() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set v initial").unwrap();
        app.eval("entry .e -textvariable v").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "initial");
        // A plain Tcl write propagates into the widget.
        app.eval("set v changed").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "changed");
        // And widget edits still propagate out without loops.
        app.eval(".e insert end !").unwrap();
        assert_eq!(app.eval("set v").unwrap(), "changed!");
    }

    #[test]
    fn destroying_entry_removes_its_trace() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("entry .e -textvariable v").unwrap();
        app.eval("destroy .e").unwrap();
        // Writing the variable afterwards must not error or resurrect.
        app.eval("set v 12").unwrap();
        assert_eq!(app.eval("trace vinfo v").unwrap(), "");
    }

    #[test]
    fn retargeting_textvariable_swaps_traces() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set a one; set b two").unwrap();
        app.eval("entry .e -textvariable a").unwrap();
        app.eval(".e configure -textvariable b").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "two");
        app.eval("set a uninteresting").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "two");
        app.eval("set b updated").unwrap();
        assert_eq!(app.eval(".e get").unwrap(), "updated");
        assert_eq!(app.eval("trace vinfo a").unwrap(), "");
    }
}

#[cfg(test)]
mod selection_tests {
    use crate::app::TkEnv;

    #[test]
    fn selected_range_becomes_x_selection() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("entry .e -width 20; pack append . .e {top}")
            .unwrap();
        app.update();
        app.eval(".e insert 0 {hello brave world}").unwrap();
        app.eval(".e select from 6").unwrap();
        app.eval(".e select to 10").unwrap();
        assert_eq!(app.eval("selection get").unwrap(), "brave");
        app.eval(".e select clear").unwrap();
        // The X selection is still owned by the entry but now empty
        // (clearing the range does not disown the selection, as in Tk).
        assert_eq!(app.eval("selection get").unwrap(), "");
    }

    #[test]
    fn another_owner_clears_entry_selection() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("entry .e; listbox .l -geometry 5x3").unwrap();
        app.eval("pack append . .e {top} .l {top}").unwrap();
        app.update();
        app.eval(".e insert 0 abcdef; .e select from 0; .e select to 2")
            .unwrap();
        assert_eq!(app.eval("selection get").unwrap(), "abc");
        app.eval(".l insert end item; .l select from 0").unwrap();
        env.dispatch_all();
        // The listbox now owns the selection; the entry's is cleared.
        assert_eq!(app.eval("selection get").unwrap(), "item");
    }
}
