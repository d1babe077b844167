//! The listbox widget.
//!
//! Displays a list of strings, one per line, with a scrollable view and a
//! range selection (Figure 10 shows three darkened items selected). When
//! the view changes, the listbox invokes its `-scroll` command so an
//! attached scrollbar can update itself; the scrollbar in turn drives the
//! listbox through its `view` widget command — the Section 4 example of
//! independent widgets composed with Tcl.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues, Rect};

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::draw::draw_3d_rect;
use crate::selection::NativeHandler;
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
    opt("-cursor", "cursor", "Cursor", "", OptKind::Cursor),
    opt("-font", "font", "Font", "fixed", OptKind::Font),
    opt(
        "-foreground",
        "foreground",
        "Foreground",
        "black",
        OptKind::Color,
    ),
    synonym("-fg", "-foreground"),
    opt(
        "-geometry",
        "geometry",
        "Geometry",
        "15x10",
        OptKind::Geometry,
    ),
    opt("-relief", "relief", "Relief", "flat", OptKind::Relief),
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
];

/// The listbox widget state.
pub struct Listbox {
    config: ConfigStore,
    items: RefCell<Vec<String>>,
    /// Index of the first visible item.
    top: Cell<usize>,
    /// Selected range `(first, last)`, inclusive.
    selection: Cell<Option<(usize, usize)>>,
    /// Anchor of an in-progress mouse selection.
    sel_anchor: Cell<Option<usize>>,
}

/// Registers the `listbox` creation command.
pub fn register(app: &TkApp) {
    app.register_command("listbox", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Listbox {
                config: ConfigStore::new(SPECS),
                items: RefCell::new(Vec::new()),
                top: Cell::new(0),
                selection: Cell::new(None),
                sel_anchor: Cell::new(None),
            }),
        )
    });
}

impl Listbox {
    /// Number of fully visible lines.
    fn visible_lines(&self, app: &TkApp, path: &str) -> usize {
        let Some(rec) = app.window(path) else {
            return 1;
        };
        let Ok((_, m)) = app.cache().font(app.conn(), &self.config.get("-font")) else {
            return 1;
        };
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        let inner = rec.height.get().saturating_sub(2 * bw + 2);
        (inner / m.line_height()).max(1) as usize
    }

    /// Parses an item index (`end` allowed).
    fn index(&self, spec: &str) -> Result<usize, Exception> {
        let n = self.items.borrow().len();
        if spec == "end" {
            return Ok(n.saturating_sub(1));
        }
        spec.parse::<usize>()
            .map_err(|_| Exception::error(format!("bad listbox index \"{spec}\"")))
    }

    /// Notifies the attached scrollbar of the current view (the `-scroll`
    /// command gets `totalUnits windowUnits firstUnit lastUnit` appended).
    fn notify_scroll(&self, app: &TkApp, path: &str) {
        let cmd = self.config.get("-scroll");
        if cmd.is_empty() {
            return;
        }
        let total = self.items.borrow().len();
        let window = self.visible_lines(app, path);
        let first = self.top.get();
        let last = (first + window).min(total).saturating_sub(1);
        let call = format!("{cmd} {total} {window} {first} {last}");
        app.eval_background(&call);
    }

    /// Scrolls so that `index` is at the top (the `view`/`yview` command).
    fn set_view(&self, app: &TkApp, path: &str, index: usize) {
        let total = self.items.borrow().len();
        let window = self.visible_lines(app, path);
        let max_top = total.saturating_sub(window);
        let old_top = self.top.get();
        self.top.set(index.min(max_top));
        self.scroll_blit(app, path, old_top, self.top.get());
        self.notify_scroll(app, path);
    }

    /// Content-area geometry: `(y0, line_height, visible_lines)`. `None`
    /// before the window or font exists.
    fn content_geometry(&self, app: &TkApp, path: &str) -> Option<(i32, u32, usize)> {
        app.window(path)?;
        let (_, m) = app
            .cache()
            .font(app.conn(), &self.config.get("-font"))
            .ok()?;
        let bw = self.config.get_pixels("-borderwidth").max(0) as i32;
        Some((bw + 1, m.line_height(), self.visible_lines(app, path)))
    }

    /// Scrolls the already-drawn lines with a CopyArea and damages only
    /// the newly exposed band. The blit is issued in both damage modes so
    /// the request stream stays identical; only the repaint clip differs.
    /// Rows are copied at full window width — the vertical border strips
    /// are uniform over the copied span, so blitting them is the identity.
    fn scroll_blit(&self, app: &TkApp, path: &str, old_top: usize, new_top: usize) {
        let Some((y, lh, lines)) = self.content_geometry(app, path) else {
            return app.schedule_redraw(path);
        };
        let Some(rec) = app.window(path) else {
            return app.schedule_redraw(path);
        };
        let d = new_top as i64 - old_top as i64;
        // A blit would shift pending damage out from under its repaint,
        // so scrolls arriving on a dirty window repaint in full.
        if d == 0 || d.unsigned_abs() as usize >= lines || app.has_pending_damage(path) {
            return app.schedule_redraw(path);
        }
        let w = rec.width.get();
        let keep = (lines - d.unsigned_abs() as usize) as u32 * lh;
        let band = d.unsigned_abs() as u32 * lh;
        if d > 0 {
            app.conn()
                .copy_area(rec.xid, 0, y + band as i32, w, keep, 0, y);
            app.schedule_redraw_damage(path, Rect::new(0, y + keep as i32, w, band));
        } else {
            app.conn()
                .copy_area(rec.xid, 0, y, w, keep, 0, y + band as i32);
            app.schedule_redraw_damage(path, Rect::new(0, y, w, band));
        }
    }

    /// Damages from the line showing item `from` down to the bottom of
    /// the content area: inserts and deletes shift everything below the
    /// edit point, but never the lines above it.
    fn damage_items_from(&self, app: &TkApp, path: &str, from: usize) {
        let Some((y, lh, lines)) = self.content_geometry(app, path) else {
            return app.schedule_redraw(path);
        };
        let Some(rec) = app.window(path) else {
            return app.schedule_redraw(path);
        };
        let top = self.top.get();
        if from < top {
            return app.schedule_redraw(path);
        }
        let line = from - top;
        if line >= lines {
            // Entirely below the view: nothing visible moves, but both
            // modes must still schedule the same repaint.
            return app.schedule_redraw_damage(path, Rect::new(0, 0, 1, 1));
        }
        let dy = y + line as i32 * lh as i32;
        let band = (lines - line) as u32 * lh;
        app.schedule_redraw_damage(path, Rect::new(0, dy, rec.width.get(), band));
    }

    /// Damages the lines showing items `[first, last]`, clamped to the
    /// view (selection changes touch only the affected lines).
    fn damage_item_lines(&self, app: &TkApp, path: &str, first: usize, last: usize) {
        let Some((y, lh, lines)) = self.content_geometry(app, path) else {
            return app.schedule_redraw(path);
        };
        let Some(rec) = app.window(path) else {
            return app.schedule_redraw(path);
        };
        let top = self.top.get();
        let lo = first.max(top) - top;
        let hi_excl = (last + 1).min(top + lines).saturating_sub(top);
        if lo >= hi_excl {
            return app.schedule_redraw_damage(path, Rect::new(0, 0, 1, 1));
        }
        let dy = y + lo as i32 * lh as i32;
        app.schedule_redraw_damage(
            path,
            Rect::new(0, dy, rec.width.get(), (hi_excl - lo) as u32 * lh),
        );
    }

    /// The item index at pixel `y`, clamped to real items.
    fn nearest(&self, app: &TkApp, _path: &str, y: i32) -> usize {
        let Ok((_, m)) = app.cache().font(app.conn(), &self.config.get("-font")) else {
            return 0;
        };
        let bw = self.config.get_pixels("-borderwidth").max(0);
        let line = ((y as i64 - bw - 1).max(0) / m.line_height() as i64) as usize;
        let idx = self.top.get() + line;
        idx.min(self.items.borrow().len().saturating_sub(1))
    }

    /// Makes `(first, last)` the selection and claims the X selection with
    /// a handler that returns the selected lines.
    fn select_range(&self, app: &TkApp, path: &str, first: usize, last: usize) {
        let (first, last) = if first <= last {
            (first, last)
        } else {
            (last, first)
        };
        let old = self.selection.get();
        self.selection.set(Some((first, last)));
        let path_owned = path.to_string();
        let path_for_lost = path.to_string();
        crate::selection::claim(
            app,
            path,
            Some(NativeHandler {
                fetch: Rc::new(move |app: &TkApp| {
                    let Some(rec) = app.window(&path_owned) else {
                        return String::new();
                    };
                    let widget = rec.widget.borrow().clone();
                    let Some(widget) = widget else {
                        return String::new();
                    };
                    // Downcast through the widget command: `curselection`
                    // gives indices; fetch the items directly instead.
                    let mut out = String::new();
                    if let Ok(sel) = widget.command(
                        app,
                        &path_owned,
                        &[path_owned.clone(), "curselection".into()],
                    ) {
                        for (n, idx) in sel.split_whitespace().enumerate() {
                            if let Ok(text) = widget.command(
                                app,
                                &path_owned,
                                &[path_owned.clone(), "get".into(), idx.to_string()],
                            ) {
                                if n > 0 {
                                    out.push('\n');
                                }
                                out.push_str(&text);
                            }
                        }
                    }
                    out
                }),
                lost: Rc::new(move |app: &TkApp| {
                    if let Some(rec) = app.window(&path_for_lost) {
                        let widget = rec.widget.borrow().clone();
                        if let Some(w) = widget {
                            let _ = w.command(
                                app,
                                &path_for_lost,
                                &[path_for_lost.clone(), "select".into(), "clear".into()],
                            );
                        }
                    }
                }),
            }),
        );
        let (lo, hi) = match old {
            Some((a, b)) => (a.min(first), b.max(last)),
            None => (first, last),
        };
        self.damage_item_lines(app, path, lo, hi);
    }
}

impl WidgetOps for Listbox {
    fn class(&self) -> &'static str {
        "Listbox"
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
            "insert" => {
                if argv.len() < 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} insert index element ?element ...?\""
                    )));
                }
                let at = if argv[2] == "end" {
                    self.items.borrow().len()
                } else {
                    self.index(&argv[2])?.min(self.items.borrow().len())
                };
                {
                    let mut items = self.items.borrow_mut();
                    for (n, e) in argv[3..].iter().enumerate() {
                        items.insert(at + n, e.clone());
                    }
                }
                self.damage_items_from(app, path, at);
                self.notify_scroll(app, path);
                Ok(String::new())
            }
            "delete" => {
                if argv.len() != 3 && argv.len() != 4 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} delete first ?last?\""
                    )));
                }
                if self.items.borrow().is_empty() {
                    return Ok(String::new());
                }
                let first = self.index(&argv[2])?;
                let last = if argv.len() == 4 {
                    self.index(&argv[3])?
                } else {
                    first
                };
                {
                    let mut items = self.items.borrow_mut();
                    let last = last.min(items.len().saturating_sub(1));
                    if first < items.len() && first <= last {
                        items.drain(first..=last);
                    }
                }
                let old_sel = self.selection.get();
                self.selection.set(None);
                // Clearing the selection also dirties its old lines.
                let from = match old_sel {
                    Some((a, _)) => first.min(a),
                    None => first,
                };
                self.damage_items_from(app, path, from);
                self.notify_scroll(app, path);
                Ok(String::new())
            }
            "get" => {
                if argv.len() != 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} get index\""
                    )));
                }
                let i = self.index(&argv[2])?;
                self.items.borrow().get(i).cloned().ok_or_else(|| {
                    Exception::error(format!("listbox index \"{}\" out of range", argv[2]))
                })
            }
            "size" => Ok(self.items.borrow().len().to_string()),
            "curselection" => {
                let out: Vec<String> = match self.selection.get() {
                    Some((a, b)) => (a..=b.min(self.items.borrow().len().saturating_sub(1)))
                        .map(|i| i.to_string())
                        .collect(),
                    None => Vec::new(),
                };
                Ok(out.join(" "))
            }
            "select" => {
                // select from i | select to i | select clear
                match argv.get(2).map(String::as_str) {
                    Some("from") => {
                        let i = self.index(argv.get(3).ok_or_else(|| {
                            Exception::error("wrong # args: select from index")
                        })?)?;
                        self.sel_anchor.set(Some(i));
                        self.select_range(app, path, i, i);
                        Ok(String::new())
                    }
                    Some("to") => {
                        let i = self
                            .index(argv.get(3).ok_or_else(|| {
                                Exception::error("wrong # args: select to index")
                            })?)?;
                        let anchor = self.sel_anchor.get().unwrap_or(i);
                        self.select_range(app, path, anchor, i);
                        Ok(String::new())
                    }
                    Some("clear") => {
                        let old = self.selection.get();
                        self.selection.set(None);
                        match old {
                            Some((a, b)) => self.damage_item_lines(app, path, a, b),
                            None => app.schedule_redraw(path),
                        }
                        Ok(String::new())
                    }
                    _ => Err(Exception::error(
                        "bad select option: should be from, to, or clear",
                    )),
                }
            }
            "view" | "yview" => {
                if argv.len() != 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} view index\""
                    )));
                }
                let i = self.index(&argv[2]).unwrap_or(0);
                self.set_view(app, path, i);
                Ok(String::new())
            }
            "nearest" => {
                if argv.len() != 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} nearest y\""
                    )));
                }
                let y: i32 = argv[2]
                    .parse()
                    .map_err(|_| Exception::error("expected integer"))?;
                Ok(self.nearest(app, path, y).to_string())
            }
            other => Err(bad_subcommand(
                path,
                other,
                "configure, curselection, delete, get, insert, nearest, select, size, or view",
            )),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        let bg = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, bg);
        // Requested size from -geometry (chars x lines), as in Figure 9's
        // `-geometry 20x20`.
        let (cols, rows) = crate::draw::parse_geometry(&self.config.get("-geometry"))?;
        let (_, m) = app.cache().font(app.conn(), &self.config.get("-font"))?;
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        let w = cols * m.char_width + 2 * (bw + 1);
        let h = rows * m.line_height() + 2 * (bw + 1);
        app.geometry_request(path, w, h);
        app.schedule_redraw(path);
        Ok(())
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        match ev {
            Event::Expose { .. } => app.expose_damage(path, ev),
            Event::ConfigureNotify { .. } => {
                // A resize changes how many lines fit: tell the scrollbar.
                self.notify_scroll(app, path);
            }
            Event::ButtonPress { button: 1, y, .. } => {
                let i = self.nearest(app, path, *y);
                self.sel_anchor.set(Some(i));
                self.select_range(app, path, i, i);
            }
            Event::MotionNotify { state, y, .. } if state & xsim::event::state::BUTTON1 != 0 => {
                let i = self.nearest(app, path, *y);
                let anchor = self.sel_anchor.get().unwrap_or(i);
                self.select_range(app, path, anchor, i);
            }
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
        let Ok(selbg) = cache.color(conn, &self.config.get("-selectbackground")) else {
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
        let items = self.items.borrow();
        let top = self.top.get();
        let lines = self.visible_lines(app, path);
        let text_gc = cache.gc(
            conn,
            GcValues {
                foreground: fg,
                font,
                ..Default::default()
            },
        );
        let sel_gc = cache.gc(
            conn,
            GcValues {
                foreground: selbg,
                ..Default::default()
            },
        );
        let x0 = bw as i32 + 2;
        for (line, idx) in (top..items.len()).take(lines).enumerate() {
            let y0 = bw as i32 + 1 + line as i32 * m.line_height() as i32;
            if let Some((a, b)) = self.selection.get() {
                if idx >= a && idx <= b {
                    conn.fill_rectangle(
                        rec.xid,
                        sel_gc,
                        bw as i32 + 1,
                        y0,
                        w - 2 * (bw + 1),
                        m.line_height(),
                    );
                }
            }
            conn.draw_string(rec.xid, text_gc, x0, y0 + m.ascent as i32, &items[idx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    fn setup() -> (TkEnv, crate::app::TkApp) {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("listbox .l -geometry 20x5 -font fixed").unwrap();
        app.eval("pack append . .l {top}").unwrap();
        app.update();
        (env, app)
    }

    #[test]
    fn insert_get_size_delete() {
        let (_env, app) = setup();
        app.eval(".l insert end a b c").unwrap();
        assert_eq!(app.eval(".l size").unwrap(), "3");
        assert_eq!(app.eval(".l get 1").unwrap(), "b");
        assert_eq!(app.eval(".l get end").unwrap(), "c");
        app.eval(".l insert 0 z").unwrap();
        assert_eq!(app.eval(".l get 0").unwrap(), "z");
        app.eval(".l delete 0").unwrap();
        assert_eq!(app.eval(".l get 0").unwrap(), "a");
        app.eval(".l delete 0 end").unwrap();
        assert_eq!(app.eval(".l size").unwrap(), "0");
    }

    #[test]
    fn selection_by_command() {
        let (_env, app) = setup();
        app.eval(".l insert end a b c d e").unwrap();
        app.eval(".l select from 1").unwrap();
        app.eval(".l select to 3").unwrap();
        assert_eq!(app.eval(".l curselection").unwrap(), "1 2 3");
        // The X selection now returns the selected items.
        assert_eq!(app.eval("selection get").unwrap(), "b\nc\nd");
        app.eval(".l select clear").unwrap();
        assert_eq!(app.eval(".l curselection").unwrap(), "");
    }

    #[test]
    fn click_selects_item() {
        let (env, app) = setup();
        app.eval(".l insert end one two three four").unwrap();
        app.update();
        let rec = app.window(".l").unwrap();
        // Click on the second line (line height of `fixed` is 13).
        env.display()
            .move_pointer(rec.x.get() + 10, rec.y.get() + 3 + 13 + 5);
        env.display().click(1);
        env.dispatch_all();
        assert_eq!(app.eval(".l curselection").unwrap(), "1");
        assert_eq!(app.eval("selection get").unwrap(), "two");
    }

    #[test]
    fn view_scrolls_and_notifies_scrollbar() {
        let (_env, app) = setup();
        app.eval("proc record {args} {global scrolled; set scrolled $args}")
            .unwrap();
        app.eval(".l configure -scroll record").unwrap();
        for i in 0..20 {
            app.eval(&format!(".l insert end item{i}")).unwrap();
        }
        app.update();
        app.eval(".l view 10").unwrap();
        app.update();
        // total=20 window=5 first=10 last=14
        assert_eq!(app.eval("set scrolled").unwrap(), "20 5 10 14");
        assert_eq!(app.eval(".l nearest 1").unwrap(), "10");
    }

    #[test]
    fn view_clamps_to_content() {
        let (_env, app) = setup();
        app.eval(".l insert end a b c").unwrap();
        app.update();
        app.eval(".l view 99").unwrap();
        // Only 3 items, 5 visible lines: top stays 0.
        assert_eq!(app.eval(".l nearest 1").unwrap(), "0");
    }

    #[test]
    fn figure9_scroll_option_spelling() {
        let env = TkEnv::new();
        let app = env.app("t");
        // The exact option spelling from the paper's Figure 9.
        app.eval("listbox .list -scroll \".scroll set\" -relief raised -geometry 20x20")
            .unwrap();
        let info = app.eval(".list configure -scroll").unwrap();
        assert!(info.contains(".scroll set"), "{info}");
    }
}
