//! The menu and menubutton widgets.
//!
//! The second of the two widgets the paper left as future work. A menu is
//! a popup window of entries (commands, check/radio entries, separators);
//! a menubutton posts its associated menu when pressed. Entry actions are
//! ordinary Tcl commands, like every other widget action in Tk.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues};

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::draw::{draw_3d_rect, Relief};
use crate::widget::{bad_subcommand, create_widget, handle_configure, WidgetOps};

static MENU_SPECS: &[OptSpec] = &[
    opt(
        "-activebackground",
        "activeBackground",
        "Foreground",
        "lightsteelblue",
        OptKind::Color,
    ),
    opt(
        "-background",
        "background",
        "Background",
        "gray",
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
    opt("-font", "font", "Font", "fixed", OptKind::Font),
    opt(
        "-foreground",
        "foreground",
        "Foreground",
        "black",
        OptKind::Color,
    ),
    synonym("-fg", "-foreground"),
];

static MENUBUTTON_SPECS: &[OptSpec] = &[
    opt(
        "-activebackground",
        "activeBackground",
        "Foreground",
        "white",
        OptKind::Color,
    ),
    opt(
        "-background",
        "background",
        "Background",
        "gray",
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
    opt("-font", "font", "Font", "fixed", OptKind::Font),
    opt(
        "-foreground",
        "foreground",
        "Foreground",
        "black",
        OptKind::Color,
    ),
    synonym("-fg", "-foreground"),
    opt("-menu", "menu", "Menu", "", OptKind::Str),
    opt("-padx", "padX", "Pad", "3", OptKind::Pixels),
    opt("-pady", "padY", "Pad", "1", OptKind::Pixels),
    opt("-relief", "relief", "Relief", "raised", OptKind::Relief),
    opt("-text", "text", "Text", "", OptKind::Str),
];

/// The kinds of menu entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    Command,
    CheckButton,
    RadioButton,
    Separator,
}

/// One menu entry.
struct MenuEntry {
    kind: EntryKind,
    label: String,
    command: String,
    variable: String,
    value: String,
}

/// The menu widget.
pub struct Menu {
    config: ConfigStore,
    entries: RefCell<Vec<MenuEntry>>,
    active: Cell<Option<usize>>,
    posted: Cell<bool>,
}

/// The menubutton widget.
pub struct Menubutton {
    config: ConfigStore,
}

/// Registers the `menu` and `menubutton` creation commands.
pub fn register(app: &TkApp) {
    app.register_command("menu", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Menu {
                config: ConfigStore::new(MENU_SPECS),
                entries: RefCell::new(Vec::new()),
                active: Cell::new(None),
                posted: Cell::new(false),
            }),
        )
    });
    app.register_command("menubutton", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Menubutton {
                config: ConfigStore::new(MENUBUTTON_SPECS),
            }),
        )
    });
}

impl Menu {
    /// Entry line height.
    fn line_height(&self, app: &TkApp) -> u32 {
        app.cache()
            .font(app.conn(), &self.config.get("-font"))
            .map(|(_, m)| m.line_height() + 4)
            .unwrap_or(17)
    }

    /// Recomputes the requested size from the entries.
    fn resize(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let (_, m) = app.cache().font(app.conn(), &self.config.get("-font"))?;
        let entries = self.entries.borrow();
        let widest = entries
            .iter()
            .map(|e| m.text_width(&e.label))
            .max()
            .unwrap_or(20);
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        let h = entries.len().max(1) as u32 * self.line_height(app) + 2 * bw;
        app.geometry_request(path, widest + 24 + 2 * bw, h);
        Ok(())
    }

    /// Parses an entry index (number, `last`, or `active`).
    fn entry_index(&self, spec: &str) -> Result<usize, Exception> {
        let n = self.entries.borrow().len();
        match spec {
            "last" | "end" => Ok(n.saturating_sub(1)),
            "active" => self
                .active
                .get()
                .ok_or_else(|| Exception::error("no active entry")),
            _ => spec
                .parse::<usize>()
                .map_err(|_| Exception::error(format!("bad menu entry index \"{spec}\""))),
        }
    }

    /// Runs an entry's action.
    fn invoke_entry(&self, app: &TkApp, index: usize) -> TclResult {
        let (kind, command, variable, value, label) = {
            let entries = self.entries.borrow();
            let e = entries
                .get(index)
                .ok_or_else(|| Exception::error(format!("bad menu entry index \"{index}\"")))?;
            (
                e.kind,
                e.command.clone(),
                e.variable.clone(),
                e.value.clone(),
                e.label.clone(),
            )
        };
        match kind {
            EntryKind::CheckButton if !variable.is_empty() => {
                let cur = app
                    .interp()
                    .get_var_at(0, &variable, None)
                    .unwrap_or_default();
                let next = if cur == "1" { "0" } else { "1" };
                app.interp().set_var_at(0, &variable, None, next)?;
            }
            EntryKind::RadioButton if !variable.is_empty() => {
                let v = if value.is_empty() { label } else { value };
                app.interp().set_var_at(0, &variable, None, &v)?;
            }
            EntryKind::Separator => return Ok(String::new()),
            _ => {}
        }
        if command.is_empty() {
            Ok(String::new())
        } else {
            app.interp().eval(&command)
        }
    }

    /// The entry index at pixel `y`.
    fn entry_at(&self, app: &TkApp, y: i32) -> Option<usize> {
        let lh = self.line_height(app) as i32;
        let bw = self.config.get_pixels("-borderwidth").max(0) as i32;
        if y < bw {
            return None;
        }
        let i = ((y - bw) / lh) as usize;
        if i < self.entries.borrow().len() {
            Some(i)
        } else {
            None
        }
    }
}

impl WidgetOps for Menu {
    fn class(&self) -> &'static str {
        "Menu"
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
            "add" => {
                // .m add command -label L -command C (also checkbutton,
                // radiobutton, separator).
                let kind = match argv.get(2).map(String::as_str) {
                    Some("command") => EntryKind::Command,
                    Some("checkbutton") => EntryKind::CheckButton,
                    Some("radiobutton") => EntryKind::RadioButton,
                    Some("separator") => EntryKind::Separator,
                    other => {
                        return Err(Exception::error(format!(
                            "bad menu entry type \"{}\": must be command, \
                             checkbutton, radiobutton, or separator",
                            other.unwrap_or("")
                        )))
                    }
                };
                let mut entry = MenuEntry {
                    kind,
                    label: String::new(),
                    command: String::new(),
                    variable: String::new(),
                    value: String::new(),
                };
                let opts = &argv[3..];
                if opts.len() % 2 != 0 {
                    return Err(Exception::error("missing value for menu entry option"));
                }
                for pair in opts.chunks(2) {
                    match pair[0].as_str() {
                        "-label" => entry.label = pair[1].clone(),
                        "-command" => entry.command = pair[1].clone(),
                        "-variable" => entry.variable = pair[1].clone(),
                        "-value" => entry.value = pair[1].clone(),
                        other => {
                            return Err(Exception::error(format!(
                                "unknown menu entry option \"{other}\""
                            )))
                        }
                    }
                }
                self.entries.borrow_mut().push(entry);
                self.resize(app, path)?;
                app.schedule_redraw(path);
                Ok(String::new())
            }
            "delete" => {
                let i = self.entry_index(argv.get(2).ok_or_else(|| {
                    Exception::error(format!("wrong # args: should be \"{path} delete index\""))
                })?)?;
                let mut entries = self.entries.borrow_mut();
                if i < entries.len() {
                    entries.remove(i);
                }
                drop(entries);
                self.active.set(None);
                self.resize(app, path)?;
                app.schedule_redraw(path);
                Ok(String::new())
            }
            "size" => Ok(self.entries.borrow().len().to_string()),
            "post" => {
                if argv.len() != 4 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} post x y\""
                    )));
                }
                let x: i32 = argv[2]
                    .parse()
                    .map_err(|_| Exception::error("expected integer"))?;
                let y: i32 = argv[3]
                    .parse()
                    .map_err(|_| Exception::error("expected integer"))?;
                let rec = app.require_window(path)?;
                // The menu's X window is a child of the root, so post
                // coordinates are used directly.
                app.conn().configure_window(
                    rec.xid,
                    Some(x),
                    Some(y),
                    Some(rec.req_width.get()),
                    Some(rec.req_height.get()),
                    None,
                );
                app.conn().map_window(rec.xid);
                app.conn().raise_window(rec.xid);
                self.posted.set(true);
                app.schedule_redraw(path);
                Ok(String::new())
            }
            "unpost" => {
                let rec = app.require_window(path)?;
                app.conn().unmap_window(rec.xid);
                self.posted.set(false);
                self.active.set(None);
                Ok(String::new())
            }
            "activate" => {
                let i = self.entry_index(argv.get(2).ok_or_else(|| {
                    Exception::error(format!("wrong # args: should be \"{path} activate index\""))
                })?)?;
                self.active.set(Some(i));
                app.schedule_redraw(path);
                Ok(String::new())
            }
            "invoke" => {
                let i = self.entry_index(argv.get(2).ok_or_else(|| {
                    Exception::error(format!("wrong # args: should be \"{path} invoke index\""))
                })?)?;
                self.invoke_entry(app, i)
            }
            "entrylabel" => {
                // Introspection helper: the label of an entry.
                let i = self.entry_index(
                    argv.get(2)
                        .ok_or_else(|| Exception::error("wrong # args: entrylabel index"))?,
                )?;
                Ok(self
                    .entries
                    .borrow()
                    .get(i)
                    .map(|e| e.label.clone())
                    .unwrap_or_default())
            }
            other => Err(bad_subcommand(
                path,
                other,
                "activate, add, configure, delete, invoke, post, size, or unpost",
            )),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        // Menus hang off the root window in X (while keeping their logical
        // Tk parent) so that they can extend beyond the parent's bounds.
        app.conn()
            .reparent_window(rec.xid, app.conn().root(), rec.x.get(), rec.y.get());
        app.conn().set_override_redirect(rec.xid, true);
        let bg = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, bg);
        self.resize(app, path)?;
        app.schedule_redraw(path);
        Ok(())
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        match ev {
            Event::Expose { .. } => app.expose_damage(path, ev),
            Event::MotionNotify { y, .. } => {
                let hit = self.entry_at(app, *y);
                if hit != self.active.get() {
                    self.active.set(hit);
                    app.schedule_redraw(path);
                }
            }
            Event::ButtonRelease { button: 1, y, .. } => {
                if let Some(i) = self.entry_at(app, *y) {
                    let _ = app.eval(&format!("{path} unpost"));
                    if let Err(e) = self.invoke_entry(app, i) {
                        if e.code == tcl::Code::Error {
                            app.eval_background(&format!("error {}", tcl::format_list(&[e.msg])));
                        }
                    }
                }
            }
            Event::LeaveNotify { .. } => {
                self.active.set(None);
                app.schedule_redraw(path);
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
        let Ok(active_bg) = cache.color(conn, &self.config.get("-activebackground")) else {
            return;
        };
        let Ok((font, m)) = cache.font(conn, &self.config.get("-font")) else {
            return;
        };
        conn.clear_area(rec.xid, 0, 0, 0, 0);
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        let (w, h) = (rec.width.get(), rec.height.get());
        draw_3d_rect(conn, cache, rec.xid, border, 0, 0, w, h, bw, Relief::Raised);
        let lh = self.line_height(app);
        let text_gc = cache.gc(
            conn,
            GcValues {
                foreground: fg,
                font,
                ..Default::default()
            },
        );
        let active_gc = cache.gc(
            conn,
            GcValues {
                foreground: active_bg,
                ..Default::default()
            },
        );
        for (i, e) in self.entries.borrow().iter().enumerate() {
            let y0 = bw as i32 + i as i32 * lh as i32;
            if self.active.get() == Some(i) && e.kind != EntryKind::Separator {
                conn.fill_rectangle(rec.xid, active_gc, bw as i32, y0, w - 2 * bw, lh);
            }
            match e.kind {
                EntryKind::Separator => {
                    conn.draw_line(
                        rec.xid,
                        text_gc,
                        bw as i32 + 2,
                        y0 + lh as i32 / 2,
                        w as i32 - bw as i32 - 2,
                        y0 + lh as i32 / 2,
                    );
                }
                _ => {
                    // Check/radio indicator state.
                    let mark = match e.kind {
                        EntryKind::CheckButton => {
                            let v = app
                                .interp()
                                .get_var_at(0, &e.variable, None)
                                .unwrap_or_default();
                            v == "1"
                        }
                        EntryKind::RadioButton => {
                            let v = app
                                .interp()
                                .get_var_at(0, &e.variable, None)
                                .unwrap_or_default();
                            !v.is_empty()
                                && v == if e.value.is_empty() {
                                    e.label.clone()
                                } else {
                                    e.value.clone()
                                }
                        }
                        _ => false,
                    };
                    if mark {
                        conn.fill_rectangle(rec.xid, text_gc, bw as i32 + 4, y0 + 5, 6, 6);
                    }
                    conn.draw_string(
                        rec.xid,
                        text_gc,
                        bw as i32 + 16,
                        y0 + 2 + m.ascent as i32,
                        &e.label,
                    );
                }
            }
        }
    }
}

impl WidgetOps for Menubutton {
    fn class(&self) -> &'static str {
        "Menubutton"
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
            "post" => {
                self.post(app, path)?;
                Ok(String::new())
            }
            other => Err(bad_subcommand(path, other, "configure or post")),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        let bg = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, bg);
        let (_, m) = app.cache().font(app.conn(), &self.config.get("-font"))?;
        let text = self.config.get("-text");
        let bw = self.config.get_pixels("-borderwidth").max(0);
        let padx = self.config.get_pixels("-padx").max(0);
        let pady = self.config.get_pixels("-pady").max(0);
        app.geometry_request(
            path,
            (m.text_width(&text) as i64 + 2 * (bw + padx) + 2).max(1) as u32,
            (m.line_height() as i64 + 2 * (bw + pady) + 2).max(1) as u32,
        );
        app.schedule_redraw(path);
        Ok(())
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        match ev {
            Event::Expose { .. } => app.expose_damage(path, ev),
            Event::ButtonPress { button: 1, .. } => {
                let _ = self.post(app, path);
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
        let gc = cache.gc(
            conn,
            GcValues {
                foreground: fg,
                font,
                ..Default::default()
            },
        );
        let text = self.config.get("-text");
        conn.draw_string(
            rec.xid,
            gc,
            bw as i32 + self.config.get_pixels("-padx") as i32,
            (h as i32 + m.ascent as i32 - m.descent as i32) / 2,
            &text,
        );
    }
}

impl Menubutton {
    /// Posts the associated menu just below this button.
    fn post(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let menu = self.config.get("-menu");
        if menu.is_empty() {
            return Ok(());
        }
        let rec = app.require_window(path)?;
        // Root coordinates of this button's lower-left corner.
        let (mut x, mut y) = (0i64, rec.height.get() as i64);
        let mut cur = path.to_string();
        loop {
            let r = app.require_window(&cur)?;
            x += r.x.get() as i64;
            y += r.y.get() as i64;
            match crate::window::parent_path(&cur) {
                Some(p) => cur = p.to_string(),
                None => break,
            }
        }
        app.eval(&format!("{menu} post {x} {y}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    #[test]
    fn add_and_invoke_entries() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("menu .m").unwrap();
        app.eval(".m add command -label Open -command {set did open}")
            .unwrap();
        app.eval(".m add separator").unwrap();
        app.eval(".m add command -label Quit -command {set did quit}")
            .unwrap();
        assert_eq!(app.eval(".m size").unwrap(), "3");
        app.eval(".m invoke 0").unwrap();
        assert_eq!(app.eval("set did").unwrap(), "open");
        app.eval(".m invoke last").unwrap();
        assert_eq!(app.eval("set did").unwrap(), "quit");
    }

    #[test]
    fn check_and_radio_entries() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("menu .m").unwrap();
        app.eval(".m add checkbutton -label Bold -variable bold")
            .unwrap();
        app.eval(".m add radiobutton -label Red -variable color -value red")
            .unwrap();
        app.eval(".m invoke 0").unwrap();
        assert_eq!(app.eval("set bold").unwrap(), "1");
        app.eval(".m invoke 0").unwrap();
        assert_eq!(app.eval("set bold").unwrap(), "0");
        app.eval(".m invoke 1").unwrap();
        assert_eq!(app.eval("set color").unwrap(), "red");
    }

    #[test]
    fn post_maps_and_unpost_unmaps() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("menu .m").unwrap();
        app.eval(".m add command -label X -command {}").unwrap();
        app.eval(".m post 100 50").unwrap();
        app.update();
        assert!(app.window(".m").unwrap().mapped.get());
        app.eval(".m unpost").unwrap();
        app.update();
        assert!(!app.window(".m").unwrap().mapped.get());
    }

    #[test]
    fn menubutton_posts_menu_and_click_invokes() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("menubutton .mb -text File -menu .mb.m").unwrap();
        app.eval("menu .mb.m").unwrap();
        app.eval(".mb.m add command -label Save -command {set did save}")
            .unwrap();
        app.eval("pack append . .mb {top frame nw}").unwrap();
        app.update();
        let mb = app.window(".mb").unwrap();
        // Press the menubutton: the menu posts below it.
        env.display().move_pointer(
            mb.x.get() + mb.width.get() as i32 / 2,
            mb.y.get() + mb.height.get() as i32 / 2,
        );
        env.display().press_button(1);
        env.display().release_button(1);
        env.dispatch_all();
        app.update();
        let m = app.window(".mb.m").unwrap();
        assert!(m.mapped.get(), "menu should be posted");
        // Release over the first entry invokes it.
        env.display()
            .move_pointer(mb.x.get() + 10, mb.y.get() + mb.height.get() as i32 + 8);
        env.display().press_button(1);
        env.display().release_button(1);
        env.dispatch_all();
        assert_eq!(app.eval("set did").unwrap(), "save");
        app.update();
        assert!(!app.window(".mb.m").unwrap().mapped.get());
    }

    #[test]
    fn delete_entry() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("menu .m").unwrap();
        app.eval(".m add command -label A -command {}").unwrap();
        app.eval(".m add command -label B -command {}").unwrap();
        app.eval(".m delete 0").unwrap();
        assert_eq!(app.eval(".m size").unwrap(), "1");
        assert_eq!(app.eval(".m entrylabel 0").unwrap(), "B");
    }
}
