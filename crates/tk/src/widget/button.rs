//! Labels, buttons, check buttons, and radio buttons.
//!
//! As the paper's Table I notes, "in Tk a single file implements labels,
//! buttons, check buttons, and radio buttons" — they share their options,
//! drawing, and mouse behavior, differing only in the indicator and in
//! what `invoke` does.

use std::cell::Cell;
use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues, Rect};

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::draw::{draw_3d_rect, Relief};
use crate::widget::{bad_subcommand, create_widget, handle_configure, WidgetOps};

static BUTTON_SPECS: &[OptSpec] = &[
    opt(
        "-activebackground",
        "activeBackground",
        "Foreground",
        "white",
        OptKind::Color,
    ),
    opt(
        "-activeforeground",
        "activeForeground",
        "Background",
        "black",
        OptKind::Color,
    ),
    opt("-anchor", "anchor", "Anchor", "center", OptKind::Anchor),
    opt("-bitmap", "bitmap", "Bitmap", "", OptKind::Str),
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
    opt("-command", "command", "Command", "", OptKind::Str),
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
    opt("-height", "height", "Height", "0", OptKind::Int),
    opt("-padx", "padX", "Pad", "3", OptKind::Pixels),
    opt("-pady", "padY", "Pad", "1", OptKind::Pixels),
    opt("-relief", "relief", "Relief", "raised", OptKind::Relief),
    opt("-state", "state", "State", "normal", OptKind::Str),
    opt("-text", "text", "Text", "", OptKind::Str),
    opt("-value", "value", "Value", "", OptKind::Str),
    opt("-variable", "variable", "Variable", "", OptKind::Str),
    opt("-width", "width", "Width", "0", OptKind::Int),
];

static LABEL_SPECS: &[OptSpec] = &[
    opt("-anchor", "anchor", "Anchor", "center", OptKind::Anchor),
    opt("-bitmap", "bitmap", "Bitmap", "", OptKind::Str),
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
        "0",
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
    opt("-height", "height", "Height", "0", OptKind::Int),
    opt("-padx", "padX", "Pad", "3", OptKind::Pixels),
    opt("-pady", "padY", "Pad", "1", OptKind::Pixels),
    opt("-relief", "relief", "Relief", "flat", OptKind::Relief),
    opt("-text", "text", "Text", "", OptKind::Str),
    opt("-width", "width", "Width", "0", OptKind::Int),
];

/// Which member of the family this widget is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ButtonKind {
    Label,
    Button,
    CheckButton,
    RadioButton,
}

/// The shared widget implementation.
pub struct ButtonWidget {
    kind: ButtonKind,
    config: ConfigStore,
    /// Pointer is inside the widget (drawn with the active colors).
    active: Cell<bool>,
    /// Mouse button held down over the widget (drawn sunken).
    pressed: Cell<bool>,
    /// The `(variable, trace id)` currently watched, so the indicator
    /// redraws when the variable changes from anywhere (set via a Tcl
    /// variable trace, exactly as real Tk tracks `-variable`).
    var_trace: std::cell::RefCell<Option<(String, u64)>>,
}

impl ButtonWidget {
    fn new(kind: ButtonKind) -> Rc<ButtonWidget> {
        let specs = if kind == ButtonKind::Label {
            LABEL_SPECS
        } else {
            BUTTON_SPECS
        };
        Rc::new(ButtonWidget {
            kind,
            config: ConfigStore::new(specs),
            active: Cell::new(false),
            pressed: Cell::new(false),
            var_trace: std::cell::RefCell::new(None),
        })
    }

    /// Pixel width of the selection indicator, if this kind has one.
    fn indicator_space(&self, line_height: i64) -> i64 {
        match self.kind {
            ButtonKind::CheckButton | ButtonKind::RadioButton => line_height + 4,
            _ => 0,
        }
    }

    /// Is the indicator currently on (variable matches)?
    fn selected(&self, app: &TkApp) -> bool {
        let var = self.config.get("-variable");
        if var.is_empty() {
            return false;
        }
        let value = app.interp().get_var_at(0, &var, None).unwrap_or_default();
        match self.kind {
            ButtonKind::CheckButton => value == "1",
            ButtonKind::RadioButton => !value.is_empty() && value == self.config.get("-value"),
            _ => false,
        }
    }

    /// Runs the widget's action: toggles/sets the variable, then evaluates
    /// the `-command` script (Section 4's `print Hello!\n` example).
    fn invoke(&self, app: &TkApp, path: &str) -> TclResult {
        if self.config.get("-state") == "disabled" {
            return Ok(String::new());
        }
        let var = self.config.get("-variable");
        match self.kind {
            ButtonKind::CheckButton if !var.is_empty() => {
                let cur = app.interp().get_var_at(0, &var, None).unwrap_or_default();
                let next = if cur == "1" { "0" } else { "1" };
                app.interp().set_var_at(0, &var, None, next)?;
            }
            ButtonKind::RadioButton if !var.is_empty() => {
                app.interp()
                    .set_var_at(0, &var, None, &self.config.get("-value"))?;
            }
            _ => {}
        }
        self.schedule_redraw_indicator(app, path);
        let command = self.config.get("-command");
        if command.is_empty() {
            Ok(String::new())
        } else {
            app.interp().eval(&command)
        }
    }

    /// Schedules a redraw narrowed to the bevel ring: a press or release
    /// only changes the relief, whose pixels all live in the border.
    fn schedule_redraw_border(&self, app: &TkApp, path: &str) {
        let Some(rec) = app.window(path) else {
            return app.schedule_redraw(path);
        };
        let (w, h) = (rec.width.get(), rec.height.get());
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        if bw == 0 || 2 * bw >= w || 2 * bw >= h {
            return app.schedule_redraw(path);
        }
        // Four disjoint edge strips (disjoint so the corner overlap does
        // not coalesce into the whole window's bounding box).
        app.schedule_redraw_damage(path, Rect::new(0, 0, w, bw));
        app.schedule_redraw_damage(path, Rect::new(0, (h - bw) as i32, w, bw));
        app.schedule_redraw_damage(path, Rect::new(0, bw as i32, bw, h - 2 * bw));
        app.schedule_redraw_damage(path, Rect::new((w - bw) as i32, bw as i32, bw, h - 2 * bw));
    }

    /// Schedules a redraw narrowed to the selection indicator: a
    /// `-variable` change only repaints the check box or radio diamond.
    fn schedule_redraw_indicator(&self, app: &TkApp, path: &str) {
        let Some(rec) = app.window(path) else {
            return app.schedule_redraw(path);
        };
        let Ok((_, metrics)) = app.cache().font(app.conn(), &self.config.get("-font")) else {
            return app.schedule_redraw(path);
        };
        let lh = metrics.line_height() as i64;
        if self.indicator_space(lh) == 0 {
            return app.schedule_redraw(path);
        }
        let bw = self.config.get_pixels("-borderwidth").max(0);
        let size = (lh - 2).max(4);
        let ix = bw + 3;
        let iy = ((rec.height.get() as i64 - size) / 2).max(0);
        app.schedule_redraw_damage(
            path,
            Rect::new(ix as i32, iy as i32, size as u32, size as u32),
        );
    }

    /// Computes and requests the widget's preferred size ("a button widget
    /// might request a size just large enough to contain the text").
    fn request_size(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let (_, metrics) = app.cache().font(app.conn(), &self.config.get("-font"))?;
        let bw = self.config.get_pixels("-borderwidth");
        let padx = self.config.get_pixels("-padx");
        let pady = self.config.get_pixels("-pady");
        let lh = metrics.line_height() as i64;
        // A -bitmap displaces the text, as in Tk.
        let bitmap = self.config.get("-bitmap");
        let (content_w, content_h) = if bitmap.is_empty() {
            let text = self.config.get("-text");
            let chars = self.config.get_int("-width");
            let text_w = if chars > 0 {
                metrics.char_width as i64 * chars
            } else {
                metrics.text_width(&text) as i64
            };
            (text_w, lh * self.config.get_int("-height").max(1))
        } else {
            let (_, w, h) = app.cache().bitmap(app.conn(), &bitmap)?;
            (w as i64, h as i64)
        };
        let w = content_w + self.indicator_space(lh) + 2 * (padx + bw) + 2;
        let h = content_h + 2 * (pady + bw) + 2;
        app.geometry_request(path, w.max(1) as u32, h.max(1) as u32);
        Ok(())
    }
}

/// Registers `label`, `button`, `checkbutton`, and `radiobutton`.
pub fn register(app: &TkApp) {
    app.register_command("label", |app, _i, argv| {
        create_widget(app, argv, ButtonWidget::new(ButtonKind::Label))
    });
    app.register_command("button", |app, _i, argv| {
        create_widget(app, argv, ButtonWidget::new(ButtonKind::Button))
    });
    app.register_command("checkbutton", |app, _i, argv| {
        create_widget(app, argv, ButtonWidget::new(ButtonKind::CheckButton))
    });
    app.register_command("radiobutton", |app, _i, argv| {
        create_widget(app, argv, ButtonWidget::new(ButtonKind::RadioButton))
    });
}

impl WidgetOps for ButtonWidget {
    fn class(&self) -> &'static str {
        match self.kind {
            ButtonKind::Label => "Label",
            ButtonKind::Button => "Button",
            ButtonKind::CheckButton => "CheckButton",
            ButtonKind::RadioButton => "RadioButton",
        }
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
        match (self.kind, sub) {
            (ButtonKind::Label, other) => Err(bad_subcommand(path, other, "configure")),
            (_, "invoke") => self.invoke(app, path),
            (_, "activate") => {
                self.active.set(true);
                app.schedule_redraw(path);
                Ok(String::new())
            }
            (_, "deactivate") => {
                self.active.set(false);
                app.schedule_redraw(path);
                Ok(String::new())
            }
            (ButtonKind::Button, "flash") => {
                // "causes the button to change colors back and forth a few
                // times" — each toggle redraws synchronously. An unmapped
                // button has nothing to flash.
                if app.is_mapped(path) {
                    for _ in 0..2 {
                        self.active.set(true);
                        self.redraw(app, path);
                        self.active.set(false);
                        self.redraw(app, path);
                    }
                }
                Ok(String::new())
            }
            (ButtonKind::CheckButton, "select") | (ButtonKind::RadioButton, "select") => {
                let var = self.config.get("-variable");
                if !var.is_empty() {
                    let v = if self.kind == ButtonKind::CheckButton {
                        "1".to_string()
                    } else {
                        self.config.get("-value")
                    };
                    app.interp().set_var_at(0, &var, None, &v)?;
                }
                self.schedule_redraw_indicator(app, path);
                Ok(String::new())
            }
            (ButtonKind::CheckButton, "deselect") => {
                let var = self.config.get("-variable");
                if !var.is_empty() {
                    app.interp().set_var_at(0, &var, None, "0")?;
                }
                self.schedule_redraw_indicator(app, path);
                Ok(String::new())
            }
            (ButtonKind::CheckButton, "toggle") => {
                let var = self.config.get("-variable");
                if !var.is_empty() {
                    let cur = app.interp().get_var_at(0, &var, None).unwrap_or_default();
                    let next = if cur == "1" { "0" } else { "1" };
                    app.interp().set_var_at(0, &var, None, next)?;
                }
                self.schedule_redraw_indicator(app, path);
                Ok(String::new())
            }
            (_, other) => Err(bad_subcommand(
                path,
                other,
                "activate, configure, deactivate, flash, invoke, select, deselect, or toggle",
            )),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        let pixel = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, pixel);
        let cursor = self.config.get("-cursor");
        if !cursor.is_empty() {
            let c = app.cache().cursor(app.conn(), &cursor)?;
            app.conn().define_cursor(rec.xid, c);
        }
        self.request_size(app, path)?;
        // Watch the -variable (if any) so external writes — other widgets
        // sharing a radio group, scripts, even `send` — update the display.
        if matches!(self.kind, ButtonKind::CheckButton | ButtonKind::RadioButton) {
            let var = self.config.get("-variable");
            let mut slot = self.var_trace.borrow_mut();
            let changed = slot.as_ref().map(|(v, _)| v != &var).unwrap_or(true);
            if changed {
                if let Some((old, id)) = slot.take() {
                    app.interp().trace_remove(&old, id);
                }
                if !var.is_empty() {
                    let weak = std::rc::Rc::downgrade(&app.inner);
                    let path_owned = path.to_string();
                    let id = app.interp().trace_variable(
                        &var,
                        tcl::TraceOps {
                            write: true,
                            unset: true,
                            ..Default::default()
                        },
                        tcl::TraceAction::Native(Rc::new(move |_i, _n1, _n2, _op| {
                            if let Some(inner) = weak.upgrade() {
                                let app = crate::app::TkApp { inner };
                                if let Some(rec) = app.window(&path_owned) {
                                    let widget = rec.widget.borrow().clone();
                                    match widget {
                                        Some(w) => w.variable_changed(&app, &path_owned),
                                        None => app.schedule_redraw(&path_owned),
                                    }
                                }
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

    fn variable_changed(&self, app: &TkApp, path: &str) {
        self.schedule_redraw_indicator(app, path);
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        if self.kind == ButtonKind::Label {
            if matches!(ev, Event::Expose { .. }) {
                app.expose_damage(path, ev);
            }
            return;
        }
        match ev {
            Event::Expose { .. } => app.expose_damage(path, ev),
            Event::EnterNotify { .. } => {
                // The active colors repaint everything.
                self.active.set(true);
                app.schedule_redraw(path);
            }
            Event::LeaveNotify { .. } => {
                self.active.set(false);
                self.pressed.set(false);
                app.schedule_redraw(path);
            }
            Event::ButtonPress { button: 1, .. } => {
                self.pressed.set(true);
                self.schedule_redraw_border(app, path);
            }
            Event::ButtonRelease { button: 1, .. } if self.pressed.replace(false) => {
                self.schedule_redraw_border(app, path);
                // The release completes the click: run the action.
                let widget_path = path.to_string();
                let this = app.clone();
                // Invoke directly; errors are background errors.
                if let Some(rec) = this.window(&widget_path) {
                    let widget = rec.widget.borrow().clone();
                    if let Some(w) = widget {
                        if let Err(e) =
                            w.command(&this, &widget_path, &[widget_path.clone(), "invoke".into()])
                        {
                            if e.code == tcl::Code::Error {
                                this.eval_background(&format!(
                                    "error {}",
                                    tcl::format_list(&[e.msg])
                                ));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn redraw(&self, app: &TkApp, path: &str) {
        let Some(rec) = app.window(path) else { return };
        let conn = app.conn();
        let cache = app.cache();
        let active = self.active.get() && self.kind != ButtonKind::Label;
        let bg_name = if active {
            self.config.get("-activebackground")
        } else {
            self.config.get("-background")
        };
        let fg_name = if active {
            self.config.get("-activeforeground")
        } else {
            self.config.get("-foreground")
        };
        let Ok(border) = cache.border(conn, &bg_name) else {
            return;
        };
        let Ok(fg) = cache.color(conn, &fg_name) else {
            return;
        };
        let Ok((font, metrics)) = cache.font(conn, &self.config.get("-font")) else {
            return;
        };
        let (w, h) = (rec.width.get(), rec.height.get());
        // Background fill.
        let bg_gc = cache.gc(
            conn,
            GcValues {
                foreground: border.bg,
                ..Default::default()
            },
        );
        conn.fill_rectangle(rec.xid, bg_gc, 0, 0, w, h);
        // 3-D border.
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        let relief = if self.pressed.get() {
            Relief::Sunken
        } else {
            self.config.get_relief("-relief")
        };
        draw_3d_rect(conn, cache, rec.xid, border, 0, 0, w, h, bw, relief);
        // Indicator for check/radio buttons.
        let lh = metrics.line_height() as i64;
        let ind = self.indicator_space(lh);
        if ind > 0 {
            let size = (lh - 2).max(4) as u32;
            let ix = bw as i32 + 3;
            let iy = (h as i64 - size as i64) as i32 / 2;
            let fg_gc = cache.gc(
                conn,
                GcValues {
                    foreground: fg,
                    ..Default::default()
                },
            );
            if self.kind == ButtonKind::CheckButton {
                conn.draw_rectangle(rec.xid, fg_gc, ix, iy, size, size);
                if self.selected(app) {
                    conn.fill_rectangle(rec.xid, fg_gc, ix + 2, iy + 2, size - 4, size - 4);
                }
            } else {
                // Radio: a diamond outline, filled when selected.
                let cx = ix + size as i32 / 2;
                let cy = iy + size as i32 / 2;
                let r = size as i32 / 2;
                conn.draw_line(rec.xid, fg_gc, cx, cy - r, cx + r, cy);
                conn.draw_line(rec.xid, fg_gc, cx + r, cy, cx, cy + r);
                conn.draw_line(rec.xid, fg_gc, cx, cy + r, cx - r, cy);
                conn.draw_line(rec.xid, fg_gc, cx - r, cy, cx, cy - r);
                if self.selected(app) {
                    conn.fill_rectangle(rec.xid, fg_gc, cx - r / 2, cy - r / 2, r as u32, r as u32);
                }
            }
        }
        // Content: a bitmap displaces text when configured.
        let bitmap = self.config.get("-bitmap");
        if !bitmap.is_empty() {
            if let Ok((bm, bm_w, bm_h)) = cache.bitmap(conn, &bitmap) {
                let gc = cache.gc(
                    conn,
                    GcValues {
                        foreground: fg,
                        ..Default::default()
                    },
                );
                let pad = bw as i32 + self.config.get_pixels("-padx") as i32;
                let anchor = self.config.get_anchor("-anchor");
                let ind = self.indicator_space(metrics.line_height() as i64) as i32;
                let (bx, by) =
                    anchor.place(w as i32 - ind, h as i32, bm_w as i32, bm_h as i32, pad);
                conn.copy_bitmap(rec.xid, gc, ind + bx, by, bm);
            }
            return;
        }
        let text = self.config.get("-text");
        if !text.is_empty() {
            let text_gc = cache.gc(
                conn,
                GcValues {
                    foreground: fg,
                    font,
                    ..Default::default()
                },
            );
            let tw = metrics.text_width(&text) as i32;
            let th = metrics.line_height() as i32;
            let pad = bw as i32 + self.config.get_pixels("-padx") as i32;
            let anchor = self.config.get_anchor("-anchor");
            let avail_x = ind as i32;
            let (tx, ty) = anchor.place(w as i32 - avail_x, h as i32, tw, th, pad);
            conn.draw_string(
                rec.xid,
                text_gc,
                avail_x + tx,
                ty + metrics.ascent as i32,
                &text,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    #[test]
    fn paper_section4_button_example() {
        let env = TkEnv::new();
        let app = env.app("t");
        let buf = app.interp().capture_output();
        app.eval("button .hello -bg Red -text \"Hello, world\" -command \"print Hello!\\n\"")
            .unwrap();
        app.eval("pack append . .hello {top}").unwrap();
        app.update();
        // Click it with the mouse.
        let rec = app.window(".hello").unwrap();
        assert!(rec.mapped.get());
        assert!(rec.req_width.get() > 0);
        env.display().move_pointer(
            rec.x.get() + rec.width.get() as i32 / 2,
            rec.y.get() + rec.height.get() as i32 / 2,
        );
        env.display().click(1);
        env.dispatch_all();
        // The \n in the quoted -command value became a command separator
        // when the stored script was evaluated, so `print` got "Hello!".
        assert_eq!(&*buf.borrow(), "Hello!");
    }

    #[test]
    fn paper_section4_reconfigure() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .hello -bg Red -text hi -command {}")
            .unwrap();
        app.eval(".hello flash").unwrap();
        app.eval(".hello configure -bg PalePink1 -relief sunken")
            .unwrap();
        let info = app.eval(".hello configure -background").unwrap();
        assert!(info.contains("PalePink1"), "{info}");
        assert_eq!(
            app.eval(".hello configure -relief").unwrap(),
            "-relief relief Relief raised sunken"
        );
    }

    #[test]
    fn invoke_runs_command() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -command {set clicked 1}").unwrap();
        app.eval(".b invoke").unwrap();
        assert_eq!(app.eval("set clicked").unwrap(), "1");
    }

    #[test]
    fn disabled_button_ignores_invoke() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set clicked 0; button .b -state disabled -command {set clicked 1}")
            .unwrap();
        app.eval(".b invoke").unwrap();
        assert_eq!(app.eval("set clicked").unwrap(), "0");
    }

    #[test]
    fn checkbutton_variable_toggles() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("checkbutton .c -variable flag").unwrap();
        app.eval(".c invoke").unwrap();
        assert_eq!(app.eval("set flag").unwrap(), "1");
        app.eval(".c invoke").unwrap();
        assert_eq!(app.eval("set flag").unwrap(), "0");
        app.eval(".c select").unwrap();
        assert_eq!(app.eval("set flag").unwrap(), "1");
        app.eval(".c deselect").unwrap();
        assert_eq!(app.eval("set flag").unwrap(), "0");
        app.eval(".c toggle").unwrap();
        assert_eq!(app.eval("set flag").unwrap(), "1");
    }

    #[test]
    fn radiobuttons_share_variable() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("radiobutton .r1 -variable choice -value one")
            .unwrap();
        app.eval("radiobutton .r2 -variable choice -value two")
            .unwrap();
        app.eval(".r1 invoke").unwrap();
        assert_eq!(app.eval("set choice").unwrap(), "one");
        app.eval(".r2 invoke").unwrap();
        assert_eq!(app.eval("set choice").unwrap(), "two");
    }

    #[test]
    fn label_size_tracks_text() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("label .l -text abc -font fixed").unwrap();
        let w1 = app.window(".l").unwrap().req_width.get();
        app.eval(".l configure -text abcdef").unwrap();
        let w2 = app.window(".l").unwrap().req_width.get();
        assert!(w2 > w1, "{w1} -> {w2}");
        // Explicit -width in characters pins the size.
        app.eval(".l configure -width 10").unwrap();
        let w3 = app.window(".l").unwrap().req_width.get();
        app.eval(".l configure -text x").unwrap();
        assert_eq!(app.window(".l").unwrap().req_width.get(), w3);
    }

    #[test]
    fn label_rejects_button_subcommands() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("label .l").unwrap();
        assert!(app.eval(".l invoke").is_err());
        assert!(app.eval(".l flash").is_err());
    }

    #[test]
    fn command_error_reaches_tkerror() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("proc tkerror {m} {global bg; set bg $m}").unwrap();
        app.eval("button .b -command {error kaboom}").unwrap();
        app.eval("pack append . .b {top}").unwrap();
        app.update();
        let rec = app.window(".b").unwrap();
        env.display().move_pointer(
            rec.x.get() + rec.width.get() as i32 / 2,
            rec.y.get() + rec.height.get() as i32 / 2,
        );
        env.display().click(1);
        env.dispatch_all();
        assert_eq!(app.eval("set bg").unwrap(), "kaboom");
    }

    #[test]
    fn enter_leave_change_active_state() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -text x -activebackground white -background gray")
            .unwrap();
        app.eval("pack append . .b {top}").unwrap();
        app.update();
        let rec = app.window(".b").unwrap();
        env.display().move_pointer(rec.x.get() + 5, rec.y.get() + 5);
        env.dispatch_all();
        // Just ensure the event machinery ran without error; the visual
        // check happens via the framebuffer in integration tests.
        assert!(rec.mapped.get());
    }
}

#[cfg(test)]
mod trace_tests {
    use crate::app::TkEnv;

    #[test]
    fn variable_write_schedules_indicator_redraw() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("checkbutton .c -variable flag -text Flag")
            .unwrap();
        app.eval("pack append . .c {top}").unwrap();
        app.update();
        // An external write redraws the indicator: verify by pixel count
        // difference between unchecked and checked states.
        let rec = app.window(".c").unwrap();
        let black = xsim::Rgb::new(0, 0, 0);
        let before = env
            .display()
            .with_server(|s| s.window_surface(rec.xid).unwrap().count_pixels(black));
        app.eval("set flag 1").unwrap();
        app.update();
        let after = env
            .display()
            .with_server(|s| s.window_surface(rec.xid).unwrap().count_pixels(black));
        assert!(
            after > before,
            "checked state paints more: {before} -> {after}"
        );
    }

    #[test]
    fn radio_group_redraws_all_members() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("radiobutton .r1 -variable choice -value a -text A")
            .unwrap();
        app.eval("radiobutton .r2 -variable choice -value b -text B")
            .unwrap();
        app.eval("pack append . .r1 {top} .r2 {top}").unwrap();
        app.update();
        // Selecting via one member updates the variable; both members'
        // traces fire (each is watching the same variable).
        app.eval(".r1 invoke").unwrap();
        app.update();
        app.eval("set choice b").unwrap();
        app.update();
        assert_eq!(app.eval("set choice").unwrap(), "b");
        // Two live traces on the shared variable.
        let vinfo = app.eval("trace vinfo choice").unwrap();
        assert_eq!(vinfo.matches("native").count(), 2, "{vinfo}");
    }

    #[test]
    fn destroy_removes_variable_trace() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("checkbutton .c -variable flag").unwrap();
        app.eval("destroy .c").unwrap();
        assert_eq!(app.eval("trace vinfo flag").unwrap(), "");
    }
}

#[cfg(test)]
mod bitmap_tests {
    use crate::app::TkEnv;

    #[test]
    fn label_with_bitmap_sizes_and_draws() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("label .l -bitmap gray50 -fg black -bg white -padx 0 -pady 0")
            .unwrap();
        app.eval("pack append . .l {top}").unwrap();
        app.update();
        let rec = app.window(".l").unwrap();
        // 16x16 bitmap plus the 2px fudge, no border on labels.
        assert!(rec.req_width.get() >= 16 && rec.req_width.get() <= 20);
        // Half the bitmap's pixels are set, drawn in the foreground.
        let black = xsim::Rgb::new(0, 0, 0);
        let painted = env
            .display()
            .with_server(|s| s.window_surface(rec.xid).unwrap().count_pixels(black));
        assert_eq!(painted, 128, "gray50 paints half of 16x16");
    }

    #[test]
    fn bitmap_from_paper_at_file_form() {
        // "@star for a bitmap stored in a file named star" (Section 3.3).
        let env = TkEnv::new();
        let app = env.app("t");
        let path = std::env::temp_dir().join("rtk_button_star.xbm");
        std::fs::write(
            &path,
            "#define s_width 4\n#define s_height 4\nstatic char s_bits[] = {0x0f,0x0f,0x0f,0x0f};\n",
        )
        .unwrap();
        app.eval(&format!("button .b -bitmap @{}", path.display()))
            .unwrap();
        let rec = app.window(".b").unwrap();
        assert!(rec.req_width.get() >= 4);
        // Unknown bitmap names fail cleanly at configure time.
        assert!(app.eval(".b configure -bitmap bogus").is_err());
    }
}
