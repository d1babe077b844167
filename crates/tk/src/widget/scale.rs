//! The scale widget: a slider that adjusts an integer value between
//! `-from` and `-to`, reporting changes through its `-command`.

use std::cell::Cell;
use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues};

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::draw::{draw_3d_rect, Relief};
use crate::widget::{bad_subcommand, create_widget, handle_configure, WidgetOps};

static SPECS: &[OptSpec] = &[
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
    opt("-from", "from", "From", "0", OptKind::Int),
    opt("-label", "label", "Label", "", OptKind::Str),
    opt("-length", "length", "Length", "100", OptKind::Pixels),
    opt("-orient", "orient", "Orient", "horizontal", OptKind::Orient),
    opt(
        "-showvalue",
        "showValue",
        "ShowValue",
        "1",
        OptKind::Boolean,
    ),
    opt(
        "-sliderlength",
        "sliderLength",
        "SliderLength",
        "20",
        OptKind::Pixels,
    ),
    opt("-to", "to", "To", "100", OptKind::Int),
    opt("-width", "width", "Width", "15", OptKind::Pixels),
];

/// The scale widget.
pub struct Scale {
    config: ConfigStore,
    value: Cell<i64>,
    dragging: Cell<bool>,
}

/// Registers the `scale` creation command.
pub fn register(app: &TkApp) {
    app.register_command("scale", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Scale {
                config: ConfigStore::new(SPECS),
                value: Cell::new(0),
                dragging: Cell::new(false),
            }),
        )
    });
}

impl Scale {
    fn horizontal(&self) -> bool {
        self.config.get("-orient") != "vertical"
    }

    fn bounds(&self) -> (i64, i64) {
        (self.config.get_int("-from"), self.config.get_int("-to"))
    }

    /// Sets the value (clamped) and runs `-command value`.
    fn set_value(&self, app: &TkApp, path: &str, v: i64) {
        let (from, to) = self.bounds();
        let v = v.clamp(from.min(to), from.max(to));
        if self.value.replace(v) != v {
            app.schedule_redraw(path);
            let cmd = self.config.get("-command");
            if !cmd.is_empty() {
                app.eval_background(&format!("{cmd} {v}"));
            }
        }
    }

    /// Maps a pixel position along the long axis to a value.
    fn value_at(&self, app: &TkApp, path: &str, p: i64) -> i64 {
        let Some(rec) = app.window(path) else {
            return 0;
        };
        let (from, to) = self.bounds();
        let sl = self.config.get_pixels("-sliderlength").max(4);
        let len = if self.horizontal() {
            rec.width.get() as i64
        } else {
            rec.height.get() as i64
        };
        let track = (len - sl).max(1);
        let frac = ((p - sl / 2).clamp(0, track)) as f64 / track as f64;
        from + ((to - from) as f64 * frac).round() as i64
    }
}

impl WidgetOps for Scale {
    fn class(&self) -> &'static str {
        "Scale"
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
            "get" => Ok(self.value.get().to_string()),
            "set" => {
                if argv.len() != 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} set value\""
                    )));
                }
                let v: i64 = argv[2].trim().parse().map_err(|_| {
                    Exception::error(format!("expected integer but got \"{}\"", argv[2]))
                })?;
                self.set_value(app, path, v);
                Ok(String::new())
            }
            other => Err(bad_subcommand(path, other, "configure, get, or set")),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        let bg = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, bg);
        let length = self.config.get_pixels("-length").max(20) as u32;
        let mut thickness = self.config.get_pixels("-width").max(8) as u32;
        let (_, m) = app.cache().font(app.conn(), &self.config.get("-font"))?;
        if self.config.get_bool("-showvalue") {
            thickness += m.line_height();
        }
        if !self.config.get("-label").is_empty() {
            thickness += m.line_height();
        }
        if self.horizontal() {
            app.geometry_request(path, length, thickness + 8);
        } else {
            app.geometry_request(path, thickness + 8, length);
        }
        // Clamp the current value into the (possibly new) range.
        let (from, to) = self.bounds();
        let v = self.value.get().clamp(from.min(to), from.max(to));
        self.value.set(v);
        app.schedule_redraw(path);
        Ok(())
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        match ev {
            Event::Expose { .. } => app.expose_damage(path, ev),
            Event::ButtonPress {
                button: 1, x, y, ..
            } => {
                self.dragging.set(true);
                let p = if self.horizontal() { *x } else { *y } as i64;
                let v = self.value_at(app, path, p);
                self.set_value(app, path, v);
            }
            Event::ButtonRelease { button: 1, .. } => self.dragging.set(false),
            Event::MotionNotify { state, x, y, .. }
                if state & xsim::event::state::BUTTON1 != 0 && self.dragging.get() =>
            {
                let p = if self.horizontal() { *x } else { *y } as i64;
                let v = self.value_at(app, path, p);
                self.set_value(app, path, v);
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
        let text_gc = cache.gc(
            conn,
            GcValues {
                foreground: fg,
                font,
                ..Default::default()
            },
        );
        let mut top = 2i32;
        let label = self.config.get("-label");
        if !label.is_empty() {
            conn.draw_string(rec.xid, text_gc, 4, top + m.ascent as i32, &label);
            top += m.line_height() as i32;
        }
        if self.config.get_bool("-showvalue") {
            // Value text above the slider at its position.
            let (from, to) = self.bounds();
            let sl = self.config.get_pixels("-sliderlength").max(4);
            let track = (w as i64 - sl).max(1);
            let frac = if to != from {
                (self.value.get() - from) as f64 / (to - from) as f64
            } else {
                0.0
            };
            let vx = (track as f64 * frac) as i32;
            conn.draw_string(
                rec.xid,
                text_gc,
                vx.max(2),
                top + m.ascent as i32,
                &self.value.get().to_string(),
            );
            top += m.line_height() as i32;
        }
        // Trough + slider.
        let trough_h = (h as i32 - top - 2).max(4) as u32;
        draw_3d_rect(
            conn,
            cache,
            rec.xid,
            border,
            0,
            top,
            w,
            trough_h,
            1,
            Relief::Sunken,
        );
        let sl = self.config.get_pixels("-sliderlength").max(4);
        let (from, to) = self.bounds();
        let frac = if to != from {
            (self.value.get() - from) as f64 / (to - from) as f64
        } else {
            0.0
        };
        if self.horizontal() {
            let track = (w as i64 - sl).max(1);
            let sx = (track as f64 * frac) as i32;
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                sx,
                top + 1,
                sl as u32,
                trough_h - 2,
                2,
                Relief::Raised,
            );
        } else {
            let track = (h as i64 - sl).max(1);
            let sy = (track as f64 * frac) as i32;
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                1,
                sy,
                w - 2,
                sl as u32,
                2,
                Relief::Raised,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    #[test]
    fn set_get_and_command() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("proc note {v} {global got; set got $v}").unwrap();
        app.eval("scale .s -from 0 -to 100 -command note").unwrap();
        app.eval(".s set 42").unwrap();
        assert_eq!(app.eval(".s get").unwrap(), "42");
        assert_eq!(app.eval("set got").unwrap(), "42");
    }

    #[test]
    fn value_clamps_to_range() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("scale .s -from 10 -to 20").unwrap();
        app.eval(".s set 99").unwrap();
        assert_eq!(app.eval(".s get").unwrap(), "20");
        app.eval(".s set 0").unwrap();
        assert_eq!(app.eval(".s get").unwrap(), "10");
    }

    #[test]
    fn click_sets_value_proportionally() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("scale .s -from 0 -to 100 -length 120 -sliderlength 20")
            .unwrap();
        app.eval("pack append . .s {top}").unwrap();
        app.update();
        let rec = app.window(".s").unwrap();
        // Click in the middle: value near 50.
        env.display().move_pointer(
            rec.x.get() + rec.width.get() as i32 / 2,
            rec.y.get() + rec.height.get() as i32 - 5,
        );
        env.display().click(1);
        env.dispatch_all();
        let v: i64 = app.eval(".s get").unwrap().parse().unwrap();
        assert!((40..=60).contains(&v), "value {v}");
    }

    #[test]
    fn command_not_rerun_for_same_value() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set count 0").unwrap();
        app.eval("proc note {v} {global count; incr count}")
            .unwrap();
        app.eval("scale .s -command note").unwrap();
        app.eval(".s set 5; .s set 5; .s set 5").unwrap();
        assert_eq!(app.eval("set count").unwrap(), "1");
    }
}
