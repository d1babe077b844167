//! The scrollbar widget.
//!
//! A scrollbar displays arrows and a slider reflecting the view of an
//! associated widget. It is connected to that widget purely through Tcl:
//! the associated widget's `-scroll` command calls `.scroll set total
//! window first last`, and user clicks make the scrollbar evaluate its own
//! `-command` with a unit index appended (producing e.g. `.list view 40`,
//! the Section 4 example).

use std::cell::Cell;
use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues, Rect};

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
    opt(
        "-foreground",
        "foreground",
        "Foreground",
        "black",
        OptKind::Color,
    ),
    synonym("-fg", "-foreground"),
    opt("-orient", "orient", "Orient", "vertical", OptKind::Orient),
    opt("-relief", "relief", "Relief", "sunken", OptKind::Relief),
    opt("-width", "width", "Width", "15", OptKind::Pixels),
];

/// The scrollbar's view state, as told to it by `set`.
#[derive(Debug, Clone, Copy, Default)]
struct View {
    total: i64,
    window: i64,
    first: i64,
    last: i64,
}

/// The scrollbar widget.
pub struct Scrollbar {
    config: ConfigStore,
    view: Cell<View>,
    dragging: Cell<bool>,
}

/// Registers the `scrollbar` creation command.
pub fn register(app: &TkApp) {
    app.register_command("scrollbar", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Scrollbar {
                config: ConfigStore::new(SPECS),
                view: Cell::new(View::default()),
                dragging: Cell::new(false),
            }),
        )
    });
}

impl Scrollbar {
    fn vertical(&self) -> bool {
        self.config.get("-orient") != "horizontal"
    }

    /// Arrow-box length (same as the bar thickness, like Tk).
    fn arrow_len(&self, app: &TkApp, path: &str) -> i64 {
        let Some(rec) = app.window(path) else {
            return 15;
        };
        if self.vertical() {
            rec.width.get() as i64
        } else {
            rec.height.get() as i64
        }
    }

    /// Length of the bar along its long axis.
    fn length(&self, app: &TkApp, path: &str) -> i64 {
        let Some(rec) = app.window(path) else {
            return 1;
        };
        if self.vertical() {
            rec.height.get() as i64
        } else {
            rec.width.get() as i64
        }
    }

    /// Pixel span of the slider: `(start, end)` within the trough.
    fn slider_span(&self, app: &TkApp, path: &str) -> (i64, i64) {
        let v = self.view.get();
        let arrow = self.arrow_len(app, path);
        let trough = (self.length(app, path) - 2 * arrow).max(1);
        if v.total <= 0 {
            return (arrow, arrow + trough);
        }
        let a = arrow + trough * v.first.max(0) / v.total;
        let b = arrow + trough * (v.last + 1).min(v.total) / v.total;
        (a, b.max(a + 4))
    }

    /// Damages the trough between the two arrow boxes — the only region
    /// a `set` can change, since the arrows and outer border are static.
    /// Full window width/thickness so the border columns repaint too
    /// (the slider overdraws part of the sunken border).
    fn damage_trough(&self, app: &TkApp, path: &str) {
        let Some(rec) = app.window(path) else {
            return app.schedule_redraw(path);
        };
        let arrow = self.arrow_len(app, path);
        let trough = self.length(app, path) - 2 * arrow;
        if trough <= 0 {
            return app.schedule_redraw(path);
        }
        let r = if self.vertical() {
            Rect::new(0, arrow as i32, rec.width.get(), trough as u32)
        } else {
            Rect::new(arrow as i32, 0, trough as u32, rec.height.get())
        };
        app.schedule_redraw_damage(path, r);
    }

    /// Evaluates `-command unit`.
    fn scroll_to(&self, app: &TkApp, unit: i64) {
        let cmd = self.config.get("-command");
        if cmd.is_empty() {
            return;
        }
        let v = self.view.get();
        let unit = unit.clamp(0, (v.total - 1).max(0));
        app.eval_background(&format!("{cmd} {unit}"));
    }

    /// Handles a press/drag at position `p` along the long axis.
    fn hit(&self, app: &TkApp, path: &str, p: i64, drag: bool) {
        let v = self.view.get();
        let arrow = self.arrow_len(app, path);
        let len = self.length(app, path);
        let (s0, s1) = self.slider_span(app, path);
        if drag || (p >= s0 && p < s1) {
            // Slider drag: map position to a unit.
            let trough = (len - 2 * arrow).max(1);
            let unit = (p - arrow).clamp(0, trough) * v.total / trough;
            self.dragging.set(true);
            self.scroll_to(app, unit);
        } else if p < arrow {
            self.scroll_to(app, v.first - 1); // up/left arrow: one unit
        } else if p >= len - arrow {
            self.scroll_to(app, v.first + 1); // down/right arrow
        } else if p < s0 {
            self.scroll_to(app, v.first - v.window); // page up
        } else {
            self.scroll_to(app, v.first + v.window); // page down
        }
    }
}

impl WidgetOps for Scrollbar {
    fn class(&self) -> &'static str {
        "Scrollbar"
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
            "set" => {
                if argv.len() != 6 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} set totalUnits windowUnits firstUnit lastUnit\""
                    )));
                }
                let nums: Result<Vec<i64>, _> =
                    argv[2..6].iter().map(|s| s.trim().parse::<i64>()).collect();
                let nums =
                    nums.map_err(|_| Exception::error("expected integer in scrollbar set"))?;
                self.view.set(View {
                    total: nums[0],
                    window: nums[1],
                    first: nums[2],
                    last: nums[3],
                });
                self.damage_trough(app, path);
                Ok(String::new())
            }
            "get" => {
                let v = self.view.get();
                Ok(format!("{} {} {} {}", v.total, v.window, v.first, v.last))
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
        let width = self.config.get_pixels("-width").max(8) as u32;
        if self.vertical() {
            app.geometry_request(path, width, width * 6);
        } else {
            app.geometry_request(path, width * 6, width);
        }
        app.schedule_redraw(path);
        Ok(())
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        match ev {
            Event::Expose { .. } => app.expose_damage(path, ev),
            Event::ButtonPress {
                button: 1, x, y, ..
            } => {
                let p = if self.vertical() { *y } else { *x } as i64;
                self.hit(app, path, p, false);
            }
            Event::ButtonRelease { button: 1, .. } => {
                self.dragging.set(false);
            }
            Event::MotionNotify { state, x, y, .. }
                if state & xsim::event::state::BUTTON1 != 0 && self.dragging.get() =>
            {
                let p = if self.vertical() { *y } else { *x } as i64;
                self.hit(app, path, p, true);
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
        let (w, h) = (rec.width.get(), rec.height.get());
        conn.clear_area(rec.xid, 0, 0, 0, 0);
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        draw_3d_rect(conn, cache, rec.xid, border, 0, 0, w, h, bw, Relief::Sunken);
        let fg_gc = cache.gc(
            conn,
            GcValues {
                foreground: fg,
                ..Default::default()
            },
        );
        let arrow = self.arrow_len(app, path) as i32;
        // Arrow boxes (drawn as bevelled squares with a line glyph).
        if self.vertical() {
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                0,
                0,
                w,
                arrow as u32,
                1,
                Relief::Raised,
            );
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                0,
                h as i32 - arrow,
                w,
                arrow as u32,
                1,
                Relief::Raised,
            );
            conn.draw_line(rec.xid, fg_gc, w as i32 / 2, 3, w as i32 / 2, arrow - 3);
            conn.draw_line(
                rec.xid,
                fg_gc,
                w as i32 / 2,
                h as i32 - arrow + 3,
                w as i32 / 2,
                h as i32 - 3,
            );
            let (s0, s1) = self.slider_span(app, path);
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                1,
                s0 as i32,
                w.saturating_sub(2),
                (s1 - s0).max(1) as u32,
                2,
                Relief::Raised,
            );
        } else {
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                0,
                0,
                arrow as u32,
                h,
                1,
                Relief::Raised,
            );
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                w as i32 - arrow,
                0,
                arrow as u32,
                h,
                1,
                Relief::Raised,
            );
            let (s0, s1) = self.slider_span(app, path);
            draw_3d_rect(
                conn,
                cache,
                rec.xid,
                border,
                s0 as i32,
                1,
                (s1 - s0).max(1) as u32,
                h.saturating_sub(2),
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
    fn set_and_get() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("scrollbar .s").unwrap();
        app.eval(".s set 100 10 20 29").unwrap();
        assert_eq!(app.eval(".s get").unwrap(), "100 10 20 29");
    }

    #[test]
    fn section4_scrollbar_drives_listbox() {
        // "the command will be specified as '.list view' ... the scrollbar
        // adds an additional number to it, producing a command like
        // '.list view 40'".
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("scrollbar .scroll -command \".list view\"")
            .unwrap();
        app.eval("listbox .list -scroll \".scroll set\" -geometry 20x5")
            .unwrap();
        app.eval("pack append . .scroll {right filly} .list {left expand fill}")
            .unwrap();
        app.update();
        for i in 0..50 {
            app.eval(&format!(".list insert end item{i}")).unwrap();
        }
        app.update();
        // The listbox told the scrollbar about its view. The packer gave
        // the listbox the scrollbar's minimum height (6 * 15 = 90px), so
        // 6 lines are visible rather than the requested 5.
        assert_eq!(app.eval(".scroll get").unwrap(), "50 6 0 5");
        // Click the down arrow: the listbox scrolls by one unit.
        let rec = app.window(".scroll").unwrap();
        let d = env.display();
        d.move_pointer(
            rec.x.get() + rec.width.get() as i32 / 2,
            rec.y.get() + rec.height.get() as i32 - 3,
        );
        d.click(1);
        env.dispatch_all();
        assert_eq!(app.eval(".scroll get").unwrap(), "50 6 1 6");
        // Page down: click in the trough below the slider.
        d.move_pointer(
            rec.x.get() + rec.width.get() as i32 / 2,
            rec.y.get() + rec.height.get() as i32 * 3 / 4,
        );
        d.click(1);
        env.dispatch_all();
        assert_eq!(app.eval(".scroll get").unwrap(), "50 6 7 12");
    }

    #[test]
    fn arrow_up_at_top_clamps() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("proc view {i} {global got; set got $i}").unwrap();
        app.eval("scrollbar .s -command view").unwrap();
        app.eval("pack append . .s {left filly}").unwrap();
        app.update();
        app.eval(".s set 10 5 0 4").unwrap();
        let rec = app.window(".s").unwrap();
        env.display().move_pointer(rec.x.get() + 5, rec.y.get() + 3);
        env.display().click(1);
        env.dispatch_all();
        assert_eq!(app.eval("set got").unwrap(), "0");
    }

    #[test]
    fn redraws_when_squeezed_to_two_pixels_or_less() {
        // The slider is inset one pixel per side; a bar 0-2 px thick must
        // still redraw (the inset used to underflow in debug builds).
        let env = TkEnv::new();
        let app = env.app("t");
        for orient in ["vertical", "horizontal"] {
            app.eval(&format!(
                "scrollbar .s -orient {orient}; pack append . .s {{top}}"
            ))
            .unwrap();
            app.update();
            let rec = app.window(".s").unwrap();
            for thick in 0..=2 {
                let (w, h) = if orient == "vertical" {
                    (thick, 90)
                } else {
                    (90, thick)
                };
                rec.width.set(w);
                rec.height.set(h);
                app.schedule_redraw(".s");
                app.update();
            }
            app.eval("destroy .s").unwrap();
        }
    }

    #[test]
    fn one_scrollbar_can_drive_several_windows() {
        // Section 4: "a single scrollbar could be made to control several
        // windows" by giving it a Tcl procedure as its command.
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("listbox .l1 -geometry 10x3").unwrap();
        app.eval("listbox .l2 -geometry 10x3").unwrap();
        app.eval("proc both {i} {.l1 view $i; .l2 view $i}")
            .unwrap();
        app.eval("scrollbar .s -command both").unwrap();
        app.eval("pack append . .l1 {top} .l2 {top} .s {right filly}")
            .unwrap();
        app.update();
        for i in 0..10 {
            app.eval(&format!(".l1 insert end a{i}; .l2 insert end b{i}"))
                .unwrap();
        }
        app.update();
        app.eval(".s set 10 3 0 2").unwrap();
        // Click the down arrow.
        let rec = app.window(".s").unwrap();
        env.display().move_pointer(
            rec.x.get() + rec.width.get() as i32 / 2,
            rec.y.get() + rec.height.get() as i32 - 2,
        );
        env.display().click(1);
        env.dispatch_all();
        assert_eq!(app.eval(".l1 nearest 1").unwrap(), "1");
        assert_eq!(app.eval(".l2 nearest 1").unwrap(), "1");
    }
}
