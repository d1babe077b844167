//! The `frame` and `toplevel` widgets: plain containers with a background
//! and an optional 3-D border.

use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::Event;

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::draw::draw_3d_rect;
use crate::widget::{bad_subcommand, create_widget, handle_configure, WidgetOps};

static FRAME_SPECS: &[OptSpec] = &[
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
    opt("-geometry", "geometry", "Geometry", "", OptKind::Str),
    opt("-relief", "relief", "Relief", "flat", OptKind::Relief),
];

/// A frame (or toplevel) widget.
pub struct Frame {
    class: &'static str,
    config: ConfigStore,
}

/// Registers the `frame` and `toplevel` creation commands.
pub fn register(app: &TkApp) {
    app.register_command("frame", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Frame {
                class: "Frame",
                config: ConfigStore::new(FRAME_SPECS),
            }),
        )
    });
    app.register_command("toplevel", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Frame {
                class: "Toplevel",
                config: ConfigStore::new(FRAME_SPECS),
            }),
        )
    });
}

impl WidgetOps for Frame {
    fn class(&self) -> &'static str {
        self.class
    }

    fn config(&self) -> &ConfigStore {
        &self.config
    }

    fn command(&self, app: &TkApp, path: &str, argv: &[String]) -> TclResult {
        if let Some(r) = handle_configure(app, self, path, argv) {
            return r;
        }
        match argv.get(1).map(String::as_str) {
            Some(sub) => Err(bad_subcommand(path, sub, "configure")),
            None => Err(Exception::error(format!(
                "wrong # args: should be \"{path} option ?arg ...?\""
            ))),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        if self.class == "Toplevel" {
            // Toplevels are X children of the root regardless of their Tk
            // parent, and map immediately (there is no window manager to
            // negotiate with in the simulation).
            app.conn()
                .reparent_window(rec.xid, app.conn().root(), rec.x.get(), rec.y.get());
            app.conn().map_window(rec.xid);
        }
        let bg = self.config.get("-background");
        let pixel = app.cache().color(app.conn(), &bg)?;
        app.conn().set_window_background(rec.xid, pixel);
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        rec.internal_border.set(bw);
        let cursor = self.config.get("-cursor");
        if !cursor.is_empty() {
            let c = app.cache().cursor(app.conn(), &cursor)?;
            app.conn().define_cursor(rec.xid, c);
        }
        // An explicit -geometry fixes the requested size; otherwise the
        // geometry managers of the children drive it.
        let geometry = self.config.get("-geometry");
        if !geometry.is_empty() {
            let (w, h) = crate::draw::parse_geometry(&geometry)?;
            app.geometry_request(path, w, h);
        }
        app.conn().clear_area(rec.xid, 0, 0, 0, 0);
        app.schedule_redraw(path);
        Ok(())
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        if matches!(ev, Event::Expose { .. }) {
            app.expose_damage(path, ev);
        }
    }

    fn redraw(&self, app: &TkApp, path: &str) {
        let Some(rec) = app.window(path) else { return };
        let bw = rec.internal_border.get();
        if bw == 0 {
            return;
        }
        let Ok(border) = app
            .cache()
            .border(app.conn(), &self.config.get("-background"))
        else {
            return;
        };
        draw_3d_rect(
            app.conn(),
            app.cache(),
            rec.xid,
            border,
            0,
            0,
            rec.width.get(),
            rec.height.get(),
            bw,
            self.config.get_relief("-relief"),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    #[test]
    fn frame_creation_returns_path() {
        let env = TkEnv::new();
        let app = env.app("t");
        assert_eq!(app.eval("frame .f").unwrap(), ".f");
        let rec = app.window(".f").unwrap();
        assert_eq!(rec.class, "Frame");
    }

    #[test]
    fn frame_creation_with_options() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .f -background red -borderwidth 2 -relief raised -geometry 120x80")
            .unwrap();
        app.update();
        let rec = app.window(".f").unwrap();
        assert_eq!(rec.internal_border.get(), 2);
        assert_eq!(rec.req_width.get(), 120);
        assert_eq!(rec.req_height.get(), 80);
    }

    #[test]
    fn bad_option_destroys_half_made_widget() {
        let env = TkEnv::new();
        let app = env.app("t");
        assert!(app.eval("frame .f -background nocolor").is_err());
        assert!(app.window(".f").is_none());
        // The name can be reused afterwards.
        app.eval("frame .f").unwrap();
    }

    #[test]
    fn widget_command_configure_queries() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .f -bg blue").unwrap();
        let one = app.eval(".f configure -background").unwrap();
        assert!(one.contains("blue"), "{one}");
        let all = app.eval(".f configure").unwrap();
        assert!(all.contains("-borderwidth"));
        app.eval(".f configure -bg red").unwrap();
        assert!(app
            .eval(".f configure -background")
            .unwrap()
            .contains("red"));
    }

    #[test]
    fn toplevel_class() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("toplevel .top").unwrap();
        assert_eq!(app.window(".top").unwrap().class, "Toplevel");
        assert!(app.is_toplevel(".top"));
    }

    /// Pixel counts of huge surfaces neither overflow nor allocate: the
    /// frame and the toplevel it stretches are filled with their
    /// background but never drawn on, so neither holds a buffer.
    #[test]
    fn huge_frame_holds_no_pixels() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .f -geometry 70000x70000; pack append . .f {top}; update")
            .unwrap();
        assert_eq!(app.eval("winfo width .f").unwrap(), "70000");
        assert_eq!(env.display().with_server(|s| s.surface_pixels()), 0);
    }

    #[test]
    fn unknown_subcommand_reports_error() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .f").unwrap();
        let e = app.eval(".f frobnicate").unwrap_err();
        assert!(e.msg.contains("bad option"));
    }
}
