//! The message widget: a multi-line read-only text block that wraps its
//! `-text` to honor an aspect ratio or a fixed width.

use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues};

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::widget::{bad_subcommand, create_widget, handle_configure, WidgetOps};

static SPECS: &[OptSpec] = &[
    opt("-aspect", "aspect", "Aspect", "150", OptKind::Int),
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
    opt("-font", "font", "Font", "fixed", OptKind::Font),
    opt(
        "-foreground",
        "foreground",
        "Foreground",
        "black",
        OptKind::Color,
    ),
    synonym("-fg", "-foreground"),
    opt("-justify", "justify", "Justify", "left", OptKind::Str),
    opt("-padx", "padX", "Pad", "2", OptKind::Pixels),
    opt("-pady", "padY", "Pad", "2", OptKind::Pixels),
    opt("-text", "text", "Text", "", OptKind::Str),
    opt("-width", "width", "Width", "0", OptKind::Pixels),
];

/// The message widget.
pub struct Message {
    config: ConfigStore,
}

/// Registers the `message` creation command.
pub fn register(app: &TkApp) {
    app.register_command("message", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Message {
                config: ConfigStore::new(SPECS),
            }),
        )
    });
}

/// Word-wraps `text` to at most `max_chars` per line (existing newlines
/// are respected; long words overflow on their own line).
pub fn wrap_text(text: &str, max_chars: usize) -> Vec<String> {
    let max_chars = max_chars.max(1);
    let mut lines = Vec::new();
    for para in text.split('\n') {
        let mut line = String::new();
        for word in para.split_whitespace() {
            if line.is_empty() {
                line = word.to_string();
            } else if line.chars().count() + 1 + word.chars().count() <= max_chars {
                line.push(' ');
                line.push_str(word);
            } else {
                lines.push(std::mem::take(&mut line));
                line = word.to_string();
            }
        }
        lines.push(line);
    }
    lines
}

impl Message {
    /// Chooses the wrap width (chars): explicit `-width` wins; otherwise
    /// the smallest width whose rendered aspect (100*w/h) exceeds
    /// `-aspect`, as in Tk.
    fn layout(&self, app: &TkApp) -> (Vec<String>, usize) {
        let Ok((_, m)) = app.cache().font(app.conn(), &self.config.get("-font")) else {
            return (Vec::new(), 1);
        };
        let text = self.config.get("-text");
        let width_px = self.config.get_pixels("-width");
        if width_px > 0 {
            let chars = (width_px as u32 / m.char_width).max(1) as usize;
            return (wrap_text(&text, chars), chars);
        }
        let aspect = self.config.get_int("-aspect").max(1);
        let total = text.chars().count().max(1);
        let mut chars = 10usize;
        loop {
            let lines = wrap_text(&text, chars);
            let w = m.char_width as i64 * chars as i64;
            let h = m.line_height() as i64 * lines.len().max(1) as i64;
            if 100 * w / h >= aspect || chars > total {
                return (lines, chars);
            }
            chars += 5;
        }
    }
}

impl WidgetOps for Message {
    fn class(&self) -> &'static str {
        "Message"
    }

    fn config(&self) -> &ConfigStore {
        &self.config
    }

    fn command(&self, app: &TkApp, path: &str, argv: &[String]) -> TclResult {
        if let Some(r) = handle_configure(app, self, path, argv) {
            return r;
        }
        match argv.get(1) {
            Some(sub) => Err(bad_subcommand(path, sub, "configure")),
            None => Err(Exception::error(format!(
                "wrong # args: should be \"{path} option ?arg ...?\""
            ))),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        let bg = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, bg);
        let (_, m) = app.cache().font(app.conn(), &self.config.get("-font"))?;
        let (lines, chars) = self.layout(app);
        let padx = self.config.get_pixels("-padx").max(0);
        let pady = self.config.get_pixels("-pady").max(0);
        let w = m.char_width as i64 * chars as i64 + 2 * padx;
        let h = m.line_height() as i64 * lines.len().max(1) as i64 + 2 * pady;
        app.geometry_request(path, w.max(1) as u32, h.max(1) as u32);
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
        let conn = app.conn();
        let cache = app.cache();
        let Ok(fg) = cache.color(conn, &self.config.get("-foreground")) else {
            return;
        };
        let Ok((font, m)) = cache.font(conn, &self.config.get("-font")) else {
            return;
        };
        conn.clear_area(rec.xid, 0, 0, 0, 0);
        let gc = cache.gc(
            conn,
            GcValues {
                foreground: fg,
                font,
                ..Default::default()
            },
        );
        let padx = self.config.get_pixels("-padx").max(0) as i32;
        let pady = self.config.get_pixels("-pady").max(0) as i32;
        let (lines, _) = self.layout(app);
        for (n, line) in lines.iter().enumerate() {
            conn.draw_string(
                rec.xid,
                gc,
                padx,
                pady + n as i32 * m.line_height() as i32 + m.ascent as i32,
                line,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wrap_text;
    use crate::app::TkEnv;

    #[test]
    fn wrap_respects_width_and_newlines() {
        assert_eq!(wrap_text("a b c d", 3), vec!["a b", "c d"]);
        assert_eq!(wrap_text("ab\ncd", 10), vec!["ab", "cd"]);
        assert_eq!(wrap_text("longword", 3), vec!["longword"]);
        assert_eq!(wrap_text("", 5), vec![""]);
    }

    #[test]
    fn message_wraps_to_fixed_width() {
        let env = TkEnv::new();
        let app = env.app("t");
        // fixed font: 6px chars; width 60px = 10 chars.
        app.eval("message .m -width 60 -text {one two three four five}")
            .unwrap();
        let rec = app.window(".m").unwrap();
        // 3 lines of 13px + pady: "one two", "three four", "five".
        assert!(rec.req_height.get() >= 3 * 13, "{}", rec.req_height.get());
    }

    #[test]
    fn message_aspect_grows_width() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("message .m -aspect 400 -text {a b c d e f g h i j k l m n o p}")
            .unwrap();
        let rec = app.window(".m").unwrap();
        let (w, h) = (rec.req_width.get() as i64, rec.req_height.get() as i64);
        assert!(100 * w / h >= 300, "aspect {}", 100 * w / h);
    }

    #[test]
    fn message_rejects_subcommands() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("message .m -text hi").unwrap();
        assert!(app.eval(".m invoke").is_err());
    }
}
