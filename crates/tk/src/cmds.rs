//! The Tk intrinsics commands: `bind`, `destroy`, `winfo`, `focus`,
//! `option`, `after`, `update`, `wm`, and `tkwait`-style helpers.

use tcl::{wrong_args, Exception, TclResult};

use crate::app::TkApp;
use crate::optiondb::priority;

/// Registers all intrinsics commands on an application.
pub fn register_all(app: &TkApp) {
    app.register_command("bind", cmd_bind);
    app.register_command("destroy", cmd_destroy);
    app.register_command("winfo", cmd_winfo);
    app.register_command("focus", cmd_focus);
    app.register_command("option", cmd_option);
    app.register_command("after", cmd_after);
    app.register_command("update", cmd_update);
    app.register_command("wm", cmd_wm);
    crate::obs_cmd::register(app);
}

/// `bind window ?sequence? ?command?` (Figure 7). `window` may also be a
/// widget class name.
fn cmd_bind(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    match argv.len() {
        2 => Ok(tcl::format_list(
            &app.inner.bindings.borrow().sequences(&argv[1]),
        )),
        3 => Ok(app
            .inner
            .bindings
            .borrow()
            .get(&argv[1], &argv[2])
            .unwrap_or("")
            .to_string()),
        4 => {
            let owner = &argv[1];
            // Window owners must exist; class owners start upper-case.
            if owner.starts_with('.') {
                app.require_window(owner)?;
            }
            if argv[3].is_empty() {
                app.inner.bindings.borrow_mut().remove(owner, &argv[2]);
            } else {
                app.inner
                    .bindings
                    .borrow_mut()
                    .add(owner, &argv[2], &argv[3])?;
            }
            Ok(String::new())
        }
        _ => Err(wrong_args("bind window ?sequence? ?command?")),
    }
}

/// `destroy window ?window ...?`.
fn cmd_destroy(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    for path in &argv[1..] {
        if app.window(path).is_some() {
            app.destroy_window(path)?;
        }
    }
    Ok(String::new())
}

/// `winfo option window` — window information, answered from the
/// structure cache without server round trips (Section 3.3).
fn cmd_winfo(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("winfo option ?window?"));
    }
    match argv[1].as_str() {
        "interps" => return Ok(tcl::format_list(&crate::send::interps(app))),
        "screenwidth" => return Ok(xsim::SCREEN_WIDTH.to_string()),
        "screenheight" => return Ok(xsim::SCREEN_HEIGHT.to_string()),
        "exists" => {
            let path = argv
                .get(2)
                .ok_or_else(|| wrong_args("winfo exists window"))?;
            return Ok(if app.window(path).is_some() { "1" } else { "0" }.into());
        }
        _ => {}
    }
    let path = argv
        .get(2)
        .ok_or_else(|| wrong_args("winfo option window"))?;
    let rec = app.require_window(path)?;
    match argv[1].as_str() {
        "class" => Ok(rec.class.to_string()),
        "name" => Ok(if path == "." {
            app.name()
        } else {
            rec.name().to_string()
        }),
        "parent" => Ok(crate::window::parent_path(path).unwrap_or("").to_string()),
        "children" => {
            let prefix = if path == "." {
                ".".to_string()
            } else {
                format!("{path}.")
            };
            let mut kids: Vec<String> = app
                .window_paths()
                .into_iter()
                .filter(|p| {
                    p.starts_with(&prefix)
                        && p.len() > prefix.len()
                        && !p[prefix.len()..].contains('.')
                })
                .collect();
            kids.sort();
            Ok(tcl::format_list(&kids))
        }
        "x" => Ok(rec.x.get().to_string()),
        "y" => Ok(rec.y.get().to_string()),
        "width" => Ok(rec.width.get().to_string()),
        "height" => Ok(rec.height.get().to_string()),
        "reqwidth" => Ok(rec.req_width.get().to_string()),
        "reqheight" => Ok(rec.req_height.get().to_string()),
        "ismapped" => Ok(if rec.mapped.get() { "1" } else { "0" }.into()),
        "id" => Ok(rec.xid.0.to_string()),
        "geometry" => Ok(format!(
            "{}x{}+{}+{}",
            rec.width.get(),
            rec.height.get(),
            rec.x.get(),
            rec.y.get()
        )),
        "rootx" | "rooty" => {
            // Walk the cached structure up to the root.
            let mut v = 0i64;
            let mut cur = path.clone();
            loop {
                let r = app.require_window(&cur)?;
                v += if argv[1] == "rootx" {
                    r.x.get() as i64
                } else {
                    r.y.get() as i64
                };
                match crate::window::parent_path(&cur) {
                    Some(p) => cur = p.to_string(),
                    None => break,
                }
            }
            Ok(v.to_string())
        }
        "toplevel" => {
            let mut cur = path.clone();
            while !app.is_toplevel(&cur) {
                match crate::window::parent_path(&cur) {
                    Some(p) => cur = p.to_string(),
                    None => break,
                }
            }
            Ok(cur)
        }
        "manager" => Ok(rec.manager.borrow().clone()),
        other => Err(Exception::error(format!(
            "bad option \"{other}\": must be children, class, exists, geometry, \
             height, id, interps, ismapped, manager, name, parent, reqheight, \
             reqwidth, rootx, rooty, screenheight, screenwidth, toplevel, \
             width, x, or y"
        ))),
    }
}

/// `focus ?window?` (Section 3.7).
fn cmd_focus(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    match argv.len() {
        1 => {
            let xid = app.conn().get_input_focus().map_err(crate::cache::xerr)?;
            Ok(app.path_of(xid).unwrap_or_default())
        }
        2 => {
            if argv[1] == "none" {
                app.conn().set_input_focus(xsim::Xid::NONE);
                return Ok(String::new());
            }
            let rec = app.require_window(&argv[1])?;
            app.conn().set_input_focus(rec.xid);
            Ok(String::new())
        }
        _ => Err(wrong_args("focus ?window?")),
    }
}

/// `option add pattern value ?priority?`, `option get window name class`,
/// `option clear`, `option readfile fileName ?priority?` (Section 3.5).
fn cmd_option(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("option cmd arg ?arg ...?"));
    }
    let parse_priority = |s: Option<&String>| -> Result<u32, Exception> {
        match s.map(String::as_str) {
            None => Ok(priority::INTERACTIVE),
            Some("widgetDefault") => Ok(priority::WIDGET_DEFAULT),
            Some("startupFile") => Ok(priority::STARTUP_FILE),
            Some("userDefault") => Ok(priority::USER_DEFAULT),
            Some("interactive") => Ok(priority::INTERACTIVE),
            Some(n) => n
                .parse()
                .map_err(|_| Exception::error(format!("bad priority level \"{n}\""))),
        }
    };
    match argv[1].as_str() {
        "add" => {
            if argv.len() != 4 && argv.len() != 5 {
                return Err(wrong_args("option add pattern value ?priority?"));
            }
            let prio = parse_priority(argv.get(4))?;
            app.inner.options.borrow_mut().add(&argv[2], &argv[3], prio);
            Ok(String::new())
        }
        "get" => {
            if argv.len() != 5 {
                return Err(wrong_args("option get window name class"));
            }
            app.require_window(&argv[2])?;
            Ok(app
                .option_get(&argv[2], &argv[3], &argv[4])
                .unwrap_or_default())
        }
        "clear" => {
            app.inner.options.borrow_mut().clear();
            Ok(String::new())
        }
        "readfile" => {
            if argv.len() != 3 && argv.len() != 4 {
                return Err(wrong_args("option readfile fileName ?priority?"));
            }
            let prio = parse_priority(argv.get(3))?;
            let text = std::fs::read_to_string(&argv[2]).map_err(|e| {
                Exception::error(format!("couldn't read file \"{}\": {e}", argv[2]))
            })?;
            app.inner.options.borrow_mut().load_defaults(&text, prio);
            Ok(String::new())
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be add, clear, get, or readfile"
        ))),
    }
}

/// `after ms ?script?`: with a script, schedules it; without, advances the
/// virtual clock (the simulation's stand-in for blocking). `after idle
/// script` and `after cancel id` are also supported.
fn cmd_after(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("after ms ?script?"));
    }
    match argv[1].as_str() {
        "idle" => {
            if argv.len() < 3 {
                return Err(wrong_args("after idle script"));
            }
            app.schedule_idle_script(&argv[2..].join(" "));
            Ok(String::new())
        }
        "cancel" => {
            if argv.len() != 3 {
                return Err(wrong_args("after cancel id"));
            }
            if let Ok(id) = argv[2].trim_start_matches("after#").parse::<u64>() {
                app.cancel_after(id);
            }
            Ok(String::new())
        }
        ms => {
            let ms: u64 = ms.parse().map_err(|_| {
                Exception::error(format!("expected integer but got \"{}\"", argv[1]))
            })?;
            if argv.len() == 2 {
                app.env().advance(ms);
                Ok(String::new())
            } else {
                let id = app.schedule_after(ms, &argv[2..].join(" "));
                Ok(format!("after#{id}"))
            }
        }
    }
}

/// `update ?idletasks?`: processes pending events and idle callbacks.
fn cmd_update(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    match argv.get(1).map(String::as_str) {
        None => {
            app.update();
            Ok(String::new())
        }
        Some("idletasks") => {
            app.run_idle_tasks();
            Ok(String::new())
        }
        Some(other) => Err(Exception::error(format!(
            "bad argument \"{other}\": must be idletasks"
        ))),
    }
}

/// A minimal `wm`: title, geometry, withdraw, deiconify. There is no real
/// window manager in the simulation; requests are granted immediately.
fn cmd_wm(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(wrong_args("wm option window ?arg ...?"));
    }
    let rec = app.require_window(&argv[2])?;
    if !app.is_toplevel(&argv[2]) {
        return Err(Exception::error(format!(
            "window \"{}\" isn't a top-level window",
            argv[2]
        )));
    }
    match argv[1].as_str() {
        "title" => {
            if let Some(title) = argv.get(3) {
                let atom = app
                    .conn()
                    .intern_atom("WM_NAME")
                    .map_err(crate::cache::xerr)?;
                app.conn().change_property(rec.xid, atom, title);
                Ok(String::new())
            } else {
                let atom = app
                    .conn()
                    .intern_atom("WM_NAME")
                    .map_err(crate::cache::xerr)?;
                Ok(app
                    .conn()
                    .get_property(rec.xid, atom)
                    .map_err(crate::cache::xerr)?
                    .unwrap_or_default())
            }
        }
        "geometry" => {
            if let Some(spec) = argv.get(3) {
                // WxH, WxH+X+Y, or +X+Y alone.
                let (size, pos) = match spec.find(['+', '-']) {
                    Some(i) => (&spec[..i], Some(&spec[i..])),
                    None => (spec.as_str(), None),
                };
                let (w, h) = if size.is_empty() {
                    (rec.width.get(), rec.height.get())
                } else {
                    crate::draw::parse_geometry(size)?
                };
                let (mut x, mut y) = (None, None);
                if let Some(pos) = pos {
                    // Simple +X+Y parser (the common form).
                    let parts: Vec<&str> = pos[1..].split('+').collect();
                    if parts.len() == 2 {
                        x = parts[0].parse().ok();
                        y = parts[1].parse().ok();
                    }
                }
                app.conn()
                    .configure_window(rec.xid, x, y, Some(w), Some(h), None);
                Ok(String::new())
            } else {
                Ok(format!(
                    "{}x{}+{}+{}",
                    rec.width.get(),
                    rec.height.get(),
                    rec.x.get(),
                    rec.y.get()
                ))
            }
        }
        "withdraw" => {
            app.conn().unmap_window(rec.xid);
            Ok(String::new())
        }
        "deiconify" => {
            app.conn().map_window(rec.xid);
            Ok(String::new())
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be deiconify, geometry, title, or withdraw"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    #[test]
    fn bind_set_get_list_remove() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .x").unwrap();
        app.eval("bind .x <Enter> {print hi}").unwrap();
        assert_eq!(app.eval("bind .x <Enter>").unwrap(), "print hi");
        assert_eq!(app.eval("bind .x").unwrap(), "<Enter>");
        app.eval("bind .x <Enter> {}").unwrap();
        assert_eq!(app.eval("bind .x <Enter>").unwrap(), "");
    }

    #[test]
    fn figure7_bindings_fire() {
        let env = TkEnv::new();
        let app = env.app("t");
        let buf = app.interp().capture_output();
        app.eval("frame .x -geometry 100x100").unwrap();
        app.eval("pack append . .x {top}").unwrap();
        app.update();
        app.eval(r#"bind .x <Enter> {print "hi\n"}"#).unwrap();
        app.eval(r#"bind .x a {print "you typed 'a'\n"}"#).unwrap();
        app.eval(r#"bind .x <Escape>q {print "you typed escape-q\n"}"#)
            .unwrap();
        app.eval(r#"bind .x <Double-Button-1> {print "mouse at %x %y\n"}"#)
            .unwrap();
        let d = env.display();
        // Start outside the window so moving in generates an Enter.
        d.move_pointer(500, 500);
        env.dispatch_all();
        d.move_pointer(50, 50);
        env.dispatch_all();
        d.type_char('a');
        env.dispatch_all();
        d.press_key("Escape");
        d.type_char('q');
        env.dispatch_all();
        d.click(1);
        d.click(1);
        env.dispatch_all();
        let out = buf.borrow().clone();
        assert!(out.contains("hi\n"), "{out}");
        assert!(out.contains("you typed 'a'"), "{out}");
        assert!(out.contains("you typed escape-q"), "{out}");
        assert!(out.contains("mouse at 50 50"), "{out}");
    }

    #[test]
    fn destroy_command_removes_widget_command() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -text x").unwrap();
        app.eval(".b configure -text y").unwrap();
        app.eval("destroy .b").unwrap();
        assert!(app.eval(".b configure -text z").is_err());
        assert_eq!(app.eval("winfo exists .b").unwrap(), "0");
        // Destroying again is fine (already gone).
        app.eval("destroy .b").unwrap();
    }

    #[test]
    fn winfo_basics() {
        let env = TkEnv::new();
        let app = env.app("myapp");
        app.eval("frame .f -geometry 50x40").unwrap();
        app.eval("pack append . .f {top}").unwrap();
        app.update();
        assert_eq!(app.eval("winfo class .f").unwrap(), "Frame");
        assert_eq!(app.eval("winfo name .f").unwrap(), "f");
        assert_eq!(app.eval("winfo name .").unwrap(), "myapp");
        assert_eq!(app.eval("winfo parent .f").unwrap(), ".");
        assert_eq!(app.eval("winfo width .f").unwrap(), "50");
        assert_eq!(app.eval("winfo ismapped .f").unwrap(), "1");
        assert_eq!(app.eval("winfo exists .nope").unwrap(), "0");
        assert!(app.eval("winfo width .nope").is_err());
    }

    #[test]
    fn winfo_children() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .a; frame .b; frame .a.c").unwrap();
        assert_eq!(app.eval("winfo children .").unwrap(), ".a .b");
        assert_eq!(app.eval("winfo children .a").unwrap(), ".a.c");
    }

    #[test]
    fn winfo_reads_from_structure_cache() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .f -geometry 30x30").unwrap();
        app.eval("pack append . .f {top}").unwrap();
        app.update();
        let before = app.conn().stats().round_trips;
        app.eval("winfo width .f").unwrap();
        app.eval("winfo x .f").unwrap();
        app.eval("winfo ismapped .f").unwrap();
        assert_eq!(
            app.conn().stats().round_trips,
            before,
            "winfo must not touch the server"
        );
    }

    #[test]
    fn focus_assignment() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("frame .f").unwrap();
        assert_eq!(app.eval("focus").unwrap(), "");
        app.eval("focus .f").unwrap();
        assert_eq!(app.eval("focus").unwrap(), ".f");
        app.eval("focus none").unwrap();
        assert_eq!(app.eval("focus").unwrap(), "");
    }

    #[test]
    fn option_command() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("option add *Button.background red").unwrap();
        app.eval("button .b").unwrap();
        assert_eq!(
            app.eval("option get .b background Background").unwrap(),
            "red"
        );
        // New widgets pick the option up as their default.
        let info = app.eval(".b configure -background").unwrap();
        assert!(info.ends_with("red"), "{info}");
        app.eval("option clear").unwrap();
        assert_eq!(app.eval("option get .b background Background").unwrap(), "");
    }

    #[test]
    fn after_schedules_and_cancels() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("set n 0").unwrap();
        let id = app.eval("after 100 {incr n}").unwrap();
        assert!(id.starts_with("after#"));
        app.eval("after 50").unwrap(); // advances the virtual clock
        assert_eq!(app.eval("set n").unwrap(), "0");
        app.eval("after 60").unwrap();
        assert_eq!(app.eval("set n").unwrap(), "1");
        let id2 = app.eval("after 10 {incr n}").unwrap();
        app.eval(&format!("after cancel {id2}")).unwrap();
        app.eval("after 20").unwrap();
        assert_eq!(app.eval("set n").unwrap(), "1");
    }

    #[test]
    fn wm_title_and_geometry() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("wm title . {My App}").unwrap();
        assert_eq!(app.eval("wm title .").unwrap(), "My App");
        app.eval("wm geometry . 300x200+10+20").unwrap();
        app.update();
        assert_eq!(app.eval("winfo width .").unwrap(), "300");
        assert_eq!(app.eval("winfo x .").unwrap(), "10");
        app.eval("frame .f").unwrap();
        assert!(app.eval("wm title .f x").is_err());
    }

    #[test]
    fn winfo_interps_lists_applications() {
        let env = TkEnv::new();
        let a = env.app("one");
        let _b = env.app("two");
        let interps = a.eval("winfo interps").unwrap();
        assert!(interps.contains("one"));
        assert!(interps.contains("two"));
    }
}
