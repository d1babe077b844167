//! `wish` — the windowing shell (Section 5).
//!
//! "I have built a simple windowing shell called wish, which consists of
//! Tcl, Tk, and a main program that reads Tcl commands from standard input
//! or from a file." Scripts start with `#!wish -f` (Figure 9); because the
//! display is simulated, `wish` also provides commands to drive input and
//! inspect the screen:
//!
//! * `screendump ?file?` — ASCII rendering of the screen (or PPM to file);
//! * `pointer x y`, `click ?button?`, `type string`, `key name` — input;
//! * `mainloop` — process events until every window is destroyed.
//!
//! Usage: `wish [-f script] [-name appname] [--stats] [--wire|--no-wire]
//! [command...]`
//!
//! With `--stats`, wish prints the full observability dump
//! (`obs dump -format json`) to standard error at exit, followed by a
//! human-readable per-stage breakdown of the causal span tracer (span
//! count, wall time, and virtual time per pipeline stage).
//!
//! The display speaks the framed wire transport by default (a server
//! thread owns the semantics; see docs/PROTOCOL.md). `--no-wire` — or
//! the `RTK_NO_WIRE=1` environment variable — selects the in-process
//! oracle transport instead; `--wire` forces the framed transport even
//! when the environment says otherwise. With `--stats`, the dump's
//! `wire` block reports the frames, bytes, and flushes that actually
//! crossed the transport (absent on the oracle path).

use std::io::{BufRead, IsTerminal, Write};

use tk::TkEnv;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut script_file: Option<String> = None;
    let mut name = "wish".to_string();
    let mut stats = false;
    let mut wire: Option<bool> = None;
    let mut script_args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-f" | "-file" => {
                i += 1;
                script_file = args.get(i).cloned();
            }
            "-name" => {
                i += 1;
                if let Some(n) = args.get(i) {
                    name = n.clone();
                }
            }
            "--stats" | "-stats" => {
                stats = true;
            }
            "--wire" | "-wire" => {
                wire = Some(true);
            }
            "--no-wire" | "-no-wire" => {
                wire = Some(false);
            }
            "-h" | "--help" => {
                println!(
                    "usage: wish [-f script] [-name appname] [--stats] \
                     [--wire|--no-wire] [arg ...]"
                );
                return;
            }
            other => {
                if script_file.is_none() && !other.starts_with('-') {
                    script_file = Some(other.to_string());
                } else {
                    script_args.push(other.to_string());
                }
            }
        }
        i += 1;
    }

    // The flags beat the environment: `--wire` forces the framed
    // transport under RTK_NO_WIRE=1, `--no-wire` forces the in-process
    // oracle. With neither, Display::new() reads RTK_NO_WIRE itself.
    let env = match wire {
        None => TkEnv::new(),
        Some(on) => {
            let display = xsim::Display::new();
            display.set_wire(on);
            TkEnv::with_display(display)
        }
    };
    let app = env.app(&name);
    install_shell_commands(&env, &app);

    // Expose argv/argc like wish does.
    let interp = app.interp();
    interp
        .set_var_at(0, "argv", None, &tcl::format_list(&script_args))
        .expect("set argv");
    interp
        .set_var_at(0, "argc", None, &script_args.len().to_string())
        .expect("set argc");

    if let Some(file) = script_file {
        let text = match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("wish: couldn't read \"{file}\": {e}");
                std::process::exit(1);
            }
        };
        match app.eval(&text) {
            Ok(_) => {}
            Err(e) => {
                if let Some(status) = app.interp().exit_requested() {
                    app.update();
                    print_stats(stats, &app);
                    std::process::exit(status);
                }
                eprintln!("wish: {}", e.error_info());
                print_stats(stats, &app);
                std::process::exit(1);
            }
        }
        app.update();
        print_stats(stats, &app);
        std::process::exit(app.interp().exit_requested().unwrap_or(0));
    }

    // Interactive: a read-eval-print loop over standard input.
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print_prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        buffer.push_str(&line);
        buffer.push('\n');
        // Incomplete commands (open braces) accumulate, like real wish.
        if !command_complete(&buffer) {
            print_prompt(&buffer);
            continue;
        }
        let script = std::mem::take(&mut buffer);
        match app.eval(&script) {
            Ok(result) => {
                if !result.is_empty() {
                    println!("{result}");
                }
            }
            Err(e) => {
                if app.interp().exit_requested().is_some() {
                    break;
                }
                println!("Error: {}", e.msg);
            }
        }
        app.update();
        if app.destroyed() {
            break;
        }
        print_prompt(&buffer);
    }
    print_stats(stats, &app);
    std::process::exit(app.interp().exit_requested().unwrap_or(0));
}

/// `--stats`: the exit-time observability dump, on standard error so it
/// never mixes with script output. The JSON dump is followed by the
/// per-stage span breakdown — where the run's wall and virtual time went,
/// stage by pipeline stage.
fn print_stats(enabled: bool, app: &tk::TkApp) {
    if !enabled {
        return;
    }
    eprintln!("{}", tk::obs_cmd::dump_json(app));
    let spans = app.tracer().snapshot();
    let totals = rtk_obs::span::stage_totals(&spans);
    if totals.is_empty() {
        return;
    }
    eprintln!("per-stage span breakdown ({} spans):", spans.len());
    eprintln!("  stage           count      wall_us virtual_ms");
    for s in totals {
        let (us, vms) = (s.total_ns / 1_000, s.total_vms);
        eprintln!("  {:<12} {:>8} {us:>12} {vms:>10}", s.kind, s.count);
    }
}

fn print_prompt(buffer: &str) {
    // Piped input (e.g. `echo '...' | wish`) gets no prompts, so script
    // output stays machine-readable.
    if !std::io::stdin().is_terminal() {
        return;
    }
    let prompt = if buffer.is_empty() { "% " } else { "> " };
    print!("{prompt}");
    let _ = std::io::stdout().flush();
}

/// Is the accumulated input a complete command (braces/brackets/quotes
/// balanced)? Uses the real parser: an unbalanced error means "keep going".
fn command_complete(script: &str) -> bool {
    let mut pos = 0;
    loop {
        match tcl::parser::parse_command(script, &mut pos) {
            Ok(Some(_)) => continue,
            Ok(None) => return true,
            Err(e) => {
                return !(e.msg.contains("missing close-brace")
                    || e.msg.contains("missing close-bracket")
                    || e.msg.contains("missing \""));
            }
        }
    }
}

/// Simulation-specific commands that stand in for the physical user.
fn install_shell_commands(env: &TkEnv, app: &tk::TkApp) {
    let e = env.clone();
    app.interp()
        .register("screendump", move |_i, argv| match argv.get(1) {
            Some(path) if path.ends_with(".ppm") => {
                let shot = e.display().screenshot();
                std::fs::write(path, shot.to_ppm())
                    .map_err(|err| tcl::Exception::error(format!("can't write {path}: {err}")))?;
                Ok(String::new())
            }
            Some(path) => {
                std::fs::write(path, e.display().ascii_dump())
                    .map_err(|err| tcl::Exception::error(format!("can't write {path}: {err}")))?;
                Ok(String::new())
            }
            None => Ok(e.display().ascii_dump()),
        });
    let e = env.clone();
    app.interp().register("pointer", move |_i, argv| {
        if argv.len() != 3 {
            return Err(tcl::wrong_args("pointer x y"));
        }
        let x: i32 = argv[1]
            .parse()
            .map_err(|_| tcl::Exception::error("expected integer"))?;
        let y: i32 = argv[2]
            .parse()
            .map_err(|_| tcl::Exception::error("expected integer"))?;
        e.display().move_pointer(x, y);
        e.dispatch_all();
        Ok(String::new())
    });
    let e = env.clone();
    app.interp().register("click", move |_i, argv| {
        let button: u8 = argv.get(1).map(|b| b.parse().unwrap_or(1)).unwrap_or(1);
        e.display().click(button);
        e.dispatch_all();
        Ok(String::new())
    });
    let e = env.clone();
    app.interp().register("type", move |_i, argv| {
        if argv.len() != 2 {
            return Err(tcl::wrong_args("type string"));
        }
        e.display().type_string(&argv[1]);
        e.dispatch_all();
        Ok(String::new())
    });
    let e = env.clone();
    app.interp().register("key", move |_i, argv| {
        if argv.len() != 2 {
            return Err(tcl::wrong_args("key name"));
        }
        e.display().press_key(&argv[1]);
        e.dispatch_all();
        Ok(String::new())
    });
    let e = env.clone();
    let a = app.clone();
    app.interp().register("mainloop", move |_i, _argv| {
        // With a simulated display there is no external event source;
        // drain whatever is pending, fire due timers, and return when the
        // application is destroyed or idle.
        for _ in 0..100_000 {
            e.dispatch_all();
            if a.destroyed() {
                break;
            }
            // Let time pass so `after` scripts run.
            e.advance(10);
            if !e.dispatch_all() {
                break;
            }
        }
        Ok(String::new())
    });
}
