//! Miscellaneous commands: `print`, `puts`, `expr`, `subst`, `time`,
//! `file`, `exec`, `glob`, `pwd`, and `cd`.

use std::path::Path;

use crate::commands::var::not_integer;
use crate::error::{arity, wrong_args, Exception, TclResult};
use crate::expr::{double_to_string, eval_expr_cached};
use crate::interp::Interp;
use crate::list::format_list;

pub fn register(interp: &Interp) {
    interp.register("print", cmd_print);
    interp.register("puts", cmd_puts);
    interp.register("expr", cmd_expr);
    interp.register("subst", cmd_subst);
    interp.register("time", cmd_time);
    interp.register("file", cmd_file);
    interp.register("exec", cmd_exec);
    interp.register("glob", cmd_glob);
    interp.register("pwd", |_i, argv| {
        arity(argv, 1..=1, "pwd")?;
        std::env::current_dir()
            .map(|p| p.display().to_string())
            .map_err(|e| Exception::error(format!("error getting working directory: {e}")))
    });
    interp.register("cd", |_i, argv| {
        arity(argv, ..=2, "cd ?dirName?")?;
        let dir = argv
            .get(1)
            .cloned()
            .or_else(|| std::env::var("HOME").ok())
            .unwrap_or_else(|| "/".to_string());
        std::env::set_current_dir(&dir).map_err(|e| {
            Exception::error(format!(
                "couldn't change working directory to \"{dir}\": {e}"
            ))
        })?;
        Ok(String::new())
    });
}

/// `print` (old Tcl): writes its arguments to standard output with no
/// trailing newline. The Figure 7/9 scripts pass explicit `\n`s.
fn cmd_print(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2.., "print string ?string ...?")?;
    for (n, arg) in argv[1..].iter().enumerate() {
        if n > 0 {
            interp.write_output(" ");
        }
        interp.write_output(arg);
    }
    Ok(String::new())
}

/// `puts ?-nonewline? string`: the modern spelling.
fn cmd_puts(interp: &Interp, argv: &[String]) -> TclResult {
    let (text, newline) = match argv.len() {
        2 => (&argv[1], true),
        3 if argv[1] == "-nonewline" => (&argv[2], false),
        3 if argv[1] == "stdout" => (&argv[2], true),
        4 if argv[1] == "-nonewline" && argv[2] == "stdout" => (&argv[3], false),
        _ => return Err(wrong_args("puts ?-nonewline? string")),
    };
    interp.write_output(text);
    if newline {
        interp.write_output("\n");
    }
    Ok(String::new())
}

fn cmd_expr(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2.., "expr arg ?arg ...?")?;
    if argv.len() == 2 {
        return Ok(eval_expr_cached(interp, &argv[1])?.to_result());
    }
    Ok(eval_expr_cached(interp, &argv[1..].join(" "))?.to_result())
}

fn cmd_subst(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2..=2, "subst string")?;
    interp.subst_string(&argv[1])
}

/// `time command ?count?`: runs the script `count` times and reports the
/// mean microseconds as tclsh 8.6 does: `0` for a count of 0 or less, the
/// whole number for one run, and a double for more.
fn cmd_time(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2..=3, "time command ?count?")?;
    let count: i64 = match argv.get(2) {
        Some(n) => n.parse().map_err(|_| not_integer(n))?,
        None => 1,
    };
    let start = std::time::Instant::now();
    for _ in 0..count {
        interp.eval(&argv[1])?;
    }
    let micros = start.elapsed().as_micros();
    let mean = match count {
        ..=0 => "0".into(),
        1 => micros.to_string(),
        _ => double_to_string(micros as f64 / count as f64),
    };
    Ok(mean + " microseconds per iteration")
}

/// The `file` command. Accepts both word orders — `file option name`
/// (Tcl 7+) and `file name option` (the order the paper's Figure 9 uses:
/// `file $file isdirectory`).
fn cmd_file(_i: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 3.., "file option name ?arg ...?")?;
    const OPTIONS: &[&str] = &[
        "atime",
        "dirname",
        "executable",
        "exists",
        "extension",
        "isdirectory",
        "isfile",
        "mtime",
        "owned",
        "readable",
        "rootname",
        "size",
        "tail",
        "type",
        "writable",
    ];
    let (opt, name) = if OPTIONS.contains(&argv[1].as_str()) {
        (argv[1].as_str(), argv[2].as_str())
    } else if OPTIONS.contains(&argv[2].as_str()) {
        (argv[2].as_str(), argv[1].as_str())
    } else {
        return Err(Exception::error(format!(
            "bad option \"{}\": must be one of {}",
            argv[1],
            OPTIONS.join(", ")
        )));
    };
    let path = Path::new(name);
    let yes_no = |b: bool| Ok(if b { "1" } else { "0" }.to_string());
    match opt {
        "exists" => yes_no(path.exists()),
        "isdirectory" => yes_no(path.is_dir()),
        "isfile" => yes_no(path.is_file()),
        "readable" => yes_no(std::fs::File::open(path).is_ok() || path.is_dir()),
        "writable" => yes_no(std::fs::OpenOptions::new().append(true).open(path).is_ok()),
        "executable" => {
            #[cfg(unix)]
            {
                use std::os::unix::fs::PermissionsExt;
                yes_no(
                    path.metadata()
                        .map(|m| m.permissions().mode() & 0o111 != 0)
                        .unwrap_or(false),
                )
            }
            #[cfg(not(unix))]
            yes_no(false)
        }
        "owned" => {
            #[cfg(unix)]
            {
                use std::os::unix::fs::MetadataExt;
                yes_no(
                    path.metadata()
                        .map(|m| {
                            // Zero-dependency geteuid comparison via /proc.
                            std::fs::metadata("/proc/self")
                                .map(|me| me.uid() == m.uid())
                                .unwrap_or(false)
                        })
                        .unwrap_or(false),
                )
            }
            #[cfg(not(unix))]
            yes_no(false)
        }
        "dirname" => Ok(match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.display().to_string(),
            _ => ".".to_string(),
        }),
        "tail" => Ok(path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| name.to_string())),
        "rootname" => {
            let s = name;
            match s.rfind('.') {
                Some(dot) if !s[dot..].contains('/') => Ok(s[..dot].to_string()),
                _ => Ok(s.to_string()),
            }
        }
        "extension" => {
            let s = name;
            match s.rfind('.') {
                Some(dot) if !s[dot..].contains('/') => Ok(s[dot..].to_string()),
                _ => Ok(String::new()),
            }
        }
        "size" => path
            .metadata()
            .map(|m| m.len().to_string())
            .map_err(|e| Exception::error(format!("couldn't stat \"{name}\": {e}"))),
        "mtime" | "atime" => path
            .metadata()
            .and_then(|m| {
                if opt == "mtime" {
                    m.modified()
                } else {
                    m.accessed()
                }
            })
            .map(|t| {
                t.duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs().to_string())
                    .unwrap_or_else(|_| "0".into())
            })
            .map_err(|e| Exception::error(format!("couldn't stat \"{name}\": {e}"))),
        "type" => {
            if path.is_dir() {
                Ok("directory".into())
            } else if path.is_symlink() {
                Ok("link".into())
            } else if path.is_file() {
                Ok("file".into())
            } else {
                Err(Exception::error(format!("couldn't stat \"{name}\"")))
            }
        }
        _ => unreachable!("option validated above"),
    }
}

fn cmd_exec(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2.., "exec command ?arg ...?")?;
    interp.run_exec(&argv[1..]).map_err(Exception::error)
}

/// `glob ?-nocomplain? pattern ...`: file name globbing in the current
/// directory tree (supports `*`, `?`, `[...]` within path components).
fn cmd_glob(_i: &Interp, argv: &[String]) -> TclResult {
    let mut nocomplain = false;
    let mut patterns: Vec<&String> = Vec::new();
    for a in &argv[1..] {
        if a == "-nocomplain" {
            nocomplain = true;
        } else {
            patterns.push(a);
        }
    }
    if patterns.is_empty() {
        return Err(wrong_args("glob ?-nocomplain? name ?name ...?"));
    }
    let mut out: Vec<String> = Vec::new();
    for pat in patterns {
        glob_pattern(pat, &mut out);
    }
    if out.is_empty() && !nocomplain {
        return Err(Exception::error("no files matched glob pattern(s)"));
    }
    out.sort();
    Ok(format_list(&out))
}

fn glob_pattern(pattern: &str, out: &mut Vec<String>) {
    let (root, rel) = if let Some(rest) = pattern.strip_prefix('/') {
        ("/".to_string(), rest.to_string())
    } else {
        (".".to_string(), pattern.to_string())
    };
    let comps: Vec<&str> = rel.split('/').filter(|c| !c.is_empty()).collect();
    fn walk(dir: &Path, comps: &[&str], display: &str, out: &mut Vec<String>) {
        let Some((head, rest)) = comps.split_first() else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') && !head.starts_with('.') {
                continue;
            }
            if crate::strutil::glob_match(head, &name) {
                let shown = if display.is_empty() || display == "." {
                    name.clone()
                } else if display == "/" {
                    format!("/{name}")
                } else {
                    format!("{display}/{name}")
                };
                if rest.is_empty() {
                    out.push(shown);
                } else if entry.path().is_dir() {
                    walk(&entry.path(), rest, &shown, out);
                }
            }
        }
    }
    walk(
        Path::new(&root),
        &comps,
        if root == "/" { "/" } else { "" },
        out,
    );
}

#[cfg(test)]
mod tests {
    use crate::interp::{Executor, Interp};
    use std::rc::Rc;

    #[test]
    fn print_writes_without_newline() {
        let i = Interp::new();
        let buf = i.capture_output();
        i.eval("print hello").unwrap();
        i.eval(r#"print " world\n""#).unwrap();
        assert_eq!(&*buf.borrow(), "hello world\n");
    }

    #[test]
    fn puts_appends_newline() {
        let i = Interp::new();
        let buf = i.capture_output();
        i.eval("puts hi").unwrap();
        i.eval("puts -nonewline there").unwrap();
        assert_eq!(&*buf.borrow(), "hi\nthere");
    }

    #[test]
    fn expr_command() {
        let i = Interp::new();
        assert_eq!(i.eval("expr 1+2").unwrap(), "3");
        assert_eq!(i.eval("expr 1 + 2").unwrap(), "3");
        assert_eq!(i.eval("set x 4; expr {$x * 2}").unwrap(), "8");
    }

    #[test]
    fn subst_command() {
        let i = Interp::new();
        i.eval("set v 9").unwrap();
        assert_eq!(i.eval("subst {v is $v}").unwrap(), "v is 9");
    }

    #[test]
    fn time_reports_microseconds() {
        let i = Interp::new();
        let r = i.eval("time {set a 1} 10").unwrap();
        assert!(r.ends_with("microseconds per iteration"), "{r}");
    }

    #[test]
    fn time_prints_its_mean_as_tclsh_does() {
        // tclsh 8.6's forms, checked by hand; the test runs no tclsh.
        let i = Interp::new();
        let mean = |script: &str| {
            let r = i.eval(script).unwrap();
            r.strip_suffix(" microseconds per iteration")
                .unwrap()
                .to_owned()
        };
        assert_eq!(mean("time {set a 1} 0"), "0");
        assert_eq!(mean("time {set a 1} -1"), "0");
        let one = mean("time {set a 1} 1");
        assert!(one.parse::<u64>().is_ok(), "{one}");
        let three = mean("time {set a 1} 3");
        assert!(
            three.contains('.') && three.parse::<f64>().is_ok(),
            "{three}"
        );
        let err = i.eval("time {set a 1} x").unwrap_err();
        assert_eq!(err.msg, "expected integer but got \"x\"");
    }

    #[test]
    fn file_both_argument_orders() {
        let i = Interp::new();
        let dir = std::env::temp_dir();
        let d = dir.display();
        assert_eq!(i.eval(&format!("file isdirectory {d}")).unwrap(), "1");
        assert_eq!(i.eval(&format!("file {d} isdirectory")).unwrap(), "1");
        assert_eq!(i.eval(&format!("file {d} isfile")).unwrap(), "0");
    }

    #[test]
    fn file_name_operations() {
        let i = Interp::new();
        assert_eq!(i.eval("file dirname /a/b/c").unwrap(), "/a/b");
        assert_eq!(i.eval("file tail /a/b/c.txt").unwrap(), "c.txt");
        assert_eq!(i.eval("file rootname /a/b.c/d.txt").unwrap(), "/a/b.c/d");
        assert_eq!(i.eval("file extension d.txt").unwrap(), ".txt");
        assert_eq!(i.eval("file extension /a.b/d").unwrap(), "");
        assert_eq!(i.eval("file dirname c").unwrap(), ".");
    }

    #[test]
    fn exec_uses_pluggable_executor() {
        struct Fake;
        impl Executor for Fake {
            fn run(&self, _i: &Interp, argv: &[String]) -> Result<String, String> {
                Ok(format!("ran:{}", argv.join(",")))
            }
        }
        let i = Interp::new();
        i.set_executor(Rc::new(Fake));
        assert_eq!(i.eval("exec ls -a /tmp").unwrap(), "ran:ls,-a,/tmp");
    }

    #[test]
    fn exec_error_propagates() {
        struct Failing;
        impl Executor for Failing {
            fn run(&self, _i: &Interp, _argv: &[String]) -> Result<String, String> {
                Err("nope".into())
            }
        }
        let i = Interp::new();
        i.set_executor(Rc::new(Failing));
        let e = i.eval("exec anything").unwrap_err();
        assert_eq!(e.msg, "nope");
    }

    #[test]
    fn real_exec_runs_echo() {
        let i = Interp::new();
        assert_eq!(i.eval("exec echo hello").unwrap(), "hello");
    }

    #[test]
    fn glob_matches_files() {
        let dir = std::env::temp_dir().join("tcl_glob_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.txt"), "").unwrap();
        std::fs::write(dir.join("b.txt"), "").unwrap();
        std::fs::write(dir.join("c.dat"), "").unwrap();
        let i = Interp::new();
        let r = i.eval(&format!("glob {}/*.txt", dir.display())).unwrap();
        assert!(r.contains("a.txt") && r.contains("b.txt") && !r.contains("c.dat"));
        assert_eq!(
            i.eval(&format!("glob -nocomplain {}/*.zzz", dir.display()))
                .unwrap(),
            ""
        );
        assert!(i.eval(&format!("glob {}/*.zzz", dir.display())).is_err());
    }
}
