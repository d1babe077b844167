//! The `info` command: introspection into the interpreter's own state.
//!
//! The paper's Section 8 calls out that Tcl "provides access to its own
//! internals (e.g. it is possible to retrieve the body of a Tcl procedure
//! or a list of all defined variable names)"; this command is that access.

use crate::error::{arity, Exception, TclResult};
use crate::interp::Interp;
use crate::list::format_list;
use crate::strutil::glob_match;

pub fn register(interp: &Interp) {
    interp.register("info", cmd_info);
}

fn filtered(mut names: Vec<String>, pattern: Option<&String>) -> String {
    names.retain(|n| pattern.map_or(true, |pat| glob_match(pat, n)));
    format_list(&names)
}

fn cmd_info(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2.., "info option ?arg ...?")?;
    match argv[1].as_str() {
        "commands" => Ok(filtered(interp.command_names(), argv.get(2))),
        "procs" => Ok(filtered(interp.proc_names(), argv.get(2))),
        "vars" => Ok(filtered(interp.var_names(interp.level()), argv.get(2))),
        "globals" => Ok(filtered(interp.var_names(0), argv.get(2))),
        "exists" => {
            arity(argv, 3..=3, "info exists varName")?;
            let (name, idx) = crate::interp::split_var_name(&argv[2]);
            Ok(u8::from(interp.var_exists(name, idx)).to_string())
        }
        "body" => {
            arity(argv, 3..=3, "info body procName")?;
            match interp.proc_def(&argv[2]) {
                Some(def) => Ok(def.body.clone()),
                None => Err(Exception::error(format!(
                    "\"{}\" isn't a procedure",
                    argv[2]
                ))),
            }
        }
        "args" => {
            arity(argv, 3..=3, "info args procName")?;
            match interp.proc_def(&argv[2]) {
                Some(def) => Ok(format_list(
                    &def.params
                        .iter()
                        .map(|(n, _)| n.to_string())
                        .collect::<Vec<_>>(),
                )),
                None => Err(Exception::error(format!(
                    "\"{}\" isn't a procedure",
                    argv[2]
                ))),
            }
        }
        "default" => {
            arity(argv, 5..=5, "info default procName arg varName")?;
            let def = interp
                .proc_def(&argv[2])
                .ok_or_else(|| Exception::error(format!("\"{}\" isn't a procedure", argv[2])))?;
            let param = def
                .params
                .iter()
                .find(|(n, _)| **n == *argv[3])
                .ok_or_else(|| {
                    Exception::error(format!(
                        "procedure \"{}\" doesn't have an argument \"{}\"",
                        argv[2], argv[3]
                    ))
                })?;
            match &param.1 {
                Some(d) => {
                    interp.set_var(&argv[4], None, d)?;
                    Ok("1".into())
                }
                None => {
                    interp.set_var(&argv[4], None, "")?;
                    Ok("0".into())
                }
            }
        }
        "level" => {
            if argv.len() == 2 {
                return Ok(interp.level().to_string());
            }
            let n: i64 = argv[2]
                .parse()
                .map_err(|_| Exception::error(format!("bad level \"{}\"", argv[2])))?;
            let level = if n <= 0 {
                (interp.level() as i64 + n) as usize
            } else {
                n as usize
            };
            match interp.invocation_at(level) {
                Some(words) => Ok(format_list(&words[..])),
                _ => Err(Exception::error(format!("bad level \"{}\"", argv[2]))),
            }
        }
        "tclversion" => Ok("6.1".into()),
        "library" => Ok(std::env::var("TCL_LIBRARY").unwrap_or_default()),
        "cmdcount" => Ok("0".into()),
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be args, body, cmdcount, commands, \
             default, exists, globals, level, library, procs, tclversion, or vars"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    #[test]
    fn info_exists() {
        let i = Interp::new();
        assert_eq!(i.eval("info exists x").unwrap(), "0");
        i.eval("set x 1").unwrap();
        assert_eq!(i.eval("info exists x").unwrap(), "1");
    }

    #[test]
    fn info_body_and_args() {
        let i = Interp::new();
        i.eval("proc f {a {b 2}} {return $a$b}").unwrap();
        assert_eq!(i.eval("info body f").unwrap(), "return $a$b");
        assert_eq!(i.eval("info args f").unwrap(), "a b");
    }

    #[test]
    fn info_default() {
        let i = Interp::new();
        i.eval("proc f {a {b 2}} {}").unwrap();
        assert_eq!(i.eval("info default f b d").unwrap(), "1");
        assert_eq!(i.eval("set d").unwrap(), "2");
        assert_eq!(i.eval("info default f a d").unwrap(), "0");
    }

    #[test]
    fn info_commands_filters() {
        let i = Interp::new();
        let all = i.eval("info commands").unwrap();
        assert!(all.contains("set"));
        assert!(all.contains("foreach"));
        let sets = i.eval("info commands se*").unwrap();
        assert!(sets.contains("set"));
        assert!(!sets.contains("foreach"));
    }

    #[test]
    fn info_procs_lists_only_procs() {
        let i = Interp::new();
        i.eval("proc myproc {} {}").unwrap();
        let procs = i.eval("info procs").unwrap();
        assert!(procs.contains("myproc"));
        assert!(!procs.contains("set"));
    }

    #[test]
    fn info_vars_and_globals() {
        let i = Interp::new();
        i.eval("set g 1").unwrap();
        i.eval("proc f {} {set local 2; return [info vars]}")
            .unwrap();
        let vars = i.eval("f").unwrap();
        assert!(vars.contains("local"));
        assert!(!vars.contains('g'));
        assert!(i.eval("info globals").unwrap().contains('g'));
    }

    #[test]
    fn info_level() {
        let i = Interp::new();
        assert_eq!(i.eval("info level").unwrap(), "0");
        i.eval("proc f {x} {return [info level]}").unwrap();
        assert_eq!(i.eval("f 1").unwrap(), "1");
        i.eval("proc g {a b} {return [info level 1]}").unwrap();
        assert_eq!(i.eval("g 1 2").unwrap(), "g 1 2");
    }

    #[test]
    fn info_bad_level() {
        let i = Interp::new();
        assert!(i.eval("info level 99").is_err());
    }

    #[test]
    fn info_on_non_proc_errors() {
        let i = Interp::new();
        assert!(i.eval("info body set").is_err());
    }
}
