//! Control-flow commands: `if`, `while`, `for`, `foreach`, `break`,
//! `continue`, `return`, `error`, `catch`, `eval`, `case`, `switch`,
//! `proc`, `rename`, `source`, and `exit`.
//!
//! As the paper's Section 2 describes, these are ordinary commands that make
//! recursive calls to the interpreter; none of them is special-cased by the
//! parser.

use std::rc::Rc;

use crate::compile::Held;
use crate::error::{arity, wrong_args, Code, Exception, TclResult};
use crate::expr::{eval_expr_cached, eval_expr_held};
use crate::interp::{Interp, ProcDef};

pub fn register(interp: &Interp) {
    interp.register("if", cmd_if);
    interp.register("while", cmd_while);
    interp.register("for", cmd_for);
    interp.register("foreach", cmd_foreach);
    interp.register("break", |_i, argv| {
        arity(argv, 1..=1, "break")?;
        Err(Exception::brk())
    });
    interp.register("continue", |_i, argv| {
        arity(argv, 1..=1, "continue")?;
        Err(Exception::cont())
    });
    interp.register("return", cmd_return);
    interp.register("error", cmd_error);
    interp.register("catch", cmd_catch);
    interp.register("eval", cmd_eval);
    interp.register("case", cmd_case);
    interp.register("switch", cmd_switch);
    interp.register("proc", cmd_proc);
    interp.register("rename", cmd_rename);
    interp.register("source", cmd_source);
    interp.register("exit", cmd_exit);
}

fn cmd_if(interp: &Interp, argv: &[String]) -> TclResult {
    // if expr ?then? body ?elseif expr ?then? body ...? ?else? ?body?
    let mut i = 1usize;
    loop {
        if i >= argv.len() {
            return Err(wrong_args(
                "if test script ?elseif test script? ?else script?",
            ));
        }
        let cond = eval_expr_cached(interp, &argv[i])?.truthy()?;
        i += 1;
        if i < argv.len() && argv[i] == "then" {
            i += 1;
        }
        if i >= argv.len() {
            return Err(Exception::error(format!(
                "wrong # args: no script following \"{}\" argument",
                argv[i - 1]
            )));
        }
        if cond {
            return interp.eval(&argv[i]);
        }
        i += 1;
        if i >= argv.len() {
            return Ok(String::new());
        }
        match argv[i].as_str() {
            "elseif" => {
                i += 1;
                continue;
            }
            "else" => {
                i += 1;
                if i >= argv.len() {
                    return Err(Exception::error(
                        "wrong # args: no script following \"else\" argument",
                    ));
                }
                return interp.eval(&argv[i]);
            }
            // Old-style implicit else: `if cond body1 body2`.
            _ => return interp.eval(&argv[i]),
        }
    }
}

// A loop finds its condition's and its scripts' programs on their first
// run and holds them for the rest of the invocation.
fn cmd_while(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 3..=3, "while test command")?;
    let (test, body) = (Held::default(), Held::default());
    while eval_expr_held(interp, &argv[1], &test)?.truthy()? {
        match interp.eval_held(&argv[2], &body) {
            Ok(_) => {}
            Err(e) if e.code == Code::Break => break,
            Err(e) if e.code == Code::Continue => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(String::new())
}

fn cmd_for(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 5..=5, "for start test next command")?;
    interp.eval(&argv[1])?;
    let (test, next, body) = (Held::default(), Held::default(), Held::default());
    while eval_expr_held(interp, &argv[2], &test)?.truthy()? {
        match interp.eval_held(&argv[4], &body) {
            Ok(_) => {}
            Err(e) if e.code == Code::Break => break,
            Err(e) if e.code == Code::Continue => {}
            Err(e) => return Err(e),
        }
        interp.eval_held(&argv[3], &next)?;
    }
    Ok(String::new())
}

fn cmd_foreach(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 4..=4, "foreach varName list command")?;
    let items = crate::list::parse_list(&argv[2])?;
    let body = Held::default();
    for item in items {
        interp.set_var(&argv[1], None, &item)?;
        match interp.eval_held(&argv[3], &body) {
            Ok(_) => {}
            Err(e) if e.code == Code::Break => break,
            Err(e) if e.code == Code::Continue => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(String::new())
}

fn cmd_return(_interp: &Interp, argv: &[String]) -> TclResult {
    match argv.len() {
        1 => Err(Exception::ret("")),
        2 => Err(Exception::ret(argv[1].clone())),
        _ => Err(wrong_args("return ?value?")),
    }
}

fn cmd_error(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2..=4, "error message ?errorInfo? ?errorCode?")?;
    if argv.len() >= 3 && !argv[2].is_empty() {
        let _ = interp.set_var_at(0, "errorInfo", None, &argv[2]);
    }
    if argv.len() == 4 {
        let _ = interp.set_var_at(0, "errorCode", None, &argv[3]);
    }
    Err(Exception::error(argv[1].clone()))
}

fn cmd_catch(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2..=3, "catch command ?varName?")?;
    let (code, value) = match interp.eval(&argv[1]) {
        Ok(v) => (0, v),
        Err(e) => {
            let n = match e.code {
                Code::Error => 1,
                Code::Return => 2,
                Code::Break => 3,
                Code::Continue => 4,
            };
            (n, e.msg)
        }
    };
    if argv.len() == 3 {
        interp.set_var(&argv[2], None, &value)?;
    }
    Ok(code.to_string())
}

fn cmd_eval(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2.., "eval arg ?arg ...?")?;
    let script = if argv.len() == 2 {
        argv[1].clone()
    } else {
        argv[1..].join(" ")
    };
    interp.eval(&script)
}

/// The old Tcl `case` command:
/// `case string ?in? pat body ?pat body ...?` or with a single list arg.
fn cmd_case(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(wrong_args(
            "case string ?in? patList body ?patList body ...?",
        ));
    }
    let string = &argv[1];
    let mut rest: Vec<String> = if argv[2] == "in" {
        argv[3..].to_vec()
    } else {
        argv[2..].to_vec()
    };
    if rest.len() == 1 {
        rest = crate::list::parse_list(&rest[0])?;
    }
    if rest.len() % 2 != 0 {
        return Err(Exception::error("extra case pattern with no body"));
    }
    let mut default_body: Option<&String> = None;
    for pair in rest.chunks(2) {
        let patterns = crate::list::parse_list(&pair[0])?;
        for pat in &patterns {
            if pat == "default" {
                default_body = Some(&pair[1]);
            } else if crate::strutil::glob_match(pat, string) {
                return interp.eval(&pair[1]);
            }
        }
    }
    match default_body {
        Some(body) => interp.eval(body),
        None => Ok(String::new()),
    }
}

/// `switch ?-exact|-glob? string pat body ?pat body...?` (with `-` body
/// fall-through), accepted in both flat and single-list forms.
fn cmd_switch(interp: &Interp, argv: &[String]) -> TclResult {
    let mut i = 1usize;
    let mut mode_glob = true;
    while i < argv.len() && argv[i].starts_with('-') && argv[i] != "-" {
        match argv[i].as_str() {
            "-exact" => mode_glob = false,
            "-glob" => mode_glob = true,
            "--" => {
                i += 1;
                break;
            }
            other => {
                return Err(Exception::error(format!(
                    "bad option \"{other}\": should be -exact, -glob, or --"
                )))
            }
        }
        i += 1;
    }
    if i >= argv.len() {
        return Err(wrong_args(
            "switch ?options? string pattern body ?pattern body ...?",
        ));
    }
    let string = argv[i].clone();
    i += 1;
    let mut pairs: Vec<String> = argv[i..].to_vec();
    if pairs.len() == 1 {
        pairs = crate::list::parse_list(&pairs[0])?;
    }
    if pairs.is_empty() || pairs.len() % 2 != 0 {
        return Err(Exception::error("extra switch pattern with no body"));
    }
    let mut matched = false;
    for (n, pair) in pairs.chunks(2).enumerate() {
        let is_last = (n + 1) * 2 == pairs.len();
        if !matched {
            matched = pair[0] == "default" && is_last
                || if mode_glob {
                    crate::strutil::glob_match(&pair[0], &string)
                } else {
                    pair[0] == string
                };
        }
        if matched {
            if pair[1] == "-" {
                continue; // fall through to the next body
            }
            return interp.eval(&pair[1]);
        }
    }
    Ok(String::new())
}

fn cmd_proc(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 4..=4, "proc name args body")?;
    let param_specs = crate::list::parse_list(&argv[2])?;
    let mut params = Vec::with_capacity(param_specs.len());
    for spec in &param_specs {
        let parts = crate::list::parse_list(spec)?;
        match parts.len() {
            1 => params.push((Rc::from(parts[0].as_str()), None)),
            2 => params.push((Rc::from(parts[0].as_str()), Some(parts[1].clone()))),
            _ => {
                return Err(Exception::error(format!(
                    "too many fields in argument specifier \"{spec}\""
                )))
            }
        }
    }
    interp.register_proc(
        &argv[1],
        ProcDef {
            params,
            body: argv[3].clone(),
            prog: Held::default(),
        },
    );
    Ok(String::new())
}

fn cmd_rename(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 3..=3, "rename oldName newName")?;
    interp.rename(&argv[1], &argv[2])?;
    Ok(String::new())
}

fn cmd_source(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2..=2, "source fileName")?;
    let text = std::fs::read_to_string(&argv[1])
        .map_err(|e| Exception::error(format!("couldn't read file \"{}\": {e}", argv[1])))?;
    interp.eval(&text)
}

fn cmd_exit(interp: &Interp, argv: &[String]) -> TclResult {
    let status = match argv.len() {
        1 => 0,
        2 => argv[1]
            .parse()
            .map_err(|_| Exception::error(format!("expected integer but got \"{}\"", argv[1])))?,
        _ => return Err(wrong_args("exit ?status?")),
    };
    interp.request_exit(status);
    // Unwind all the way out with a distinctive error; embedding shells
    // check `exit_requested` and terminate.
    Err(Exception::error("exit"))
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    #[test]
    fn if_basic_and_else() {
        let i = Interp::new();
        i.eval("set i 1").unwrap();
        assert_eq!(i.eval("if $i<2 {set j 43}; set j").unwrap(), "43");
        assert_eq!(
            i.eval("if {$i > 5} {set k yes} else {set k no}; set k")
                .unwrap(),
            "no"
        );
    }

    #[test]
    fn if_elseif_chain() {
        let i = Interp::new();
        i.eval("set x 7").unwrap();
        let r = i
            .eval("if {$x < 5} {set r low} elseif {$x < 10} {set r mid} else {set r high}")
            .unwrap();
        assert_eq!(r, "mid");
    }

    #[test]
    fn if_then_keyword() {
        let i = Interp::new();
        assert_eq!(i.eval("if 1 then {set a ok}").unwrap(), "ok");
    }

    #[test]
    fn if_old_style_implicit_else() {
        let i = Interp::new();
        assert_eq!(i.eval("if 0 {set a x} {set a y}").unwrap(), "y");
    }

    #[test]
    fn while_loops_and_break() {
        let i = Interp::new();
        i.eval("set n 0; while {$n < 10} {incr n; if {$n == 4} break}")
            .unwrap();
        assert_eq!(i.eval("set n").unwrap(), "4");
    }

    #[test]
    fn while_continue() {
        let i = Interp::new();
        i.eval("set sum 0; set n 0").unwrap();
        i.eval("while {$n < 5} {incr n; if {$n == 3} continue; incr sum $n}")
            .unwrap();
        assert_eq!(i.eval("set sum").unwrap(), "12"); // 1+2+4+5
    }

    #[test]
    fn for_loop() {
        let i = Interp::new();
        i.eval("set sum 0; for {set j 0} {$j < 5} {incr j} {incr sum $j}")
            .unwrap();
        assert_eq!(i.eval("set sum").unwrap(), "10");
    }

    #[test]
    fn foreach_iterates_list() {
        let i = Interp::new();
        i.eval("set out {}; foreach x {a b c} {append out $x-}")
            .unwrap();
        assert_eq!(i.eval("set out").unwrap(), "a-b-c-");
    }

    #[test]
    fn foreach_break_and_continue() {
        let i = Interp::new();
        i.eval("set out {}; foreach x {1 2 3 4} {if {$x == 2} continue; if {$x == 4} break; append out $x}")
            .unwrap();
        assert_eq!(i.eval("set out").unwrap(), "13");
    }

    #[test]
    fn return_from_proc() {
        let i = Interp::new();
        i.eval("proc f {} {return early; set never 1}").unwrap();
        assert_eq!(i.eval("f").unwrap(), "early");
    }

    #[test]
    fn proc_default_args_and_varargs() {
        let i = Interp::new();
        i.eval("proc greet {{name world} args} {return \"$name:$args\"}")
            .unwrap();
        assert_eq!(i.eval("greet").unwrap(), "world:");
        assert_eq!(i.eval("greet tcl 1 2").unwrap(), "tcl:1 2");
    }

    #[test]
    fn proc_wrong_args() {
        let i = Interp::new();
        i.eval("proc two {a b} {}").unwrap();
        assert!(i.eval("two 1").is_err());
        assert!(i.eval("two 1 2 3").is_err());
    }

    #[test]
    fn error_and_catch() {
        let i = Interp::new();
        assert_eq!(i.eval("catch {error boom} msg").unwrap(), "1");
        assert_eq!(i.eval("set msg").unwrap(), "boom");
        assert_eq!(i.eval("catch {set ok 5} msg").unwrap(), "0");
        assert_eq!(i.eval("set msg").unwrap(), "5");
    }

    #[test]
    fn catch_reports_control_flow_codes() {
        let i = Interp::new();
        assert_eq!(i.eval("catch {return x}").unwrap(), "2");
        assert_eq!(i.eval("catch {break}").unwrap(), "3");
        assert_eq!(i.eval("catch {continue}").unwrap(), "4");
    }

    #[test]
    fn eval_concatenates_args() {
        let i = Interp::new();
        assert_eq!(i.eval("eval set a 5").unwrap(), "5");
        assert_eq!(i.eval("eval {set b 6}").unwrap(), "6");
    }

    #[test]
    fn eval_synthesized_command() {
        // The Figure 9 pattern: build a command as a list, then eval it.
        let i = Interp::new();
        i.eval("set cmd [list set result {hello world}]").unwrap();
        i.eval("eval $cmd").unwrap();
        assert_eq!(i.eval("set result").unwrap(), "hello world");
    }

    #[test]
    fn case_command_matches_glob() {
        let i = Interp::new();
        let r = i
            .eval("case abc in {a*} {set r first} default {set r other}")
            .unwrap();
        assert_eq!(r, "first");
        let r = i
            .eval("case zzz in {a*} {set r first} default {set r other}")
            .unwrap();
        assert_eq!(r, "other");
    }

    #[test]
    fn switch_exact_and_fallthrough() {
        let i = Interp::new();
        let r = i
            .eval("switch -exact b {a - b {set r ab} c {set r c} default {set r d}}")
            .unwrap();
        assert_eq!(r, "ab");
    }

    #[test]
    fn rename_via_script() {
        let i = Interp::new();
        i.eval("proc hi {} {return hi}").unwrap();
        i.eval("rename hi hello").unwrap();
        assert_eq!(i.eval("hello").unwrap(), "hi");
        assert!(i.eval("hi").is_err());
    }

    #[test]
    fn source_reads_file() {
        let dir = std::env::temp_dir().join("tcl_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("script.tcl");
        std::fs::write(&path, "set sourced 42\n").unwrap();
        let i = Interp::new();
        i.eval(&format!("source {}", path.display())).unwrap();
        assert_eq!(i.eval("set sourced").unwrap(), "42");
    }

    #[test]
    fn exit_sets_request() {
        let i = Interp::new();
        assert!(i.eval("exit 3").is_err());
        assert_eq!(i.exit_requested(), Some(3));
    }

    #[test]
    fn nested_loops_break_inner_only() {
        let i = Interp::new();
        i.eval("set count 0").unwrap();
        i.eval("foreach a {1 2} {foreach b {1 2 3} {if {$b == 2} break; incr count}}")
            .unwrap();
        assert_eq!(i.eval("set count").unwrap(), "2");
    }
}
