//! Variable commands: `set`, `unset`, `incr`, `append`, `global`, `upvar`,
//! `uplevel`, and `array`.

use std::fmt::Write;

use crate::error::{wrong_args, Exception, TclResult};
use crate::interp::{split_var_name, Access, Interp, TraceAction, TraceOps};

pub fn register(interp: &Interp) {
    interp.register("set", cmd_set);
    interp.register("unset", cmd_unset);
    interp.register("incr", cmd_incr);
    interp.register("append", cmd_append);
    interp.register("global", cmd_global);
    interp.register("upvar", cmd_upvar);
    interp.register("uplevel", cmd_uplevel);
    interp.register("array", cmd_array);
    interp.register("trace", cmd_trace);
}

/// `trace variable name ops command`, `trace vdelete name ops command`,
/// `trace vinfo name`: run a command whenever a variable is read,
/// written, or unset.
fn cmd_trace(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(wrong_args("trace option ?arg arg ...?"));
    }
    match argv[1].as_str() {
        "variable" => {
            if argv.len() != 5 {
                return Err(wrong_args("trace variable name ops command"));
            }
            let ops = TraceOps::parse(&argv[3])?;
            interp.trace_variable(&argv[2], ops, TraceAction::Script(argv[4].clone()));
            Ok(String::new())
        }
        "vdelete" => {
            if argv.len() != 5 {
                return Err(wrong_args("trace vdelete name ops command"));
            }
            let ops = TraceOps::parse(&argv[3])?;
            interp.trace_vdelete(&argv[2], ops, &argv[4]);
            Ok(String::new())
        }
        "vinfo" => {
            if argv.len() != 3 {
                return Err(wrong_args("trace vinfo name"));
            }
            let lines: Vec<String> = interp
                .trace_info(&argv[2])
                .into_iter()
                .map(|(ops, cmd)| crate::list::format_list(&[ops, cmd]))
                .collect();
            Ok(crate::list::format_list(&lines))
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be variable, vdelete, or vinfo"
        ))),
    }
}

fn cmd_set(interp: &Interp, argv: &[String]) -> TclResult {
    match argv.len() {
        2 => {
            let (name, idx) = split_var_name(&argv[1]);
            interp.get_var(name, idx)
        }
        3 => {
            let (name, idx) = split_var_name(&argv[1]);
            interp.set_var(name, idx, &argv[2])
        }
        _ => Err(wrong_args("set varName ?newValue?")),
    }
}

fn cmd_unset(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("unset varName ?varName ...?"));
    }
    for spec in &argv[1..] {
        let (name, idx) = split_var_name(spec);
        interp.unset_var(name, idx)?;
    }
    Ok(String::new())
}

fn cmd_incr(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() != 2 && argv.len() != 3 {
        return Err(wrong_args("incr varName ?increment?"));
    }
    let (name, idx) = split_var_name(&argv[1]);
    interp.update_var(name, idx, Access::Update, |value| {
        let cur: i64 = value.trim().parse().map_err(|_| not_integer(value))?;
        let by: i64 = match argv.get(2) {
            Some(by) => by.trim().parse().map_err(|_| not_integer(by))?,
            None => 1,
        };
        value.clear();
        write!(value, "{}", cur.wrapping_add(by)).expect("writing to a String");
        Ok(())
    })
}

fn not_integer(text: &str) -> Exception {
    Exception::error(format!("expected integer but got \"{text}\""))
}

fn cmd_append(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("append varName ?value value ...?"));
    }
    let (name, idx) = split_var_name(&argv[1]);
    interp.update_var(name, idx, Access::Extend, |value| {
        for v in &argv[2..] {
            value.push_str(v);
        }
        Ok(())
    })
}

fn cmd_global(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("global varName ?varName ...?"));
    }
    if interp.level() == 0 {
        // `global` at global scope is a no-op.
        return Ok(String::new());
    }
    for name in &argv[1..] {
        // `global ::x` links the local `x`.
        interp.link_var(name.strip_prefix("::").unwrap_or(name), 0, name)?;
    }
    Ok(String::new())
}

fn cmd_upvar(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(wrong_args(
            "upvar ?level? otherVar localVar ?otherVar localVar ...?",
        ));
    }
    // The optional level is recognized by its shape: a number or `#number`.
    let (level, rest) = if argv[1].starts_with('#') || argv[1].parse::<usize>().is_ok() {
        (interp.parse_level(&argv[1])?, &argv[2..])
    } else {
        (interp.parse_level("1")?, &argv[1..])
    };
    if rest.is_empty() || rest.len() % 2 != 0 {
        return Err(wrong_args(
            "upvar ?level? otherVar localVar ?otherVar localVar ...?",
        ));
    }
    for pair in rest.chunks(2) {
        interp.link_var(&pair[1], level, &pair[0])?;
    }
    Ok(String::new())
}

fn cmd_uplevel(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("uplevel ?level? command ?arg ...?"));
    }
    let (level, rest) =
        if argv.len() > 2 && (argv[1].starts_with('#') || argv[1].parse::<usize>().is_ok()) {
            (interp.parse_level(&argv[1])?, &argv[2..])
        } else {
            (interp.parse_level("1")?, &argv[1..])
        };
    if rest.is_empty() {
        return Err(wrong_args("uplevel ?level? command ?arg ...?"));
    }
    let script = if rest.len() == 1 {
        rest[0].clone()
    } else {
        rest.join(" ")
    };
    interp.eval_at_level(level, &script)
}

fn cmd_array(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(wrong_args("array option arrayName ?arg ...?"));
    }
    let name = &argv[2];
    match argv[1].as_str() {
        "names" => Ok(crate::list::format_list(&interp.array_names(name)?)),
        "size" => Ok(interp.array_names(name)?.len().to_string()),
        "exists" => Ok(if interp.array_names(name).is_ok() {
            "1"
        } else {
            "0"
        }
        .into()),
        "get" => {
            let mut out: Vec<String> = Vec::new();
            for key in interp.array_names(name)? {
                let val = interp.get_var(name, Some(&key))?;
                out.push(key);
                out.push(val);
            }
            Ok(crate::list::format_list(&out))
        }
        "set" => {
            if argv.len() != 4 {
                return Err(wrong_args("array set arrayName list"));
            }
            let pairs = crate::list::parse_list(&argv[3])?;
            if pairs.len() % 2 != 0 {
                return Err(Exception::error(
                    "list must have an even number of elements",
                ));
            }
            for pair in pairs.chunks(2) {
                interp.set_var(name, Some(&pair[0]), &pair[1])?;
            }
            Ok(String::new())
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be exists, get, names, set, or size"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    #[test]
    fn incr_default_and_explicit() {
        let i = Interp::new();
        i.eval("set x 5").unwrap();
        assert_eq!(i.eval("incr x").unwrap(), "6");
        assert_eq!(i.eval("incr x 10").unwrap(), "16");
        assert_eq!(i.eval("incr x -1").unwrap(), "15");
        // Past i64::MAX wraps, like `expr`'s `+`.
        i.eval("set x 9223372036854775807").unwrap();
        assert_eq!(i.eval("incr x").unwrap(), i64::MIN.to_string());
    }

    #[test]
    fn incr_non_integer_errors() {
        let i = Interp::new();
        i.eval("set x foo").unwrap();
        assert!(i.eval("incr x").is_err());
    }

    #[test]
    fn append_creates_and_extends() {
        let i = Interp::new();
        assert_eq!(i.eval("append s hello").unwrap(), "hello");
        assert_eq!(i.eval("append s \" \" world").unwrap(), "hello world");
    }

    #[test]
    fn unset_removes() {
        let i = Interp::new();
        i.eval("set x 1").unwrap();
        i.eval("unset x").unwrap();
        assert!(i.eval("set x").is_err());
        assert!(i.eval("unset x").is_err());
    }

    #[test]
    fn global_links_into_procs() {
        let i = Interp::new();
        i.eval("set g 10").unwrap();
        i.eval("proc bump {} {global g; incr g}").unwrap();
        i.eval("bump").unwrap();
        assert_eq!(i.eval("set g").unwrap(), "11");
    }

    #[test]
    fn upvar_aliases_caller_variable() {
        let i = Interp::new();
        i.eval("proc setit {varName} {upvar $varName v; set v 99}")
            .unwrap();
        i.eval("set mine 1; setit mine").unwrap();
        assert_eq!(i.eval("set mine").unwrap(), "99");
    }

    #[test]
    fn upvar_two_levels() {
        let i = Interp::new();
        i.eval("proc outer {} {set x outer-x; inner; set x}")
            .unwrap();
        i.eval("proc inner {} {upvar 1 x y; set y changed}")
            .unwrap();
        assert_eq!(i.eval("outer").unwrap(), "changed");
    }

    #[test]
    fn uplevel_evaluates_in_caller_scope() {
        let i = Interp::new();
        i.eval("proc doit {script} {uplevel $script}").unwrap();
        i.eval("proc caller {} {set local 5; doit {incr local}; set local}")
            .unwrap();
        assert_eq!(i.eval("caller").unwrap(), "6");
    }

    #[test]
    fn uplevel_absolute_level() {
        let i = Interp::new();
        i.eval("set top 1").unwrap();
        i.eval("proc f {} {uplevel #0 {incr top}}").unwrap();
        i.eval("f").unwrap();
        assert_eq!(i.eval("set top").unwrap(), "2");
    }

    #[test]
    fn array_names_and_size() {
        let i = Interp::new();
        i.eval("set a(x) 1; set a(y) 2").unwrap();
        assert_eq!(i.eval("array names a").unwrap(), "x y");
        assert_eq!(i.eval("array size a").unwrap(), "2");
        assert_eq!(i.eval("array exists a").unwrap(), "1");
        assert_eq!(i.eval("array exists nosuch").unwrap(), "0");
    }

    #[test]
    fn array_get_and_set() {
        let i = Interp::new();
        i.eval("array set a {x 1 y 2}").unwrap();
        assert_eq!(i.eval("set a(y)").unwrap(), "2");
        assert_eq!(i.eval("array get a").unwrap(), "x 1 y 2");
    }

    #[test]
    fn unset_array_element() {
        let i = Interp::new();
        i.eval("set a(x) 1; set a(y) 2").unwrap();
        i.eval("unset a(x)").unwrap();
        assert_eq!(i.eval("array names a").unwrap(), "y");
    }

    #[test]
    fn write_trace_fires_with_arguments() {
        let i = Interp::new();
        i.eval("set log {}").unwrap();
        i.eval("proc watch {n1 n2 op} {global log; lappend log $n1/$n2/$op}")
            .unwrap();
        i.eval("trace variable v w watch").unwrap();
        i.eval("set v 1").unwrap();
        i.eval("set v 2").unwrap();
        assert_eq!(i.eval("set log").unwrap(), "v//w v//w");
    }

    #[test]
    fn read_trace_can_compute_value() {
        // The classic computed-variable idiom: a read trace refreshes the
        // value before the read completes.
        let i = Interp::new();
        i.eval("set ticks 0").unwrap();
        i.eval("proc recompute {n1 n2 op} {global now ticks; incr ticks; set now tick$ticks}")
            .unwrap();
        i.eval("set now stale").unwrap();
        i.eval("trace variable now r recompute").unwrap();
        assert_eq!(i.eval("set now").unwrap(), "tick1");
        assert_eq!(i.eval("set now").unwrap(), "tick2");
    }

    #[test]
    fn unset_trace_fires_and_traces_are_discarded() {
        let i = Interp::new();
        i.eval("set gone 0").unwrap();
        i.eval("proc bye {n1 n2 op} {global gone; set gone 1}")
            .unwrap();
        i.eval("set v x; trace variable v u bye").unwrap();
        i.eval("unset v").unwrap();
        assert_eq!(i.eval("set gone").unwrap(), "1");
        // Re-creating the variable: the trace is gone.
        i.eval("set gone 0; set v y; unset v").unwrap();
        assert_eq!(i.eval("set gone").unwrap(), "0");
    }

    #[test]
    fn write_trace_error_propagates_to_set() {
        // A read-only variable implemented with an erroring write trace.
        let i = Interp::new();
        i.eval("set const 42").unwrap();
        i.eval("proc deny {n1 n2 op} {error {is read-only}}")
            .unwrap();
        i.eval("trace variable const w deny").unwrap();
        let e = i.eval("set const 7").unwrap_err();
        assert!(e.msg.contains("read-only"), "{}", e.msg);
    }

    #[test]
    fn trace_does_not_retrigger_itself() {
        // A write trace that writes the traced variable must not recurse.
        let i = Interp::new();
        i.eval("proc clampit {n1 n2 op} {global v; if {$v > 10} {set v 10}}")
            .unwrap();
        i.eval("trace variable v w clampit").unwrap();
        i.eval("set v 99").unwrap();
        assert_eq!(i.eval("set v").unwrap(), "10");
    }

    #[test]
    fn array_element_traces_report_index() {
        let i = Interp::new();
        i.eval("set seen {}").unwrap();
        i.eval("proc watch {n1 n2 op} {global seen; lappend seen $n1.$n2}")
            .unwrap();
        i.eval("trace variable a w watch").unwrap();
        i.eval("set a(x) 1; set a(y) 2").unwrap();
        assert_eq!(i.eval("set seen").unwrap(), "a.x a.y");
    }

    #[test]
    fn vdelete_and_vinfo() {
        let i = Interp::new();
        i.eval("proc w1 {a b c} {}").unwrap();
        i.eval("trace variable v w w1").unwrap();
        i.eval("trace variable v ru w1").unwrap();
        let info = i.eval("trace vinfo v").unwrap();
        assert!(info.contains("{w w1}"), "{info}");
        assert!(info.contains("{ru w1}"), "{info}");
        i.eval("trace vdelete v w w1").unwrap();
        let info = i.eval("trace vinfo v").unwrap();
        assert!(!info.contains("{w w1}"), "{info}");
    }

    #[test]
    fn traces_on_globals_fire_from_procs() {
        let i = Interp::new();
        i.eval("set hits 0").unwrap();
        i.eval("proc count {a b c} {global hits; incr hits}")
            .unwrap();
        i.eval("trace variable g w count").unwrap();
        i.eval("proc setter {} {global g; set g 5}").unwrap();
        i.eval("setter").unwrap();
        assert_eq!(i.eval("set hits").unwrap(), "1");
    }

    #[test]
    fn read_modify_write_fires_read_then_write_once_each() {
        let i = Interp::new();
        i.eval("set log {}; proc watch {n1 n2 op} {global log; lappend log $op}")
            .unwrap();
        for (cmd, result) in [
            ("incr v 2", "3"),
            ("append v x", "1x"),
            ("lappend v x", "1 x"),
        ] {
            i.eval("set v 1; trace variable v rw watch; set log {}")
                .unwrap();
            assert_eq!(i.eval(cmd).unwrap(), result, "{cmd}");
            assert_eq!(i.eval("set log").unwrap(), "r w", "{cmd}");
            i.eval("trace vdelete v rw watch").unwrap();
        }
    }

    #[test]
    fn writing_a_whole_array_reports_a_set_error() {
        // tclsh 8.6 says "set" for every access that writes, and "read"
        // only for a plain read.
        for compile in [true, false] {
            let i = Interp::new();
            i.set_compile(compile);
            i.eval("array set a {k 1}; proc try {cmd} {global a; catch $cmd m; set m}")
                .unwrap();
            for (cmd, verb) in [
                ("incr a", "set"),
                ("append a x", "set"),
                ("lappend a x", "set"),
                ("set a 1", "set"),
                ("set a", "read"),
            ] {
                let want = format!("can't {verb} \"a\": variable is array");
                let top = format!("catch {{{cmd}}} m; set m");
                assert_eq!(i.eval(&top).unwrap(), want, "{cmd}, compile {compile}");
                let in_proc = format!("try {{{cmd}}}");
                assert_eq!(
                    i.eval(&in_proc).unwrap(),
                    want,
                    "{cmd} in a proc, compile {compile}"
                );
            }
            assert_eq!(i.eval("array get a").unwrap(), "k 1", "compile {compile}");
        }
    }

    #[test]
    fn incr_creates_a_missing_variable_at_zero() {
        // tclsh 8.6's results (since 8.5 `incr` starts a missing variable
        // at 0), checked by hand; the test runs no tclsh.
        for compile in [true, false] {
            let i = Interp::new();
            i.set_compile(compile);
            let cases = [
                ("list [catch {incr nosuch} m] $m", "0 1"),
                ("incr n1 5", "5"),
                ("incr arr(k); array get arr", "k 1"),
                ("proc p {} {incr loc}; p", "1"),
                ("proc q {} {incr ::g2 3}; list [q] $g2", "3 3"),
                (
                    "set e {}; list [catch {incr e} m] $m",
                    "1 {expected integer but got \"\"}",
                ),
                (
                    "list [catch {incr n2 x} m] $m [info exists n2]",
                    "1 {expected integer but got \"x\"} 0",
                ),
                (
                    "set hits 0; proc cb {args} {global hits; incr hits}
                     trace variable tv r cb; list [incr tv] $hits",
                    "1 1",
                ),
                (
                    "set s 1; list [catch {incr s(x)} m] $m",
                    "1 {can't read \"s(x)\": variable isn't array}",
                ),
                ("array set a {j 1}; list [incr a(z) 2] $a(z)", "2 2"),
            ];
            for (script, want) in cases {
                assert_eq!(i.eval(script).unwrap(), want, "{script}, compile {compile}");
            }
        }
    }

    #[test]
    fn read_trace_on_a_callers_local_fires_through_upvar() {
        let i = Interp::new();
        i.eval("set log {}; proc watch {n1 n2 op} {global log; lappend log $n1/$op}")
            .unwrap();
        i.eval("proc peek {name} {upvar $name v; return $v}")
            .unwrap();
        i.eval("proc owner {} {set mine 7; trace variable mine r watch; peek mine}")
            .unwrap();
        assert_eq!(i.eval("owner").unwrap(), "7");
        // The callback gets the name the read was written with, as in
        // tclsh 8.6.
        assert_eq!(i.eval("set log").unwrap(), "v/r");
    }

    #[test]
    fn append_to_a_traced_array_element_reports_its_index() {
        let i = Interp::new();
        i.eval("set log {}; proc watch {n1 n2 op} {global log; lappend log $n1.$n2.$op}")
            .unwrap();
        i.eval("set a(k) 1; trace variable a rw watch").unwrap();
        assert_eq!(i.eval("append a(k) x").unwrap(), "1x");
        assert_eq!(i.eval("set log").unwrap(), "a.k.r a.k.w");
    }

    #[test]
    fn lappend_that_creates_a_variable_fires_its_write_trace() {
        let i = Interp::new();
        i.eval("set log {}; proc watch {n1 n2 op} {global log; lappend log $n1/$op}")
            .unwrap();
        i.eval("trace variable fresh rw watch").unwrap();
        assert_eq!(i.eval("lappend fresh a b").unwrap(), "a b");
        assert_eq!(i.eval("set log").unwrap(), "fresh/w");
    }

    #[test]
    fn info_level_returns_the_call_words() {
        let i = Interp::new();
        i.eval("proc inner {args} {list [info level 0] [info level 1] [info level -1]}")
            .unwrap();
        i.eval("proc outer {a {b dflt}} {inner x \"y z\"}").unwrap();
        assert_eq!(
            i.eval("outer 1").unwrap(),
            "{inner x {y z}} {outer 1} {outer 1}"
        );
        assert_eq!(
            i.eval("set w 2; outer $w 3").unwrap(),
            "{inner x {y z}} {outer 2 3} {outer 2 3}"
        );
        assert!(i.eval("info level 0").is_err());
    }

    #[test]
    fn bad_trace_ops_error() {
        let i = Interp::new();
        assert!(i.eval("trace variable v q cmd").is_err());
        assert!(i.eval("trace frobnicate v w cmd").is_err());
    }
}
