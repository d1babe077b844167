//! Variable commands: `set`, `unset`, `incr`, `append`, `global`, `upvar`,
//! `uplevel`, and `array`.

use std::fmt::Write;

use crate::error::{arity, wrong_args, Exception, TclResult};
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
    arity(argv, 3.., "trace option ?arg arg ...?")?;
    match argv[1].as_str() {
        "variable" => {
            arity(argv, 5..=5, "trace variable name ops command")?;
            let ops = TraceOps::parse(&argv[3])?;
            interp.trace_variable(&argv[2], ops, TraceAction::Script(argv[4].clone()));
            Ok(String::new())
        }
        "vdelete" => {
            arity(argv, 5..=5, "trace vdelete name ops command")?;
            let ops = TraceOps::parse(&argv[3])?;
            interp.trace_vdelete(&argv[2], ops, &argv[4]);
            Ok(String::new())
        }
        "vinfo" => {
            arity(argv, 3..=3, "trace vinfo name")?;
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
    arity(argv, 2.., "unset varName ?varName ...?")?;
    for spec in &argv[1..] {
        let (name, idx) = split_var_name(spec);
        interp.unset_var(name, idx)?;
    }
    Ok(String::new())
}

fn cmd_incr(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2..=3, "incr varName ?increment?")?;
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

pub(crate) fn not_integer(text: &str) -> Exception {
    Exception::error(format!("expected integer but got \"{text}\""))
}

fn cmd_append(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2.., "append varName ?value value ...?")?;
    let (name, idx) = split_var_name(&argv[1]);
    interp.update_var(name, idx, Access::Extend, |value| {
        for v in &argv[2..] {
            value.push_str(v);
        }
        Ok(())
    })
}

fn cmd_global(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 2.., "global varName ?varName ...?")?;
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
    const USAGE: &str = "upvar ?level? otherVar localVar ?otherVar localVar ...?";
    arity(argv, 3.., USAGE)?;
    // The optional level is recognized by its shape: a number or `#number`.
    let (level, rest) = if argv[1].starts_with('#') || argv[1].parse::<usize>().is_ok() {
        (interp.parse_level(&argv[1])?, &argv[2..])
    } else {
        (interp.parse_level("1")?, &argv[1..])
    };
    if rest.is_empty() || rest.len() % 2 != 0 {
        return Err(wrong_args(USAGE));
    }
    for pair in rest.chunks(2) {
        interp.link_var(&pair[1], level, &pair[0])?;
    }
    Ok(String::new())
}

fn cmd_uplevel(interp: &Interp, argv: &[String]) -> TclResult {
    const USAGE: &str = "uplevel ?level? command ?arg ...?";
    arity(argv, 2.., USAGE)?;
    // As in tclsh, a first word that starts with a digit or `#` is a level.
    let (level, rest) = if argv[1].starts_with(|c: char| c == '#' || c.is_ascii_digit()) {
        (interp.parse_level(&argv[1])?, &argv[2..])
    } else {
        (interp.parse_level("1")?, &argv[1..])
    };
    if rest.is_empty() {
        return Err(wrong_args(USAGE));
    }
    let script = if rest.len() == 1 {
        rest[0].clone()
    } else {
        rest.join(" ")
    };
    interp.eval_at_level(level, &script)
}

fn cmd_array(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 3.., "array option arrayName ?arg ...?")?;
    let name = &argv[2];
    match argv[1].as_str() {
        "names" => {
            arity(argv, ..=5, "array names arrayName ?mode? ?pattern?")?;
            let mut names = interp.array_names(name).unwrap_or_default();
            retain_keys(&mut names, &argv[3..])?;
            Ok(crate::list::format_list(&names))
        }
        "size" => {
            arity(argv, ..=3, "array size arrayName")?;
            Ok(interp.array_names(name).map_or(0, |n| n.len()).to_string())
        }
        "exists" => {
            arity(argv, ..=3, "array exists arrayName")?;
            Ok(u8::from(interp.array_names(name).is_some()).to_string())
        }
        "get" => {
            arity(argv, ..=4, "array get arrayName ?pattern?")?;
            let mut names = interp.array_names(name).unwrap_or_default();
            retain_keys(&mut names, &argv[3..])?;
            let mut out: Vec<String> = Vec::new();
            for key in names {
                let val = interp.get_var(name, Some(&key))?;
                out.push(key);
                out.push(val);
            }
            Ok(crate::list::format_list(&out))
        }
        "set" => {
            arity(argv, 4..=4, "array set arrayName list")?;
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
        "unset" => {
            arity(argv, ..=4, "array unset arrayName ?pattern?")?;
            match interp.array_names(name) {
                Some(_) if argv.len() == 3 => interp.unset_var(name, None)?,
                Some(mut keys) => {
                    retain_keys(&mut keys, &argv[3..])?;
                    for key in keys {
                        interp.unset_var(name, Some(&key))?;
                    }
                }
                None => {}
            }
            Ok(String::new())
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be exists, get, names, set, size, or unset"
        ))),
    }
}

/// Keeps the element names that the `?mode? ?pattern?` arguments of
/// `array names` (`array get` takes a pattern only) select: tclsh's
/// modes, `-glob` (`string match`) when the mode is left out, and every
/// name when both are.
fn retain_keys(names: &mut Vec<String>, args: &[String]) -> Result<(), Exception> {
    let (mode, pattern) = match args {
        [] => return Ok(()),
        [pattern] => ("-glob", pattern),
        [mode, pattern, ..] => (mode.as_str(), pattern),
    };
    match mode {
        "-exact" => names.retain(|k| k == pattern),
        "-glob" => names.retain(|k| crate::strutil::glob_match(pattern, k)),
        "-regexp" => {
            let re = crate::regex::Regex::compile(pattern, false)?;
            names.retain(|k| re.find(k).is_some());
        }
        _ => {
            return Err(Exception::error(format!(
                "bad option \"{mode}\": must be -exact, -glob, or -regexp"
            )))
        }
    }
    Ok(())
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
    fn uplevel_reads_a_first_word_with_a_digit_or_hash_as_a_level() {
        // tclsh 8.6's results, checked by hand; the test runs no tclsh.
        const USAGE: &str = "wrong # args: should be \"uplevel ?level? command ?arg ...?\"";
        for compile in [true, false] {
            let i = Interp::new();
            i.set_compile(compile);
            i.eval("proc p {a} {list [catch {uplevel $a} m] $m}")
                .unwrap();
            let cases = [
                ("1", format!("1 {{{USAGE}}}")),
                ("#0", format!("1 {{{USAGE}}}")),
                ("1x", "1 {bad level \"1x\"}".to_owned()),
                ("{set x 5}", "0 5".to_owned()),
                ("x", "1 {invalid command name \"x\"}".to_owned()),
            ];
            for (arg, want) in cases {
                assert_eq!(
                    i.eval(&format!("p {arg}")).unwrap(),
                    want,
                    "{arg}, compile {compile}"
                );
            }
        }
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
    fn array_get_and_names_filter_by_pattern() {
        // tclsh 8.6's results, checked by hand; the test runs no tclsh.
        // tclsh lists names in hash order, so results are sorted here.
        for compile in [true, false] {
            let i = Interp::new();
            i.set_compile(compile);
            i.eval("array set a {j 1 z 2 zz 3 *z 4}").unwrap();
            let cases = [
                ("array get a z", "z 2"),
                ("array names a z", "z"),
                ("lsort [array names a z*]", "z zz"),
                ("lsort [array get a {[jz]}]", "1 2 j z"),
                ("array names a -exact *z", "*z"),
                ("lsort [array names a -glob *z]", "*z z zz"),
                ("lsort [array names a -regexp ^z]", "z zz"),
                ("array names a -exact", ""),
                ("array get a nomatch", ""),
                (
                    "list [catch {array get a z q} m] $m",
                    "1 {wrong # args: should be \"array get arrayName ?pattern?\"}",
                ),
                (
                    "list [catch {array names a -glob z q} m] $m",
                    "1 {wrong # args: should be \"array names arrayName ?mode? ?pattern?\"}",
                ),
                (
                    "list [catch {array names a -foo z} m] $m",
                    "1 {bad option \"-foo\": must be -exact, -glob, or -regexp}",
                ),
                (
                    "list [catch {array size a b} m] $m",
                    "1 {wrong # args: should be \"array size arrayName\"}",
                ),
            ];
            for (script, want) in cases {
                assert_eq!(i.eval(script).unwrap(), want, "{script}, compile {compile}");
            }
        }
    }

    #[test]
    fn array_reads_of_a_non_array_are_empty() {
        // tclsh 8.6's results, checked by hand; the test runs no tclsh.
        for compile in [true, false] {
            let i = Interp::new();
            i.set_compile(compile);
            i.eval("set s 1").unwrap();
            let cases = [
                ("array names nosuch", ""),
                ("array get nosuch", ""),
                ("array size nosuch", "0"),
                ("array names nosuch -glob *", ""),
                ("array names s", ""),
                ("array get s", ""),
                ("array size s", "0"),
                ("array exists s", "0"),
                ("info exists nosuch", "0"),
            ];
            for (script, want) in cases {
                assert_eq!(i.eval(script).unwrap(), want, "{script}, compile {compile}");
            }
        }
    }

    #[test]
    fn array_unset_removes_elements_or_the_array() {
        // tclsh 8.6's results, checked by hand; the test runs no tclsh.
        for compile in [true, false] {
            let i = Interp::new();
            i.set_compile(compile);
            let cases = [
                ("array set a {i 1 j 2}; array unset a j; array names a", "i"),
                (
                    "array set b {x1 1 x2 2 y 3}; array unset b x*; array names b",
                    "y",
                ),
                ("array set c {k 1}; array unset c; info exists c", "0"),
                ("array unset nosuch", ""),
                ("array unset nosuch x*", ""),
                ("info exists nosuch", "0"),
                ("set s 1; array unset s; set s", "1"),
                (
                    "list [catch {array unset a j k} m] $m",
                    "1 {wrong # args: should be \"array unset arrayName ?pattern?\"}",
                ),
            ];
            for (script, want) in cases {
                assert_eq!(i.eval(script).unwrap(), want, "{script}, compile {compile}");
            }
            // rtk's own message (tclsh 8.6's ensemble lists more options).
            assert_eq!(
                i.eval("list [catch {array foo a} m] $m").unwrap(),
                "1 {bad option \"foo\": should be exists, get, names, set, size, or unset}"
            );
        }
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
