//! Programs found once per holder: semantics and counts.
//!
//! `for`, `while` and `foreach` hold their condition's and their scripts'
//! programs for one invocation, a proc holds its body's from the first
//! call on, and a word that is one `[cmd]` (or a `[cmd]` operand of a
//! compiled expression) holds its script's on the compiled node.
//!
//! The semantic cases run with the compiler on and off. Each expected
//! result was read from tclsh 8.6 (none of these tests runs it), and
//! `errorInfo` must be the same in both modes. The counts pin "found
//! once": a loop's own lookups do not grow with its iterations, and a
//! proc body or a `[cmd]` word is found once however often it runs. A
//! body's own `if` and `expr` commands still find their arguments by
//! text, one lookup per run (`body_expr_commands_still_find_by_text`):
//! their arguments are plain strings until commands take values that
//! keep their parsed form.

use tcl::Interp;

fn interp(compile: bool) -> Interp {
    let i = Interp::new();
    i.set_compile(compile);
    i
}

/// Runs `script` on a fresh interpreter in both modes: the result, or the
/// error message, must be `want`, and `errorInfo` the same in both.
fn check(script: &str, want: Result<&str, &str>) {
    let mut infos = Vec::new();
    for compile in [true, false] {
        let i = interp(compile);
        let got = i.eval(script);
        let got = got.as_deref().map_err(|e| e.msg.as_str());
        assert_eq!(got, want, "compile {compile}: {script}");
        infos.push(i.get_var_at(0, "errorInfo", None).ok());
    }
    assert_eq!(
        infos[0], infos[1],
        "errorInfo differs between modes: {script}"
    );
}

#[test]
fn break_and_continue_in_loop_bodies() {
    check(
        "set r {}; for {set i 0} {$i < 10} {incr i} \
         {if {$i == 2} continue; if {$i == 5} break; lappend r $i}; set r",
        Ok("0 1 3 4"),
    );
    check(
        "set r {}; set i 0; while {$i < 10} \
         {incr i; if {$i == 2} continue; if {$i == 5} break; lappend r $i}; set r",
        Ok("1 3 4"),
    );
    check(
        "set r {}; foreach x {a b c d e} \
         {if {$x == \"b\"} continue; if {$x == \"d\"} break; lappend r $x}; set r",
        Ok("a c"),
    );
    check(
        "set r {}; foreach a {1 2} \
         {for {set i 0} {$i < 5} {incr i} {if {$i == 2} break; lappend r $a$i}}; set r",
        Ok("10 11 20 21"),
    );
}

#[test]
fn error_in_loop_bodies() {
    check(
        "proc fe {} {for {set i 0} {$i < 3} {incr i} {if {$i == 1} {error \"boom $i\"}}}; fe",
        Err("boom 1"),
    );
    check(
        "proc we {} {set i 0; while {$i < 3} {incr i; if {$i == 2} {error \"boom $i\"}}}; we",
        Err("boom 2"),
    );
    check(
        "proc ee {} {foreach x {a b c} {if {$x == \"c\"} {error \"boom $x\"}}}; ee",
        Err("boom c"),
    );
}

#[test]
fn return_from_loop_bodies() {
    check(
        "proc fr {} {for {set i 0} {$i < 9} {incr i} {if {$i == 4} {return \"at $i\"}}; \
         return none}; fr",
        Ok("at 4"),
    );
    check(
        "proc wr {} {set i 0; while 1 {incr i; if {$i == 3} {return \"at $i\"}}}; wr",
        Ok("at 3"),
    );
    check(
        "proc er {} {foreach x {a b c} {if {$x == \"b\"} {return \"at $x\"}}; return none}; er",
        Ok("at b"),
    );
}

#[test]
fn error_in_the_next_script_of_for() {
    check(
        "for {set i 0} {$i < 3} {error \"next $i\"} {set j $i}",
        Err("next 0"),
    );
    check(
        "proc fn {} {for {set i 0} {$i < 3} {incr i; error \"next $i\"} {}}; fn",
        Err("next 1"),
    );
}

#[test]
fn a_loop_body_that_redefines_a_proc_it_calls() {
    check(
        "proc f {} {return 1}; set r {}; \
         foreach i {1 2 3} {lappend r [f]; proc f {} {return 2}}; set r",
        Ok("1 2 2"),
    );
}

#[test]
fn a_proc_that_redefines_itself_while_it_runs() {
    check(
        "proc p {} {proc p {} {return new}; return old}; list [p] [p]",
        Ok("old new"),
    );
}

#[test]
fn a_proc_incr_defined_partway_through_a_loop() {
    check(
        "set r {}; for {set i 0} {$i < 4} {incr i} {lappend r $i; \
         if {$i == 1} {proc incr {v} {upvar $v x; set x [expr {$x + 2}]}}}; set r",
        Ok("0 1 3"),
    );
}

#[test]
fn a_command_in_a_compiled_expression_whose_proc_changes() {
    check(
        "proc v {} {return 1}; proc t {} {expr {[v] * 10}}; \
         set a [t]; proc v {} {return 2}; list $a [t]",
        Ok("10 20"),
    );
}

#[test]
fn unbounded_recursion_hits_the_nesting_limit() {
    // tclsh 8.6 fails too (code 1), at its own depth and in its own
    // words: "too many nested evaluations (infinite loop?)". The message
    // here is Tcl 6's, and the depth must not depend on the mode.
    check(
        "proc rec {} {rec}; rec",
        Err("too many nested calls to Tcl_Eval (infinite loop?)"),
    );
    check(
        "set d 0; proc rec {} {incr ::d; for {} 1 {} {rec}}; catch rec; set d",
        Ok("74"),
    );
}

fn counter(i: &Interp, name: &str) -> u64 {
    i.compile_counters()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

/// Program-cache and expr-cache lookups (hits plus misses) made by
/// evaluating `script` once on `i`.
fn lookups(i: &Interp, script: &str) -> (u64, u64) {
    i.reset_compile_stats();
    i.eval(script).unwrap();
    (
        counter(i, "tcl.compile_cache_hits") + counter(i, "tcl.compile_cache_misses"),
        counter(i, "tcl.expr_cache_hits") + counter(i, "tcl.expr_compiles"),
    )
}

#[test]
fn a_loops_lookups_do_not_grow_with_its_iterations() {
    let i = interp(true);
    i.eval("proc sum {n} {set s 0; for {set i 0} {$i < $n} {incr i} {incr s $i}; set s}")
        .unwrap();
    let top = "set s 0; for {set i 0} {$i < $n} {incr i} {incr s $i}; set s";
    let mut seen = Vec::new();
    for n in [10, 1000] {
        i.eval(&format!("set n {n}; sum {n}")).unwrap(); // warm both shapes
        assert_eq!(i.eval(top).unwrap(), i.eval(&format!("sum {n}")).unwrap());
        seen.push((lookups(&i, top), lookups(&i, &format!("sum {n}"))));
    }
    assert_eq!(seen[0], seen[1]);
    // The script or the call itself, then the loop's start, body and
    // next; the condition is the one expr lookup. A proc body is held.
    assert_eq!(seen[0], ((4, 1), (4, 1)));
}

#[test]
fn a_proc_called_100_times_finds_its_body_once() {
    let i = interp(true);
    i.eval("proc k {} {set a 1; set b 2}").unwrap();
    // The loop script, its start, body and next, and k's body.
    assert_eq!(lookups(&i, "for {set j 0} {$j < 100} {incr j} {k}"), (5, 1));
    assert_eq!(lookups(&i, "k"), (1, 0));
}

#[test]
fn a_compiled_command_word_finds_its_program_once() {
    let i = interp(true);
    i.eval("proc cmd {} {return 1}").unwrap();
    i.reset_compile_stats();
    for _ in 0..50 {
        assert_eq!(i.eval("set x [cmd]").unwrap(), "1");
    }
    // 50 lookups of the script's own text; `cmd` and cmd's body once.
    assert_eq!(
        counter(&i, "tcl.compile_cache_hits") + counter(&i, "tcl.compile_cache_misses"),
        52
    );
}

#[test]
fn body_expr_commands_still_find_by_text() {
    let i = interp(true);
    let script = "set s 0; for {set i 0} {$i < 10} {incr i} {set s [expr {$s + $i}]}";
    i.eval(script).unwrap();
    // The condition once, and the body's `expr` on each of 10 runs.
    assert_eq!(lookups(&i, script), (4, 11));
}

#[test]
fn an_empty_script_makes_no_cache_lookup() {
    let i = interp(true);
    assert_eq!(lookups(&i, ""), (0, 0));
    i.eval("if 1 {}; while 0 {}").unwrap();
    // The script itself only: neither empty body is looked up.
    assert_eq!(lookups(&i, "if 1 {}; while 0 {}"), (1, 2));
}

#[test]
fn a_held_program_is_not_used_once_the_compiler_is_off() {
    let i = interp(true);
    i.eval("proc p {} {set a 1; set b 2}").unwrap();
    i.eval("p").unwrap();
    i.set_compile(false);
    let before = counter(&i, "tcl.parses");
    assert_eq!(i.eval("p").unwrap(), "2");
    // `p`, then the body's two commands, parsed afresh.
    assert_eq!(counter(&i, "tcl.parses"), before + 3);
}
