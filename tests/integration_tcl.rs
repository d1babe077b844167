//! Integration tests for the Tcl interpreter as a programming language:
//! complete programs, the paper's Figure 1-5 examples verbatim, and the
//! "programs are data" property that makes Tk's callbacks possible.

use tcl::Interp;

#[test]
fn figures_1_through_5_verbatim() {
    let i = Interp::new();
    let out = i.capture_output();
    // Figure 1.
    i.eval("set a 1000").unwrap();
    i.eval("print foo; print bar").unwrap();
    assert_eq!(&*out.borrow(), "foobar");
    // Figure 2.
    i.eval("set msg \"Hello, world\"").unwrap();
    i.eval("set x {a b {x1 x2}}").unwrap();
    assert_eq!(i.eval("set msg").unwrap(), "Hello, world");
    assert_eq!(i.eval("llength $x").unwrap(), "3");
    // Figure 3.
    out.borrow_mut().clear();
    i.eval("print $msg").unwrap();
    assert_eq!(&*out.borrow(), "Hello, world");
    i.eval("set i 1").unwrap();
    i.eval("if $i<2 {set j 43}").unwrap();
    assert_eq!(i.eval("set j").unwrap(), "43");
    // Figure 4.
    out.borrow_mut().clear();
    i.eval("print [list q r $x]").unwrap();
    assert_eq!(&*out.borrow(), "q r {a b {x1 x2}}");
    i.eval("set msg [format \"x is %s\" $x]").unwrap();
    assert_eq!(i.eval("set msg").unwrap(), "x is a b {x1 x2}");
    // Figure 5.
    i.eval(r#"set msg "\{ and \} are special""#).unwrap();
    assert_eq!(i.eval("set msg").unwrap(), "{ and } are special");
    out.borrow_mut().clear();
    i.eval("print Hello!\\n").unwrap();
    assert_eq!(&*out.borrow(), "Hello!\n");
}

#[test]
fn fibonacci_program() {
    let i = Interp::new();
    i.eval(
        "proc fib {n} {
            if {$n < 2} {return $n}
            return [expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]}]
        }",
    )
    .unwrap();
    assert_eq!(i.eval("fib 15").unwrap(), "610");
}

#[test]
fn iterative_sort_program() {
    let i = Interp::new();
    i.eval(
        "proc bubble {list} {
            set n [llength $list]
            for {set i 0} {$i < $n} {incr i} {
                for {set j 0} {$j < [expr {$n-$i-1}]} {incr j} {
                    set a [lindex $list $j]
                    set b [lindex $list [expr {$j+1}]]
                    if {$a > $b} {
                        set list [lreplace $list $j [expr {$j+1}] $b $a]
                    }
                }
            }
            return $list
        }",
    )
    .unwrap();
    assert_eq!(i.eval("bubble {5 3 9 1 7 2}").unwrap(), "1 2 3 5 7 9");
}

#[test]
fn programs_synthesized_on_the_fly() {
    // "Tcl programs have the same basic form as Tcl data, which allows new
    // Tcl programs to be synthesized and executed on-the-fly."
    let i = Interp::new();
    i.eval("set body {return [expr {$x * $x}]}").unwrap();
    i.eval("eval [list proc square {x} $body]").unwrap();
    assert_eq!(i.eval("square 12").unwrap(), "144");
    // And introspected back out (Section 8's "access to its own
    // internals").
    assert_eq!(
        i.eval("info body square").unwrap(),
        "return [expr {$x * $x}]"
    );
}

#[test]
fn error_info_traceback_through_procs() {
    let i = Interp::new();
    i.eval("proc outer {} {middle}").unwrap();
    i.eval("proc middle {} {inner}").unwrap();
    i.eval("proc inner {} {error deep-failure}").unwrap();
    let e = i.eval("outer").unwrap_err();
    assert_eq!(e.msg, "deep-failure");
    let info = i.get_var_at(0, "errorInfo", None).unwrap();
    assert!(info.contains("deep-failure"));
    assert!(info.contains("inner"));
    assert!(info.contains("outer"));
}

#[test]
fn catch_isolates_failures() {
    let i = Interp::new();
    let script = "
        set results {}
        foreach item {1 0 2} {
            if {[catch {expr {10 / $item}} value]} {
                lappend results error
            } else {
                lappend results $value
            }
        }
        set results
    ";
    assert_eq!(i.eval(script).unwrap(), "10 error 5");
}

#[test]
fn upvar_implements_reference_semantics() {
    let i = Interp::new();
    i.eval(
        "proc swap {aName bName} {
            upvar $aName a $bName b
            set tmp $a
            set a $b
            set b $tmp
        }",
    )
    .unwrap();
    i.eval("set x 1; set y 2; swap x y").unwrap();
    assert_eq!(i.eval("set x").unwrap(), "2");
    assert_eq!(i.eval("set y").unwrap(), "1");
}

#[test]
fn string_only_data_model_interops_with_numbers() {
    let i = Interp::new();
    // Everything is a string: numbers survive round trips through lists,
    // variables, and format.
    i.eval("set vals {}").unwrap();
    i.eval("foreach v {1 2 3} {lappend vals [format %03d $v]}")
        .unwrap();
    assert_eq!(i.eval("set vals").unwrap(), "001 002 003");
    assert_eq!(i.eval("expr {[lindex $vals 2] + 1}").unwrap(), "4");
}

#[test]
fn deep_recursion_is_caught_not_crashed() {
    let i = Interp::new();
    i.eval("proc down {n} {down [expr {$n+1}]}").unwrap();
    let e = i.eval("down 0").unwrap_err();
    assert!(e.msg.contains("too many nested calls"));
    // The interpreter remains usable.
    assert_eq!(i.eval("expr {1+1}").unwrap(), "2");
}

#[test]
fn command_line_application_pattern() {
    // An application registers a few primitives; Tcl composes them
    // (Section 2's whole point).
    let i = Interp::new();
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::<String>::new()));
    let l = log.clone();
    i.register("emit", move |_i, argv| {
        l.borrow_mut().push(argv[1..].join(" "));
        Ok(String::new())
    });
    i.eval(
        "foreach color {red green blue} {
            if {[string match g* $color]} continue
            emit chose $color
        }",
    )
    .unwrap();
    assert_eq!(log.borrow().join("; "), "chose red; chose blue");
}

#[test]
fn whole_figure9_proc_parses_and_defines() {
    let i = Interp::new();
    i.eval(
        r#"proc browse {dir file} {
            if {[string compare $dir "."] != 0} {set file $dir/$file}
            if [file $file isdirectory] {
                set cmd [list exec sh -c "browse $file &"]
                eval $cmd
            } else {
                if [file $file isfile] {exec mx $file} else {
                    print "$file isn't a directory or regular file\n"
                }
            }
        }"#,
    )
    .unwrap();
    assert_eq!(i.eval("info args browse").unwrap(), "dir file");
}

/// A sign after `0x` is not a hex digit: `0x+5` is not a number, so
/// `format %d` and arithmetic reject it as Tcl does.
#[test]
fn hex_numbers_take_no_sign_after_the_prefix() {
    let i = Interp::new();
    assert_eq!(i.eval("format %d 0x1f").unwrap(), "31");
    assert!(i.eval("format %d 0x+5").is_err());
    i.eval("set x 0x+5").unwrap();
    assert!(i.eval("expr {$x * 2}").is_err());
    assert_eq!(i.eval("expr {-0x5 * 2}").unwrap(), "-10");
}
