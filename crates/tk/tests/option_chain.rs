//! The option database at widget creation, through a nested window path.
//!
//! A widget resolves its path's name and class levels once and looks up
//! every unspecified option against them (Section 3.5); `option get`
//! makes the same lookup for one option. These tests create widgets
//! under frames `.p.f` with entries that match at different levels and
//! check that every option a widget starts with is what `option get`
//! answers for that window (or the default when nothing matches), that
//! the database is read at each creation, and that a recreated path is
//! resolved with its new class.

use tk::{TkApp, TkEnv};

/// Tcl helper: the options of widget `w` whose current value is neither
/// what `option get` answers for it nor, when that is empty, the
/// default, as `{switch current expected}` triples.
const MISMATCHES: &str = r#"
proc mismatches {w} {
    set bad {}
    foreach line [$w configure] {
        if {[llength $line] == 5} {
            set db [option get $w [lindex $line 1] [lindex $line 2]]
            if {[string compare $db ""] == 0} {
                set want [lindex $line 3]
            } else {
                set want $db
            }
            if {[string compare [lindex $line 4] $want] != 0} {
                lappend bad [list [lindex $line 0] [lindex $line 4] $want]
            }
        }
    }
    return $bad
}
"#;

fn app(env: &TkEnv) -> TkApp {
    let app = env.app("options");
    app.eval(MISMATCHES).unwrap();
    app
}

/// The current value of option `switch` of widget `w`.
fn value(app: &TkApp, w: &str, switch: &str) -> String {
    app.eval(&format!("lindex [{w} configure {switch}] 4"))
        .unwrap()
}

fn assert_matches_option_get(app: &TkApp, w: &str) {
    let bad = app.eval(&format!("mismatches {w}")).unwrap();
    assert_eq!(bad, "", "{w}: options differing from `option get`");
}

#[test]
fn creation_agrees_with_option_get_at_every_level() {
    let env = TkEnv::new();
    let app = app(&env);
    for entry in [
        // Loose class binding of the widget itself.
        "option add *Button.background red",
        // An exact path: a name match at every level beats it.
        "option add .p.f.b2.background blue",
        // A class entry for an ancestor, then loose to the option.
        "option add *Frame*Label.foreground green",
        // Tight bindings through ancestor names, loose at the widget.
        "option add .p.f*relief sunken",
        // A tight class binding under a named ancestor, on a class
        // shared by two options (-padx and -pady).
        "option add *f.Button.Pad 7",
        // A higher priority beats a more specific pattern.
        "option add *Entry.borderWidth 5 80",
        "option add .p.f.e.borderWidth 1 60",
        // Matches nothing here: `.f` is not a child of the main window.
        "option add .f*foreground yellow",
    ] {
        app.eval(entry).unwrap();
    }
    for create in [
        "frame .p",
        "frame .p.f",
        "button .p.f.b1",
        "button .p.f.b2",
        "label .p.f.l",
        "entry .p.f.e",
        "checkbutton .p.f.c",
        "button .p.b",
    ] {
        app.eval(create).unwrap();
    }
    for w in [
        ".p", ".p.f", ".p.f.b1", ".p.f.b2", ".p.f.l", ".p.f.e", ".p.f.c", ".p.b",
    ] {
        assert_matches_option_get(&app, w);
    }
    let expect = [
        (".p.f.b1", "-background", "red"),
        (".p.f.b2", "-background", "blue"),
        (".p.b", "-background", "red"),
        (".p.f.l", "-foreground", "green"),
        (".p.f.b1", "-foreground", "black"),
        (".p.f.b1", "-relief", "sunken"),
        (".p.f.l", "-relief", "sunken"),
        (".p.b", "-relief", "raised"),
        (".p.f.b1", "-padx", "7"),
        (".p.f.b2", "-pady", "7"),
        (".p.b", "-padx", "3"),
        (".p.f.l", "-padx", "3"),
        (".p.f.e", "-borderwidth", "5"),
    ];
    for (w, switch, want) in expect {
        assert_eq!(value(&app, w, switch), want, "{w} {switch}");
    }
}

#[test]
fn an_option_added_between_two_creations_reaches_the_second() {
    let env = TkEnv::new();
    let app = app(&env);
    app.eval("frame .p; frame .p.f; button .p.f.first").unwrap();
    app.eval("option add *f.Button.foreground blue").unwrap();
    app.eval("button .p.f.second").unwrap();
    assert_eq!(value(&app, ".p.f.first", "-foreground"), "black");
    assert_eq!(value(&app, ".p.f.second", "-foreground"), "blue");
    assert_matches_option_get(&app, ".p.f.second");
    app.eval("option clear").unwrap();
    app.eval("button .p.f.third").unwrap();
    assert_eq!(value(&app, ".p.f.third", "-foreground"), "black");
}

#[test]
fn a_recreated_path_is_resolved_with_its_new_class() {
    let env = TkEnv::new();
    let app = app(&env);
    app.eval("option add *Button.background red").unwrap();
    app.eval("option add *Label.background pink").unwrap();
    app.eval("option add *Toplevel*Label.foreground white")
        .unwrap();
    app.eval("frame .p; frame .p.f; button .p.f.x").unwrap();
    assert_eq!(value(&app, ".p.f.x", "-background"), "red");
    app.eval("destroy .p.f.x; label .p.f.x").unwrap();
    assert_eq!(value(&app, ".p.f.x", "-background"), "pink");
    assert_matches_option_get(&app, ".p.f.x");

    // An ancestor recreated as another class changes its descendants'
    // levels too.
    app.eval("label .p.f.y").unwrap();
    assert_eq!(value(&app, ".p.f.y", "-foreground"), "black");
    app.eval("destroy .p; toplevel .p; frame .p.f; label .p.f.y")
        .unwrap();
    assert_eq!(value(&app, ".p.f.y", "-foreground"), "white");
    assert_matches_option_get(&app, ".p.f.y");
}
