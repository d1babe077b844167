//! Cross-widget integration tests: composition through Tcl (Section 4),
//! option-database styling (Section 3.5), focus flow (Section 3.7), and
//! rendering sanity checked against the framebuffer.

use tk::TkEnv;

fn app() -> (TkEnv, tk::TkApp) {
    let env = TkEnv::new();
    let a = env.app("test");
    (env, a)
}

#[test]
fn listbox_and_scrollbar_compose_through_tcl() {
    // The Section 4 composition example in full, driven both ways.
    let (env, app) = app();
    app.eval("scrollbar .scroll -command \".list view\"")
        .unwrap();
    app.eval("listbox .list -scroll \".scroll set\" -geometry 12x4")
        .unwrap();
    app.eval("pack append . .scroll {right filly} .list {left expand fill}")
        .unwrap();
    for i in 0..30 {
        app.eval(&format!(".list insert end row{i:02}")).unwrap();
    }
    app.update();
    // Listbox -> scrollbar: the view state arrived.
    let state = app.eval(".scroll get").unwrap();
    let parts: Vec<i64> = state
        .split_whitespace()
        .map(|p| p.parse().unwrap())
        .collect();
    assert_eq!(parts[0], 30);
    assert!(parts[1] >= 4);
    // Scrollbar -> listbox: `.list view 10` by hand, then via widget.
    app.eval(".list view 10").unwrap();
    app.update();
    assert_eq!(app.eval(".list nearest 1").unwrap(), "10");
    let state = app.eval(".scroll get").unwrap();
    assert!(state.starts_with("30"), "{state}");
    assert_eq!(state.split_whitespace().nth(2).unwrap(), "10");
    env.dispatch_all();
}

#[test]
fn option_database_styles_new_widgets() {
    let (_env, app) = app();
    app.eval("option add *Button.background red").unwrap();
    app.eval("option add *Button.activeBackground yellow")
        .unwrap();
    app.eval("option add *myspecial.background blue").unwrap();
    app.eval("button .b1 -text one").unwrap();
    app.eval("button .myspecial -text two").unwrap();
    assert!(app
        .eval("lindex [.b1 configure -background] 4")
        .unwrap()
        .contains("red"));
    assert!(app
        .eval("lindex [.b1 configure -activebackground] 4")
        .unwrap()
        .contains("yellow"));
    // The name pattern beats the class pattern.
    assert!(app
        .eval("lindex [.myspecial configure -background] 4")
        .unwrap()
        .contains("blue"));
    // Explicit creation options beat the database.
    app.eval("button .b2 -background green").unwrap();
    assert!(app
        .eval("lindex [.b2 configure -background] 4")
        .unwrap()
        .contains("green"));
}

#[test]
fn focus_routes_keystrokes_between_entries() {
    let (env, app) = app();
    app.eval("entry .e1 -width 8; entry .e2 -width 8").unwrap();
    app.eval("pack append . .e1 {top} .e2 {top}").unwrap();
    app.update();
    app.eval("focus .e1").unwrap();
    env.display().type_string("one");
    env.dispatch_all();
    app.eval("focus .e2").unwrap();
    env.display().type_string("two");
    env.dispatch_all();
    assert_eq!(app.eval(".e1 get").unwrap(), "one");
    assert_eq!(app.eval(".e2 get").unwrap(), "two");
}

#[test]
fn dialog_box_from_pure_tcl() {
    // Section 5: "Tk contains no special support for dialog boxes."
    let (_env, app) = app();
    app.eval(
        r#"
        proc ask {question} {
            toplevel .ask
            message .ask.q -text $question -width 150
            button .ask.yes -text Yes -command {global answer; set answer yes; destroy .ask}
            button .ask.no -text No -command {global answer; set answer no; destroy .ask}
            pack append .ask .ask.q {top} .ask.yes {left expand} .ask.no {right expand}
        }
    "#,
    )
    .unwrap();
    app.eval("ask {Save changes?}").unwrap();
    app.update();
    assert_eq!(app.eval("winfo exists .ask").unwrap(), "1");
    assert_eq!(app.eval("winfo class .ask").unwrap(), "Toplevel");
    app.eval(".ask.yes invoke").unwrap();
    app.update();
    assert_eq!(app.eval("set answer").unwrap(), "yes");
    assert_eq!(app.eval("winfo exists .ask").unwrap(), "0");
}

#[test]
fn checkbuttons_and_radiobuttons_render_state() {
    let (env, app) = app();
    app.eval("checkbutton .c -text Bold -variable bold")
        .unwrap();
    app.eval("radiobutton .r -text Red -variable color -value red")
        .unwrap();
    app.eval("pack append . .c {top} .r {top}").unwrap();
    app.update();
    app.eval(".c select; .r select").unwrap();
    app.update();
    assert_eq!(app.eval("set bold").unwrap(), "1");
    assert_eq!(app.eval("set color").unwrap(), "red");
    // The screen shows both labels.
    let dump = env.display().ascii_dump();
    assert!(dump.contains("Bold"), "{dump}");
    assert!(dump.contains("Red"), "{dump}");
}

#[test]
fn button_press_renders_sunken_then_invokes() {
    let (env, app) = app();
    app.eval("set hits 0; button .b -text Go -command {incr hits}")
        .unwrap();
    app.eval("pack append . .b {top}").unwrap();
    app.update();
    let rec = app.window(".b").unwrap();
    let (cx, cy) = (
        rec.x.get() + rec.width.get() as i32 / 2,
        rec.y.get() + rec.height.get() as i32 / 2,
    );
    env.display().move_pointer(cx, cy);
    env.display().press_button(1);
    env.dispatch_all();
    app.update();
    // Not yet invoked while held down.
    assert_eq!(app.eval("set hits").unwrap(), "0");
    env.display().release_button(1);
    env.dispatch_all();
    assert_eq!(app.eval("set hits").unwrap(), "1");
    // Moving out cancels a pending press.
    env.display().press_button(1);
    env.display().move_pointer(500, 500);
    env.display().release_button(1);
    env.dispatch_all();
    assert_eq!(app.eval("set hits").unwrap(), "1");
}

#[test]
fn scale_reports_through_command() {
    let (env, app) = app();
    app.eval("set seen {}").unwrap();
    app.eval("proc watch {v} {global seen; lappend seen $v}")
        .unwrap();
    app.eval("scale .s -from 0 -to 10 -length 110 -command watch")
        .unwrap();
    app.eval("pack append . .s {top}").unwrap();
    app.update();
    let rec = app.window(".s").unwrap();
    // Drag from the middle to the right across the trough (the value is 0
    // initially, so starting at the left edge would produce no change).
    let y = rec.y.get() + rec.height.get() as i32 - 6;
    env.display()
        .move_pointer(rec.x.get() + rec.width.get() as i32 / 2, y);
    env.display().press_button(1);
    env.dispatch_all();
    env.display()
        .move_pointer(rec.x.get() + rec.width.get() as i32 - 12, y);
    env.dispatch_all();
    env.display().release_button(1);
    env.dispatch_all();
    let seen = app.eval("set seen").unwrap();
    let values: Vec<i64> = seen
        .split_whitespace()
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(values.len() >= 2, "drag produced {seen}");
    assert!(values.last().unwrap() > values.first().unwrap());
    assert_eq!(
        app.eval(".s get").unwrap(),
        values.last().unwrap().to_string()
    );
}

#[test]
fn menus_post_and_invoke_via_keyboardless_mouse() {
    let (env, app) = app();
    app.eval("menubutton .mb -text File -menu .mb.m").unwrap();
    app.eval("menu .mb.m").unwrap();
    app.eval(".mb.m add command -label New -command {set did new}")
        .unwrap();
    app.eval(".mb.m add separator").unwrap();
    app.eval(".mb.m add command -label Quit -command {set did quit}")
        .unwrap();
    app.eval("pack append . .mb {top frame nw}").unwrap();
    app.update();
    let mb = app.window(".mb").unwrap();
    env.display().move_pointer(mb.x.get() + 5, mb.y.get() + 5);
    env.display().click(1);
    env.dispatch_all();
    app.update();
    assert!(app.window(".mb.m").unwrap().mapped.get());
    // Click the third entry (Quit): entries are ~17px tall.
    env.display().move_pointer(
        mb.x.get() + 10,
        mb.y.get() + mb.height.get() as i32 + 2 + 2 * 17 + 8,
    );
    env.display().click(1);
    env.dispatch_all();
    assert_eq!(app.eval("set did").unwrap(), "quit");
}

#[test]
fn destroy_cleans_up_everything() {
    let (_env, app) = app();
    // The <Enter> binding below prints; keep it off the test harness's
    // stdout, where it could glue onto a parallel test's result line.
    let _out = app.interp().capture_output();
    app.eval("frame .f").unwrap();
    app.eval("button .f.b -text x -command {}").unwrap();
    app.eval("entry .f.e").unwrap();
    app.eval("pack append . .f {top}").unwrap();
    app.eval("pack append .f .f.b {top} .f.e {top}").unwrap();
    app.eval("bind .f.b <Enter> {print hi}").unwrap();
    app.update();
    let count_before: usize = app.window_paths().len();
    assert_eq!(count_before, 4); // ., .f, .f.b, .f.e
    app.eval("destroy .f").unwrap();
    app.update();
    assert_eq!(app.window_paths().len(), 1);
    assert!(app.eval(".f.b invoke").is_err());
    assert_eq!(app.eval("bind .f.b").unwrap(), "");
    // The names are reusable.
    app.eval("frame .f; button .f.b -text again").unwrap();
}

#[test]
fn widgets_redraw_after_resize() {
    let (env, app) = app();
    app.eval("button .b -text Resize").unwrap();
    app.eval("pack append . .b {top expand fill}").unwrap();
    app.update();
    app.eval("wm geometry . 300x100").unwrap();
    app.update();
    let rec = app.window(".b").unwrap();
    assert_eq!(rec.width.get(), 300);
    // The label is still painted after the resize.
    let dump = env.display().ascii_dump();
    assert!(dump.contains("Resize"), "{dump}");
}

#[test]
fn labels_follow_anchor_option() {
    let (_env, app) = app();
    app.eval("label .l -text hi -anchor w -width 20").unwrap();
    app.eval("pack append . .l {top}").unwrap();
    app.update();
    app.eval(".l configure -anchor e").unwrap();
    app.update();
    // No assertion beyond "no error and still mapped": pixel placement is
    // covered by unit tests of Anchor::place.
    assert!(app.window(".l").unwrap().mapped.get());
}

#[test]
fn entry_reports_view_to_horizontal_scrollbar() {
    let (_env, app) = app();
    app.eval("entry .e -width 8 -scroll {.sb set}").unwrap();
    app.eval("scrollbar .sb -orient horizontal -command {.e view}")
        .unwrap();
    app.eval("pack append . .e {top fillx} .sb {top fillx}")
        .unwrap();
    app.update();
    app.eval(".e insert 0 abcdefghijklmnopqrstuvwxyz").unwrap();
    app.update();
    let state = app.eval(".sb get").unwrap();
    let parts: Vec<i64> = state
        .split_whitespace()
        .map(|p| p.parse().unwrap())
        .collect();
    assert_eq!(parts[0], 26, "{state}");
    assert!(parts[1] >= 8, "{state}");
    // Scrolling the entry updates the scrollbar's first unit.
    app.eval(".e view 10").unwrap();
    app.update();
    let state = app.eval(".sb get").unwrap();
    assert_eq!(state.split_whitespace().nth(2).unwrap(), "10", "{state}");
}

#[test]
fn option_readfile_loads_xdefaults() {
    let (_env, app) = app();
    let path = std::env::temp_dir().join("rtk_xdefaults_test");
    std::fs::write(
        &path,
        "! user preferences\n*Button.background: MediumSeaGreen\n*font: 9x15\n",
    )
    .unwrap();
    app.eval(&format!("option readfile {} userDefault", path.display()))
        .unwrap();
    app.eval("button .b -text styled").unwrap();
    let bg = app.eval("lindex [.b configure -background] 4").unwrap();
    assert_eq!(bg, "MediumSeaGreen");
    let font = app.eval("lindex [.b configure -font] 4").unwrap();
    assert_eq!(font, "9x15");
}

#[test]
fn horizontal_scrollbar_arrows_work() {
    let (env, app) = app();
    app.eval("proc view {i} {global got; set got $i}").unwrap();
    app.eval("scrollbar .sb -orient horizontal -command view")
        .unwrap();
    app.eval("pack append . .sb {top fillx}").unwrap();
    app.update();
    app.eval(".sb set 20 5 10 14").unwrap();
    let rec = app.window(".sb").unwrap();
    // Right arrow: one unit forward.
    env.display().move_pointer(
        rec.x.get() + rec.width.get() as i32 - 3,
        rec.y.get() + rec.height.get() as i32 / 2,
    );
    env.display().click(1);
    env.dispatch_all();
    assert_eq!(app.eval("set got").unwrap(), "11");
    // Left arrow: one unit back.
    env.display()
        .move_pointer(rec.x.get() + 3, rec.y.get() + rec.height.get() as i32 / 2);
    env.display().click(1);
    env.dispatch_all();
    assert_eq!(app.eval("set got").unwrap(), "9");
}
