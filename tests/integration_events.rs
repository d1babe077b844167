//! Event-semantics integration tests: crossing events through nested
//! windows, triple-clicks, expose-on-raise, and propagation rules.

use tk::TkEnv;

#[test]
fn enter_leave_through_nested_frames() {
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("set log {}").unwrap();
    app.eval("frame .outer").unwrap();
    app.eval("pack append . .outer {top}").unwrap();
    // Padding makes the outer frame larger than its packed child (the
    // packer's geometry propagation always sizes the master to fit, as in
    // 1991 Tk, so an explicit -geometry would be overridden here).
    app.eval("frame .outer.inner -geometry 50x50").unwrap();
    app.eval("pack append .outer .outer.inner {top padx 75 pady 75}")
        .unwrap();
    app.update();
    app.eval("bind .outer <Enter> {lappend log outer-in}")
        .unwrap();
    app.eval("bind .outer <Leave> {lappend log outer-out}")
        .unwrap();
    app.eval("bind .outer.inner <Enter> {lappend log inner-in}")
        .unwrap();
    app.eval("bind .outer.inner <Leave> {lappend log inner-out}")
        .unwrap();
    let outer = app.window(".outer").unwrap();
    assert_eq!(outer.width.get(), 200, "padding sizes the master");
    let d = env.display();
    d.move_pointer(500, 500); // outside everything
    env.dispatch_all();
    app.eval("set log {}").unwrap();
    d.move_pointer(10, 10); // into .outer's padding, not .inner
    env.dispatch_all();
    d.move_pointer(100, 100); // into .inner
    env.dispatch_all();
    d.move_pointer(500, 500); // out of both
    env.dispatch_all();
    let log = app.eval("set log").unwrap();
    assert!(log.contains("outer-in"), "{log}");
    assert!(log.contains("inner-in"), "{log}");
    assert!(log.contains("inner-out"), "{log}");
}

#[test]
fn triple_click_binding() {
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("frame .f -geometry 80x80; pack append . .f {top}")
        .unwrap();
    app.eval("set singles 0; set triples 0").unwrap();
    app.eval("bind .f <Button-1> {incr singles}").unwrap();
    app.eval("bind .f <Triple-Button-1> {incr triples}")
        .unwrap();
    app.update();
    env.display().move_pointer(40, 40);
    for _ in 0..3 {
        env.display().click(1);
        env.dispatch_all();
    }
    // The third press matches the more specific triple binding; the first
    // two fell back to the single binding.
    assert_eq!(app.eval("set triples").unwrap(), "1");
    assert_eq!(app.eval("set singles").unwrap(), "2");
}

#[test]
fn raise_causes_expose_redraw() {
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("button .b -text Hidden").unwrap();
    app.eval("pack append . .b {top}").unwrap();
    app.update();
    let rec = app.window(".b").unwrap();
    // Simulate occlusion damage: raise generates Expose, which must
    // schedule a redraw that repaints the label.
    let client = app.conn().client_id();
    env.display().with_server(|s| {
        s.clear_area(client, rec.xid, 0, 0, 0, 0);
    });
    app.conn().raise_window(rec.xid);
    app.update();
    let dump = env.display().ascii_dump();
    assert!(dump.contains("Hidden"), "{dump}");
}

#[test]
fn key_events_follow_focus_not_pointer() {
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("frame .a -geometry 50x50; frame .b -geometry 50x50")
        .unwrap();
    app.eval("pack append . .a {top} .b {top}").unwrap();
    app.eval("set hits {}").unwrap();
    app.eval("bind .a x {lappend hits a}").unwrap();
    app.eval("bind .b x {lappend hits b}").unwrap();
    app.update();
    // Pointer over .a, focus on .b: keys go to .b.
    let a = app.window(".a").unwrap();
    env.display().move_pointer(a.x.get() + 10, a.y.get() + 10);
    app.eval("focus .b").unwrap();
    env.display().type_char('x');
    env.dispatch_all();
    assert_eq!(app.eval("set hits").unwrap(), "b");
    // With no focus, keys follow the pointer.
    app.eval("focus none").unwrap();
    env.display().type_char('x');
    env.dispatch_all();
    assert_eq!(app.eval("set hits").unwrap(), "b a");
}

#[test]
fn button_events_belong_to_the_window_they_occur_in() {
    // 1991 Tk semantics: a binding on a parent does NOT fire for clicks
    // inside a child window (bindtags inheritance came years later).
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("frame .f; pack append . .f {top}").unwrap();
    app.eval("label .f.l -text target").unwrap();
    app.eval("pack append .f .f.l {top padx 30 pady 30}")
        .unwrap();
    app.eval("set frame-clicks 0; set label-clicks 0").unwrap();
    app.eval("bind .f <Button-1> {incr frame-clicks}").unwrap();
    app.eval("bind .f.l <Button-1> {incr label-clicks}")
        .unwrap();
    app.update();
    let f = app.window(".f").unwrap();
    let l = app.window(".f.l").unwrap();
    // Click inside the label: only the label binding fires.
    env.display()
        .move_pointer(f.x.get() + l.x.get() + 5, f.y.get() + l.y.get() + 5);
    env.display().click(1);
    env.dispatch_all();
    assert_eq!(app.eval("set label-clicks").unwrap(), "1");
    assert_eq!(app.eval("set frame-clicks").unwrap(), "0");
    // Click in the frame's padding: the frame binding fires.
    env.display().move_pointer(f.x.get() + 5, f.y.get() + 5);
    env.display().click(1);
    env.dispatch_all();
    assert_eq!(app.eval("set frame-clicks").unwrap(), "1");
}

#[test]
fn configure_binding_reports_new_size() {
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("frame .f -geometry 50x50; pack append . .f {top expand fill}")
        .unwrap();
    app.update();
    app.eval("bind .f <Configure> {set size %wx%h}").unwrap();
    app.eval("wm geometry . 300x220").unwrap();
    app.update();
    assert_eq!(app.eval("set size").unwrap(), "300x220");
    let _ = env;
}
