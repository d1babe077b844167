//! `obs spans flat` and `obs trace` text for one fixed session, pinned
//! against committed output with wall-clock durations masked.
//!
//! The session: a click on a button, typing into an entry, a `send` to a
//! second application, `obs trace on`, one more traced edit, then both
//! listings, and the target's spans. Everything left after masking (ids, parents, kinds, details,
//! sequence numbers, virtual durations) is deterministic, so any change
//! to what the tracer records or how it prints shows up as a diff.
//!
//! Re-bless after an intended change with
//! `RTK_BLESS=1 cargo test --test obs_spans_golden`.

use std::path::PathBuf;

use tk::TkEnv;

/// Replaces every wall-clock figure with `*`: an instant's `@<ns>ns`, a
/// span's `<ns>ns/` duration, and a traced request's trailing duration
/// (the last word of its detail, in both the span detail and the trace
/// line). Virtual-clock durations stay.
fn mask(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let request = line.contains(" request id=") || line.contains("-way ");
        let words: Vec<&str> = line.split(' ').collect();
        let last = words.len() - 1;
        for (i, w) in words.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
            if w.starts_with('@') && w.ends_with("ns") && digits(&w[1..w.len() - 2]) {
                out.push_str("@*ns");
            } else if let Some((_, vms)) = w.split_once("ns/").filter(|(ns, _)| digits(ns)) {
                out.push_str(&format!("*ns/{vms}"));
            } else if request && i == last && digits(w.trim_end_matches(']')) {
                out.push_str(if w.ends_with(']') { "*]" } else { "*" });
            } else {
                out.push_str(w);
            }
        }
        out.push('\n');
    }
    out
}

/// The session's listings, masked, under headers.
fn session() -> String {
    let env = TkEnv::new();
    let b = env.app("beta");
    b.eval("set got {}").unwrap();
    let a = env.app("alpha");
    a.eval(
        "button .b -text Go -command {set clicked 1}
         entry .e
         bind .e <Enter> {set entered 1}
         pack append . .b {top} .e {top}
         update",
    )
    .unwrap();
    a.eval("obs reset").unwrap();
    b.eval("obs reset").unwrap();

    let at = |path: &str| {
        let w = a.window(path).unwrap();
        (w.x.get() + 3, w.y.get() + 3)
    };
    let (x, y) = at(".b");
    env.display().move_pointer(x, y);
    env.display().click(1);
    env.dispatch_all();
    assert_eq!(a.eval("set clicked").unwrap(), "1");

    let (x, y) = at(".e");
    env.display().move_pointer(x, y);
    a.eval("focus .e").unwrap();
    env.display().type_string("hi");
    env.dispatch_all();
    assert_eq!(a.eval("list $entered [.e get]").unwrap(), "1 hi");

    assert_eq!(a.eval("send beta {set got ok}").unwrap(), "ok");
    a.eval("obs trace on").unwrap();
    a.eval(".e insert end !; update").unwrap();

    let flat = a.eval("obs spans flat").unwrap();
    let trace = a.eval("obs trace").unwrap();
    let target = b.eval("obs spans flat").unwrap();
    format!(
        "# obs spans flat\n{}# obs trace\n{}# beta: obs spans flat\n{}",
        mask(&flat),
        mask(&trace),
        mask(&target)
    )
}

#[test]
fn obs_spans_and_trace_text_is_pinned() {
    let got = session();
    assert_eq!(got, session(), "the masked session is not deterministic");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_spans.txt");
    if std::env::var("RTK_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; generate it with RTK_BLESS=1 cargo test --test obs_spans_golden",
            path.display()
        )
    });
    if got != want {
        let (n, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("", "")));
        panic!(
            "obs spans text differs from {} at line {}:\n  got:  {g}\n  want: {w}",
            path.display(),
            n + 1
        );
    }
}
