//! Property tests for the Tcl core, driven by the in-repo deterministic
//! PRNG (`xsim::XorShift`: fixed case counts, and every failure reprints
//! its case or seed for replay).
//!
//! The laws under test are the ones Tcl scripts lean on constantly:
//! `format_list`/`parse_list` must round-trip arbitrary element strings
//! (quoting), parsing is a normalizing projection (parse∘format∘parse =
//! parse∘format), and the interpreter-level `list`/`lindex`/`llength`/
//! `join`/`split` commands agree with the library functions. Beyond
//! lists: the parser and evaluator never panic, `expr` integer arithmetic
//! and comparisons match Rust's, `format %d` covers all of `i64`, and the
//! glob and regex matchers agree with plain string predicates.

use tcl::{format_list, parse_list, Interp};
use xsim::XorShift;

const CASES: usize = 300;

/// Characters weighted toward the ones that make Tcl quoting hard.
fn gen_element(rng: &mut XorShift) -> String {
    let len = rng.below(8) as usize;
    let mut s = String::new();
    for _ in 0..len {
        let c = match rng.below(18) {
            0 => '{',
            1 => '}',
            2 => '"',
            3 => '\\',
            4 => ' ',
            5 => '\t',
            6 => '\n',
            7 => '$',
            8 => '[',
            9 => ']',
            10 => ';',
            11 => '#',
            _ => (b'a' + rng.below(26) as u8) as char,
        };
        s.push(c);
    }
    s
}

fn gen_elements(rng: &mut XorShift) -> Vec<String> {
    let n = rng.below(6) as usize;
    (0..n).map(|_| gen_element(rng)).collect()
}

/// Any character: Tcl specials, printable and control ASCII, or any
/// Unicode scalar value. Scripts built from these are character soup,
/// not command words, so they do not spell a working `exec`, `source`
/// or `cd`.
fn any_char(rng: &mut XorShift) -> char {
    match rng.below(4) {
        0 => b"{}[]$\\\" ;#\t\n"[rng.below(12) as usize] as char,
        1 => rng.range(0x20, 0x7f) as u8 as char,
        2 => rng.below(0x80) as u8 as char,
        _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
    }
}

/// Up to `max` characters from [`any_char`].
fn any_string(rng: &mut XorShift, max: u64) -> String {
    (0..rng.below(max + 1)).map(|_| any_char(rng)).collect()
}

/// `lo..=hi` characters drawn from `alphabet`.
fn string_of(rng: &mut XorShift, alphabet: &str, lo: u64, hi: u64) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..rng.range(lo, hi + 1))
        .map(|_| chars[rng.below(chars.len() as u64) as usize])
        .collect()
}

/// Runs `case` on a fresh generator for each seed in `1..=CASES`.
fn each_seed(case: impl Fn(u64, &mut XorShift)) {
    for seed in 1..=CASES as u64 {
        case(seed, &mut XorShift::new(seed));
    }
}

#[test]
fn format_then_parse_round_trips_arbitrary_elements() {
    let mut rng = XorShift::new(0xfeed);
    for case in 0..CASES {
        let elems = gen_elements(&mut rng);
        let formatted = format_list(&elems);
        let parsed = parse_list(&formatted).unwrap_or_else(|e| {
            panic!("case {case}: format_list produced unparseable {formatted:?}: {e:?}")
        });
        assert_eq!(
            parsed, elems,
            "case {case}: round trip changed the elements (formatted: {formatted:?})"
        );
    }
    // Any characters at all, and a list of lists through two levels.
    each_seed(|seed, rng| {
        let elems: Vec<String> = (0..rng.below(8)).map(|_| any_string(rng, 12)).collect();
        assert_eq!(
            parse_list(&format_list(&elems)).unwrap(),
            elems,
            "seed {seed}"
        );
        let outer: Vec<Vec<String>> = (0..rng.below(4)).map(|_| gen_elements(rng)).collect();
        let inner: Vec<String> = outer.iter().map(|v| format_list(v)).collect();
        let back = parse_list(&format_list(&inner)).unwrap();
        let back: Vec<Vec<String>> = back.iter().map(|l| parse_list(l).unwrap()).collect();
        assert_eq!(back, outer, "seed {seed}: nested round trip");
    });
}

#[test]
fn parsing_is_a_normalizing_projection() {
    // For any string that parses at all, format(parse(s)) parses back to
    // the same elements — formatting never loses what parsing found.
    let mut rng = XorShift::new(0xbeef);
    let mut parseable = 0;
    for _ in 0..CASES {
        let raw = gen_element(&mut rng);
        let Ok(once) = parse_list(&raw) else { continue };
        parseable += 1;
        let normalized = format_list(&once);
        let twice = parse_list(&normalized).expect("normalized form must parse");
        assert_eq!(twice, once, "normalization changed elements for {raw:?}");
    }
    // The generator must not be so hostile that the property is vacuous.
    assert!(parseable > CASES / 4, "only {parseable} inputs parsed");
}

#[test]
fn interpreter_list_commands_agree_with_the_library() {
    let interp = Interp::new();
    let mut rng = XorShift::new(0xcafe);
    for case in 0..CASES {
        let elems = gen_elements(&mut rng);
        // `list` applied to the elements (passed through set, so the
        // interpreter never substitutes their contents) equals
        // format_list.
        let mut script = String::from("list");
        for (i, e) in elems.iter().enumerate() {
            let _ = interp.set_var(&format!("e{i}"), None, e);
            script.push_str(&format!(" ${{e{i}}}"));
        }
        let listed = interp.eval(&script).expect("list cannot fail");
        assert_eq!(listed, format_list(&elems), "case {case}");

        let _ = interp.set_var("l", None, &listed);
        let llength = interp.eval("llength $l").expect("llength");
        assert_eq!(llength, elems.len().to_string(), "case {case}");
        for (i, e) in elems.iter().enumerate() {
            let nth = interp.eval(&format!("lindex $l {i}")).expect("lindex");
            assert_eq!(&nth, e, "case {case}: lindex {i} of {listed:?}");
        }
    }
}

#[test]
fn split_inverts_join_for_separator_free_elements() {
    let interp = Interp::new();
    let mut rng = XorShift::new(0xd00d);
    for case in 0..CASES {
        // Elements free of the separator and of quoting specials: join
        // flattens to plain text, so this is the exact precondition under
        // which split can invert it.
        let n = rng.range(1, 5) as usize;
        let elems: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.range(1, 6) as usize;
                (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect()
            })
            .collect();
        let _ = interp.set_var("l", None, &format_list(&elems));
        let joined = interp.eval("join $l ,").expect("join");
        assert_eq!(joined, elems.join(","), "case {case}");
        let _ = interp.set_var("j", None, &joined);
        let split = interp.eval("split $j ,").expect("split");
        assert_eq!(
            parse_list(&split).expect("split output is a list"),
            elems,
            "case {case}: split did not invert join"
        );
    }
}

#[test]
fn parser_and_eval_never_panic() {
    each_seed(|seed, rng| {
        let script = any_string(rng, 80);
        let run = || {
            let mut pos = 0;
            for _ in 0..1000 {
                match tcl::parser::parse_command(&script, &mut pos) {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
            // Errors are fine; a panic is not.
            let _ = Interp::new().eval(&script);
        };
        if std::panic::catch_unwind(run).is_err() {
            panic!("seed {seed}: the parser or eval panicked on {script:?}");
        }
    });
}

/// Draws an operand: mostly small, sometimes anywhere in `i64`, sometimes
/// an edge (`i64::MIN`, `-1`, `0`, `1`, `i64::MAX`).
fn operand(rng: &mut XorShift) -> i64 {
    match rng.below(4) {
        0 => rng.next_u64() as i64,
        1 => [i64::MIN, -1, 0, 1, i64::MAX][rng.below(5) as usize],
        _ => rng.below(20_001) as i64 - 10_000,
    }
}

#[test]
fn expr_integer_arithmetic_matches_rust() {
    let interp = Interp::new();
    each_seed(|seed, rng| {
        let (a, b) = (operand(rng), operand(rng));
        // Through variables, so `i64::MIN` arrives as one literal.
        interp.set_var("a", None, &a.to_string()).unwrap();
        interp.set_var("b", None, &b.to_string()).unwrap();
        let ev = |op: &str| interp.eval(&format!("expr {{$a {op} $b}}")).unwrap();
        let ctx = format!("seed {seed}: {a} op {b}");
        assert_eq!(ev("+"), a.wrapping_add(b).to_string(), "{ctx}");
        assert_eq!(ev("-"), a.wrapping_sub(b).to_string(), "{ctx}");
        assert_eq!(ev("*"), a.wrapping_mul(b).to_string(), "{ctx}");
        if b != 0 {
            // Tcl floors: the remainder takes the divisor's sign.
            let (q, r) = (a.wrapping_div(b), a.wrapping_rem(b));
            let (q, r) = if r != 0 && (r < 0) != (b < 0) {
                (q - 1, r + b)
            } else {
                (q, r)
            };
            assert_eq!(ev("/"), q.to_string(), "{ctx}");
            assert_eq!(ev("%"), r.to_string(), "{ctx}");
        }
        for (op, want) in [
            ("<", a < b),
            ("<=", a <= b),
            (">", a > b),
            (">=", a >= b),
            ("==", a == b),
            ("!=", a != b),
        ] {
            assert_eq!(ev(op), if want { "1" } else { "0" }, "{ctx} ({op})");
        }
        // Small operands as literals too: the expression lexer's path.
        let (x, y) = (rng.below(201) as i64 - 100, rng.below(201) as i64 - 100);
        let sum = interp.eval(&format!("expr {{{x} + {y}}}")).unwrap();
        assert_eq!(sum, (x + y).to_string(), "seed {seed}: {x} + {y}");
        let lt = interp.eval(&format!("expr {{{x} < {y}}}")).unwrap();
        assert_eq!(lt, u8::from(x < y).to_string(), "seed {seed}: {x} < {y}");
    });
}

#[test]
fn format_d_matches_rust_over_all_of_i64() {
    let interp = Interp::new();
    let mut values = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];
    let mut rng = XorShift::new(0x1991);
    values.extend((0..CASES).map(|_| rng.next_u64() as i64));
    for v in values {
        let got = interp.eval(&format!("format %d {v}"));
        assert_eq!(got.ok(), Some(v.to_string()), "format %d {v}");
    }
}

#[test]
fn glob_literals_and_star_affixes() {
    each_seed(|seed, rng| {
        // A literal pattern matches exactly itself.
        let s = string_of(rng, "abcXYZ019_.", 0, 20);
        assert!(tcl::strutil::glob_match(&s, &s), "seed {seed}: {s:?}");
        assert!(
            !tcl::strutil::glob_match(&s, &format!("{s}x")),
            "seed {seed}: {s:?}"
        );
        // `pre*` is starts_with, `*pre` is ends_with.
        let s = string_of(rng, "abcd", 1, 12);
        let pre = string_of(rng, "abcd", 0, 4);
        let starts = tcl::strutil::glob_match(&format!("{pre}*"), &s);
        assert_eq!(
            starts,
            s.starts_with(&pre),
            "seed {seed}: {pre:?}* on {s:?}"
        );
        let ends = tcl::strutil::glob_match(&format!("*{pre}"), &s);
        assert_eq!(ends, s.ends_with(&pre), "seed {seed}: *{pre:?} on {s:?}");
    });
}

#[test]
fn variables_and_list_quoting_carry_arbitrary_strings() {
    let interp = Interp::new();
    each_seed(|seed, rng| {
        let value = any_string(rng, 60);
        interp.set_var("v", None, &value).unwrap();
        assert_eq!(interp.get_var("v", None).unwrap(), value, "seed {seed}");
        // `list` quoting makes any word one argument through evaluation.
        let word = any_string(rng, 40);
        let script = format!("lindex [list {}] 0", format_list(&[&word]));
        assert_eq!(
            interp.eval(&script).unwrap(),
            word,
            "seed {seed}: {script:?}"
        );
    });
}

#[test]
fn regex_agrees_with_string_predicates() {
    use tcl::regex::Regex;
    let interp = Interp::new();
    each_seed(|seed, rng| {
        // Any pattern compiles or errs, and matching never panics.
        let (pattern, text) = (any_string(rng, 20), any_string(rng, 40));
        let run = || Regex::compile(&pattern, false).map(|re| re.find(&text).is_some());
        if std::panic::catch_unwind(run).is_err() {
            panic!("seed {seed}: regex {pattern:?} panicked on {text:?}");
        }
        // An alphanumeric literal is `contains`.
        let needle = string_of(rng, "ab01", 1, 6);
        let hay = string_of(rng, "ab01 ", 0, 30);
        let found = Regex::compile(&needle, false).unwrap().find(&hay).is_some();
        assert_eq!(
            found,
            hay.contains(&needle),
            "seed {seed}: {needle:?} in {hay:?}"
        );
        // An anchored literal is equality.
        let (a, b) = (string_of(rng, "ab", 0, 4), string_of(rng, "ab", 0, 4));
        let re = Regex::compile(&format!("^{a}$"), false).unwrap();
        assert_eq!(re.find(&b).is_some(), a == b, "seed {seed}: ^{a}$ on {b:?}");
        // regsub of a pattern that never matches is the identity.
        let text = string_of(rng, "abxy ", 0, 30);
        interp.set_var("t", None, &text).unwrap();
        interp.eval("regsub -all {zzz} $t {Q} out").unwrap();
        assert_eq!(interp.get_var("out", None).unwrap(), text, "seed {seed}");
    });
}
