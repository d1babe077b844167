//! String commands: `string` with its subcommands, `format`, and `scan`.

use crate::error::{arity, wrong_args, Exception, TclResult};
use crate::interp::Interp;
use crate::strutil::{format_cmd, glob_match, scan_cmd};

pub fn register(interp: &Interp) {
    interp.register("string", cmd_string);
    interp.register("format", |_i, argv| {
        arity(argv, 2.., "format formatString ?arg arg ...?")?;
        format_cmd(&argv[1], &argv[2..])
    });
    interp.register("scan", cmd_scan);
    interp.register("regexp", cmd_regexp);
    interp.register("regsub", cmd_regsub);
}

/// `regexp ?-nocase? ?-indices? exp string ?matchVar? ?subVar ...?`.
fn cmd_regexp(interp: &Interp, argv: &[String]) -> TclResult {
    let mut nocase = false;
    let mut indices = false;
    let mut i = 1usize;
    while i < argv.len() && argv[i].starts_with('-') {
        match argv[i].as_str() {
            "-nocase" => nocase = true,
            "-indices" => indices = true,
            "--" => {
                i += 1;
                break;
            }
            other => {
                return Err(Exception::error(format!(
                    "bad switch \"{other}\": must be -indices, -nocase, or --"
                )))
            }
        }
        i += 1;
    }
    if argv.len() < i + 2 {
        return Err(wrong_args(
            "regexp ?switches? exp string ?matchVar? ?subMatchVar subMatchVar ...?",
        ));
    }
    let re = crate::regex::Regex::compile(&argv[i], nocase)?;
    let text = &argv[i + 1];
    let chars: Vec<char> = text.chars().collect();
    let vars = &argv[i + 2..];
    let Some(caps) = re.find(text) else {
        return Ok("0".into());
    };
    for (n, var) in vars.iter().enumerate() {
        let value = match caps.get(n).and_then(|c| *c) {
            Some((a, b)) => {
                if indices {
                    format!("{a} {}", b.saturating_sub(1))
                } else {
                    chars[a..b].iter().collect()
                }
            }
            None => {
                if indices {
                    "-1 -1".to_string()
                } else {
                    String::new()
                }
            }
        };
        interp.set_var(var, None, &value)?;
    }
    Ok("1".into())
}

/// `regsub ?-all? ?-nocase? exp string subSpec varName` — returns the
/// number of substitutions performed.
fn cmd_regsub(interp: &Interp, argv: &[String]) -> TclResult {
    let mut nocase = false;
    let mut all = false;
    let mut i = 1usize;
    while i < argv.len() && argv[i].starts_with('-') {
        match argv[i].as_str() {
            "-nocase" => nocase = true,
            "-all" => all = true,
            "--" => {
                i += 1;
                break;
            }
            other => {
                return Err(Exception::error(format!(
                    "bad switch \"{other}\": must be -all, -nocase, or --"
                )))
            }
        }
        i += 1;
    }
    if argv.len() != i + 4 {
        return Err(wrong_args("regsub ?switches? exp string subSpec varName"));
    }
    let re = crate::regex::Regex::compile(&argv[i], nocase)?;
    let chars: Vec<char> = argv[i + 1].chars().collect();
    let spec = &argv[i + 2];
    let var = &argv[i + 3];
    let mut out = String::new();
    let mut pos = 0usize;
    let mut count = 0u32;
    while let Some(caps) = re.find_at(&chars, pos) {
        let (a, b) = caps[0].unwrap();
        out.extend(&chars[pos..a]);
        out.push_str(&crate::regex::substitute(spec, &chars, &caps));
        count += 1;
        // Step past the match (or one char for empty matches).
        pos = if b > a { b } else { b + 1 };
        if b == a && a < chars.len() {
            out.push(chars[a]);
        }
        if !all || pos > chars.len() {
            break;
        }
    }
    if pos <= chars.len() {
        out.extend(&chars[pos.min(chars.len())..]);
    }
    interp.set_var(var, None, &out)?;
    Ok(count.to_string())
}

fn char_index(s: &str, spec: &str) -> Result<i64, Exception> {
    let len = s.chars().count() as i64;
    if spec == "end" {
        return Ok(len - 1);
    }
    if let Some(off) = spec.strip_prefix("end-") {
        let n: i64 = off
            .parse()
            .map_err(|_| Exception::error(format!("bad index \"{spec}\"")))?;
        return Ok(len - 1 - n);
    }
    spec.parse()
        .map_err(|_| Exception::error(format!("bad index \"{spec}\"")))
}

fn cmd_string(_i: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 3.., "string option arg ?arg ...?")?;
    let opt = argv[1].as_str();
    let s = &argv[2];
    match opt {
        "length" => {
            arity(argv, 3..=3, "string length string")?;
            Ok(s.chars().count().to_string())
        }
        "compare" => {
            arity(argv, 4..=4, "string compare string1 string2")?;
            Ok(match s.as_str().cmp(argv[3].as_str()) {
                std::cmp::Ordering::Less => "-1",
                std::cmp::Ordering::Equal => "0",
                std::cmp::Ordering::Greater => "1",
            }
            .to_string())
        }
        "match" => {
            arity(argv, 4..=4, "string match pattern string")?;
            Ok(if glob_match(s, &argv[3]) { "1" } else { "0" }.to_string())
        }
        "first" => {
            arity(argv, 4..=4, "string first string1 string2")?;
            Ok(match argv[3].find(s.as_str()) {
                Some(byte) => argv[3][..byte].chars().count().to_string(),
                None => "-1".to_string(),
            })
        }
        "last" => {
            arity(argv, 4..=4, "string last string1 string2")?;
            Ok(match argv[3].rfind(s.as_str()) {
                Some(byte) => argv[3][..byte].chars().count().to_string(),
                None => "-1".to_string(),
            })
        }
        "index" => {
            arity(argv, 4..=4, "string index string charIndex")?;
            let idx = char_index(s, &argv[3])?;
            if idx < 0 {
                return Ok(String::new());
            }
            Ok(s.chars()
                .nth(idx as usize)
                .map(|c| c.to_string())
                .unwrap_or_default())
        }
        "range" => {
            arity(argv, 5..=5, "string range string first last")?;
            let len = s.chars().count() as i64;
            let first = char_index(s, &argv[3])?.max(0);
            let last = char_index(s, &argv[4])?.min(len - 1);
            if first > last {
                return Ok(String::new());
            }
            Ok(s.chars()
                .skip(first as usize)
                .take((last - first + 1) as usize)
                .collect())
        }
        "tolower" => Ok(s.to_lowercase()),
        "toupper" => Ok(s.to_uppercase()),
        "trim" | "trimleft" | "trimright" => {
            let chars: Vec<char> = if argv.len() == 4 {
                argv[3].chars().collect()
            } else {
                vec![' ', '\t', '\n', '\r']
            };
            let p = |c: char| chars.contains(&c);
            Ok(match opt {
                "trim" => s.trim_matches(p),
                "trimleft" => s.trim_start_matches(p),
                _ => s.trim_end_matches(p),
            }
            .to_string())
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be compare, first, index, last, \
             length, match, range, tolower, toupper, trim, trimleft, or trimright"
        ))),
    }
}

fn cmd_scan(interp: &Interp, argv: &[String]) -> TclResult {
    arity(argv, 4.., "scan string format varName ?varName ...?")?;
    let values = scan_cmd(&argv[1], &argv[2])?;
    let vars = &argv[3..];
    let mut assigned = 0usize;
    for (n, v) in values.iter().enumerate() {
        if n >= vars.len() {
            return Err(Exception::error(
                "different numbers of variable names and field specifiers",
            ));
        }
        if let Some(v) = v {
            interp.set_var(&vars[n], None, v)?;
            assigned += 1;
        }
    }
    Ok(assigned.to_string())
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    fn ev(script: &str) -> String {
        Interp::new().eval(script).unwrap()
    }

    #[test]
    fn string_length_and_index() {
        assert_eq!(ev("string length hello"), "5");
        assert_eq!(ev("string index hello 1"), "e");
        assert_eq!(ev("string index hello end"), "o");
        assert_eq!(ev("string index hello 99"), "");
    }

    #[test]
    fn string_compare() {
        assert_eq!(ev("string compare a b"), "-1");
        assert_eq!(ev("string compare b b"), "0");
        assert_eq!(ev("string compare c b"), "1");
    }

    #[test]
    fn string_match() {
        assert_eq!(ev("string match a* abc"), "1");
        assert_eq!(ev("string match a* xbc"), "0");
        assert_eq!(ev("string match {[0-9]*} 5x"), "1");
    }

    #[test]
    fn string_first_last() {
        assert_eq!(ev("string first lo hello"), "3");
        assert_eq!(ev("string first zz hello"), "-1");
        assert_eq!(ev("string last l hello"), "3");
    }

    #[test]
    fn string_range() {
        assert_eq!(ev("string range hello 1 3"), "ell");
        assert_eq!(ev("string range hello 2 end"), "llo");
        assert_eq!(ev("string range hello 4 1"), "");
    }

    #[test]
    fn string_case_and_trim() {
        assert_eq!(ev("string toupper hi"), "HI");
        assert_eq!(ev("string tolower HI"), "hi");
        assert_eq!(ev("string trim {  x  }"), "x");
        assert_eq!(ev("string trimleft xxabc x"), "abc");
        assert_eq!(ev("string trimright abcxx x"), "abc");
    }

    #[test]
    fn format_through_tcl() {
        assert_eq!(ev("format \"x is %s\" 42"), "x is 42");
        assert_eq!(ev("format %d+%d 1 2"), "1+2");
    }

    #[test]
    fn scan_through_tcl() {
        let i = Interp::new();
        assert_eq!(i.eval("scan {10 20} {%d %d} a b").unwrap(), "2");
        assert_eq!(i.eval("set a").unwrap(), "10");
        assert_eq!(i.eval("set b").unwrap(), "20");
    }

    #[test]
    fn scan_partial_match() {
        let i = Interp::new();
        assert_eq!(i.eval("scan {10 xx} {%d %d} a b").unwrap(), "1");
        assert_eq!(i.eval("set a").unwrap(), "10");
    }

    #[test]
    fn bad_option_reports_choices() {
        let i = Interp::new();
        let e = i.eval("string frobnicate x").unwrap_err();
        assert!(e.msg.contains("bad option"));
    }
}

#[cfg(test)]
mod regex_cmd_tests {
    use crate::interp::Interp;

    fn ev(script: &str) -> String {
        Interp::new().eval(script).unwrap()
    }

    #[test]
    fn regexp_matches_and_captures() {
        let i = Interp::new();
        assert_eq!(i.eval("regexp {a(b+)c} xabbbcy whole part").unwrap(), "1");
        assert_eq!(i.eval("set whole").unwrap(), "abbbc");
        assert_eq!(i.eval("set part").unwrap(), "bbb");
        assert_eq!(i.eval("regexp {z+} abc").unwrap(), "0");
    }

    #[test]
    fn regexp_nocase_and_indices() {
        let i = Interp::new();
        assert_eq!(i.eval("regexp -nocase HELLO {say hello}").unwrap(), "1");
        assert_eq!(i.eval("regexp -indices {l+} {hello} span").unwrap(), "1");
        assert_eq!(i.eval("set span").unwrap(), "2 3");
    }

    #[test]
    fn regsub_single_and_all() {
        let i = Interp::new();
        assert_eq!(i.eval("regsub {o} {foo boo} {0} out").unwrap(), "1");
        assert_eq!(i.eval("set out").unwrap(), "f0o boo");
        assert_eq!(i.eval("regsub -all {o} {foo boo} {0} out").unwrap(), "4");
        assert_eq!(i.eval("set out").unwrap(), "f00 b00");
    }

    #[test]
    fn regsub_group_references() {
        let i = Interp::new();
        i.eval(r#"regsub -all {([a-z]+)=([0-9]+)} {x=1 y=22} {\2:\1} out"#)
            .unwrap();
        assert_eq!(i.eval("set out").unwrap(), "1:x 22:y");
        i.eval(r#"regsub {(.*)} hello {<&>} out"#).unwrap();
        assert_eq!(i.eval("set out").unwrap(), "<hello>");
    }

    #[test]
    fn regsub_no_match_copies_input() {
        let i = Interp::new();
        assert_eq!(i.eval("regsub {zz} {hello} {x} out").unwrap(), "0");
        assert_eq!(i.eval("set out").unwrap(), "hello");
    }

    #[test]
    fn regexp_in_conditionals() {
        assert_eq!(
            ev("if {[regexp {^[0-9]+$} 12345]} {format yes} else {format no}"),
            "yes"
        );
        assert_eq!(
            ev("if {[regexp {^[0-9]+$} 12a45]} {format yes} else {format no}"),
            "no"
        );
    }

    #[test]
    fn bad_pattern_reports_error() {
        let i = Interp::new();
        let e = i.eval("regexp {(} x").unwrap_err();
        assert!(e.msg.contains("couldn't compile"), "{}", e.msg);
    }
}
