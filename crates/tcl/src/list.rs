//! Tcl list parsing and formatting.
//!
//! Tcl lists use the same quoting conventions as commands (white-space
//! separated elements, braces and quotes for grouping, backslash escapes)
//! but perform no `$` or `[]` substitution. [`parse_list`] and
//! [`format_list`] round-trip: `parse_list(&format_list(&v)) == v` for any
//! `v`, which the property tests verify.

use crate::error::Exception;
use crate::parser::backslash;

/// Splits a string into its list elements.
///
/// # Examples
///
/// ```
/// let v = tcl::list::parse_list("a b {x1 x2}").unwrap();
/// assert_eq!(v, vec!["a", "b", "x1 x2"]);
/// ```
pub fn parse_list(src: &str) -> Result<Vec<String>, Exception> {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    loop {
        while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        if i >= bytes.len() {
            return Ok(out);
        }
        let mut elem = String::new();
        match bytes[i] {
            b'{' => {
                let mut depth = 1usize;
                i += 1;
                let start = i;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            let (_, used) = backslash(src, i);
                            i += used;
                        }
                        b'{' => {
                            depth += 1;
                            i += 1;
                        }
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                            i += 1;
                        }
                        _ => i += src[i..].chars().next().unwrap().len_utf8(),
                    }
                }
                if depth != 0 {
                    return Err(Exception::error("unmatched open brace in list"));
                }
                elem.push_str(&src[start..i]);
                i += 1;
                if i < bytes.len() && !matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
                    return Err(Exception::error(
                        "list element in braces followed by characters instead of space",
                    ));
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        let (s, used) = backslash(src, i);
                        elem.push_str(&s);
                        i += used;
                    } else {
                        let ch = src[i..].chars().next().unwrap();
                        elem.push(ch);
                        i += ch.len_utf8();
                    }
                }
                if i >= bytes.len() {
                    return Err(Exception::error("unmatched open quote in list"));
                }
                i += 1;
                if i < bytes.len() && !matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
                    return Err(Exception::error(
                        "list element in quotes followed by characters instead of space",
                    ));
                }
            }
            _ => {
                while i < bytes.len() && !matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
                    if bytes[i] == b'\\' {
                        let (s, used) = backslash(src, i);
                        elem.push_str(&s);
                        i += used;
                    } else {
                        let ch = src[i..].chars().next().unwrap();
                        elem.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
        }
        out.push(elem);
    }
}

/// How one element must be quoted when formatted into a list.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Quoting {
    None,
    Braces,
    Backslash,
}

/// Decides the quoting needed for `elem` as a list element.
fn quoting_for(elem: &str) -> Quoting {
    if elem.is_empty() {
        return Quoting::Braces;
    }
    let mut needs = Quoting::None;
    let mut depth: i64 = 0;
    let mut unbalanced = false;
    let bytes = elem.as_bytes();
    let mut idx = 0;
    while idx < bytes.len() {
        match bytes[idx] {
            b' ' | b'\t' | b'\n' | b'\r' | b';' | b'"' | b'$' | b'[' | b']' | b'\x0b' | b'\x0c' => {
                needs = needs.max_braces()
            }
            b'{' => {
                depth += 1;
                needs = needs.max_braces();
            }
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    unbalanced = true;
                }
                needs = needs.max_braces();
            }
            b'\\' => {
                if idx + 1 == bytes.len() || bytes[idx + 1] == b'\n' {
                    // A trailing backslash cannot be brace-quoted, nor can
                    // a backslash-newline: the command parser turns it into
                    // a space even inside braces.
                    unbalanced = true;
                } else {
                    // Inside braces a backslash shields the next character
                    // from depth counting, so skip it here too.
                    idx += 1;
                }
                needs = needs.max_braces();
            }
            _ => {}
        }
        idx += 1;
    }
    if depth != 0 {
        unbalanced = true;
    }
    if unbalanced {
        Quoting::Backslash
    } else {
        needs
    }
}

impl Quoting {
    fn max_braces(self) -> Quoting {
        match self {
            Quoting::None => Quoting::Braces,
            other => other,
        }
    }
}

/// Appends `elem` to `out` with whatever quoting the element requires.
pub fn append_element(out: &mut String, elem: &str) {
    if !out.is_empty() {
        out.push(' ');
    }
    match quoting_for(elem) {
        Quoting::None => out.push_str(elem),
        Quoting::Braces => {
            out.push('{');
            out.push_str(elem);
            out.push('}');
        }
        Quoting::Backslash => {
            for ch in elem.chars() {
                match ch {
                    ' ' | '\t' | ';' | '"' | '$' | '[' | ']' | '{' | '}' | '\\' => {
                        out.push('\\');
                        out.push(ch);
                    }
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\x0b' => out.push_str("\\v"),
                    '\x0c' => out.push_str("\\f"),
                    _ => out.push(ch),
                }
            }
        }
    }
}

/// Formats elements into a single Tcl list string.
///
/// # Examples
///
/// ```
/// assert_eq!(tcl::list::format_list(&["a", "b c"]), "a {b c}");
/// ```
pub fn format_list<S: AsRef<str>>(elems: &[S]) -> String {
    let mut out = String::new();
    for e in elems {
        append_element(&mut out, e.as_ref());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_elements() {
        assert_eq!(parse_list("a b c").unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn parses_braced_elements() {
        assert_eq!(parse_list("a b {x1 x2}").unwrap(), vec!["a", "b", "x1 x2"]);
    }

    #[test]
    fn parses_nested_braces() {
        assert_eq!(parse_list("{a {b c}} d").unwrap(), vec!["a {b c}", "d"]);
    }

    #[test]
    fn parses_quoted_elements() {
        assert_eq!(parse_list("\"a b\" c").unwrap(), vec!["a b", "c"]);
    }

    #[test]
    fn backslashes_decode_in_bare_elements() {
        assert_eq!(parse_list(r"a\ b c").unwrap(), vec!["a b", "c"]);
    }

    #[test]
    fn braces_keep_backslashes() {
        assert_eq!(parse_list(r"{a\nb}").unwrap(), vec![r"a\nb"]);
    }

    #[test]
    fn empty_and_whitespace_lists() {
        assert!(parse_list("").unwrap().is_empty());
        assert!(parse_list("  \t\n ").unwrap().is_empty());
    }

    #[test]
    fn empty_braced_element() {
        assert_eq!(parse_list("a {} b").unwrap(), vec!["a", "", "b"]);
    }

    #[test]
    fn unmatched_brace_errors() {
        assert!(parse_list("{a").is_err());
        assert!(parse_list("\"a").is_err());
    }

    #[test]
    fn junk_after_brace_errors() {
        assert!(parse_list("{a}b").is_err());
    }

    #[test]
    fn backslash_newline_survives_evaluation() {
        let word = "a\\\nb";
        assert_eq!(format_list(&[word]), r"a\\\nb");
        let script = format!("lindex [list {}] 0", format_list(&[word]));
        assert_eq!(crate::Interp::new().eval(&script).unwrap(), word);
    }

    #[test]
    fn formats_plain_elements_unquoted() {
        assert_eq!(format_list(&["a", "b"]), "a b");
    }

    #[test]
    fn formats_spaces_with_braces() {
        assert_eq!(format_list(&["a b"]), "{a b}");
    }

    #[test]
    fn formats_empty_element_as_braces() {
        assert_eq!(format_list(&["", "x"]), "{} x");
    }

    #[test]
    fn formats_unbalanced_brace_with_backslashes() {
        assert_eq!(format_list(&["}"]), r"\}");
        assert_eq!(format_list(&["{"]), r"\{");
    }

    #[test]
    fn formats_trailing_backslash_with_backslashes() {
        assert_eq!(format_list(&["a\\"]), r"a\\");
    }

    #[test]
    fn round_trips_tricky_elements() {
        let cases: Vec<Vec<&str>> = vec![
            vec!["a", "b c", ""],
            vec!["{", "}", "a{b"],
            vec!["$x", "[cmd]", "a;b"],
            vec!["line\nbreak", "tab\there"],
            vec!["back\\slash", "end\\"],
            vec!["\"quoted\""],
            vec!["\\{}", "\\{", "a\\}b"],
        ];
        for case in cases {
            let formatted = format_list(&case);
            let parsed = parse_list(&formatted).unwrap();
            assert_eq!(parsed, case, "round-trip failed for {formatted:?}");
        }
    }

    #[test]
    fn nested_list_round_trip() {
        let inner = format_list(&["x1", "x2"]);
        let outer = format_list(&["a", "b", &inner]);
        assert_eq!(outer, "a b {x1 x2}");
        let parsed = parse_list(&outer).unwrap();
        assert_eq!(parse_list(&parsed[2]).unwrap(), vec!["x1", "x2"]);
    }
}
