//! String utilities shared by built-in commands: Tcl glob-style matching
//! (`string match`, `case`, `switch -glob`) and `format`/`scan` conversion.

use crate::error::{Exception, TclResult};

/// Tcl glob-style pattern matching: `*` matches any sequence, `?` any single
/// character, `[abc]`/`[a-z]` character sets, and `\x` escapes `x`.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    glob_inner(
        &pattern.chars().collect::<Vec<_>>(),
        &text.chars().collect::<Vec<_>>(),
    )
}

fn glob_inner(pat: &[char], text: &[char]) -> bool {
    let mut p = 0usize;
    let mut t = 0usize;
    // Backtracking point for the most recent `*`.
    let mut star: Option<(usize, usize)> = None;
    while t < text.len() {
        if p < pat.len() {
            match pat[p] {
                '*' => {
                    star = Some((p, t));
                    p += 1;
                    continue;
                }
                '?' => {
                    p += 1;
                    t += 1;
                    continue;
                }
                '[' => {
                    if let Some((matched, next_p)) = match_set(pat, p, text[t]) {
                        if matched {
                            p = next_p;
                            t += 1;
                            continue;
                        }
                    }
                }
                '\\' if p + 1 < pat.len() => {
                    if pat[p + 1] == text[t] {
                        p += 2;
                        t += 1;
                        continue;
                    }
                }
                c => {
                    if c == text[t] {
                        p += 1;
                        t += 1;
                        continue;
                    }
                }
            }
        }
        // Mismatch: backtrack to the last `*` if any.
        match star {
            Some((sp, st)) => {
                p = sp + 1;
                t = st + 1;
                star = Some((sp, st + 1));
            }
            None => return false,
        }
    }
    while p < pat.len() && pat[p] == '*' {
        p += 1;
    }
    p == pat.len()
}

/// Matches `c` against the set starting at `pat[p] == '['`. Returns
/// `(matched, position past the closing bracket)`, or `None` when the set
/// is malformed (treated as a literal `[` by the caller's fallthrough).
fn match_set(pat: &[char], p: usize, c: char) -> Option<(bool, usize)> {
    let mut i = p + 1;
    let mut matched = false;
    let negated = i < pat.len() && pat[i] == '^';
    if negated {
        i += 1;
    }
    let mut any = false;
    while i < pat.len() && pat[i] != ']' {
        any = true;
        if i + 2 < pat.len() && pat[i + 1] == '-' && pat[i + 2] != ']' {
            if pat[i] <= c && c <= pat[i + 2] {
                matched = true;
            }
            i += 3;
        } else {
            if pat[i] == c {
                matched = true;
            }
            i += 1;
        }
    }
    if i >= pat.len() || !any && pat.get(i) != Some(&']') {
        return None; // unterminated set
    }
    Some((matched != negated, i + 1))
}

/// Implements the `format` command (a subset of ANSI C `sprintf`):
/// `%s %d %i %u %x %X %o %c %f %e %E %g %G %%` with `-`, `0`, ` `, `+`
/// flags, width, and precision (including `*`).
pub fn format_cmd(spec: &str, args: &[String]) -> TclResult {
    let mut out = String::new();
    let chars: Vec<char> = spec.chars().collect();
    let mut i = 0usize;
    let mut arg_i = 0usize;
    let next_arg = |arg_i: &mut usize| -> Result<String, Exception> {
        if *arg_i >= args.len() {
            return Err(Exception::error(
                "not enough arguments for all format specifiers",
            ));
        }
        let v = args[*arg_i].clone();
        *arg_i += 1;
        Ok(v)
    };
    while i < chars.len() {
        if chars[i] != '%' {
            out.push(chars[i]);
            i += 1;
            continue;
        }
        i += 1;
        if i >= chars.len() {
            return Err(Exception::error(
                "format string ended in middle of field specifier",
            ));
        }
        if chars[i] == '%' {
            out.push('%');
            i += 1;
            continue;
        }
        // Flags.
        let mut left = false;
        let mut zero = false;
        let mut plus = false;
        let mut space = false;
        let mut alt = false;
        while i < chars.len() {
            match chars[i] {
                '-' => left = true,
                '0' => zero = true,
                '+' => plus = true,
                ' ' => space = true,
                '#' => alt = true,
                _ => break,
            }
            i += 1;
        }
        // Width.
        let mut width: usize = 0;
        if i < chars.len() && chars[i] == '*' {
            width = next_arg(&mut arg_i)?
                .trim()
                .parse()
                .map_err(|_| Exception::error("expected integer for * width"))?;
            i += 1;
        } else {
            while i < chars.len() && chars[i].is_ascii_digit() {
                width = width * 10 + chars[i].to_digit(10).unwrap() as usize;
                i += 1;
            }
        }
        // Precision.
        let mut precision: Option<usize> = None;
        if i < chars.len() && chars[i] == '.' {
            i += 1;
            let mut prec = 0usize;
            if i < chars.len() && chars[i] == '*' {
                prec = next_arg(&mut arg_i)?
                    .trim()
                    .parse()
                    .map_err(|_| Exception::error("expected integer for * precision"))?;
                i += 1;
            } else {
                while i < chars.len() && chars[i].is_ascii_digit() {
                    prec = prec * 10 + chars[i].to_digit(10).unwrap() as usize;
                    i += 1;
                }
            }
            precision = Some(prec);
        }
        // Length modifiers are accepted and ignored.
        while i < chars.len() && matches!(chars[i], 'l' | 'h' | 'L') {
            i += 1;
        }
        if i >= chars.len() {
            return Err(Exception::error(
                "format string ended in middle of field specifier",
            ));
        }
        let conv = chars[i];
        i += 1;
        let int_arg = |s: &str| -> Result<i64, Exception> {
            match crate::expr::parse_number(s) {
                Some(crate::expr::Value::Int(v)) => Ok(v),
                Some(crate::expr::Value::Double(d)) => Ok(d as i64),
                _ => Err(Exception::error(format!(
                    "expected integer but got \"{s}\""
                ))),
            }
        };
        let float_arg = |s: &str| -> Result<f64, Exception> {
            match crate::expr::parse_number(s) {
                Some(crate::expr::Value::Int(v)) => Ok(v as f64),
                Some(crate::expr::Value::Double(d)) => Ok(d),
                _ => Err(Exception::error(format!(
                    "expected floating-point number but got \"{s}\""
                ))),
            }
        };
        let body = match conv {
            's' => {
                let mut v = next_arg(&mut arg_i)?;
                if let Some(p) = precision {
                    v.truncate(v.char_indices().nth(p).map(|(b, _)| b).unwrap_or(v.len()));
                }
                v
            }
            'c' => {
                let v = int_arg(&next_arg(&mut arg_i)?)?;
                char::from_u32(v as u32).unwrap_or('\u{fffd}').to_string()
            }
            'd' | 'i' => {
                let v = int_arg(&next_arg(&mut arg_i)?)?;
                let mut s = v.unsigned_abs().to_string();
                if v < 0 {
                    s.insert(0, '-');
                } else if plus {
                    s.insert(0, '+');
                } else if space {
                    s.insert(0, ' ');
                }
                s
            }
            'u' => {
                let v = int_arg(&next_arg(&mut arg_i)?)?;
                (v as u64).to_string()
            }
            'x' => {
                let v = int_arg(&next_arg(&mut arg_i)?)?;
                let s = format!("{:x}", v as u64);
                if alt {
                    format!("0x{s}")
                } else {
                    s
                }
            }
            'X' => {
                let v = int_arg(&next_arg(&mut arg_i)?)?;
                let s = format!("{:X}", v as u64);
                if alt {
                    format!("0X{s}")
                } else {
                    s
                }
            }
            'o' => {
                let v = int_arg(&next_arg(&mut arg_i)?)?;
                let s = format!("{:o}", v as u64);
                if alt {
                    format!("0{s}")
                } else {
                    s
                }
            }
            'f' => {
                let v = float_arg(&next_arg(&mut arg_i)?)?;
                format!("{:.*}", precision.unwrap_or(6), v)
            }
            'e' | 'E' => {
                let v = float_arg(&next_arg(&mut arg_i)?)?;
                let s = format!("{:.*e}", precision.unwrap_or(6), v);
                // Rust writes `1.5e3`; C writes `1.500000e+03`.
                let s = fix_exponent(&s);
                if conv == 'E' {
                    s.to_uppercase()
                } else {
                    s
                }
            }
            'g' | 'G' => {
                let v = float_arg(&next_arg(&mut arg_i)?)?;
                let p = precision.unwrap_or(6).max(1);
                let s = format_g(v, p);
                if conv == 'G' {
                    s.to_uppercase()
                } else {
                    s
                }
            }
            other => return Err(Exception::error(format!("bad field specifier \"{other}\""))),
        };
        // Apply width.
        if body.chars().count() < width {
            let pad = width - body.chars().count();
            if left {
                out.push_str(&body);
                out.extend(std::iter::repeat(' ').take(pad));
            } else if zero && !matches!(conv, 's' | 'c') {
                // Zero padding goes after any sign.
                let (sign, digits) = match body.strip_prefix('-') {
                    Some(d) => ("-", d),
                    None => ("", body.as_str()),
                };
                out.push_str(sign);
                out.extend(std::iter::repeat('0').take(pad));
                out.push_str(digits);
            } else {
                out.extend(std::iter::repeat(' ').take(pad));
                out.push_str(&body);
            }
        } else {
            out.push_str(&body);
        }
    }
    Ok(out)
}

/// Rewrites Rust's `1.5e3` exponent form into C's `1.5e+03`.
fn fix_exponent(s: &str) -> String {
    match s.find(['e', 'E']) {
        Some(pos) => {
            let (mantissa, exp) = s.split_at(pos);
            let exp = &exp[1..];
            let (sign, digits) = match exp.strip_prefix('-') {
                Some(d) => ("-", d),
                None => ("+", exp),
            };
            format!("{mantissa}e{sign}{digits:0>2}")
        }
        None => s.to_string(),
    }
}

/// `%g`: shortest of `%e` and `%f` at the given significant digits, with
/// trailing zeros removed.
fn format_g(v: f64, sig: usize) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let exp = v.abs().log10().floor() as i32;
    if exp < -4 || exp >= sig as i32 {
        let s = format!("{:.*e}", sig.saturating_sub(1), v);
        let s = fix_exponent(&s);
        // Trim trailing zeros in the mantissa.
        if let Some(epos) = s.find('e') {
            let (m, e) = s.split_at(epos);
            let m = trim_zeros(m);
            return format!("{m}{e}");
        }
        s
    } else {
        let decimals = (sig as i32 - 1 - exp).max(0) as usize;
        trim_zeros(&format!("{v:.decimals$}")).to_string()
    }
}

fn trim_zeros(s: &str) -> &str {
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.')
    } else {
        s
    }
}

/// Implements the `scan` command: parses `input` against `spec` supporting
/// `%d %x %o %c %s %f %e %g` with `%*` suppression and width limits.
/// Returns the parsed field values; the caller assigns them to variables.
pub fn scan_cmd(input: &str, spec: &str) -> Result<Vec<Option<String>>, Exception> {
    let mut out: Vec<Option<String>> = Vec::new();
    let ib: Vec<char> = input.chars().collect();
    let sb: Vec<char> = spec.chars().collect();
    let mut ii = 0usize;
    let mut si = 0usize;
    while si < sb.len() {
        let sc = sb[si];
        if sc == '%' {
            si += 1;
            if si >= sb.len() {
                return Err(Exception::error(
                    "format string ended in middle of field specifier",
                ));
            }
            let mut suppress = false;
            if sb[si] == '*' {
                suppress = true;
                si += 1;
            }
            let mut width = usize::MAX;
            let mut has_width = false;
            let mut w = 0usize;
            while si < sb.len() && sb[si].is_ascii_digit() {
                w = w * 10 + sb[si].to_digit(10).unwrap() as usize;
                has_width = true;
                si += 1;
            }
            if has_width {
                width = w;
            }
            while si < sb.len() && matches!(sb[si], 'l' | 'h' | 'L') {
                si += 1;
            }
            if si >= sb.len() {
                return Err(Exception::error(
                    "format string ended in middle of field specifier",
                ));
            }
            let conv = sb[si];
            si += 1;
            // `%c` does not skip white space; the others do.
            if conv != 'c' {
                while ii < ib.len() && ib[ii].is_whitespace() {
                    ii += 1;
                }
            }
            if ii >= ib.len() {
                break;
            }
            let start = ii;
            let value: Option<String> = match conv {
                'd' | 'u' => {
                    if ii < ib.len() && (ib[ii] == '-' || ib[ii] == '+') && ii - start < width {
                        ii += 1;
                    }
                    while ii < ib.len() && ib[ii].is_ascii_digit() && ii - start < width {
                        ii += 1;
                    }
                    let text: String = ib[start..ii].iter().collect();
                    text.parse::<i64>().ok().map(|v| v.to_string())
                }
                'x' => {
                    while ii < ib.len() && ib[ii].is_ascii_hexdigit() && ii - start < width {
                        ii += 1;
                    }
                    let text: String = ib[start..ii].iter().collect();
                    i64::from_str_radix(&text, 16).ok().map(|v| v.to_string())
                }
                'o' => {
                    while ii < ib.len() && ('0'..='7').contains(&ib[ii]) && ii - start < width {
                        ii += 1;
                    }
                    let text: String = ib[start..ii].iter().collect();
                    i64::from_str_radix(&text, 8).ok().map(|v| v.to_string())
                }
                'c' => {
                    let c = ib[ii];
                    ii += 1;
                    Some((c as u32).to_string())
                }
                's' => {
                    while ii < ib.len() && !ib[ii].is_whitespace() && ii - start < width {
                        ii += 1;
                    }
                    Some(ib[start..ii].iter().collect())
                }
                'f' | 'e' | 'g' => {
                    if ii < ib.len() && (ib[ii] == '-' || ib[ii] == '+') {
                        ii += 1;
                    }
                    while ii < ib.len()
                        && (ib[ii].is_ascii_digit()
                            || matches!(ib[ii], '.' | 'e' | 'E' | '+' | '-'))
                        && ii - start < width
                    {
                        ii += 1;
                    }
                    let text: String = ib[start..ii].iter().collect();
                    text.parse::<f64>().ok().map(crate::expr::double_to_string)
                }
                other => {
                    return Err(Exception::error(format!(
                        "bad scan conversion character \"{other}\""
                    )))
                }
            };
            match value {
                Some(v) => {
                    if !suppress {
                        out.push(Some(v));
                    }
                }
                None => break,
            }
        } else if sc.is_whitespace() {
            while ii < ib.len() && ib[ii].is_whitespace() {
                ii += 1;
            }
            si += 1;
        } else {
            if ii < ib.len() && ib[ii] == sc {
                ii += 1;
            } else {
                break;
            }
            si += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_literal() {
        assert!(glob_match("abc", "abc"));
        assert!(!glob_match("abc", "abd"));
        assert!(!glob_match("abc", "abcd"));
    }

    #[test]
    fn glob_star() {
        assert!(glob_match("a*", "abc"));
        assert!(glob_match("*c", "abc"));
        assert!(glob_match("a*c", "abc"));
        assert!(glob_match("*", ""));
        assert!(glob_match("a*b*c", "aXbYc"));
        assert!(!glob_match("a*b", "ac"));
    }

    #[test]
    fn glob_question() {
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
    }

    #[test]
    fn glob_sets() {
        assert!(glob_match("[abc]x", "bx"));
        assert!(!glob_match("[abc]x", "dx"));
        assert!(glob_match("[a-z]x", "mx"));
        assert!(glob_match("[^a-z]x", "Mx"));
    }

    #[test]
    fn glob_escape() {
        assert!(glob_match("a\\*b", "a*b"));
        assert!(!glob_match("a\\*b", "aXb"));
    }

    #[test]
    fn glob_star_backtracking() {
        assert!(glob_match("*ab", "aab"));
        assert!(glob_match("*aab", "aaab"));
        assert!(glob_match("x*Button.background", "x.a.bButton.background"));
    }

    #[test]
    fn format_strings() {
        assert_eq!(format_cmd("x is %s", &["hi".into()]).unwrap(), "x is hi");
        assert_eq!(
            format_cmd("%d-%d", &["3".into(), "4".into()]).unwrap(),
            "3-4"
        );
        assert_eq!(format_cmd("%5d", &["42".into()]).unwrap(), "   42");
        assert_eq!(format_cmd("%-5d|", &["42".into()]).unwrap(), "42   |");
        assert_eq!(format_cmd("%05d", &["42".into()]).unwrap(), "00042");
        assert_eq!(format_cmd("%05d", &["-42".into()]).unwrap(), "-0042");
        for v in [i64::MIN, i64::MAX] {
            assert_eq!(format_cmd("%d", &[v.to_string()]).unwrap(), v.to_string());
        }
    }

    #[test]
    fn format_hex_octal_char() {
        assert_eq!(format_cmd("%x", &["255".into()]).unwrap(), "ff");
        assert_eq!(format_cmd("%X", &["255".into()]).unwrap(), "FF");
        assert_eq!(format_cmd("%#x", &["255".into()]).unwrap(), "0xff");
        assert_eq!(format_cmd("%o", &["8".into()]).unwrap(), "10");
        assert_eq!(format_cmd("%c", &["65".into()]).unwrap(), "A");
    }

    #[test]
    fn format_floats() {
        assert_eq!(format_cmd("%f", &["1.5".into()]).unwrap(), "1.500000");
        assert_eq!(format_cmd("%.2f", &["1.567".into()]).unwrap(), "1.57");
        assert_eq!(format_cmd("%e", &["1500".into()]).unwrap(), "1.500000e+03");
        assert_eq!(format_cmd("%g", &["0.0001".into()]).unwrap(), "0.0001");
        assert_eq!(format_cmd("%g", &["100000000".into()]).unwrap(), "1e+08");
    }

    #[test]
    fn format_percent_and_star() {
        assert_eq!(format_cmd("100%%", &[]).unwrap(), "100%");
        assert_eq!(
            format_cmd("%*d", &["5".into(), "42".into()]).unwrap(),
            "   42"
        );
        assert_eq!(
            format_cmd("%.*s", &["2".into(), "hello".into()]).unwrap(),
            "he"
        );
    }

    #[test]
    fn format_errors() {
        assert!(format_cmd("%d", &[]).is_err());
        assert!(format_cmd("%d", &["notanum".into()]).is_err());
        assert!(format_cmd("%q", &["x".into()]).is_err());
        assert!(format_cmd("%", &[]).is_err());
    }

    #[test]
    fn scan_basics() {
        assert_eq!(
            scan_cmd("12 34", "%d %d").unwrap(),
            vec![Some("12".into()), Some("34".into())]
        );
        assert_eq!(scan_cmd("ff", "%x").unwrap(), vec![Some("255".into())]);
        assert_eq!(
            scan_cmd("hello world", "%s").unwrap(),
            vec![Some("hello".into())]
        );
        assert_eq!(scan_cmd("A", "%c").unwrap(), vec![Some("65".into())]);
        assert_eq!(scan_cmd("1.5", "%f").unwrap(), vec![Some("1.5".into())]);
    }

    #[test]
    fn scan_suppression_and_width() {
        assert_eq!(
            scan_cmd("12 34", "%*d %d").unwrap(),
            vec![Some("34".into())]
        );
        assert_eq!(
            scan_cmd("12345", "%2d%3d").unwrap(),
            vec![Some("12".into()), Some("345".into())]
        );
    }

    #[test]
    fn scan_literal_matching() {
        assert_eq!(scan_cmd("x=42", "x=%d").unwrap(), vec![Some("42".into())]);
        assert_eq!(
            scan_cmd("y=42", "x=%d").unwrap(),
            Vec::<Option<String>>::new()
        );
    }

    #[test]
    fn scan_negative_numbers() {
        assert_eq!(scan_cmd("-17", "%d").unwrap(), vec![Some("-17".into())]);
        assert_eq!(
            scan_cmd("-1.5e2", "%f").unwrap(),
            vec![Some("-150.0".into())]
        );
    }
}
