//! The Tcl command parser.
//!
//! Implements the complete syntax of Figures 1-5 of the paper: commands are
//! fields separated by white space and terminated by newline or `;`; fields
//! may be brace-quoted (verbatim, nestable), double-quoted (substitutions
//! performed), or bare; `$` introduces variable substitution, `[` command
//! substitution, and `\` backslash substitution.
//!
//! Parsing is separated from substitution: [`parse_command`] produces
//! [`Word`]s made of [`Part`]s, and the interpreter performs variable and
//! command substitution on the parts. This mirrors the two conceptual steps
//! of the paper's Section 2 while making each independently testable.

use crate::error::Exception;

/// One substitution-bearing fragment of a word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Part {
    /// Literal text (backslash sequences already decoded).
    Lit(String),
    /// `$name`, `${name}`, or `$name(index)`; the index itself may contain
    /// nested substitutions.
    Var(String, Option<Vec<Part>>),
    /// `[script]` command substitution; the script is kept as source text
    /// and evaluated at substitution time.
    Cmd(String),
}

/// A parsed word: the concatenation of its parts after substitution.
pub type Word = Vec<Part>;

/// Decodes the backslash sequence starting at `bytes[pos]` (which must be
/// `\`). Returns the decoded text and the number of input bytes consumed.
///
/// Supported sequences follow Tcl: `\a \b \f \n \r \t \v`, octal `\ddd`
/// (1-3 digits), hex `\xhh...`, backslash-newline (plus following spaces and
/// tabs) collapsing to a single space, and `\c` for any other character `c`
/// standing for itself.
pub fn backslash(src: &str, pos: usize) -> (String, usize) {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[pos], b'\\');
    let Some(&c) = bytes.get(pos + 1) else {
        return ("\\".to_string(), 1);
    };
    match c {
        b'a' => ("\x07".into(), 2),
        b'b' => ("\x08".into(), 2),
        b'f' => ("\x0c".into(), 2),
        b'n' => ("\n".into(), 2),
        b'r' => ("\r".into(), 2),
        b't' => ("\t".into(), 2),
        b'v' => ("\x0b".into(), 2),
        b'\n' => {
            // Backslash-newline plus following whitespace becomes one space.
            let mut used = 2;
            while pos + used < bytes.len()
                && (bytes[pos + used] == b' ' || bytes[pos + used] == b'\t')
            {
                used += 1;
            }
            (" ".into(), used)
        }
        b'x' => {
            let mut val: u32 = 0;
            let mut used = 2;
            let mut any = false;
            while pos + used < bytes.len() {
                let d = bytes[pos + used];
                let dv = match d {
                    b'0'..=b'9' => d - b'0',
                    b'a'..=b'f' => d - b'a' + 10,
                    b'A'..=b'F' => d - b'A' + 10,
                    _ => break,
                };
                // Tcl keeps only the low byte when more digits are given.
                val = (val << 4 | dv as u32) & 0xff;
                used += 1;
                any = true;
            }
            if any {
                (char::from(val as u8).to_string(), used)
            } else {
                ("x".into(), 2)
            }
        }
        b'0'..=b'7' => {
            let mut val: u32 = 0;
            let mut used = 1;
            while used <= 3 && pos + used < bytes.len() {
                let d = bytes[pos + used];
                if !(b'0'..=b'7').contains(&d) {
                    break;
                }
                val = val * 8 + (d - b'0') as u32;
                used += 1;
            }
            (char::from((val & 0xff) as u8).to_string(), used)
        }
        _ => {
            // Any other character stands for itself; this covers the
            // multi-byte UTF-8 case by copying the full char.
            let ch = src[pos + 1..].chars().next().unwrap();
            (ch.to_string(), 1 + ch.len_utf8())
        }
    }
}

/// Scans a brace-quoted word starting at the `{` at `pos`. Returns the
/// verbatim contents (with backslash-newline collapsed, Tcl's single
/// exception inside braces) and the position just past the closing `}`.
pub fn parse_braces(src: &str, pos: usize) -> Result<(String, usize), Exception> {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[pos], b'{');
    let mut depth = 1usize;
    let mut i = pos + 1;
    let mut out = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                if bytes.get(i + 1) == Some(&b'\n') {
                    let (s, used) = backslash(src, i);
                    out.push_str(&s);
                    i += used;
                } else {
                    // Backslash sequences are *not* decoded inside braces,
                    // but they do shield the following character from brace
                    // counting (`\{` does not open a brace level).
                    out.push('\\');
                    if i + 1 < bytes.len() {
                        let ch = src[i + 1..].chars().next().unwrap();
                        out.push(ch);
                        i += 1 + ch.len_utf8();
                    } else {
                        i += 1;
                    }
                }
            }
            b'{' => {
                depth += 1;
                out.push('{');
                i += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Ok((out, i + 1));
                }
                out.push('}');
                i += 1;
            }
            _ => {
                let ch = src[i..].chars().next().unwrap();
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    Err(Exception::error("missing close-brace"))
}

/// Scans a bracketed command substitution starting at the `[` at `pos`.
/// Returns the script between the brackets and the position just past `]`.
///
/// Bracket nesting must account for braces and quotes inside the nested
/// script so that `[set x "]"]` and `[list {]}]` scan correctly.
pub fn parse_brackets(src: &str, pos: usize) -> Result<(String, usize), Exception> {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[pos], b'[');
    let mut depth = 1usize;
    let mut i = pos + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                let (_, used) = backslash(src, i);
                i += used;
            }
            b'{' => {
                let (_, next) = parse_braces(src, i)?;
                i = next;
            }
            b'"' => {
                // Skip a quoted section, honoring backslashes.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        let (_, used) = backslash(src, i);
                        i += used;
                    } else {
                        i += 1;
                    }
                }
                if i >= bytes.len() {
                    return Err(Exception::error("missing \""));
                }
                i += 1;
            }
            b'[' => {
                depth += 1;
                i += 1;
            }
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Ok((src[pos + 1..i].to_string(), i + 1));
                }
                i += 1;
            }
            _ => {
                i += src[i..].chars().next().unwrap().len_utf8();
            }
        }
    }
    Err(Exception::error("missing close-bracket"))
}

/// True if `c` can appear in a plain (un-braced) variable name.
fn is_var_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Parses a `$` substitution starting at the `$` at `pos`.
///
/// Handles `$name`, `${name}`, and array element `$name(index)` where the
/// index may itself contain `$`, `[`, and `\` substitutions. If the `$` is
/// not followed by a valid name it is treated as a literal dollar sign.
pub fn parse_dollar(src: &str, pos: usize, parts: &mut Vec<Part>) -> Result<usize, Exception> {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[pos], b'$');
    let start = pos + 1;
    if bytes.get(start) == Some(&b'{') {
        // ${name}: everything up to the close brace is the name.
        let mut i = start + 1;
        while i < bytes.len() && bytes[i] != b'}' {
            i += 1;
        }
        if i >= bytes.len() {
            return Err(Exception::error("missing close-brace for variable name"));
        }
        parts.push(Part::Var(src[start + 1..i].to_string(), None));
        return Ok(i + 1);
    }
    // `$::name` is the global variable `name`.
    let mut i = start + 2 * usize::from(src[start..].starts_with("::"));
    while i < bytes.len() && is_var_char(bytes[i]) {
        i += 1;
    }
    if i == start {
        // Bare `$`: literal.
        push_lit(parts, "$");
        return Ok(start);
    }
    let name = src[start..i].to_string();
    if bytes.get(i) == Some(&b'(') {
        // Array element: scan to the matching `)` collecting index parts.
        let mut idx_parts: Vec<Part> = Vec::new();
        let mut j = i + 1;
        while j < bytes.len() && bytes[j] != b')' {
            match bytes[j] {
                b'$' => j = parse_dollar(src, j, &mut idx_parts)?,
                b'[' => {
                    let (script, next) = parse_brackets(src, j)?;
                    idx_parts.push(Part::Cmd(script));
                    j = next;
                }
                b'\\' => {
                    let (s, used) = backslash(src, j);
                    push_lit(&mut idx_parts, &s);
                    j += used;
                }
                _ => {
                    let ch = src[j..].chars().next().unwrap();
                    push_lit(&mut idx_parts, &ch.to_string());
                    j += ch.len_utf8();
                }
            }
        }
        if j >= bytes.len() {
            return Err(Exception::error(format!(
                "missing ) for array variable \"{name}\""
            )));
        }
        parts.push(Part::Var(name, Some(idx_parts)));
        return Ok(j + 1);
    }
    parts.push(Part::Var(name, None));
    Ok(i)
}

/// Appends literal text, merging with a trailing `Lit` part when possible.
fn push_lit(parts: &mut Vec<Part>, text: &str) {
    if let Some(Part::Lit(s)) = parts.last_mut() {
        s.push_str(text);
    } else {
        parts.push(Part::Lit(text.to_string()));
    }
}

/// Parses the next command from `src` starting at `*pos`.
///
/// Skips leading white space, command separators, and comments. On success
/// advances `*pos` past the command's terminator and returns its words;
/// returns `Ok(None)` when the script is exhausted.
pub fn parse_command(src: &str, pos: &mut usize) -> Result<Option<Vec<Word>>, Exception> {
    let bytes = src.as_bytes();
    let mut i = *pos;

    // Skip separators and white space between commands.
    loop {
        while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b';' | b'\r') {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'\\' && bytes.get(i + 1) == Some(&b'\n') {
            let (_, used) = backslash(src, i);
            i += used;
            continue;
        }
        if i < bytes.len() && bytes[i] == b'#' {
            // Comment: runs to the next unescaped newline.
            while i < bytes.len() && bytes[i] != b'\n' {
                if bytes[i] == b'\\' {
                    let (_, used) = backslash(src, i);
                    i += used;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        break;
    }
    if i >= bytes.len() {
        *pos = i;
        return Ok(None);
    }

    let mut words: Vec<Word> = Vec::new();
    loop {
        // Skip white space between words (backslash-newline is white space).
        loop {
            while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\r') {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'\\' && bytes.get(i + 1) == Some(&b'\n') {
                let (_, used) = backslash(src, i);
                i += used;
                continue;
            }
            break;
        }
        if i >= bytes.len() || bytes[i] == b'\n' || bytes[i] == b';' {
            if i < bytes.len() {
                i += 1; // consume the terminator
            }
            break;
        }

        let mut parts: Vec<Part> = Vec::new();
        if bytes[i] == b'{' {
            let (content, next) = parse_braces(src, i)?;
            i = next;
            ensure_word_end(src, i)?;
            parts.push(Part::Lit(content));
        } else if bytes[i] == b'"' {
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                match bytes[i] {
                    b'$' => i = parse_dollar(src, i, &mut parts)?,
                    b'[' => {
                        let (script, next) = parse_brackets(src, i)?;
                        parts.push(Part::Cmd(script));
                        i = next;
                    }
                    b'\\' => {
                        let (s, used) = backslash(src, i);
                        push_lit(&mut parts, &s);
                        i += used;
                    }
                    _ => {
                        let ch = src[i..].chars().next().unwrap();
                        push_lit(&mut parts, &ch.to_string());
                        i += ch.len_utf8();
                    }
                }
            }
            if i >= bytes.len() {
                return Err(Exception::error("missing \""));
            }
            i += 1;
            ensure_word_end(src, i)?;
            if parts.is_empty() {
                parts.push(Part::Lit(String::new()));
            }
        } else {
            // Bare word: runs until white space or command terminator.
            while i < bytes.len() && !matches!(bytes[i], b' ' | b'\t' | b'\n' | b';' | b'\r') {
                match bytes[i] {
                    b'$' => i = parse_dollar(src, i, &mut parts)?,
                    b'[' => {
                        let (script, next) = parse_brackets(src, i)?;
                        parts.push(Part::Cmd(script));
                        i = next;
                    }
                    b'\\' => {
                        if bytes.get(i + 1) == Some(&b'\n') {
                            break; // acts as white space: ends the word
                        }
                        let (s, used) = backslash(src, i);
                        push_lit(&mut parts, &s);
                        i += used;
                    }
                    _ => {
                        let ch = src[i..].chars().next().unwrap();
                        push_lit(&mut parts, &ch.to_string());
                        i += ch.len_utf8();
                    }
                }
            }
            if parts.is_empty() {
                parts.push(Part::Lit(String::new()));
            }
        }
        words.push(parts);
    }

    *pos = i;
    if words.is_empty() {
        // A line that was only a terminator; try again from here.
        return parse_command(src, pos);
    }
    Ok(Some(words))
}

/// After a braced or quoted word, the next character must be white space or
/// a command terminator (Tcl rejects `{a}b`).
fn ensure_word_end(src: &str, pos: usize) -> Result<(), Exception> {
    match src.as_bytes().get(pos) {
        None | Some(b' ' | b'\t' | b'\n' | b';' | b'\r') => Ok(()),
        Some(b'\\') if src.as_bytes().get(pos + 1) == Some(&b'\n') => Ok(()),
        Some(_) => Err(Exception::error(
            "extra characters after close-quote or close-brace",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(src: &str) -> Vec<Vec<Word>> {
        let mut pos = 0;
        let mut out = Vec::new();
        while let Some(cmd) = parse_command(src, &mut pos).unwrap() {
            out.push(cmd);
        }
        out
    }

    fn lit(s: &str) -> Word {
        vec![Part::Lit(s.to_string())]
    }

    #[test]
    fn simple_command_fields() {
        let cmds = parse_all("set a 1000");
        assert_eq!(cmds, vec![vec![lit("set"), lit("a"), lit("1000")]]);
    }

    #[test]
    fn semicolon_and_newline_separate_commands() {
        let cmds = parse_all("print foo; print bar\nprint baz");
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[2], vec![lit("print"), lit("baz")]);
    }

    #[test]
    fn quoted_word_is_one_field() {
        let cmds = parse_all("set msg \"Hello, world\"");
        assert_eq!(cmds[0][2], lit("Hello, world"));
    }

    #[test]
    fn braced_word_is_verbatim() {
        let cmds = parse_all("set x {a b {x1 x2}}");
        assert_eq!(cmds[0][2], lit("a b {x1 x2}"));
    }

    #[test]
    fn braces_suppress_separators_and_substitution() {
        let cmds = parse_all("set x {a; b\n$c [d]}");
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0][2], lit("a; b\n$c [d]"));
    }

    #[test]
    fn dollar_substitution_parses() {
        let cmds = parse_all("print $msg");
        assert_eq!(cmds[0][1], vec![Part::Var("msg".into(), None)]);
    }

    #[test]
    fn braced_variable_name() {
        let cmds = parse_all("print ${a b}x");
        assert_eq!(
            cmds[0][1],
            vec![Part::Var("a b".into(), None), Part::Lit("x".into())]
        );
    }

    #[test]
    fn array_element_with_nested_substitution() {
        let cmds = parse_all("print $a($i)");
        assert_eq!(
            cmds[0][1],
            vec![Part::Var(
                "a".into(),
                Some(vec![Part::Var("i".into(), None)])
            )]
        );
    }

    #[test]
    fn bare_dollar_is_literal() {
        let cmds = parse_all("print a$ b");
        assert_eq!(cmds[0][1], lit("a$"));
    }

    #[test]
    fn command_substitution_parses() {
        let cmds = parse_all("print [list q r $x]");
        assert_eq!(cmds[0][1], vec![Part::Cmd("list q r $x".into())]);
    }

    #[test]
    fn nested_brackets_scan() {
        let cmds = parse_all("set a [x [y z]]");
        assert_eq!(cmds[0][2], vec![Part::Cmd("x [y z]".into())]);
    }

    #[test]
    fn brackets_with_braced_close_bracket() {
        let cmds = parse_all("set a [list {]}]");
        assert_eq!(cmds[0][2], vec![Part::Cmd("list {]}".into())]);
    }

    #[test]
    fn brackets_with_quoted_close_bracket() {
        let cmds = parse_all("set a [set x \"]\"]");
        assert_eq!(cmds[0][2], vec![Part::Cmd("set x \"]\"".into())]);
    }

    #[test]
    fn backslash_sequences_decode() {
        assert_eq!(backslash("\\n", 0), ("\n".into(), 2));
        assert_eq!(backslash("\\t", 0), ("\t".into(), 2));
        assert_eq!(backslash("\\{", 0), ("{".into(), 2));
        assert_eq!(backslash("\\101", 0), ("A".into(), 4));
        assert_eq!(backslash("\\x41", 0), ("A".into(), 4));
        assert_eq!(backslash("\\x", 0), ("x".into(), 2));
    }

    #[test]
    fn backslash_newline_is_whitespace() {
        let cmds = parse_all("set a\\\n   b");
        assert_eq!(cmds[0], vec![lit("set"), lit("a"), lit("b")]);
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn backslash_in_word_escapes() {
        let cmds = parse_all("print Hello!\\n");
        assert_eq!(cmds[0][1], lit("Hello!\n"));
    }

    #[test]
    fn escaped_braces_in_quotes() {
        let cmds = parse_all("set msg \"\\{ and \\} are special\"");
        assert_eq!(cmds[0][2], lit("{ and } are special"));
    }

    #[test]
    fn backslash_shields_brace_counting_inside_braces() {
        let cmds = parse_all(r"set a {x \} y}");
        assert_eq!(cmds[0][2], lit(r"x \} y"));
    }

    #[test]
    fn comments_skipped_at_command_position() {
        let cmds = parse_all("# a comment\nset a 1 ;# not a comment here\n");
        // `#` only starts a comment at command position, so the second `#`
        // begins a new command after `;` ... which is itself a comment.
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0][0], lit("set"));
    }

    #[test]
    fn empty_script_yields_none() {
        assert!(parse_all("").is_empty());
        assert!(parse_all("  \n\t; ;\n").is_empty());
    }

    #[test]
    fn missing_close_brace_is_error() {
        let mut pos = 0;
        assert!(parse_command("set a {oops", &mut pos).is_err());
    }

    #[test]
    fn missing_close_bracket_is_error() {
        let mut pos = 0;
        assert!(parse_command("set a [oops", &mut pos).is_err());
    }

    #[test]
    fn missing_close_quote_is_error() {
        let mut pos = 0;
        assert!(parse_command("set a \"oops", &mut pos).is_err());
    }

    #[test]
    fn extra_chars_after_brace_is_error() {
        let mut pos = 0;
        assert!(parse_command("set a {x}y", &mut pos).is_err());
    }

    #[test]
    fn empty_quoted_word_is_empty_literal() {
        let cmds = parse_all("set a \"\"");
        assert_eq!(cmds[0][2], lit(""));
    }

    #[test]
    fn utf8_text_passes_through() {
        let cmds = parse_all("set a héllo");
        assert_eq!(cmds[0][2], lit("héllo"));
    }

    #[test]
    fn figure5_backslash_examples() {
        // `set msg "\{ and \} are special"` — already covered above; the
        // second example: print Hello!\n
        let cmds = parse_all("print Hello!\\n");
        assert_eq!(cmds[0][1], lit("Hello!\n"));
    }

    #[test]
    fn dollar_in_quotes_substitutes() {
        let cmds = parse_all("set msg \"x is $x\"");
        assert_eq!(
            cmds[0][2],
            vec![Part::Lit("x is ".into()), Part::Var("x".into(), None)]
        );
    }
}
