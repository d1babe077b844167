//! List commands: `list`, `lindex`, `llength`, `lappend`, `linsert`,
//! `lrange`, `lreplace`, `lsearch`, `lsort`, `concat`, `join`, `split`,
//! plus the old-style `index` and `range` aliases used in Figure 9.

use crate::error::{wrong_args, Exception, TclResult};
use crate::interp::{split_var_name, Access, Interp};
use crate::list::{format_list, parse_list};

pub fn register(interp: &Interp) {
    interp.register("list", |_i, argv| Ok(format_list(&argv[1..])));
    interp.register("lindex", cmd_lindex);
    interp.register("index", cmd_lindex); // old Tcl alias, used by Figure 9
    interp.register("llength", cmd_llength);
    interp.register("length", cmd_llength_old);
    interp.register("lappend", cmd_lappend);
    interp.register("linsert", cmd_linsert);
    interp.register("lrange", cmd_lrange);
    interp.register("range", cmd_lrange); // old Tcl alias
    interp.register("lreplace", cmd_lreplace);
    interp.register("lsearch", cmd_lsearch);
    interp.register("lsort", cmd_lsort);
    interp.register("concat", cmd_concat);
    interp.register("join", cmd_join);
    interp.register("split", cmd_split);
}

/// Parses a list index: a number or `end` (optionally `end-N`).
fn parse_index(spec: &str, len: usize) -> Result<i64, Exception> {
    if spec == "end" {
        return Ok(len as i64 - 1);
    }
    if let Some(off) = spec.strip_prefix("end-") {
        let n: i64 = off
            .parse()
            .map_err(|_| Exception::error(format!("bad index \"{spec}\"")))?;
        return Ok(len as i64 - 1 - n);
    }
    spec.parse()
        .map_err(|_| Exception::error(format!("bad index \"{spec}\"")))
}

fn cmd_lindex(_i: &Interp, argv: &[String]) -> TclResult {
    if argv.len() != 3 {
        return Err(wrong_args("lindex list index"));
    }
    let items = parse_list(&argv[1])?;
    let idx = parse_index(&argv[2], items.len())?;
    if idx < 0 || idx as usize >= items.len() {
        return Ok(String::new());
    }
    Ok(items[idx as usize].clone())
}

fn cmd_llength(_i: &Interp, argv: &[String]) -> TclResult {
    if argv.len() != 2 {
        return Err(wrong_args("llength list"));
    }
    Ok(parse_list(&argv[1])?.len().to_string())
}

/// Old Tcl's `length`: `length string chars|lines` or list length.
fn cmd_llength_old(_i: &Interp, argv: &[String]) -> TclResult {
    match argv.len() {
        2 => Ok(parse_list(&argv[1])?.len().to_string()),
        3 => match argv[2].as_str() {
            "chars" => Ok(argv[1].chars().count().to_string()),
            "lines" => Ok(argv[1].lines().count().to_string()),
            other => Err(Exception::error(format!(
                "bad length option \"{other}\": should be chars or lines"
            ))),
        },
        _ => Err(wrong_args("length string ?chars|lines?")),
    }
}

fn cmd_lappend(interp: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("lappend varName ?value value ...?"));
    }
    let (name, idx) = split_var_name(&argv[1]);
    interp.update_var(name, idx, Access::Extend, |value| {
        for v in &argv[2..] {
            crate::list::append_element(value, v);
        }
        Ok(())
    })
}

fn cmd_linsert(_i: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 4 {
        return Err(wrong_args("linsert list index element ?element ...?"));
    }
    let mut items = parse_list(&argv[1])?;
    let idx = parse_index(&argv[2], items.len())?.clamp(0, items.len() as i64) as usize;
    // Old Tcl's linsert inserts *before* the given element; `end` appends
    // after the last element per the documented behaviour of `end`.
    let at = if argv[2] == "end" { items.len() } else { idx };
    for (n, v) in argv[3..].iter().enumerate() {
        items.insert(at + n, v.clone());
    }
    Ok(format_list(&items))
}

fn cmd_lrange(_i: &Interp, argv: &[String]) -> TclResult {
    if argv.len() != 4 {
        return Err(wrong_args("lrange list first last"));
    }
    let items = parse_list(&argv[1])?;
    let first = parse_index(&argv[2], items.len())?.max(0) as usize;
    let last = parse_index(&argv[3], items.len())?;
    if last < first as i64 || first >= items.len() {
        return Ok(String::new());
    }
    let last = (last as usize).min(items.len() - 1);
    Ok(format_list(&items[first..=last]))
}

fn cmd_lreplace(_i: &Interp, argv: &[String]) -> TclResult {
    if argv.len() < 4 {
        return Err(wrong_args("lreplace list first last ?element element ...?"));
    }
    let mut items = parse_list(&argv[1])?;
    let first = parse_index(&argv[2], items.len())?.max(0) as usize;
    let last = parse_index(&argv[3], items.len())?;
    if first >= items.len() {
        // Appending beyond the end.
        items.extend(argv[4..].iter().cloned());
        return Ok(format_list(&items));
    }
    let last = if last < 0 {
        0
    } else {
        (last as usize).min(items.len() - 1)
    };
    if last >= first {
        items.splice(first..=last, argv[4..].iter().cloned());
    } else {
        items.splice(first..first, argv[4..].iter().cloned());
    }
    Ok(format_list(&items))
}

fn cmd_lsearch(_i: &Interp, argv: &[String]) -> TclResult {
    // lsearch ?-exact|-glob? list pattern
    let (mode, list_arg, pat_arg) = match argv.len() {
        3 => ("-glob", &argv[1], &argv[2]),
        4 => (argv[1].as_str(), &argv[2], &argv[3]),
        _ => return Err(wrong_args("lsearch ?mode? list pattern")),
    };
    let items = parse_list(list_arg)?;
    for (n, item) in items.iter().enumerate() {
        let hit = match mode {
            "-exact" => item == pat_arg,
            "-glob" => crate::strutil::glob_match(pat_arg, item),
            other => {
                return Err(Exception::error(format!(
                    "bad search mode \"{other}\": should be -exact or -glob"
                )))
            }
        };
        if hit {
            return Ok(n.to_string());
        }
    }
    Ok("-1".to_string())
}

fn cmd_lsort(_i: &Interp, argv: &[String]) -> TclResult {
    // lsort ?-ascii|-integer|-real? ?-increasing|-decreasing? list
    let mut mode = "-ascii";
    let mut decreasing = false;
    let mut list_arg: Option<&String> = None;
    for arg in &argv[1..] {
        match arg.as_str() {
            "-ascii" | "-integer" | "-real" => {
                mode = match arg.as_str() {
                    "-integer" => "-integer",
                    "-real" => "-real",
                    _ => "-ascii",
                }
            }
            "-increasing" => decreasing = false,
            "-decreasing" => decreasing = true,
            _ => {
                if list_arg.is_some() {
                    return Err(wrong_args("lsort ?options? list"));
                }
                list_arg = Some(arg);
            }
        }
    }
    let Some(list_arg) = list_arg else {
        return Err(wrong_args("lsort ?options? list"));
    };
    let mut items = parse_list(list_arg)?;
    match mode {
        "-integer" => {
            let mut keyed: Vec<(i64, String)> = Vec::with_capacity(items.len());
            for s in items {
                let k: i64 = s
                    .trim()
                    .parse()
                    .map_err(|_| Exception::error(format!("expected integer but got \"{s}\"")))?;
                keyed.push((k, s));
            }
            keyed.sort_by_key(|(k, _)| *k);
            items = keyed.into_iter().map(|(_, s)| s).collect();
        }
        "-real" => {
            let mut keyed: Vec<(f64, String)> = Vec::with_capacity(items.len());
            for s in items {
                let k: f64 = s.trim().parse().map_err(|_| {
                    Exception::error(format!("expected floating-point number but got \"{s}\""))
                })?;
                keyed.push((k, s));
            }
            keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            items = keyed.into_iter().map(|(_, s)| s).collect();
        }
        _ => items.sort(),
    }
    if decreasing {
        items.reverse();
    }
    Ok(format_list(&items))
}

fn cmd_concat(_i: &Interp, argv: &[String]) -> TclResult {
    let parts: Vec<&str> = argv[1..]
        .iter()
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .collect();
    Ok(parts.join(" "))
}

fn cmd_join(_i: &Interp, argv: &[String]) -> TclResult {
    if argv.len() != 2 && argv.len() != 3 {
        return Err(wrong_args("join list ?joinString?"));
    }
    let sep = if argv.len() == 3 {
        argv[2].as_str()
    } else {
        " "
    };
    let items = parse_list(&argv[1])?;
    Ok(items.join(sep))
}

fn cmd_split(_i: &Interp, argv: &[String]) -> TclResult {
    if argv.len() != 2 && argv.len() != 3 {
        return Err(wrong_args("split string ?splitChars?"));
    }
    let text = &argv[1];
    let elems: Vec<String> = if argv.len() == 3 && argv[2].is_empty() {
        text.chars().map(|c| c.to_string()).collect()
    } else {
        let seps: Vec<char> = if argv.len() == 3 {
            argv[2].chars().collect()
        } else {
            vec![' ', '\t', '\n', '\r']
        };
        let mut out = Vec::new();
        let mut cur = String::new();
        for c in text.chars() {
            if seps.contains(&c) {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.push(c);
            }
        }
        out.push(cur);
        out
    };
    Ok(format_list(&elems))
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    fn ev(script: &str) -> String {
        Interp::new().eval(script).unwrap()
    }

    #[test]
    fn list_quotes_elements() {
        assert_eq!(ev("list a {b c} d"), "a {b c} d");
        assert_eq!(ev("list"), "");
        assert_eq!(ev("list {}"), "{}");
    }

    #[test]
    fn lindex_and_old_index() {
        assert_eq!(ev("lindex {a b c} 1"), "b");
        assert_eq!(ev("index {a b c} 0"), "a");
        assert_eq!(ev("lindex {a b c} end"), "c");
        assert_eq!(ev("lindex {a b c} 99"), "");
        assert_eq!(ev("lindex {a b c} end-1"), "b");
    }

    #[test]
    fn llength_counts() {
        assert_eq!(ev("llength {a b {c d}}"), "3");
        assert_eq!(ev("llength {}"), "0");
    }

    #[test]
    fn lappend_builds_list() {
        let i = Interp::new();
        i.eval("lappend v a").unwrap();
        i.eval("lappend v {b c}").unwrap();
        assert_eq!(i.eval("set v").unwrap(), "a {b c}");
        assert_eq!(i.eval("llength $v").unwrap(), "2");
    }

    #[test]
    fn linsert_positions() {
        assert_eq!(ev("linsert {a b c} 1 X"), "a X b c");
        assert_eq!(ev("linsert {a b c} 0 X Y"), "X Y a b c");
        assert_eq!(ev("linsert {a b c} end X"), "a b c X");
    }

    #[test]
    fn lrange_and_old_range() {
        assert_eq!(ev("lrange {a b c d} 1 2"), "b c");
        assert_eq!(ev("range {a b c d} 2 end"), "c d");
        assert_eq!(ev("lrange {a b c} 5 7"), "");
    }

    #[test]
    fn lreplace_cases() {
        assert_eq!(ev("lreplace {a b c d} 1 2 X"), "a X d");
        assert_eq!(ev("lreplace {a b c} 0 0"), "b c");
        assert_eq!(ev("lreplace {a b c} 1 0 X"), "a X b c");
    }

    #[test]
    fn lsearch_modes() {
        assert_eq!(ev("lsearch {a ab abc} ab*"), "1");
        assert_eq!(ev("lsearch -exact {a ab abc} ab"), "1");
        assert_eq!(ev("lsearch -exact {a ab abc} zz"), "-1");
    }

    #[test]
    fn lsort_modes() {
        assert_eq!(ev("lsort {b a c}"), "a b c");
        assert_eq!(ev("lsort -decreasing {b a c}"), "c b a");
        assert_eq!(ev("lsort -integer {10 9 2}"), "2 9 10");
        assert_eq!(ev("lsort -real {1.5 0.3 10.0}"), "0.3 1.5 10.0");
        assert_eq!(ev("lsort {10 9 2}"), "10 2 9"); // ascii order
    }

    #[test]
    fn concat_flattens() {
        assert_eq!(ev("concat {a b} {c d}"), "a b c d");
        assert_eq!(ev("concat a {} b"), "a b");
    }

    #[test]
    fn join_and_split() {
        assert_eq!(ev("join {a b c} -"), "a-b-c");
        assert_eq!(ev("join {a {b c}}"), "a b c");
        assert_eq!(ev("split a-b-c -"), "a b c");
        assert_eq!(ev("split {a b}"), "a b");
        assert_eq!(ev("split abc {}"), "a b c");
        assert_eq!(ev("split a--b -"), "a {} b");
    }

    #[test]
    fn nested_list_access() {
        assert_eq!(ev("lindex [lindex {{a b} {c d}} 1] 0"), "c");
    }
}
