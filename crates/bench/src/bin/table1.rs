//! Reproduces **Table I** of the paper: "A comparison between Tk and
//! Xt/Motif based on lines of source code ... for selected modules."
//!
//! The Xt/Motif and original-Tk columns are the numbers published in the
//! paper (they are data, not something we can re-measure). Our column is
//! measured from this repository. Every `.rs` file under
//! `crates/{tcl,tk,xsim,obs,wish,bench}/src` is classified into one row: a
//! paper module (the intrinsics, the Tcl interpreter, the packer, and the
//! three widget files — "in Tk a single file implements labels, buttons,
//! check buttons, and radio buttons", which this reproduction preserves),
//! a module the paper's Tk did not need (the simulated X server, later
//! widgets), or infrastructure and tools (transport, fault injection,
//! observability, the `wish` shell, the benchmark and chaos harness). A
//! file no rule claims is an error: the table counts the whole tree or it
//! fails.
//!
//! Run with: `cargo run -p tk-bench --bin table1`. It prints the table
//! as the Markdown that EXPERIMENTS.md's "Table I" section pastes, and
//! CI (`scripts/ci.sh table1`) fails when that copy differs.
//!
//! `table1 -- --check-budgets [BUDGETS.json]` is the economy gate: it
//! exits 1 if any row's code-line count is above its ceiling in the
//! budget file's `table1` object. Counts may go down freely; lower the
//! ceilings by hand when they do, so growth shows up as a diff.

use std::path::{Path, PathBuf};

use rtk_obs::json;
use tk_bench::count_loc;

/// The crates whose sources the table covers.
const CRATES: [&str; 6] = ["tcl", "tk", "xsim", "obs", "wish", "bench"];

/// A table row: name, then the Xt/Motif and Tk-1991 line counts the
/// paper published (`None` where it has none).
type Row = (&'static str, Option<u32>, Option<u32>);

/// Table rows in print order.
const ROWS: [Row; 13] = [
    ("Intrinsics", Some(24900), Some(15100)),
    ("Tcl", None, Some(9300)),
    ("Geometry Manager", Some(2100), Some(1000)),
    ("Buttons", Some(6300), Some(1000)),
    ("Scrollbar", Some(3000), Some(1200)),
    ("Listbox", Some(6400), Some(1600)),
    ("Other widgets", None, None),
    ("X server (sim)", None, None),
    ("Transport", None, None),
    ("Fault injection", None, None),
    ("Observability", None, None),
    ("Shell", None, None),
    ("Harness", None, None),
];

/// How many leading [`ROWS`] are the paper's modules; the next two are
/// modules the paper's Tk did not need, the rest infrastructure and tools.
const PAPER_ROWS: usize = 6;

/// Classification rules, `crate/path` relative to the crate's `src`,
/// first match wins. A rule ending in `/` claims everything under it.
const RULES: &[(&str, &str)] = &[
    ("tcl/", "Tcl"),
    ("obs/", "Observability"),
    ("wish/", "Shell"),
    ("bench/", "Harness"),
    ("tk/obs_cmd.rs", "Observability"),
    ("tk/pack.rs", "Geometry Manager"),
    ("tk/widget/button.rs", "Buttons"),
    ("tk/widget/scrollbar.rs", "Scrollbar"),
    ("tk/widget/listbox.rs", "Listbox"),
    ("tk/widget/canvas.rs", "Other widgets"),
    ("tk/widget/entry.rs", "Other widgets"),
    ("tk/widget/frame.rs", "Other widgets"),
    ("tk/widget/menu.rs", "Other widgets"),
    ("tk/widget/message.rs", "Other widgets"),
    ("tk/widget/scale.rs", "Other widgets"),
    ("tk/app.rs", "Intrinsics"),
    ("tk/bind.rs", "Intrinsics"),
    ("tk/cache.rs", "Intrinsics"),
    ("tk/cmds.rs", "Intrinsics"),
    ("tk/config.rs", "Intrinsics"),
    ("tk/draw.rs", "Intrinsics"),
    ("tk/lib.rs", "Intrinsics"),
    ("tk/optiondb.rs", "Intrinsics"),
    ("tk/selection.rs", "Intrinsics"),
    ("tk/send.rs", "Intrinsics"),
    ("tk/window.rs", "Intrinsics"),
    ("tk/widget/mod.rs", "Intrinsics"),
    ("xsim/wire.rs", "Transport"),
    ("xsim/fault.rs", "Fault injection"),
    ("xsim/rng.rs", "Fault injection"),
    ("xsim/obs.rs", "Observability"),
    ("xsim/atom.rs", "X server (sim)"),
    ("xsim/bitmap.rs", "X server (sim)"),
    ("xsim/color.rs", "X server (sim)"),
    ("xsim/connection.rs", "X server (sim)"),
    ("xsim/cursor.rs", "X server (sim)"),
    ("xsim/damage.rs", "X server (sim)"),
    ("xsim/event.rs", "X server (sim)"),
    ("xsim/font.rs", "X server (sim)"),
    ("xsim/gc.rs", "X server (sim)"),
    ("xsim/ids.rs", "X server (sim)"),
    ("xsim/lib.rs", "X server (sim)"),
    ("xsim/render.rs", "X server (sim)"),
    ("xsim/server.rs", "X server (sim)"),
    ("xsim/window.rs", "X server (sim)"),
];

/// The row a source file (`crate/path` relative to `src`) counts toward.
fn classify(file: &str) -> Option<usize> {
    let (_, row) = RULES
        .iter()
        .find(|(rule, _)| file == *rule || (rule.ends_with('/') && file.starts_with(rule)))?;
    ROWS.iter().position(|(name, _, _)| name == row)
}

/// Every `.rs` file under `dir`, as paths relative to `base`, sorted.
fn rust_files(base: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(base, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.strip_prefix(base).unwrap().to_path_buf());
        }
    }
}

/// `(code, tests)` per row, and the files no rule claims.
fn tally(crates_dir: &Path) -> ([(usize, usize); ROWS.len()], Vec<String>) {
    let mut sums = [(0, 0); ROWS.len()];
    let mut unclassified = Vec::new();
    for krate in CRATES {
        let src = crates_dir.join(krate).join("src");
        let mut files = Vec::new();
        rust_files(&src, &src, &mut files);
        files.sort();
        for rel in files {
            let name = format!("{krate}/{}", rel.to_string_lossy().replace('\\', "/"));
            match classify(&name) {
                Some(row) => {
                    let (code, tests) = count_loc(&src.join(&rel));
                    sums[row].0 += code;
                    sums[row].1 += tests;
                }
                None => unclassified.push(name),
            }
        }
    }
    (sums, unclassified)
}

/// The rows whose code-line count is above its ceiling in the budget
/// file's `table1` object (or that have no ceiling), one message each.
fn over_budget(budgets: &str, sums: &[(usize, usize)]) -> Result<Vec<String>, String> {
    let budgets = json::parse(budgets)?;
    let ceilings = budgets.get("table1").ok_or("no \"table1\" object")?;
    Ok(ROWS
        .iter()
        .zip(sums)
        .filter_map(|(&(name, _, _), &(code, _))| {
            match ceilings.get(name).and_then(|v| v.as_u64()) {
                Some(max) if code as u64 <= max => None,
                Some(max) => Some(format!("{name}: {code} code lines, ceiling {max}")),
                None => Some(format!("{name}: no ceiling")),
            }
        })
        .collect())
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (sums, unclassified) = tally(&root.join("crates"));
    if !unclassified.is_empty() {
        for f in &unclassified {
            eprintln!("table1: no row for crates/{f}: add it to RULES");
        }
        std::process::exit(1);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check-budgets") {
        let path = args
            .get(1)
            .map_or_else(|| root.join("BUDGETS.json"), PathBuf::from);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let over = over_budget(&text, &sums).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if !over.is_empty() {
            for msg in &over {
                eprintln!("table1: {msg}");
            }
            std::process::exit(1);
        }
        println!(
            "table1: every row is within its ceiling in {}",
            path.display()
        );
        return;
    }

    print!("{}", markdown(&sums));
}

/// `n` with thousands separators.
fn commas(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// The header of [`markdown`]'s table.
const HEADER: &str =
    "| Module | Xt/Motif (paper) | Tk 1991 (paper) | This repo (Rust, code) | (tests) |\n\
                      |---|---:|---:|---:|---:|\n";

/// Table I as the Markdown table EXPERIMENTS.md pastes: the paper's rows
/// and their total, the rows the paper's Tk did not need, the
/// infrastructure rows, and the total over every crate (totals in bold).
fn markdown(sums: &[(usize, usize)]) -> String {
    let num = |v: Option<u32>| v.map_or("—".to_string(), |v| commas(v as usize));
    let row = |name: &str, xt, tk, (code, tests): (usize, usize)| {
        [
            name.to_string(),
            num(xt),
            num(tk),
            commas(code),
            commas(tests),
        ]
    };
    let bold = |cells: [String; 5]| cells.map(|c| if c == "—" { c } else { format!("**{c}**") });
    let sum = |rows: &[(usize, usize)]| rows.iter().fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1));
    let paper =
        |col: fn(&Row) -> Option<u32>| Some(ROWS[..PAPER_ROWS].iter().filter_map(col).sum());
    let mut lines: Vec<[String; 5]> = ROWS
        .iter()
        .zip(sums)
        .map(|(r, &s)| row(r.0, r.1, r.2, s))
        .collect();
    let total = row(
        "Total (paper's rows)",
        paper(|r| r.1),
        paper(|r| r.2),
        sum(&sums[..PAPER_ROWS]),
    );
    lines.insert(PAPER_ROWS, bold(total));
    lines.push(bold(row("All six crates", None, None, sum(sums))));
    let mut out = HEADER.to_string();
    for cells in lines {
        out.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(file: &str) -> Option<&'static str> {
        classify(file).map(|i| ROWS[i].0)
    }

    #[test]
    fn files_land_in_their_rows() {
        assert_eq!(row("tcl/compile.rs"), Some("Tcl"));
        assert_eq!(row("tcl/commands/var.rs"), Some("Tcl"));
        assert_eq!(row("obs/span.rs"), Some("Observability"));
        assert_eq!(row("tk/obs_cmd.rs"), Some("Observability"));
        assert_eq!(row("tk/widget/canvas.rs"), Some("Other widgets"));
        assert_eq!(row("tk/widget/mod.rs"), Some("Intrinsics"));
        assert_eq!(row("xsim/wire.rs"), Some("Transport"));
        assert_eq!(row("xsim/fault.rs"), Some("Fault injection"));
        assert_eq!(row("xsim/damage.rs"), Some("X server (sim)"));
        assert_eq!(row("wish/main.rs"), Some("Shell"));
        assert_eq!(row("bench/chaos.rs"), Some("Harness"));
        assert_eq!(row("bench/bin/table1.rs"), Some("Harness"));
    }

    #[test]
    fn unknown_files_are_unclassified() {
        assert_eq!(row("xsim/socket.rs"), None);
        assert_eq!(row("tk/widget/text.rs"), None);
        assert_eq!(row("tclx/lib.rs"), None, "a directory rule needs its slash");
    }

    #[test]
    fn every_rule_names_a_row() {
        for (rule, name) in RULES {
            assert!(ROWS.iter().any(|r| r.0 == *name), "{rule} -> {name}");
        }
    }

    #[test]
    fn rows_above_their_ceiling_are_reported() {
        let mut sums = [(10, 0); ROWS.len()];
        let ceilings: Vec<String> = ROWS.iter().map(|r| format!("\"{}\":10", r.0)).collect();
        let budgets = format!("{{\"table1\":{{{}}}}}", ceilings.join(","));
        assert_eq!(over_budget(&budgets, &sums), Ok(vec![]));
        sums[7].0 = 11;
        assert_eq!(
            over_budget(&budgets, &sums),
            Ok(vec!["X server (sim): 11 code lines, ceiling 10".to_string()])
        );
        let missing = budgets.replace("\"Shell\":10,", "");
        assert_eq!(
            over_budget(&missing, &sums).unwrap().last().unwrap(),
            "Shell: no ceiling"
        );
        assert!(over_budget("{}", &sums).is_err());
    }

    #[test]
    fn the_markdown_table_has_a_row_per_module_and_two_totals() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(21643), "21,643");
        assert_eq!(commas(1234567), "1,234,567");
        let sums = [(1000, 10); ROWS.len()];
        let table = markdown(&sums);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + ROWS.len() + 2);
        assert_eq!(lines[2], "| Intrinsics | 24,900 | 15,100 | 1,000 | 10 |");
        assert_eq!(
            lines[2 + PAPER_ROWS],
            "| **Total (paper's rows)** | **42,700** | **29,200** | **6,000** | **60** |"
        );
        assert_eq!(
            lines.last().unwrap(),
            &"| **All six crates** | — | — | **13,000** | **130** |"
        );
    }

    #[test]
    fn every_source_file_is_classified() {
        let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let (sums, unclassified) = tally(&crates_dir);
        assert!(unclassified.is_empty(), "no row for {unclassified:?}");
        assert!(sums.iter().all(|&(code, _)| code > 0), "{sums:?}");
    }
}
