//! The option database (Section 3.5).
//!
//! Users specify preferences with X-resource-manager patterns like
//! `*Button.background: red`. Patterns are sequences of components
//! separated by `.` (tight binding) or `*` (loose binding, skipping any
//! number of levels). Each component matches either the *name* or the
//! *class* at that level of the widget hierarchy. Entries carry a
//! priority; among matches the highest priority wins, then the more
//! specific pattern (tight bindings and name matches beat loose bindings
//! and class matches), then the most recently added.

/// Priority levels, mirroring Tk's named levels.
pub mod priority {
    /// Factory defaults compiled into widgets.
    pub const WIDGET_DEFAULT: u32 = 20;
    /// Application start-up code.
    pub const STARTUP_FILE: u32 = 40;
    /// The user's .Xdefaults.
    pub const USER_DEFAULT: u32 = 60;
    /// Interactive overrides.
    pub const INTERACTIVE: u32 = 80;
}

/// One pattern component plus how it binds to the previous one.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Component {
    /// `true` when the component was preceded by `*`.
    loose: bool,
    /// The component text (a name, a class, or `?`).
    text: String,
}

/// A parsed option-database entry.
#[derive(Debug, Clone)]
struct Entry {
    components: Vec<Component>,
    value: String,
    priority: u32,
    serial: u64,
}

/// The option database.
#[derive(Debug, Default)]
pub struct OptionDb {
    entries: Vec<Entry>,
    next_serial: u64,
}

/// Splits a pattern like `*Button.background` into components.
fn parse_pattern(pattern: &str) -> Vec<Component> {
    let mut out = Vec::new();
    let mut loose = false;
    let mut cur = String::new();
    for c in pattern.chars() {
        match c {
            '.' => {
                if !cur.is_empty() {
                    out.push(Component {
                        loose,
                        text: std::mem::take(&mut cur),
                    });
                    loose = false;
                }
            }
            '*' => {
                if !cur.is_empty() {
                    out.push(Component {
                        loose,
                        text: std::mem::take(&mut cur),
                    });
                }
                loose = true;
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(Component { loose, text: cur });
    }
    out
}

impl OptionDb {
    /// Creates an empty database.
    pub fn new() -> OptionDb {
        OptionDb::default()
    }

    /// Adds `pattern: value` at `priority`.
    pub fn add(&mut self, pattern: &str, value: &str, priority: u32) {
        self.next_serial += 1;
        self.entries.push(Entry {
            components: parse_pattern(pattern),
            value: value.to_string(),
            priority,
            serial: self.next_serial,
        });
    }

    /// Removes everything (the `option clear` command).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an option for a window.
    ///
    /// `levels` is the window's path split into (name, class) pairs with
    /// the option's own name and class last (e.g. `[("x", "Frame"), ("b",
    /// "Button"), ("background", "Background")]` for window `.x.b`). A
    /// widget builds it once and rewrites only the last pair per option,
    /// as tkOption.c resolves a window once for all of its options.
    /// Returns the winning value, if any entry matches.
    pub fn get(&self, levels: &[(&str, &str)]) -> Option<&str> {
        let mut best: Option<(u32, u64, u64)> = None; // (priority, specificity, serial)
        let mut best_value: Option<&str> = None;
        for e in &self.entries {
            if let Some(spec) = match_entry(&e.components, levels) {
                let key = (e.priority, spec, e.serial);
                if best.map(|b| key > b).unwrap_or(true) {
                    best = Some(key);
                    best_value = Some(&e.value);
                }
            }
        }
        best_value
    }

    /// Parses `.Xdefaults`-style text (`pattern: value` lines, `!` or `#`
    /// comments) and adds every entry at `priority`.
    pub fn load_defaults(&mut self, text: &str, priority: u32) -> usize {
        let mut added = 0;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('!') || line.starts_with('#') {
                continue;
            }
            if let Some(colon) = line.find(':') {
                let pattern = line[..colon].trim();
                let value = line[colon + 1..].trim();
                if !pattern.is_empty() {
                    self.add(pattern, value, priority);
                    added += 1;
                }
            }
        }
        added
    }
}

/// Matches the entry components against the levels; returns a
/// specificity score (higher = more specific) or `None` on mismatch.
fn match_entry(components: &[Component], levels: &[(&str, &str)]) -> Option<u64> {
    // Recursive matcher over (component index, level index). Specificity
    // accumulates 3 for a name match, 2 for a class match, 1 for `?`, and
    // tight bindings add 1 per component; implemented as base-8 digits so
    // earlier (higher) levels dominate.
    fn rec(comps: &[Component], levels: &[(&str, &str)], ci: usize, li: usize) -> Option<u64> {
        if ci == comps.len() {
            return if li == levels.len() { Some(0) } else { None };
        }
        let c = &comps[ci];
        let here = |li: usize| -> Option<u64> {
            let (name, class) = *levels.get(li)?;
            let base = if c.text == name {
                3
            } else if c.text == class {
                2
            } else if c.text == "?" {
                1
            } else {
                return None;
            };
            let tight_bonus = if c.loose { 0 } else { 1 };
            let shift = 4 * (levels.len() - 1 - li).min(15);
            rec(comps, levels, ci + 1, li + 1).map(|rest| rest + ((base + tight_bonus) << shift))
        };
        if c.loose {
            // Try matching at this level or any deeper level.
            let mut best: Option<u64> = None;
            for skip in li..levels.len() {
                if let Some(score) = here(skip) {
                    best = Some(best.map_or(score, |b: u64| b.max(score)));
                }
            }
            best
        } else {
            here(li)
        }
    }
    rec(components, levels, 0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `d.get` for a window path given as parallel name and class lists,
    /// with the option's own name and class last.
    fn get(d: &OptionDb, names: &[&str], classes: &[&str]) -> Option<String> {
        let levels: Vec<(&str, &str)> =
            names.iter().copied().zip(classes.iter().copied()).collect();
        d.get(&levels).map(str::to_string)
    }

    fn db(entries: &[(&str, &str)]) -> OptionDb {
        let mut d = OptionDb::new();
        for (p, v) in entries {
            d.add(p, v, priority::USER_DEFAULT);
        }
        d
    }

    #[test]
    fn star_class_pattern_matches_any_depth() {
        let d = db(&[("*Button.background", "red")]);
        assert_eq!(
            get(
                &d,
                &["a", "b", "background"],
                &["Frame", "Button", "Background"]
            ),
            Some("red".into())
        );
        assert_eq!(
            get(
                &d,
                &["deep", "er", "b", "background"],
                &["Frame", "Frame", "Button", "Background"]
            ),
            Some("red".into())
        );
        assert_eq!(
            get(
                &d,
                &["a", "l", "background"],
                &["Frame", "Label", "Background"]
            ),
            None
        );
    }

    #[test]
    fn exact_name_pattern() {
        let d = db(&[(".a.b.foreground", "blue")]);
        assert_eq!(
            get(
                &d,
                &["a", "b", "foreground"],
                &["Frame", "Button", "Foreground"]
            ),
            Some("blue".into())
        );
        assert_eq!(
            get(
                &d,
                &["a", "c", "foreground"],
                &["Frame", "Button", "Foreground"]
            ),
            None
        );
    }

    #[test]
    fn name_beats_class() {
        let mut d = OptionDb::new();
        d.add("*Button.background", "red", priority::USER_DEFAULT);
        d.add("*b.background", "green", priority::USER_DEFAULT);
        assert_eq!(
            get(
                &d,
                &["a", "b", "background"],
                &["Frame", "Button", "Background"]
            ),
            Some("green".into())
        );
    }

    #[test]
    fn priority_dominates_specificity() {
        let mut d = OptionDb::new();
        d.add(".a.b.background", "specific", priority::WIDGET_DEFAULT);
        d.add("*background", "loud", priority::INTERACTIVE);
        assert_eq!(
            get(
                &d,
                &["a", "b", "background"],
                &["Frame", "Button", "Background"]
            ),
            Some("loud".into())
        );
    }

    #[test]
    fn later_entry_wins_ties() {
        let mut d = OptionDb::new();
        d.add("*background", "first", priority::USER_DEFAULT);
        d.add("*background", "second", priority::USER_DEFAULT);
        assert_eq!(
            get(&d, &["a", "background"], &["Button", "Background"]),
            Some("second".into())
        );
    }

    #[test]
    fn global_star_option() {
        let d = db(&[("*background", "gray")]);
        assert_eq!(
            get(
                &d,
                &["x", "y", "z", "background"],
                &["A", "B", "C", "Background"]
            ),
            Some("gray".into())
        );
    }

    #[test]
    fn question_mark_matches_one_level() {
        let d = db(&[(".?.background", "x")]);
        assert_eq!(
            get(&d, &["a", "background"], &["Frame", "Background"]),
            Some("x".into())
        );
        assert_eq!(
            get(
                &d,
                &["a", "b", "background"],
                &["Frame", "Frame", "Background"]
            ),
            None
        );
    }

    #[test]
    fn load_defaults_parses_lines() {
        let mut d = OptionDb::new();
        let n = d.load_defaults(
            "! comment\n*Button.background: red\n\n*font:  fixed  \n# also comment\n",
            priority::USER_DEFAULT,
        );
        assert_eq!(n, 2);
        assert_eq!(
            get(&d, &["b", "font"], &["Button", "Font"]),
            Some("fixed".into())
        );
    }

    #[test]
    fn clear_empties() {
        let mut d = db(&[("*a", "1")]);
        assert!(!d.is_empty());
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn paper_example_all_buttons_red() {
        // "*Button.background: red" means that all button widgets should
        // have a red background color.
        let d = db(&[("*Button.background", "red")]);
        for path in [vec!["hello", "background"], vec!["box", "ok", "background"]] {
            // Every inner level is a Frame, the widget itself a Button.
            let mut cls: Vec<&str> = vec!["Frame"; path.len() - 1];
            cls[path.len() - 2] = "Button";
            cls.push("Background");
            assert_eq!(
                get(&d, &path, &cls[..path.len()]),
                Some("red".into()),
                "path {path:?}"
            );
        }
    }
}
