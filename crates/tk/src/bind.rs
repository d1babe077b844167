//! Event bindings (Section 3.2, Figure 7).
//!
//! The `bind` command attaches Tcl scripts to event *sequences* on windows
//! (or widget classes). Sequences are one or more patterns: `<Enter>`,
//! `a`, `<Escape>q`, `<Double-Button-1>`, `<Control-Key-w>`. Before a
//! bound script runs, `%` sequences are replaced with event fields (`%x`,
//! `%y`, `%W`, `%K`, `%A`, ...).
//!
//! The event types are xsim's: a pattern and an event both name their
//! type by its X name, [`Event::name`] (`ButtonPress`, `EnterNotify`,
//! ...), which is also what `%T` prints. `EVENT_WORDS` maps the Tk
//! words of a binding (`Button`, `Enter`, `Configure`, ...) to those
//! names, and [`EventInfo::from_event`] copies the fields each event
//! type carries.

use std::collections::{HashMap, VecDeque};

use tcl::Exception;
use xsim::event::{state, Event};

/// A normalized view of an X event, used for binding matches and `%`
/// substitution.
#[derive(Debug, Clone, Default)]
pub struct EventInfo {
    /// The X event name, as [`Event::name`] gives it (`%T`).
    pub kind: &'static str,
    /// Button number or keysym name.
    pub detail: String,
    /// The ASCII character for key events (`%A`).
    pub ch: Option<char>,
    pub x: i32,
    pub y: i32,
    pub x_root: i32,
    pub y_root: i32,
    pub state: u32,
    pub time: u64,
    pub width: u32,
    pub height: u32,
}

impl EventInfo {
    /// Extracts binding-relevant information from an event, if the event
    /// type participates in bindings. Fields an event does not carry stay
    /// zero.
    pub fn from_event(ev: &Event) -> Option<EventInfo> {
        let mut e = EventInfo {
            kind: ev.name(),
            ..EventInfo::default()
        };
        match ev {
            Event::ButtonPress {
                button,
                x,
                y,
                x_root,
                y_root,
                state,
                time,
                ..
            }
            | Event::ButtonRelease {
                button,
                x,
                y,
                x_root,
                y_root,
                state,
                time,
                ..
            } => {
                e.detail = button.to_string();
                (e.x, e.y, e.x_root, e.y_root) = (*x, *y, *x_root, *y_root);
                (e.state, e.time) = (*state, *time);
            }
            Event::KeyPress {
                keysym,
                x,
                y,
                state,
                time,
                ..
            }
            | Event::KeyRelease {
                keysym,
                x,
                y,
                state,
                time,
                ..
            } => {
                (e.detail, e.ch) = (keysym.name.clone(), keysym.ch);
                (e.x, e.y, e.state, e.time) = (*x, *y, *state, *time);
            }
            Event::EnterNotify {
                x, y, state, time, ..
            }
            | Event::LeaveNotify {
                x, y, state, time, ..
            } => (e.x, e.y, e.state, e.time) = (*x, *y, *state, *time),
            Event::MotionNotify {
                x,
                y,
                x_root,
                y_root,
                state,
                time,
                ..
            } => {
                (e.x, e.y, e.x_root, e.y_root) = (*x, *y, *x_root, *y_root);
                (e.state, e.time) = (*state, *time);
            }
            Event::Expose {
                x,
                y,
                width,
                height,
                ..
            }
            | Event::ConfigureNotify {
                x,
                y,
                width,
                height,
                ..
            } => (e.x, e.y, e.width, e.height) = (*x, *y, *width, *height),
            Event::PropertyNotify { time, .. } => e.time = *time,
            Event::SelectionClear { .. }
            | Event::SelectionRequest { .. }
            | Event::SelectionNotify { .. } => return None,
            // The structure and focus events carry only their type.
            _ => {}
        }
        Some(e)
    }

    /// A deterministic `<Type-detail>` descriptor for this event — the
    /// label the span tracer records on `dispatch`/`bind` spans (never
    /// includes coordinates or timestamps, so span details are stable
    /// run to run).
    pub fn descriptor(&self) -> String {
        if self.detail.is_empty() {
            format!("<{}>", self.kind)
        } else {
            format!("<{}-{}>", self.kind, self.detail)
        }
    }
}

/// One pattern within a binding sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// The X event name the pattern matches.
    pub kind: &'static str,
    /// Required button number or keysym (empty = any).
    pub detail: String,
    /// Modifier bits that must be present in the event state.
    pub modifiers: u32,
    /// Repeat count: 1, 2 (`Double-`), or 3 (`Triple-`).
    pub count: u8,
}

/// A full binding sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence(pub Vec<Pattern>);

/// Maximum time between repeats/sequence elements (virtual milliseconds).
const SEQUENCE_TIMEOUT: u64 = 500;

/// The event words of a binding and the X event name each one binds: the
/// one list of bindable event types in Tk.
const EVENT_WORDS: &[(&str, &str)] = &[
    ("ButtonPress", "ButtonPress"),
    ("Button", "ButtonPress"),
    ("ButtonRelease", "ButtonRelease"),
    ("KeyPress", "KeyPress"),
    ("Key", "KeyPress"),
    ("KeyRelease", "KeyRelease"),
    ("Enter", "EnterNotify"),
    ("Leave", "LeaveNotify"),
    ("Motion", "MotionNotify"),
    ("Expose", "Expose"),
    ("Configure", "ConfigureNotify"),
    ("Destroy", "DestroyNotify"),
    ("Map", "MapNotify"),
    ("Unmap", "UnmapNotify"),
    ("FocusIn", "FocusIn"),
    ("FocusOut", "FocusOut"),
    ("Property", "PropertyNotify"),
];

/// Parses an event-sequence specification.
pub fn parse_sequence(spec: &str) -> Result<Sequence, Exception> {
    let mut patterns = Vec::new();
    let chars: Vec<char> = spec.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '<' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '>')
                .ok_or_else(|| Exception::error(format!("missing > in binding \"{spec}\"")))?
                + i;
            let inner: String = chars[i + 1..close].iter().collect();
            patterns.push(parse_bracketed(&inner, spec)?);
            i = close + 1;
        } else {
            // A bare character is shorthand for a KeyPress of that key.
            let c = chars[i];
            patterns.push(Pattern {
                kind: "KeyPress",
                detail: xsim::Keysym::from_char(c).name,
                modifiers: 0,
                count: 1,
            });
            i += 1;
        }
    }
    if patterns.is_empty() {
        return Err(Exception::error(format!("empty binding \"{spec}\"")));
    }
    Ok(Sequence(patterns))
}

fn parse_bracketed(inner: &str, whole: &str) -> Result<Pattern, Exception> {
    let fields: Vec<&str> = inner.split('-').filter(|f| !f.is_empty()).collect();
    let mut modifiers = 0u32;
    let mut count = 1u8;
    let mut kind: Option<&str> = None;
    let mut detail = String::new();
    for field in &fields {
        match *field {
            "Control" | "Ctrl" => modifiers |= state::CONTROL,
            "Shift" => modifiers |= state::SHIFT,
            "Lock" => modifiers |= state::LOCK,
            "Meta" | "Alt" | "Mod1" | "M1" | "M" => modifiers |= state::MOD1,
            "Mod2" | "M2" => modifiers |= state::MOD2,
            "Button1" | "B1" => modifiers |= state::BUTTON1,
            "Button2" | "B2" => modifiers |= state::BUTTON2,
            "Button3" | "B3" => modifiers |= state::BUTTON3,
            "Any" => {} // extra modifiers are always tolerated
            "Double" => count = 2,
            "Triple" => count = 3,
            other => {
                if let Some(&(_, name)) = EVENT_WORDS.iter().find(|(word, _)| *word == other) {
                    kind = Some(name);
                    continue;
                }
                // A detail: a button number after Button*, or a keysym.
                if !detail.is_empty() {
                    return Err(Exception::error(format!(
                        "extra detail \"{other}\" in binding \"{whole}\""
                    )));
                }
                match kind {
                    Some("ButtonPress" | "ButtonRelease") => {
                        if other.parse::<u8>().is_err() {
                            return Err(Exception::error(format!(
                                "bad button number \"{other}\" in binding \"{whole}\""
                            )));
                        }
                        detail = other.to_string();
                    }
                    Some("KeyPress" | "KeyRelease") => {
                        if !is_keysym_name(other) {
                            return Err(Exception::error(format!(
                                "bad keysym \"{other}\" in binding \"{whole}\""
                            )));
                        }
                        detail = other.to_string();
                    }
                    None => {
                        // `<1>` means ButtonPress-1; `<a>`/`<Escape>` mean
                        // KeyPress with that keysym.
                        if other.parse::<u8>().is_ok() {
                            kind = Some("ButtonPress");
                        } else if is_keysym_name(other) {
                            kind = Some("KeyPress");
                        } else {
                            return Err(Exception::error(format!(
                                "bad event type or keysym \"{other}\" in binding \"{whole}\""
                            )));
                        }
                        detail = other.to_string();
                    }
                    Some(k) => {
                        return Err(Exception::error(format!(
                            "detail \"{other}\" not allowed after {k} in \"{whole}\""
                        )))
                    }
                }
            }
        }
    }
    let kind =
        kind.ok_or_else(|| Exception::error(format!("no event type in binding \"{whole}\"")))?;
    Ok(Pattern {
        kind,
        detail,
        modifiers,
        count,
    })
}

/// The named (multi-character) keysyms the simulation understands.
const NAMED_KEYSYMS: &[&str] = &[
    "space",
    "Escape",
    "Return",
    "Tab",
    "BackSpace",
    "Delete",
    "Linefeed",
    "Up",
    "Down",
    "Left",
    "Right",
    "Home",
    "End",
    "Prior",
    "Next",
    "Insert",
    "F1",
    "F2",
    "F3",
    "F4",
    "F5",
    "F6",
    "F7",
    "F8",
    "F9",
    "F10",
    "F11",
    "F12",
    "period",
    "comma",
    "semicolon",
    "colon",
    "exclam",
    "question",
    "slash",
    "backslash",
    "minus",
    "plus",
    "equal",
    "underscore",
    "less",
    "greater",
    "numbersign",
    "dollar",
    "percent",
    "ampersand",
    "asterisk",
    "parenleft",
    "parenright",
    "bracketleft",
    "bracketright",
    "apostrophe",
    "quotedbl",
    "at",
    "bar",
    "asciitilde",
    "asciicircum",
    "grave",
    "braceleft",
    "braceright",
];

/// Is `s` a keysym this toolkit can deliver (single character or named)?
fn is_keysym_name(s: &str) -> bool {
    s.chars().count() == 1 || NAMED_KEYSYMS.contains(&s)
}

/// Does one pattern match one event occurrence?
fn pattern_matches(p: &Pattern, e: &EventInfo) -> bool {
    if p.kind != e.kind {
        return false;
    }
    if !p.detail.is_empty() && p.detail != e.detail {
        return false;
    }
    // All required modifiers present; extra modifiers tolerated.
    e.state & p.modifiers == p.modifiers
}

/// Specificity of a pattern for conflict resolution.
fn pattern_weight(p: &Pattern) -> u32 {
    let mut w = 0;
    if !p.detail.is_empty() {
        w += 4;
    }
    w += p.modifiers.count_ones();
    w += p.count as u32 * 8;
    w
}

/// One registered binding.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The normalized sequence text the binding was created with.
    pub sequence_text: String,
    /// Parsed sequence.
    pub sequence: Sequence,
    /// The script to run (before `%` substitution).
    pub script: String,
}

rtk_obs::counter_set! {
    /// Binding-match counters.
    pub struct BindStats {
        /// Bindings whose sequences were examined during matching.
        considered => "bind.considered",
        /// `match_event` calls that produced a script.
        matched => "bind.matched",
    }
}

/// Per-owner binding lists plus per-window event history for sequence and
/// Double/Triple matching.
#[derive(Debug, Default)]
pub struct BindingTable {
    by_owner: HashMap<String, Vec<Binding>>,
    history: HashMap<String, VecDeque<EventInfo>>,
    stats: BindStats,
}

impl BindingTable {
    /// Creates an empty table.
    pub fn new() -> BindingTable {
        BindingTable::default()
    }

    /// Adds (or replaces) a binding for `owner` (a window path or class).
    pub fn add(&mut self, owner: &str, sequence: &str, script: &str) -> Result<(), Exception> {
        let parsed = parse_sequence(sequence)?;
        let list = self.by_owner.entry(owner.to_string()).or_default();
        if let Some(existing) = list.iter_mut().find(|b| b.sequence_text == sequence) {
            existing.script = script.to_string();
            return Ok(());
        }
        list.push(Binding {
            sequence_text: sequence.to_string(),
            sequence: parsed,
            script: script.to_string(),
        });
        Ok(())
    }

    /// Removes a binding; true if it existed.
    pub fn remove(&mut self, owner: &str, sequence: &str) -> bool {
        match self.by_owner.get_mut(owner) {
            Some(list) => {
                let before = list.len();
                list.retain(|b| b.sequence_text != sequence);
                list.len() != before
            }
            None => false,
        }
    }

    /// The script bound to `sequence` on `owner`.
    pub fn get(&self, owner: &str, sequence: &str) -> Option<&str> {
        self.by_owner
            .get(owner)?
            .iter()
            .find(|b| b.sequence_text == sequence)
            .map(|b| b.script.as_str())
    }

    /// All sequences bound on `owner`.
    pub fn sequences(&self, owner: &str) -> Vec<String> {
        self.by_owner
            .get(owner)
            .map(|l| l.iter().map(|b| b.sequence_text.clone()).collect())
            .unwrap_or_default()
    }

    /// How many binding sequences were examined across all
    /// `match_event` calls, and how many calls found a script.
    pub fn stats(&self) -> BindStats {
        self.stats
    }

    /// Zeroes the match counters (bindings themselves stay).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Drops all bindings and history for a window (on destroy).
    pub fn forget_window(&mut self, path: &str) {
        self.by_owner.remove(path);
        self.history.remove(path);
    }

    /// Feeds an event and finds the best-matching binding script for the
    /// window path (bindings on the path shadow bindings on the class).
    ///
    /// Returns the raw script; the caller performs `%` substitution.
    pub fn match_event(&mut self, path: &str, class: &str, event: &EventInfo) -> Option<String> {
        // Record key/button events in the history for sequence matching.
        if matches!(
            event.kind,
            "KeyPress" | "ButtonPress" | "KeyRelease" | "ButtonRelease"
        ) {
            let h = self.history.entry(path.to_string()).or_default();
            h.push_back(event.clone());
            if h.len() > 16 {
                h.pop_front();
            }
        }
        let empty = VecDeque::new();
        let history = self.history.get(path).unwrap_or(&empty);
        for owner in [path, class] {
            let Some(list) = self.by_owner.get(owner) else {
                continue;
            };
            self.stats.considered += list.len() as u64;
            let mut best: Option<(u32, &Binding)> = None;
            for b in list {
                if let Some(weight) = sequence_matches(&b.sequence, event, history) {
                    if best.map(|(w, _)| weight > w).unwrap_or(true) {
                        best = Some((weight, b));
                    }
                }
            }
            if let Some((_, b)) = best {
                self.stats.matched += 1;
                return Some(b.script.clone());
            }
        }
        None
    }
}

/// Checks a full sequence against the current event and history; returns a
/// specificity weight on success.
fn sequence_matches(
    seq: &Sequence,
    event: &EventInfo,
    history: &VecDeque<EventInfo>,
) -> Option<u32> {
    let last = seq.0.last().unwrap();
    if !pattern_matches(last, event) {
        return None;
    }
    // Expand the sequence into individual required occurrences (a Double
    // pattern is two occurrences of the same press).
    let mut required: Vec<&Pattern> = Vec::new();
    for p in &seq.0 {
        for _ in 0..p.count {
            required.push(p);
        }
    }
    // The final occurrence is the current event itself; preceding
    // occurrences must be the most recent history entries (history already
    // includes the current event at the back for key/button events).
    let mut weight = 0;
    for p in &seq.0 {
        weight += pattern_weight(p);
    }
    weight += seq.0.len() as u32 * 16;
    if required.len() == 1 {
        return Some(weight);
    }
    // Only key/button events enter history, so multi-event sequences are
    // only supported for those kinds (as in Tk). Events of kinds the
    // sequence does not mention (e.g. the ButtonRelease between the two
    // presses of a double-click) are ignored, as in Tk.
    let hist: Vec<&EventInfo> = history
        .iter()
        .filter(|e| seq.0.iter().any(|p| p.kind == e.kind))
        .collect();
    if hist.len() < required.len() {
        return None;
    }
    let tail = &hist[hist.len() - required.len()..];
    let mut prev_time = None;
    for (p, e) in required.iter().zip(tail) {
        if !pattern_matches(p, e) {
            return None;
        }
        if let Some(pt) = prev_time {
            if e.time.saturating_sub(pt) > SEQUENCE_TIMEOUT {
                return None;
            }
        }
        prev_time = Some(e.time);
    }
    Some(weight)
}

/// Performs `%` substitution on a bound script (Figure 7: "%x and %y will
/// be replaced with the x- and y-coordinates from the X event").
pub fn percent_substitute(script: &str, event: &EventInfo, path: &str) -> String {
    let mut out = String::with_capacity(script.len());
    let mut chars = script.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('%') => out.push('%'),
            Some('x') => out.push_str(&event.x.to_string()),
            Some('y') => out.push_str(&event.y.to_string()),
            Some('X') => out.push_str(&event.x_root.to_string()),
            Some('Y') => out.push_str(&event.y_root.to_string()),
            Some('W') => out.push_str(path),
            Some('K') => out.push_str(&event.detail),
            Some('A') => match event.ch {
                // The character is list-quoted so that binding scripts can
                // safely embed it in commands.
                Some(ch) => out.push_str(&tcl::format_list(&[ch.to_string()])),
                None => out.push_str("{}"),
            },
            Some('b') => out.push_str(&event.detail),
            Some('s') => out.push_str(&event.state.to_string()),
            Some('t') => out.push_str(&event.time.to_string()),
            Some('T') => out.push_str(event.kind),
            Some('w') => out.push_str(&event.width.to_string()),
            Some('h') => out.push_str(&event.height.to_string()),
            Some(other) => {
                out.push('%');
                out.push(other);
            }
            None => out.push('%'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str, detail: &str, state: u32, time: u64) -> EventInfo {
        EventInfo {
            kind,
            detail: detail.to_string(),
            ch: detail.chars().next().filter(|_| detail.len() == 1),
            x: 10,
            y: 20,
            x_root: 110,
            y_root: 120,
            state,
            time,
            width: 0,
            height: 0,
        }
    }

    #[test]
    fn parse_simple_patterns() {
        let s = parse_sequence("<Enter>").unwrap();
        assert_eq!(s.0[0].kind, "EnterNotify");
        let s = parse_sequence("a").unwrap();
        assert_eq!(s.0[0].kind, "KeyPress");
        assert_eq!(s.0[0].detail, "a");
        let s = parse_sequence("<Button-1>").unwrap();
        assert_eq!(s.0[0].kind, "ButtonPress");
        assert_eq!(s.0[0].detail, "1");
        let s = parse_sequence("<1>").unwrap();
        assert_eq!(s.0[0].kind, "ButtonPress");
        assert_eq!(s.0[0].detail, "1");
    }

    #[test]
    fn parse_modifiers_and_double() {
        let s = parse_sequence("<Double-Button-1>").unwrap();
        assert_eq!(s.0[0].count, 2);
        let s = parse_sequence("<Control-Key-w>").unwrap();
        assert_eq!(s.0[0].modifiers, state::CONTROL);
        assert_eq!(s.0[0].detail, "w");
        let s = parse_sequence("<Control-q>").unwrap();
        assert_eq!(s.0[0].kind, "KeyPress");
        assert_eq!(s.0[0].detail, "q");
    }

    #[test]
    fn parse_sequences() {
        let s = parse_sequence("<Escape>q").unwrap();
        assert_eq!(s.0.len(), 2);
        assert_eq!(s.0[0].detail, "Escape");
        assert_eq!(s.0[1].detail, "q");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_sequence("").is_err());
        assert!(parse_sequence("<NoSuchEvent>").is_err());
        assert!(parse_sequence("<Button-notanumber>").is_err());
        assert!(parse_sequence("<Enter").is_err());
    }

    #[test]
    fn simple_binding_matches() {
        let mut t = BindingTable::new();
        t.add(".x", "<Enter>", "print hi").unwrap();
        let got = t.match_event(".x", "Frame", &ev("EnterNotify", "", 0, 1));
        assert_eq!(got.as_deref(), Some("print hi"));
        assert!(t
            .match_event(".y", "Frame", &ev("EnterNotify", "", 0, 2))
            .is_none());
    }

    #[test]
    fn key_binding_with_detail() {
        let mut t = BindingTable::new();
        t.add(".x", "a", "typed-a").unwrap();
        assert_eq!(
            t.match_event(".x", "F", &ev("KeyPress", "a", 0, 1)),
            Some("typed-a".into())
        );
        assert!(t
            .match_event(".x", "F", &ev("KeyPress", "b", 0, 2))
            .is_none());
    }

    #[test]
    fn modifier_requirements() {
        let mut t = BindingTable::new();
        t.add(".x", "<Control-q>", "cq").unwrap();
        assert!(t
            .match_event(".x", "F", &ev("KeyPress", "q", 0, 1))
            .is_none());
        assert_eq!(
            t.match_event(".x", "F", &ev("KeyPress", "q", state::CONTROL, 2)),
            Some("cq".into())
        );
    }

    #[test]
    fn more_specific_binding_wins() {
        let mut t = BindingTable::new();
        t.add(".x", "<Key>", "anykey").unwrap();
        t.add(".x", "a", "justa").unwrap();
        assert_eq!(
            t.match_event(".x", "F", &ev("KeyPress", "a", 0, 1)),
            Some("justa".into())
        );
        assert_eq!(
            t.match_event(".x", "F", &ev("KeyPress", "z", 0, 2)),
            Some("anykey".into())
        );
    }

    #[test]
    fn window_binding_shadows_class_binding() {
        let mut t = BindingTable::new();
        t.add("Button", "<Enter>", "class").unwrap();
        t.add(".b", "<Enter>", "window").unwrap();
        assert_eq!(
            t.match_event(".b", "Button", &ev("EnterNotify", "", 0, 1)),
            Some("window".into())
        );
        assert_eq!(
            t.match_event(".other", "Button", &ev("EnterNotify", "", 0, 2)),
            Some("class".into())
        );
    }

    #[test]
    fn double_click_requires_two_fast_presses() {
        let mut t = BindingTable::new();
        t.add(".x", "<Double-Button-1>", "dbl").unwrap();
        assert!(t
            .match_event(".x", "F", &ev("ButtonPress", "1", 0, 100))
            .is_none());
        assert_eq!(
            t.match_event(".x", "F", &ev("ButtonPress", "1", 0, 200)),
            Some("dbl".into())
        );
        // Slow second click: no match.
        assert!(t
            .match_event(".x", "F", &ev("ButtonPress", "1", 0, 2000))
            .is_none());
    }

    #[test]
    fn escape_q_sequence() {
        let mut t = BindingTable::new();
        t.add(".x", "<Escape>q", "seq").unwrap();
        assert!(t
            .match_event(".x", "F", &ev("KeyPress", "Escape", 0, 1))
            .is_none());
        assert_eq!(
            t.match_event(".x", "F", &ev("KeyPress", "q", 0, 2)),
            Some("seq".into())
        );
        // q alone (after unrelated key) does not fire.
        t.match_event(".x", "F", &ev("KeyPress", "x", 0, 3));
        assert!(t
            .match_event(".x", "F", &ev("KeyPress", "q", 0, 4))
            .is_none());
    }

    #[test]
    fn replace_and_remove_bindings() {
        let mut t = BindingTable::new();
        t.add(".x", "<Enter>", "one").unwrap();
        t.add(".x", "<Enter>", "two").unwrap();
        assert_eq!(t.get(".x", "<Enter>"), Some("two"));
        assert_eq!(t.sequences(".x"), vec!["<Enter>".to_string()]);
        assert!(t.remove(".x", "<Enter>"));
        assert!(!t.remove(".x", "<Enter>"));
        assert!(t.get(".x", "<Enter>").is_none());
    }

    #[test]
    fn percent_substitution() {
        let e = ev("ButtonPress", "1", 0, 42);
        let s = percent_substitute("print \"mouse at %x %y\"", &e, ".x");
        assert_eq!(s, "print \"mouse at 10 20\"");
        let s = percent_substitute("%W %T %b %s %t %%", &e, ".a.b");
        assert_eq!(s, ".a.b ButtonPress 1 0 42 %");
    }

    #[test]
    fn percent_keysym_and_char() {
        let e = ev("KeyPress", "a", 0, 1);
        assert_eq!(percent_substitute("%K/%A", &e, ".x"), "a/a");
        let mut e2 = ev("KeyPress", "space", 0, 1);
        e2.ch = Some(' ');
        assert_eq!(percent_substitute("ins %A", &e2, ".x"), "ins { }");
    }

    #[test]
    fn from_event_maps_each_field_of_every_bindable_type() {
        use xsim::{Atom, Keysym, Xid};
        let w = Xid(9);
        let cases = [
            (
                Event::ButtonPress {
                    window: w,
                    button: 2,
                    x: 1,
                    y: 2,
                    x_root: 3,
                    y_root: 4,
                    state: 5,
                    time: 6,
                },
                "ButtonPress 1 2 3 4 0 0 5 6 2 {} 2",
            ),
            (
                Event::ButtonRelease {
                    window: w,
                    button: 3,
                    x: 11,
                    y: 12,
                    x_root: 13,
                    y_root: 14,
                    state: 15,
                    time: 16,
                },
                "ButtonRelease 11 12 13 14 0 0 15 16 3 {} 3",
            ),
            (
                Event::KeyPress {
                    window: w,
                    keysym: Keysym::from_char('q'),
                    x: 21,
                    y: 22,
                    state: 23,
                    time: 24,
                },
                "KeyPress 21 22 0 0 0 0 23 24 q q q",
            ),
            (
                Event::KeyRelease {
                    window: w,
                    keysym: Keysym::named("F1"),
                    x: 31,
                    y: 32,
                    state: 33,
                    time: 34,
                },
                "KeyRelease 31 32 0 0 0 0 33 34 F1 {} F1",
            ),
            (
                Event::EnterNotify {
                    window: w,
                    x: 41,
                    y: 42,
                    state: 43,
                    time: 44,
                },
                "EnterNotify 41 42 0 0 0 0 43 44  {} ",
            ),
            (
                Event::LeaveNotify {
                    window: w,
                    x: 51,
                    y: 52,
                    state: 53,
                    time: 54,
                },
                "LeaveNotify 51 52 0 0 0 0 53 54  {} ",
            ),
            (
                Event::MotionNotify {
                    window: w,
                    x: 61,
                    y: 62,
                    x_root: 63,
                    y_root: 64,
                    state: 65,
                    time: 66,
                },
                "MotionNotify 61 62 63 64 0 0 65 66  {} ",
            ),
            (
                Event::Expose {
                    window: w,
                    x: 71,
                    y: 72,
                    width: 73,
                    height: 74,
                    count: 75,
                },
                "Expose 71 72 0 0 73 74 0 0  {} ",
            ),
            (
                Event::ConfigureNotify {
                    window: w,
                    x: 81,
                    y: 82,
                    width: 83,
                    height: 84,
                    border_width: 85,
                },
                "ConfigureNotify 81 82 0 0 83 84 0 0  {} ",
            ),
            (
                Event::DestroyNotify { window: w },
                "DestroyNotify 0 0 0 0 0 0 0 0  {} ",
            ),
            (
                Event::MapNotify { window: w },
                "MapNotify 0 0 0 0 0 0 0 0  {} ",
            ),
            (
                Event::UnmapNotify { window: w },
                "UnmapNotify 0 0 0 0 0 0 0 0  {} ",
            ),
            (Event::FocusIn { window: w }, "FocusIn 0 0 0 0 0 0 0 0  {} "),
            (
                Event::FocusOut { window: w },
                "FocusOut 0 0 0 0 0 0 0 0  {} ",
            ),
            (
                Event::PropertyNotify {
                    window: w,
                    atom: Atom(91),
                    deleted: true,
                    time: 92,
                },
                "PropertyNotify 0 0 0 0 0 0 0 92  {} ",
            ),
        ];
        for (event, want) in cases {
            let info = EventInfo::from_event(&event).expect("a bindable event");
            let got = percent_substitute("%T %x %y %X %Y %w %h %s %t %K %A %b", &info, ".w");
            assert_eq!(got, want, "{event:?}");
        }
        let selection = [
            Event::SelectionClear {
                window: w,
                selection: Atom(1),
                time: 2,
            },
            Event::SelectionRequest {
                owner: w,
                requestor: Xid(10),
                selection: Atom(1),
                target: Atom(2),
                property: Atom(3),
                time: 4,
            },
            Event::SelectionNotify {
                requestor: w,
                selection: Atom(1),
                target: Atom(2),
                property: Atom(3),
                time: 4,
            },
        ];
        for event in selection {
            assert!(EventInfo::from_event(&event).is_none(), "{event:?}");
        }
    }

    #[test]
    fn figure7_bindings_parse() {
        for spec in ["<Enter>", "a", "<Escape>q", "<Double-Button-1>"] {
            assert!(parse_sequence(spec).is_ok(), "{spec}");
        }
    }
}
