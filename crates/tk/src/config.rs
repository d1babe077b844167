//! Widget configuration options (Section 4).
//!
//! Every widget has a table of option specs: the command-line switch
//! (`-background`), the option-database name and class (`background`,
//! `Background`), and a default. At creation, unspecified options are
//! looked up in the option database and then fall back to the default —
//! exactly the paper's description. `configure` reads or rewrites any
//! option at any time.

use std::borrow::Cow;
use std::cell::RefCell;

use tcl::{Exception, TclResult};

use crate::app::TkApp;
use crate::draw::{parse_geometry, parse_pixels, Anchor, Relief};

/// How an option's value is validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptKind {
    /// Uninterpreted string (commands, text, variables).
    Str,
    /// Integer.
    Int,
    /// Screen distance in pixels.
    Pixels,
    /// A color name.
    Color,
    /// A font name.
    Font,
    /// A cursor name (or empty).
    Cursor,
    /// A relief name.
    Relief,
    /// An anchor position.
    Anchor,
    /// `WIDTHxHEIGHT`.
    Geometry,
    /// A boolean word.
    Boolean,
    /// `-orient`: `horizontal` or `vertical`.
    Orient,
}

/// One option's specification.
pub struct OptSpec {
    /// The switch, e.g. `-background`.
    pub name: &'static str,
    /// Option-database name (`background`), or the target switch when this
    /// spec is a synonym (e.g. `-bg` → `-background`).
    pub db_name: &'static str,
    /// Option-database class (`Background`); empty for synonyms.
    pub db_class: &'static str,
    /// Default when neither the command line nor the database provides one.
    pub default: &'static str,
    /// Validation kind.
    pub kind: OptKind,
    /// True when this entry is a synonym for the option named by `db_name`.
    pub synonym: bool,
}

/// Shorthand constructors used by widget option tables.
pub const fn opt(
    name: &'static str,
    db_name: &'static str,
    db_class: &'static str,
    default: &'static str,
    kind: OptKind,
) -> OptSpec {
    OptSpec {
        name,
        db_name,
        db_class,
        default,
        kind,
        synonym: false,
    }
}

/// A synonym spec: `-bg` resolving to `-background`.
pub const fn synonym(name: &'static str, target: &'static str) -> OptSpec {
    OptSpec {
        name,
        db_name: target,
        db_class: "",
        default: "",
        kind: OptKind::Str,
        synonym: true,
    }
}

/// The current option values of one widget, one slot per spec, indexed
/// by the spec's position in its table (a synonym's slot stays empty).
pub struct ConfigStore {
    specs: &'static [OptSpec],
    values: RefCell<Vec<Cow<'static, str>>>,
}

impl ConfigStore {
    /// Creates a store for the given spec table (values unset until
    /// [`ConfigStore::init`]).
    pub fn new(specs: &'static [OptSpec]) -> ConfigStore {
        ConfigStore {
            specs,
            values: RefCell::new(vec![Cow::Borrowed(""); specs.len()]),
        }
    }

    /// Fills every non-synonym option from the option database or its
    /// default ("for unspecified options, the widget checks in the option
    /// database; if none is found then it uses a default"). The window's
    /// levels are resolved once, then each option is one lookup.
    pub fn init(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let mut levels = app.option_levels(path, "", "");
        let leaf = levels.len() - 1;
        for (i, spec) in self.specs.iter().enumerate().filter(|(_, s)| !s.synonym) {
            levels[leaf] = (spec.db_name, spec.db_class);
            let from_db = app.inner.options.borrow().get(&levels).map(str::to_string);
            let value = from_db.map_or(Cow::Borrowed(spec.default), Cow::Owned);
            self.apply(app, i, value)?;
        }
        Ok(())
    }

    /// Resolves an option switch, supporting synonyms and unique
    /// abbreviations (`-bg`, `-backgr`), to the spec's position in its
    /// table.
    fn resolve(&self, name: &str) -> Result<usize, Exception> {
        let specs = self.specs;
        // Exact match first, then a unique-prefix abbreviation.
        let i = match specs.iter().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                let mut matches = (0..specs.len()).filter(|&i| specs[i].name.starts_with(name));
                match (matches.next(), matches.next()) {
                    (Some(i), None) => i,
                    (None, _) => {
                        return Err(Exception::error(format!("unknown option \"{name}\"")))
                    }
                    _ => return Err(Exception::error(format!("ambiguous option \"{name}\""))),
                }
            }
        };
        if specs[i].synonym {
            self.resolve(specs[i].db_name)
        } else {
            Ok(i)
        }
    }

    /// Validates and stores the value of the option in slot `i`.
    fn apply(&self, app: &TkApp, i: usize, stored: Cow<'static, str>) -> Result<(), Exception> {
        let value: &str = &stored;
        match self.specs[i].kind {
            OptKind::Str => {}
            OptKind::Int => {
                value.trim().parse::<i64>().map_err(|_| {
                    Exception::error(format!("expected integer but got \"{value}\""))
                })?;
            }
            OptKind::Pixels => {
                parse_pixels(value)?;
            }
            OptKind::Color => {
                if !value.is_empty() {
                    xsim::lookup_color(value).ok_or_else(|| {
                        Exception::error(format!("unknown color name \"{value}\""))
                    })?;
                }
            }
            OptKind::Font => {
                app.cache().font(app.conn(), value)?;
            }
            OptKind::Cursor => {
                if !value.is_empty() {
                    app.cache().cursor(app.conn(), value)?;
                }
            }
            OptKind::Relief => {
                Relief::parse(value)?;
            }
            OptKind::Anchor => {
                Anchor::parse(value)?;
            }
            OptKind::Geometry => {
                parse_geometry(value)?;
            }
            OptKind::Boolean => {
                parse_boolean(value)?;
            }
            OptKind::Orient => {
                if !matches!(value, "horizontal" | "vertical") {
                    return Err(Exception::error(format!(
                        "bad orientation \"{value}\": must be vertical or horizontal"
                    )));
                }
            }
        }
        self.values.borrow_mut()[i] = stored;
        Ok(())
    }

    /// Applies `-option value` pairs (widget creation and `configure`).
    pub fn set_args(&self, app: &TkApp, args: &[String]) -> Result<(), Exception> {
        if args.len() % 2 != 0 {
            return Err(Exception::error(format!(
                "value for \"{}\" missing",
                args.last().map(String::as_str).unwrap_or("")
            )));
        }
        for pair in args.chunks(2) {
            let i = self.resolve(&pair[0])?;
            self.apply(app, i, Cow::Owned(pair[1].clone()))?;
        }
        Ok(())
    }

    /// Reads the current value of the option switched by `name` (exactly,
    /// no synonym or abbreviation; empty if there is no such option).
    fn read<R>(&self, name: &str, f: impl FnOnce(&str) -> R) -> R {
        let values = self.values.borrow();
        f(self
            .specs
            .iter()
            .position(|s| s.name == name)
            .map_or("", |i| &values[i]))
    }

    /// The current value of an option (empty if unset).
    pub fn get(&self, name: &str) -> String {
        self.read(name, str::to_string)
    }

    /// Integer accessor (options already validated).
    pub fn get_int(&self, name: &str) -> i64 {
        self.read(name, |v| v.trim().parse().unwrap_or(0))
    }

    /// Pixel-distance accessor.
    pub fn get_pixels(&self, name: &str) -> i64 {
        self.read(name, |v| parse_pixels(v).unwrap_or(0))
    }

    /// Boolean accessor.
    pub fn get_bool(&self, name: &str) -> bool {
        self.read(name, |v| parse_boolean(v).unwrap_or(false))
    }

    /// Relief accessor.
    pub fn get_relief(&self, name: &str) -> Relief {
        self.read(name, |v| Relief::parse(v).unwrap_or_default())
    }

    /// Anchor accessor.
    pub fn get_anchor(&self, name: &str) -> Anchor {
        self.read(name, |v| Anchor::parse(v).unwrap_or_default())
    }

    /// Formats `configure` query output: with `name`, one spec line
    /// `{-switch dbName dbClass default current}`; without, all of them.
    pub fn info(&self, name: Option<&str>) -> TclResult {
        let values = self.values.borrow();
        let line = |i: usize| -> String {
            let spec = &self.specs[i];
            if spec.synonym {
                tcl::format_list(&[spec.name, spec.db_name])
            } else {
                tcl::format_list(&[
                    spec.name,
                    spec.db_name,
                    spec.db_class,
                    spec.default,
                    &values[i],
                ])
            }
        };
        match name {
            Some(n) => Ok(line(self.resolve(n)?)),
            None => {
                let lines: Vec<String> = (0..self.specs.len()).map(line).collect();
                Ok(tcl::format_list(&lines))
            }
        }
    }
}

/// Parses a Tcl boolean word.
pub fn parse_boolean(s: &str) -> Result<bool, Exception> {
    match s.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" | "t" | "y" => Ok(true),
        "0" | "false" | "no" | "off" | "f" | "n" => Ok(false),
        _ => Err(Exception::error(format!(
            "expected boolean value but got \"{s}\""
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TkEnv;

    static SPECS: &[OptSpec] = &[
        opt(
            "-background",
            "background",
            "Background",
            "gray",
            OptKind::Color,
        ),
        synonym("-bg", "-background"),
        opt(
            "-borderwidth",
            "borderWidth",
            "BorderWidth",
            "2",
            OptKind::Pixels,
        ),
        opt("-text", "text", "Text", "", OptKind::Str),
        opt("-relief", "relief", "Relief", "flat", OptKind::Relief),
    ];

    fn setup() -> (TkEnv, TkApp, ConfigStore) {
        let env = TkEnv::new();
        let app = env.app("t");
        let store = ConfigStore::new(SPECS);
        (env, app, store)
    }

    #[test]
    fn init_uses_defaults() {
        let (_e, app, store) = setup();
        store.init(&app, ".w").unwrap();
        assert_eq!(store.get("-background"), "gray");
        assert_eq!(store.get_pixels("-borderwidth"), 2);
    }

    #[test]
    fn init_prefers_option_database() {
        let (_e, app, store) = setup();
        app.inner.options.borrow_mut().add("*background", "red", 60);
        store.init(&app, ".w").unwrap();
        assert_eq!(store.get("-background"), "red");
    }

    #[test]
    fn synonym_and_abbreviation_resolve() {
        let (_e, app, store) = setup();
        store.init(&app, ".w").unwrap();
        store
            .set_args(&app, &["-bg".into(), "blue".into()])
            .unwrap();
        assert_eq!(store.get("-background"), "blue");
        store
            .set_args(&app, &["-rel".into(), "raised".into()])
            .unwrap();
        assert_eq!(store.get("-relief"), "raised");
    }

    #[test]
    fn ambiguous_abbreviation_rejected() {
        let (_e, app, store) = setup();
        store.init(&app, ".w").unwrap();
        // "-b" matches -background, -bg, -borderwidth.
        assert!(store.set_args(&app, &["-b".into(), "x".into()]).is_err());
    }

    #[test]
    fn validation_errors() {
        let (_e, app, store) = setup();
        store.init(&app, ".w").unwrap();
        assert!(store
            .set_args(&app, &["-background".into(), "nocolor".into()])
            .is_err());
        assert!(store
            .set_args(&app, &["-borderwidth".into(), "abc".into()])
            .is_err());
        assert!(store
            .set_args(&app, &["-relief".into(), "soggy".into()])
            .is_err());
        assert!(store
            .set_args(&app, &["-nosuch".into(), "x".into()])
            .is_err());
        assert!(store.set_args(&app, &["-text".into()]).is_err());
    }

    #[test]
    fn info_lines() {
        let (_e, app, store) = setup();
        store.init(&app, ".w").unwrap();
        let one = store.info(Some("-background")).unwrap();
        assert_eq!(one, "-background background Background gray gray");
        let all = store.info(None).unwrap();
        assert!(all.contains("-borderwidth"));
        let syn = store.info(None).unwrap();
        assert!(syn.contains("{-bg -background}"));
    }

    #[test]
    fn booleans() {
        assert!(parse_boolean("yes").unwrap());
        assert!(!parse_boolean("Off").unwrap());
        assert!(parse_boolean("maybe").is_err());
    }
}
