//! The compile-once/execute-many pipeline.
//!
//! `compile` lowers a script string to a [`Program`]: the command boundary
//! parse is done once, each word is either an interned literal or a
//! pre-parsed substitution list, and the hottest builtins (`set`, `if`,
//! `while`, `for`, `foreach`, `expr`) lower to specialized ops that skip
//! generic dispatch entirely. The interpreter caches programs keyed on the
//! script string, so a `bind` body or `-command` script is parsed on its
//! first execution and replayed from the cache afterwards.
//!
//! Compilation is deliberately conservative: any shape the lowering does
//! not recognize — dynamic command names, `then`/`elseif` keywords,
//! redefined builtins — falls back to [`OpKind::Generic`], which performs
//! exactly the substitutions and dispatch of the direct interpreter. A
//! script that fails to parse outright is not compiled at all; the caller
//! re-runs it through the direct evaluator so partial-execution-then-error
//! semantics are preserved byte for byte.

use std::cell::Cell;

use crate::error::Exception;
use crate::interp::Interp;
use crate::parser::{parse_command, Part, Word};

/// Command names eligible for specialized lowering. Registry changes to
/// these names bump the compile epoch so stale specializations are thrown
/// away (see `Interp::bump_compile_epoch`).
pub const SPECIALIZED: &[&str] = &["set", "if", "while", "for", "foreach", "expr"];

/// One pre-substitution word of a compiled command.
pub enum CompiledWord {
    /// A fully literal word: no substitution needed at run time.
    Lit(String),
    /// A word with `$`/`[]`/`\` parts, substituted per execution.
    Dyn(Word),
}

/// How one command of a program executes.
pub enum OpKind {
    /// Pre-parsed words, substituted then dispatched like the direct
    /// interpreter. `head_atom` is set when the command name is a literal:
    /// dispatch becomes an index lookup instead of a string hash.
    Generic {
        /// The command's words.
        words: Vec<CompiledWord>,
        /// Interned command-name atom for index dispatch.
        head_atom: Option<u32>,
    },
    /// `set name` / `set name value` with a literal variable name.
    Set {
        /// Variable name (already split from `name(index)` form).
        name: String,
        /// Array index, if the name had `(index)` form.
        index: Option<String>,
        /// The value to assign; `None` reads the variable.
        value: Option<CompiledWord>,
    },
    /// `if {cond} {then}` or `if {cond} {then} else {else}`, all literal.
    If {
        /// Condition expression source.
        cond: String,
        /// Body when true.
        then_body: String,
        /// Body when false (`None`: result is the empty string).
        else_body: Option<String>,
    },
    /// `while {cond} {body}`, both literal.
    While {
        /// Condition expression source.
        cond: String,
        /// Loop body script.
        body: String,
    },
    /// `for {init} {cond} {next} {body}`, all literal.
    For {
        /// Initialization script.
        init: String,
        /// Condition expression source.
        cond: String,
        /// Per-iteration script.
        next: String,
        /// Loop body script.
        body: String,
    },
    /// `foreach var {items} {body}` with a literal, parseable list: the
    /// list is split once at compile time instead of per execution.
    Foreach {
        /// Loop variable name.
        var: String,
        /// Pre-split list items.
        items: Vec<String>,
        /// Loop body script.
        body: String,
    },
    /// `expr {src}` with a single literal argument: evaluates through the
    /// interpreter's compiled-expression cache.
    Expr {
        /// Expression source.
        src: String,
    },
}

/// One compiled command with the source excerpt for error tracebacks.
pub struct CompiledCmd {
    /// The trimmed source text, exactly as the direct interpreter would
    /// report it in `errorInfo`.
    pub source: String,
    /// The execution strategy.
    pub op: OpKind,
}

/// A compiled script: the unit the program cache stores.
pub struct Program {
    /// The commands, in order.
    pub cmds: Vec<CompiledCmd>,
    /// How many times this program has executed (drives the
    /// `tcl_parses_avoided` counter: every command executed on a re-run is
    /// a parse the direct interpreter would have repeated).
    pub runs: Cell<u64>,
}

/// Lowers a script to a program. A parse error aborts compilation — the
/// caller falls back to direct evaluation so leading commands still run
/// before the error surfaces, exactly as the direct interpreter behaves.
pub fn compile(interp: &Interp, script: &str) -> Result<Program, Exception> {
    let mut pos = 0usize;
    let mut cmds = Vec::new();
    loop {
        let start = pos;
        let words = match parse_command(script, &mut pos)? {
            Some(w) => w,
            None => break,
        };
        interp.note_parse();
        let source = script[start..pos].trim().to_string();
        let op = lower(interp, &words);
        cmds.push(CompiledCmd { source, op });
    }
    Ok(Program {
        cmds,
        runs: Cell::new(0),
    })
}

/// The literal text of a word, if it has no substitutions.
fn literal(word: &Word) -> Option<&str> {
    match word.as_slice() {
        [Part::Lit(s)] => Some(s),
        _ => None,
    }
}

fn compiled_word(word: &Word) -> CompiledWord {
    match literal(word) {
        Some(s) => CompiledWord::Lit(s.to_string()),
        None => CompiledWord::Dyn(word.clone()),
    }
}

/// Lowers one parsed command to an op. Specialization requires the command
/// name to still be the baseline builtin — a redefined `set` or `while`
/// must go through generic dispatch so the redefinition is honored.
fn lower(interp: &Interp, words: &[Word]) -> OpKind {
    if let Some(head) = words.first().and_then(literal) {
        if SPECIALIZED.contains(&head) && interp.is_baseline_command(head) {
            if let Some(op) = specialize(head, words) {
                return op;
            }
        }
    }
    generic(interp, words)
}

fn generic(interp: &Interp, words: &[Word]) -> OpKind {
    let head_atom = words
        .first()
        .and_then(literal)
        .filter(|s| !s.is_empty())
        .map(|s| interp.intern_atom(s));
    OpKind::Generic {
        words: words.iter().map(compiled_word).collect(),
        head_atom,
    }
}

/// Attempts a specialized lowering; `None` means the shape is unusual
/// (keyword forms, dynamic arguments, wrong arity) and generic dispatch
/// must handle it.
fn specialize(head: &str, words: &[Word]) -> Option<OpKind> {
    let lit = |i: usize| words.get(i).and_then(literal);
    match (head, words.len()) {
        ("set", 2) => {
            let (name, index) = crate::interp::split_var_name(lit(1)?);
            Some(OpKind::Set {
                name,
                index,
                value: None,
            })
        }
        ("set", 3) => {
            let (name, index) = crate::interp::split_var_name(lit(1)?);
            Some(OpKind::Set {
                name,
                index,
                value: Some(compiled_word(&words[2])),
            })
        }
        // Only the unambiguous `if` shapes specialize: the keyworded
        // (`then`/`elseif`) and old-style implicit-else forms stay generic.
        ("if", 3) => {
            let (cond, then_body) = (lit(1)?, lit(2)?);
            if matches!(then_body, "then" | "else" | "elseif") {
                return None;
            }
            Some(OpKind::If {
                cond: cond.to_string(),
                then_body: then_body.to_string(),
                else_body: None,
            })
        }
        ("if", 5) => {
            let (cond, then_body, kw, else_body) = (lit(1)?, lit(2)?, lit(3)?, lit(4)?);
            if kw != "else" || matches!(then_body, "then" | "else" | "elseif") {
                return None;
            }
            Some(OpKind::If {
                cond: cond.to_string(),
                then_body: then_body.to_string(),
                else_body: Some(else_body.to_string()),
            })
        }
        ("while", 3) => Some(OpKind::While {
            cond: lit(1)?.to_string(),
            body: lit(2)?.to_string(),
        }),
        ("for", 5) => Some(OpKind::For {
            init: lit(1)?.to_string(),
            cond: lit(2)?.to_string(),
            next: lit(3)?.to_string(),
            body: lit(4)?.to_string(),
        }),
        ("foreach", 4) => {
            let items = crate::list::parse_list(lit(2)?).ok()?;
            Some(OpKind::Foreach {
                var: lit(1)?.to_string(),
                items,
                body: lit(3)?.to_string(),
            })
        }
        ("expr", 2) => Some(OpKind::Expr {
            src: lit(1)?.to_string(),
        }),
        _ => None,
    }
}
