//! The compile-once/execute-many pipeline.
//!
//! `compile` lowers a script string to a [`Program`]: the command boundary
//! parse is done once, and each word is either a literal or a pre-parsed
//! substitution list. Every command then runs through its registered
//! command procedure, exactly as on the direct path, so `if`, `while`,
//! `for`, `foreach` and `expr` each have one body, in `commands/`. A
//! command whose words are all literal keeps the argv built here, and
//! every run dispatches it by reference: `if {..} {..}`, `for`, `expr {..}`
//! and `incr i` copy nothing. The interpreter caches programs keyed on the
//! script string, so a `bind` body or `-command` script is parsed on its
//! first execution and replayed from the cache afterwards.
//!
//! A literal command name is interned to an atom whose slot the registry
//! keeps current, so a cached program honours every later `proc`, `rename`
//! or deletion without invalidation. The one specialised op is `set` with
//! a literal variable name ([`OpKind::Set`]): it reads or writes the
//! variable directly only while its atom still holds the builtin captured
//! by `Interp::new`, and dispatches like any other command otherwise.
//!
//! A script that fails to parse outright is not compiled at all; the caller
//! re-runs it through the direct evaluator so partial-execution-then-error
//! semantics are preserved byte for byte.

use std::cell::Cell;

use crate::error::Exception;
use crate::interp::{split_var_name, Interp};
use crate::parser::{parse_command, Part, Word};

/// One pre-substitution word of a compiled command.
pub enum CompiledWord {
    /// A fully literal word: no substitution needed at run time.
    Lit(String),
    /// A word with `$`/`[]`/`\` parts, substituted per execution.
    Dyn(Word),
}

/// How one command of a program executes.
pub enum OpKind {
    /// Every word is literal: the argv, built once at compile time.
    Literal(Vec<String>),
    /// Pre-parsed words, substituted on every run, then dispatched.
    Generic(Vec<CompiledWord>),
    /// `set name` / `set name value` with a literal variable name.
    Set {
        /// Variable name (already split from `name(index)` form).
        name: String,
        /// Array index, if the name had `(index)` form.
        index: Option<String>,
        /// The command's words: `words[2]`, if any, is the value, and the
        /// whole is dispatched when `set` is no longer the builtin.
        words: Vec<CompiledWord>,
    },
}

/// One compiled command with the source excerpt for error tracebacks.
pub struct CompiledCmd {
    /// The trimmed source text, exactly as the direct interpreter would
    /// report it in `errorInfo`.
    pub source: String,
    /// Interned atom of a literal, non-empty command name: dispatch is an
    /// index lookup instead of a string hash.
    pub head_atom: Option<u32>,
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
        let head_atom = words
            .first()
            .and_then(literal)
            .filter(|s| !s.is_empty())
            .map(|s| interp.intern_atom(s));
        cmds.push(CompiledCmd {
            source: script[start..pos].trim().to_string(),
            head_atom,
            op: lower(&words),
        });
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

/// Lowers one parsed command to an op.
fn lower(words: &[Word]) -> OpKind {
    let lit = |i: usize| words.get(i).and_then(literal);
    if let (Some("set"), Some(spec), 2 | 3) = (lit(0), lit(1), words.len()) {
        let (name, index) = split_var_name(spec);
        let words = words.iter().map(compiled_word).collect();
        return OpKind::Set { name, index, words };
    }
    match words.iter().map(literal).collect::<Option<Vec<_>>>() {
        Some(argv) => OpKind::Literal(argv.into_iter().map(str::to_string).collect()),
        None => OpKind::Generic(words.iter().map(compiled_word).collect()),
    }
}
