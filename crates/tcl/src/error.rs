//! Result and exception types for Tcl evaluation.
//!
//! Tcl commands complete with one of five codes: `TCL_OK`, `TCL_ERROR`,
//! `TCL_RETURN`, `TCL_BREAK`, or `TCL_CONTINUE`. We model `TCL_OK` as
//! `Ok(String)` and the other four as an [`Exception`] carried in `Err`,
//! which keeps the common path allocation-free of control-flow plumbing
//! while letting `proc` bodies and loop commands intercept the codes they
//! understand (exactly as the C implementation's `switch` on the return
//! code does).

use std::fmt;
use std::ops::RangeBounds;

/// Completion code of a Tcl evaluation other than `TCL_OK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `TCL_ERROR`: a genuine error; the message describes it.
    Error,
    /// `TCL_RETURN`: the `return` command was invoked.
    Return,
    /// `TCL_BREAK`: the `break` command was invoked.
    Break,
    /// `TCL_CONTINUE`: the `continue` command was invoked.
    Continue,
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Code::Error => "error",
            Code::Return => "return",
            Code::Break => "break",
            Code::Continue => "continue",
        };
        f.write_str(s)
    }
}

/// A non-`TCL_OK` completion: an error or a control-flow signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exception {
    /// Which non-OK code this is.
    pub code: Code,
    /// The associated value: the error message for `Error`, the returned
    /// value for `Return`, empty for `Break`/`Continue`.
    pub msg: String,
    /// Accumulated stack traceback (the `errorInfo` of real Tcl); built up
    /// as an error propagates outward through nested evaluations.
    pub trace: Vec<String>,
}

impl Exception {
    /// Creates a `TCL_ERROR` exception with the given message.
    pub fn error(msg: impl Into<String>) -> Exception {
        Exception {
            code: Code::Error,
            msg: msg.into(),
            trace: Vec::new(),
        }
    }

    /// Creates a `TCL_RETURN` exception carrying the returned value.
    pub fn ret(value: impl Into<String>) -> Exception {
        Exception {
            code: Code::Return,
            msg: value.into(),
            trace: Vec::new(),
        }
    }

    /// Creates a `TCL_BREAK` exception.
    pub fn brk() -> Exception {
        Exception {
            code: Code::Break,
            msg: String::new(),
            trace: Vec::new(),
        }
    }

    /// Creates a `TCL_CONTINUE` exception.
    pub fn cont() -> Exception {
        Exception {
            code: Code::Continue,
            msg: String::new(),
            trace: Vec::new(),
        }
    }

    /// Appends one line of traceback context (innermost first).
    pub fn add_trace(mut self, line: impl Into<String>) -> Exception {
        if self.code == Code::Error {
            self.trace.push(line.into());
        }
        self
    }

    /// Renders the full `errorInfo`-style traceback.
    pub fn error_info(&self) -> String {
        let mut out = self.msg.clone();
        for line in &self.trace {
            out.push('\n');
            out.push_str("    ");
            out.push_str(line);
        }
        out
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Exception {}

/// The result of evaluating a Tcl script or command.
pub type TclResult = Result<String, Exception>;

/// Convenience: the canonical "wrong # args" error used by built-ins.
pub fn wrong_args(usage: &str) -> Exception {
    Exception::error(format!("wrong # args: should be \"{usage}\""))
}

/// A built-in's word-count check: `Ok` when `argv` has a length in
/// `words`, the [`wrong_args`] error for `usage` otherwise.
pub fn arity(
    argv: &[String],
    words: impl RangeBounds<usize>,
    usage: &str,
) -> Result<(), Exception> {
    if words.contains(&argv.len()) {
        return Ok(());
    }
    Err(wrong_args(usage))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_constructor_sets_code() {
        let e = Exception::error("boom");
        assert_eq!(e.code, Code::Error);
        assert_eq!(e.msg, "boom");
    }

    #[test]
    fn return_carries_value() {
        let e = Exception::ret("42");
        assert_eq!(e.code, Code::Return);
        assert_eq!(e.msg, "42");
    }

    #[test]
    fn trace_accumulates_only_for_errors() {
        let e = Exception::error("x").add_trace("while executing \"foo\"");
        assert_eq!(e.trace.len(), 1);
        let b = Exception::brk().add_trace("ignored");
        assert!(b.trace.is_empty());
    }

    #[test]
    fn error_info_formats_traceback() {
        let e = Exception::error("bad")
            .add_trace("while executing \"a\"")
            .add_trace("invoked from within \"b\"");
        assert_eq!(
            e.error_info(),
            "bad\n    while executing \"a\"\n    invoked from within \"b\""
        );
    }

    #[test]
    fn display_shows_message() {
        assert_eq!(Exception::error("oops").to_string(), "oops");
    }

    #[test]
    fn wrong_args_format() {
        assert_eq!(
            wrong_args("set varName ?newValue?").msg,
            "wrong # args: should be \"set varName ?newValue?\""
        );
    }
}
