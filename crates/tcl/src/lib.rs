//! # tcl — an embeddable Tool Command Language interpreter
//!
//! A from-scratch Rust implementation of the Tcl language as described in
//! Ousterhout's papers ("Tcl: An Embeddable Command Language", USENIX 1990,
//! and Section 2 of "An X11 Toolkit Based on the Tcl Language", USENIX
//! 1991). It provides:
//!
//! * the complete command syntax of the paper's Figures 1-5 (fields, brace
//!   and quote grouping, `$` variable substitution, `[]` command
//!   substitution, `\` escapes);
//! * an interpreter with a registry of *command procedures*, call frames,
//!   `upvar`/`uplevel`, and the five completion codes;
//! * ~50 built-in commands of the Tcl 6.x era, including the old-style
//!   `print`/`index`/`range` spellings that the paper's scripts use;
//! * a C-operator expression evaluator with lazy `&&`/`||`/`?:`;
//! * Tcl list parsing and formatting that round-trips.
//!
//! Everything is a string: commands, arguments, results, and variables, as
//! the paper's Section 2 specifies. The interpreter is single-threaded and
//! reentrant — command procedures receive `&Interp` and may evaluate
//! scripts recursively, which is how `if`, widget callbacks, and `send`
//! all work.
//!
//! # Examples
//!
//! ```
//! use tcl::Interp;
//!
//! let interp = Interp::new();
//! interp.eval("set a 1000").unwrap();
//! assert_eq!(interp.eval("expr {$a / 8}").unwrap(), "125");
//!
//! // Applications register their own commands:
//! interp.register("double", |_i, argv| {
//!     let n: i64 = argv[1].parse().map_err(|_| tcl::Exception::error("not a number"))?;
//!     Ok((n * 2).to_string())
//! });
//! assert_eq!(interp.eval("double 21").unwrap(), "42");
//! ```

pub mod commands;
pub mod compile;
pub mod error;
pub mod expr;
pub mod interp;
pub mod list;
pub mod parser;
pub mod regex;
pub mod strutil;

pub use error::{wrong_args, Code, Exception, TclResult};
pub use expr::{eval_expr, eval_expr_cached, expr_bool, expr_string, Value};
pub use interp::{split_var_name, Command, Executor, Interp, ProcDef, TraceAction, TraceOps};
pub use list::{format_list, parse_list};
