//! The Tcl expression evaluator (`expr`, and the conditions of `if`,
//! `while`, and `for`).
//!
//! Expressions support integer, floating-point, and string operands with
//! the full C operator set including `?:`. Operands may be `$variables`,
//! `[command]` substitutions, double-quoted strings (substituted), or
//! brace-quoted strings (verbatim). `&&`, `||`, and `?:` evaluate their
//! operands lazily, so `[...]` side effects only fire on the taken branch.

use crate::compile::{Held, Program};
use crate::error::{Exception, TclResult};
use crate::interp::{Access, Interp};

/// A computed expression value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// A double-precision float.
    Double(f64),
    /// An uninterpreted string.
    Str(String),
}

impl Value {
    /// Renders the value as a Tcl result string.
    pub fn to_result(&self) -> String {
        match self {
            Value::Int(i) => i.to_string(),
            Value::Double(d) => double_to_string(*d),
            Value::Str(s) => s.clone(),
        }
    }

    /// Is this value a true boolean condition?
    pub fn truthy(&self) -> Result<bool, Exception> {
        match self {
            Value::Int(i) => Ok(*i != 0),
            Value::Double(d) => Ok(*d != 0.0),
            Value::Str(s) => match parse_number(s) {
                Some(Value::Int(i)) => Ok(i != 0),
                Some(Value::Double(d)) => Ok(d != 0.0),
                _ => match s.to_ascii_lowercase().as_str() {
                    "true" | "yes" | "on" | "t" | "y" => Ok(true),
                    "false" | "no" | "off" | "f" | "n" => Ok(false),
                    _ => Err(Exception::error(format!(
                        "expected boolean value but got \"{s}\""
                    ))),
                },
            },
        }
    }
}

/// Formats a double the way Tcl 8.6 does: the shortest digits that read
/// back exactly, with an exponent (`1e+20`, `2.5e-10`) when the decimal
/// exponent is below -4 or above 16, and otherwise always distinguishable
/// from an integer (a bare integral double gains a trailing `.0`).
pub fn double_to_string(d: f64) -> String {
    if d.is_nan() {
        return "NaN".into();
    }
    if d.is_infinite() {
        return if d > 0.0 { "Inf".into() } else { "-Inf".into() };
    }
    let sci = format!("{d:e}");
    let (digits, exp) = sci.split_once('e').expect("`{:e}` writes an exponent");
    let exp: i32 = exp.parse().expect("`{:e}` writes an integer exponent");
    if !(-4..=16).contains(&exp) {
        let sign = if exp < 0 { '-' } else { '+' };
        return format!("{digits}e{sign}{}", exp.abs());
    }
    let s = format!("{d}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Attempts to interpret a string as a number: decimal/hex/octal integer or
/// a float. Returns `None` for anything else.
pub fn parse_number(s: &str) -> Option<Value> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    let (sign, body) = match t.as_bytes()[0] {
        b'-' => (-1, &t[1..]),
        b'+' => (1, &t[1..]),
        _ => (1, t),
    };
    if body.is_empty() {
        return None;
    }
    // The magnitude is unsigned, so `-9223372036854775808` (i64::MIN) parses.
    let mk = |v: u64| i64::try_from(sign * v as i128).ok().map(Value::Int);
    if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        // `from_str_radix` would take a sign after the prefix too.
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        return u64::from_str_radix(hex, 16).ok().and_then(mk);
    }
    if body.len() > 1
        && body.starts_with('0')
        && body.bytes().all(|b| b.is_ascii_digit())
        && !body.contains(['8', '9'])
    {
        return u64::from_str_radix(&body[1..], 8).ok().and_then(mk);
    }
    if body.bytes().all(|b| b.is_ascii_digit()) {
        return body.parse::<u64>().ok().and_then(mk);
    }
    // Floats: require a digit and reject trailing junk.
    if body
        .bytes()
        .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        && body.bytes().any(|b| b.is_ascii_digit())
    {
        if let Ok(f) = t.parse::<f64>() {
            return Some(Value::Double(f));
        }
    }
    None
}

/// Binary and unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Mul,
    Div,
    Mod,
    Add,
    Sub,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    And,
    Or,
    Not,
    BitNot,
    Neg,
    Pos,
}

/// Parsed expression tree. Operand scripts/variables are evaluated lazily
/// when the node is evaluated.
enum Ast {
    Num(Value),
    /// `$name` or `$name(index)`.
    Var(String, Option<String>),
    /// `[script]`, and the program it holds once compiled.
    Cmd(String, Held<Program>),
    /// A double-quoted string: substitutions performed at eval time.
    QuotedStr(String),
    /// A brace-quoted string: verbatim.
    BracedStr(String),
    /// A math function call.
    Func(String, Vec<Ast>),
    Unary(Op, Box<Ast>),
    Binary(Op, Box<Ast>, Box<Ast>),
    Ternary(Box<Ast>, Box<Ast>, Box<Ast>),
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Value(Value),
    Var(String, Option<String>),
    Cmd(String),
    QuotedStr(String),
    BracedStr(String),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
    Comma,
    End,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src, pos: 0 }
    }

    fn next_token(&mut self) -> Result<Token, Exception> {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(Token::End);
        }
        let b = bytes[self.pos];
        match b {
            b'(' => {
                self.pos += 1;
                Ok(Token::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Token::RParen)
            }
            b',' => {
                self.pos += 1;
                Ok(Token::Comma)
            }
            b'$' => {
                let mut parts = Vec::new();
                self.pos = crate::parser::parse_dollar(self.src, self.pos, &mut parts)?;
                match parts.pop() {
                    Some(crate::parser::Part::Var(name, idx)) => {
                        // Expression variable indices must be static text
                        // here; dynamic indices still work because the parts
                        // were already flattened by the command parser in
                        // the common (unbraced) case.
                        let idx = match idx {
                            None => None,
                            Some(parts) => Some(flatten_static(&parts)?),
                        };
                        Ok(Token::Var(name, idx))
                    }
                    _ => Err(Exception::error("syntax error in expression: bad $")),
                }
            }
            b'[' => {
                let (script, next) = crate::parser::parse_brackets(self.src, self.pos)?;
                self.pos = next;
                Ok(Token::Cmd(script))
            }
            b'"' => {
                let start = self.pos + 1;
                let mut i = start;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        let (_, used) = crate::parser::backslash(self.src, i);
                        i += used;
                    } else {
                        i += 1;
                    }
                }
                if i >= bytes.len() {
                    return Err(Exception::error("missing \" in expression"));
                }
                let text = self.src[start..i].to_string();
                self.pos = i + 1;
                Ok(Token::QuotedStr(text))
            }
            b'{' => {
                let (content, next) = crate::parser::parse_braces(self.src, self.pos)?;
                self.pos = next;
                Ok(Token::BracedStr(content))
            }
            b'0'..=b'9' | b'.' => self.lex_number(),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = self.pos;
                while self.pos < bytes.len()
                    && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                Ok(Token::Ident(self.src[start..self.pos].to_string()))
            }
            _ => {
                let two = self.src.get(self.pos..self.pos + 2).unwrap_or("");
                for op in ["<<", ">>", "<=", ">=", "==", "!=", "&&", "||"] {
                    if two == op {
                        self.pos += 2;
                        return Ok(Token::Op(op));
                    }
                }
                let one = self.src.get(self.pos..self.pos + 1).unwrap_or("");
                for op in [
                    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^", "?", ":",
                ] {
                    if one == op {
                        self.pos += 1;
                        return Ok(Token::Op(op));
                    }
                }
                Err(Exception::error(format!(
                    "syntax error in expression: unexpected character \"{one}\""
                )))
            }
        }
    }

    fn lex_number(&mut self) -> Result<Token, Exception> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut i = self.pos;
        let mut is_float = false;
        if bytes[i] == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 0x20) == b'x' {
            i += 2;
            while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                i += 1;
            }
        } else {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'.' {
                is_float = true;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            if i < bytes.len() && (bytes[i] | 0x20) == b'e' {
                let mut j = i + 1;
                if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                    j += 1;
                }
                if j < bytes.len() && bytes[j].is_ascii_digit() {
                    is_float = true;
                    i = j;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
        }
        let text = &self.src[start..i];
        self.pos = i;
        if text == "." {
            return Err(Exception::error("syntax error in expression: bare \".\""));
        }
        if is_float {
            text.parse::<f64>()
                .map(|f| Token::Value(Value::Double(f)))
                .map_err(|_| Exception::error(format!("malformed number \"{text}\"")))
        } else {
            match parse_number(text) {
                Some(v) => Ok(Token::Value(v)),
                None => Err(Exception::error(format!("malformed number \"{text}\""))),
            }
        }
    }
}

/// Flattens parts that must be static literal text (array indices inside
/// expressions keep their substitutions in the command parser; by the time
/// they reach here only literals remain in practice).
fn flatten_static(parts: &[crate::parser::Part]) -> Result<String, Exception> {
    let mut out = String::new();
    for p in parts {
        match p {
            crate::parser::Part::Lit(s) => out.push_str(s),
            _ => {
                return Err(Exception::error(
                    "dynamic array index in expression not supported; brace the index",
                ))
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    ahead: Option<Token>,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Result<&Token, Exception> {
        if self.ahead.is_none() {
            self.ahead = Some(self.lexer.next_token()?);
        }
        Ok(self.ahead.as_ref().unwrap())
    }

    fn next(&mut self) -> Result<Token, Exception> {
        if let Some(t) = self.ahead.take() {
            Ok(t)
        } else {
            self.lexer.next_token()
        }
    }

    /// Precedence-climbing over binary operators, then `?:` on top.
    fn parse_expr(&mut self) -> Result<Ast, Exception> {
        let cond = self.parse_binary(0)?;
        if matches!(self.peek()?, Token::Op("?")) {
            self.next()?;
            let then = self.parse_expr()?;
            match self.next()? {
                Token::Op(":") => {}
                _ => return Err(Exception::error("missing \":\" in ternary expression")),
            }
            let els = self.parse_expr()?;
            return Ok(Ast::Ternary(Box::new(cond), Box::new(then), Box::new(els)));
        }
        Ok(cond)
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Ast, Exception> {
        let mut lhs = self.parse_unary()?;
        while let Token::Op(o) = self.peek()? {
            let Some((op, prec)) = binop(o) else { break };
            if prec < min_prec {
                break;
            }
            self.next()?;
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Ast::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Ast, Exception> {
        match self.peek()? {
            Token::Op("-") => {
                self.next()?;
                Ok(Ast::Unary(Op::Neg, Box::new(self.parse_unary()?)))
            }
            Token::Op("+") => {
                self.next()?;
                Ok(Ast::Unary(Op::Pos, Box::new(self.parse_unary()?)))
            }
            Token::Op("!") => {
                self.next()?;
                Ok(Ast::Unary(Op::Not, Box::new(self.parse_unary()?)))
            }
            Token::Op("~") => {
                self.next()?;
                Ok(Ast::Unary(Op::BitNot, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Ast, Exception> {
        match self.next()? {
            Token::Value(v) => Ok(Ast::Num(v)),
            Token::Var(n, i) => Ok(Ast::Var(n, i)),
            Token::Cmd(s) => Ok(Ast::Cmd(s, Held::default())),
            Token::QuotedStr(s) => Ok(Ast::QuotedStr(s)),
            Token::BracedStr(s) => Ok(Ast::BracedStr(s)),
            Token::LParen => {
                let inner = self.parse_expr()?;
                match self.next()? {
                    Token::RParen => Ok(inner),
                    _ => Err(Exception::error("unbalanced parentheses in expression")),
                }
            }
            Token::Ident(name) => {
                if matches!(self.peek()?, Token::LParen) {
                    self.next()?;
                    let mut args = Vec::new();
                    if !matches!(self.peek()?, Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            match self.next()? {
                                Token::Comma => continue,
                                Token::RParen => break,
                                _ => {
                                    return Err(Exception::error(
                                        "syntax error in function arguments",
                                    ))
                                }
                            }
                        }
                    } else {
                        self.next()?;
                    }
                    Ok(Ast::Func(name, args))
                } else {
                    // A bare identifier is a string constant (Tcl would
                    // reject most of these, but accepting them makes string
                    // comparisons like {$x == abc} work).
                    Ok(Ast::BracedStr(name))
                }
            }
            t => Err(Exception::error(format!(
                "syntax error in expression: unexpected {t:?}"
            ))),
        }
    }
}

/// Maps an operator token to `(Op, precedence)`. Higher binds tighter.
fn binop(tok: &str) -> Option<(Op, u8)> {
    Some(match tok {
        "*" => (Op::Mul, 11),
        "/" => (Op::Div, 11),
        "%" => (Op::Mod, 11),
        "+" => (Op::Add, 10),
        "-" => (Op::Sub, 10),
        "<<" => (Op::Shl, 9),
        ">>" => (Op::Shr, 9),
        "<" => (Op::Lt, 8),
        ">" => (Op::Gt, 8),
        "<=" => (Op::Le, 8),
        ">=" => (Op::Ge, 8),
        "==" => (Op::Eq, 7),
        "!=" => (Op::Ne, 7),
        "&" => (Op::BitAnd, 6),
        "^" => (Op::BitXor, 5),
        "|" => (Op::BitOr, 4),
        "&&" => (Op::And, 3),
        "||" => (Op::Or, 2),
        _ => return None,
    })
}

/// Parses a full expression, rejecting trailing junk.
fn parse_full(src: &str) -> Result<Ast, Exception> {
    let mut parser = Parser {
        lexer: Lexer::new(src),
        ahead: None,
    };
    let ast = parser.parse_expr()?;
    match parser.next()? {
        Token::End => Ok(ast),
        t => Err(Exception::error(format!(
            "syntax error in expression \"{src}\": unexpected trailing {t:?}"
        ))),
    }
}

/// Evaluates `src` as a Tcl expression, returning the value.
pub fn eval_expr(interp: &Interp, src: &str) -> Result<Value, Exception> {
    let ast = parse_full(src)?;
    eval_ast(interp, &ast)
}

/// A compiled (parsed and constant-folded) expression. The AST stores
/// `$var` and `[cmd]` operands as source strings resolved at evaluation
/// time, so a compiled expression never goes stale: only the fold of
/// static subtrees is baked in. A `[cmd]` operand keeps the program found
/// for its script, which dispatches through atoms like any other.
pub struct ExprProgram {
    ast: Ast,
}

/// Compiles an expression: one parse plus constant folding of static
/// all-numeric subtrees. Fold errors (overflowing shifts, division by
/// zero) leave the subtree unfolded so the error still surfaces at
/// evaluation time with the direct evaluator's message.
pub fn compile_expr(src: &str) -> Result<ExprProgram, Exception> {
    Ok(ExprProgram {
        ast: fold(parse_full(src)?),
    })
}

/// Evaluates `src` through the program `held` keeps for it: found in the
/// interpreter's compiled-expression cache on the first run under the
/// compiler (the parse happens once per distinct source string) and used
/// as found on every later one. With compilation disabled, or on a source
/// that does not parse, this is exactly [`eval_expr`].
pub(crate) fn eval_expr_held(
    interp: &Interp,
    src: &str,
    held: &Held<ExprProgram>,
) -> Result<Value, Exception> {
    if interp.compile_enabled() {
        if let Some(p) = held.get_or_init(|| interp.find_expr(src)) {
            return eval_ast(interp, &p.ast);
        }
    }
    eval_expr(interp, src)
}

/// Evaluates `src` through the compiled-expression cache, finding its
/// program by text on every call: `eval_expr_held` with a holder of its
/// own.
pub fn eval_expr_cached(interp: &Interp, src: &str) -> Result<Value, Exception> {
    eval_expr_held(interp, src, &Held::default())
}

/// Evaluates `src` and renders the result as a string (the `expr` command).
pub fn expr_string(interp: &Interp, src: &str) -> TclResult {
    Ok(eval_expr(interp, src)?.to_result())
}

/// Evaluates `src` as a boolean condition (for `if`, `while`, `for`).
pub fn expr_bool(interp: &Interp, src: &str) -> Result<bool, Exception> {
    eval_expr(interp, src)?.truthy()
}

/// Folds static all-numeric subtrees to their values. Only pure shapes
/// fold: short-circuit operators, ternaries, and anything touching a
/// variable, command, or string stays lazy.
fn fold(ast: Ast) -> Ast {
    match ast {
        Ast::Unary(op, a) => {
            let a = fold(*a);
            if let Ast::Num(v) = &a {
                if let Ok(folded) = unary(op, v.clone()) {
                    return Ast::Num(folded);
                }
            }
            Ast::Unary(op, Box::new(a))
        }
        Ast::Binary(op, l, r) => {
            let l = fold(*l);
            let r = fold(*r);
            if !matches!(op, Op::And | Op::Or) {
                if let (Ast::Num(a), Ast::Num(b)) = (&l, &r) {
                    if let Ok(v) = eval_binary(op, a, b) {
                        return Ast::Num(v);
                    }
                }
            }
            Ast::Binary(op, Box::new(l), Box::new(r))
        }
        Ast::Ternary(c, t, e) => {
            Ast::Ternary(Box::new(fold(*c)), Box::new(fold(*t)), Box::new(fold(*e)))
        }
        Ast::Func(name, args) => {
            let args: Vec<Ast> = args.into_iter().map(fold).collect();
            if args.iter().all(|a| matches!(a, Ast::Num(_))) {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| match a {
                        Ast::Num(v) => v.clone(),
                        _ => unreachable!("filtered above"),
                    })
                    .collect();
                if let Ok(v) = eval_func(&name, &vals) {
                    return Ast::Num(v);
                }
            }
            Ast::Func(name, args)
        }
        other => other,
    }
}

/// A unary operation on an operand, at evaluation time or, on a
/// constant, when folding (a fold that fails leaves the subtree as is).
fn unary(op: Op, v: Value) -> Result<Value, Exception> {
    match (op, &v) {
        (Op::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (Op::Neg, Value::Double(d)) => Ok(Value::Double(-d)),
        (Op::Pos, Value::Int(_) | Value::Double(_)) => Ok(v),
        (Op::Not, _) => Ok(Value::Int(if v.truthy()? { 0 } else { 1 })),
        (Op::BitNot, Value::Int(i)) => Ok(Value::Int(!i)),
        _ => Err(Exception::error(
            "can't use non-numeric string as operand of unary operator",
        )),
    }
}

/// Coerces an operand value: strings that look numeric become numbers.
fn numeric(v: Value) -> Value {
    match v {
        Value::Str(s) => parse_number(&s).unwrap_or(Value::Str(s)),
        other => other,
    }
}

/// Evaluates an operand that is coerced with [`numeric`] or tested for
/// truth. A variable is parsed where it lives, so only a non-numeric
/// value is copied out of it.
fn operand(interp: &Interp, ast: &Ast) -> Result<Value, Exception> {
    let Ast::Var(name, idx) = ast else {
        return Ok(numeric(eval_ast(interp, ast)?));
    };
    interp.access(interp.level(), name, idx.as_deref(), Access::Read, |s| {
        Ok(parse_number(s).unwrap_or_else(|| Value::Str(s.clone())))
    })
}

fn eval_ast(interp: &Interp, ast: &Ast) -> Result<Value, Exception> {
    match ast {
        Ast::Num(v) => Ok(v.clone()),
        Ast::Var(name, idx) => {
            let s = interp.get_var(name, idx.as_deref())?;
            Ok(Value::Str(s))
        }
        Ast::Cmd(script, held) => Ok(Value::Str(interp.eval_held(script, held)?)),
        Ast::QuotedStr(s) => Ok(Value::Str(interp.subst_string(s)?)),
        Ast::BracedStr(s) => Ok(Value::Str(s.clone())),
        Ast::Func(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(operand(interp, a)?);
            }
            eval_func(name, &vals)
        }
        Ast::Unary(op, arg) => unary(*op, operand(interp, arg)?),
        Ast::Binary(op, l, r) => {
            // Short-circuit operators evaluate the right side lazily.
            match op {
                Op::And => {
                    if !operand(interp, l)?.truthy()? {
                        return Ok(Value::Int(0));
                    }
                    return Ok(Value::Int(if operand(interp, r)?.truthy()? {
                        1
                    } else {
                        0
                    }));
                }
                Op::Or => {
                    if operand(interp, l)?.truthy()? {
                        return Ok(Value::Int(1));
                    }
                    return Ok(Value::Int(if operand(interp, r)?.truthy()? {
                        1
                    } else {
                        0
                    }));
                }
                _ => {}
            }
            let lv = operand(interp, l)?;
            let rv = operand(interp, r)?;
            eval_binary(*op, &lv, &rv)
        }
        Ast::Ternary(c, t, e) => {
            if operand(interp, c)?.truthy()? {
                eval_ast(interp, t)
            } else {
                eval_ast(interp, e)
            }
        }
    }
}

/// Promotes two operands to a common numeric type, if both are numeric.
fn promote(l: &Value, r: &Value) -> Option<(f64, f64, bool)> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Some((*a as f64, *b as f64, true)),
        (Value::Int(a), Value::Double(b)) => Some((*a as f64, *b, false)),
        (Value::Double(a), Value::Int(b)) => Some((*a, *b as f64, false)),
        (Value::Double(a), Value::Double(b)) => Some((*a, *b, false)),
        _ => None,
    }
}

fn int_pair(l: &Value, r: &Value) -> Result<(i64, i64), Exception> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok((*a, *b)),
        _ => Err(Exception::error(
            "can't use floating-point or string value as operand of integer operator",
        )),
    }
}

fn eval_binary(op: Op, l: &Value, r: &Value) -> Result<Value, Exception> {
    use Op::*;
    match op {
        Add | Sub | Mul => {
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                let v = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    _ => a.wrapping_mul(*b),
                };
                return Ok(Value::Int(v));
            }
            let (a, b, _) = promote(l, r).ok_or_else(|| non_numeric(l, r))?;
            Ok(Value::Double(match op {
                Add => a + b,
                Sub => a - b,
                _ => a * b,
            }))
        }
        Div | Mod => match (l, r) {
            (Value::Int(_), Value::Int(0)) => Err(Exception::error("divide by zero")),
            (Value::Int(a), Value::Int(b)) => {
                // Tcl floors `/` and `%`: the remainder takes the divisor's
                // sign. Scaled by that sign the divisor is positive, where
                // Euclid's quotient is the floor; in i128 `i64::MIN / -1`
                // wraps, like `*`, instead of trapping.
                let s = b.signum() as i128;
                let q = (s * *a as i128).div_euclid(s * *b as i128) as i64;
                let r = a.wrapping_sub(q.wrapping_mul(*b));
                Ok(Value::Int(if op == Div { q } else { r }))
            }
            // `%` takes integers only.
            _ if op == Mod => Err(int_pair(l, r).expect_err("Int pairs are matched above")),
            _ => {
                let (a, b, _) = promote(l, r).ok_or_else(|| non_numeric(l, r))?;
                if b == 0.0 {
                    return Err(Exception::error("divide by zero"));
                }
                Ok(Value::Double(a / b))
            }
        },
        Shl => {
            let (a, b) = int_pair(l, r)?;
            Ok(Value::Int(a.wrapping_shl(b as u32)))
        }
        Shr => {
            let (a, b) = int_pair(l, r)?;
            Ok(Value::Int(a.wrapping_shr(b as u32)))
        }
        BitAnd => {
            let (a, b) = int_pair(l, r)?;
            Ok(Value::Int(a & b))
        }
        BitXor => {
            let (a, b) = int_pair(l, r)?;
            Ok(Value::Int(a ^ b))
        }
        BitOr => {
            let (a, b) = int_pair(l, r)?;
            Ok(Value::Int(a | b))
        }
        Lt | Gt | Le | Ge | Eq | Ne => {
            let ord = match promote(l, r) {
                Some((a, b, _)) => a.partial_cmp(&b),
                None => {
                    let ls = l.to_result();
                    let rs = r.to_result();
                    Some(ls.cmp(&rs))
                }
            };
            let Some(ord) = ord else {
                // NaN comparisons are all false except `!=`.
                return Ok(Value::Int(if op == Ne { 1 } else { 0 }));
            };
            use std::cmp::Ordering::*;
            let truth = match op {
                Lt => ord == Less,
                Gt => ord == Greater,
                Le => ord != Greater,
                Ge => ord != Less,
                Eq => ord == Equal,
                Ne => ord != Equal,
                _ => unreachable!(),
            };
            Ok(Value::Int(if truth { 1 } else { 0 }))
        }
        And | Or | Not | BitNot | Neg | Pos => unreachable!("handled in eval_ast"),
    }
}

fn non_numeric(l: &Value, r: &Value) -> Exception {
    let offending = match l {
        Value::Str(s) => s.clone(),
        _ => match r {
            Value::Str(s) => s.clone(),
            _ => String::new(),
        },
    };
    Exception::error(format!(
        "can't use non-numeric string \"{offending}\" as operand of arithmetic operator"
    ))
}

/// Evaluates a math function call.
fn eval_func(name: &str, args: &[Value]) -> Result<Value, Exception> {
    fn as_f(v: &Value) -> Result<f64, Exception> {
        match v {
            Value::Int(i) => Ok(*i as f64),
            Value::Double(d) => Ok(*d),
            Value::Str(s) => Err(Exception::error(format!(
                "can't use non-numeric string \"{s}\" as function argument"
            ))),
        }
    }
    let arity = |n: usize| -> Result<(), Exception> {
        if args.len() != n {
            Err(Exception::error(format!(
                "wrong number of arguments for math function \"{name}\""
            )))
        } else {
            Ok(())
        }
    };
    let one = |f: fn(f64) -> f64| -> Result<Value, Exception> {
        arity(1)?;
        Ok(Value::Double(f(as_f(&args[0])?)))
    };
    match name {
        "abs" => {
            arity(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                other => Ok(Value::Double(as_f(other)?.abs())),
            }
        }
        "int" => {
            arity(1)?;
            Ok(Value::Int(as_f(&args[0])? as i64))
        }
        "round" => {
            arity(1)?;
            Ok(Value::Int(as_f(&args[0])?.round() as i64))
        }
        "double" => {
            arity(1)?;
            Ok(Value::Double(as_f(&args[0])?))
        }
        "sqrt" => one(f64::sqrt),
        "sin" => one(f64::sin),
        "cos" => one(f64::cos),
        "tan" => one(f64::tan),
        "asin" => one(f64::asin),
        "acos" => one(f64::acos),
        "atan" => one(f64::atan),
        "sinh" => one(f64::sinh),
        "cosh" => one(f64::cosh),
        "tanh" => one(f64::tanh),
        "exp" => one(f64::exp),
        "log" => one(f64::ln),
        "log10" => one(f64::log10),
        "floor" => one(f64::floor),
        "ceil" => one(f64::ceil),
        "atan2" => {
            arity(2)?;
            Ok(Value::Double(as_f(&args[0])?.atan2(as_f(&args[1])?)))
        }
        "pow" => {
            arity(2)?;
            Ok(Value::Double(as_f(&args[0])?.powf(as_f(&args[1])?)))
        }
        "fmod" => {
            arity(2)?;
            Ok(Value::Double(as_f(&args[0])? % as_f(&args[1])?))
        }
        "hypot" => {
            arity(2)?;
            Ok(Value::Double(as_f(&args[0])?.hypot(as_f(&args[1])?)))
        }
        "min" => {
            if args.is_empty() {
                return Err(Exception::error("min needs at least one argument"));
            }
            let mut best = as_f(&args[0])?;
            for a in &args[1..] {
                best = best.min(as_f(a)?);
            }
            Ok(Value::Double(best))
        }
        "max" => {
            if args.is_empty() {
                return Err(Exception::error("max needs at least one argument"));
            }
            let mut best = as_f(&args[0])?;
            for a in &args[1..] {
                best = best.max(as_f(a)?);
            }
            Ok(Value::Double(best))
        }
        _ => Err(Exception::error(format!(
            "unknown math function \"{name}\""
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: &str) -> String {
        let i = Interp::new();
        expr_string(&i, src).unwrap()
    }

    fn ev_err(src: &str) -> Exception {
        let i = Interp::new();
        expr_string(&i, src).unwrap_err()
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(ev("1+2*3"), "7");
        assert_eq!(ev("(1+2)*3"), "9");
        assert_eq!(ev("7/2"), "3");
        assert_eq!(ev("7%2"), "1");
        assert_eq!(ev("-7/2"), "-4"); // floor division
        assert_eq!(ev("-7%2"), "1"); // result has divisor's sign
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(ev("1.5+2.5"), "4.0");
        assert_eq!(ev("1/2.0"), "0.5");
        assert_eq!(ev("2*3.5"), "7.0");
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev("1<2"), "1");
        assert_eq!(ev("2<=2"), "1");
        assert_eq!(ev("3>4"), "0");
        assert_eq!(ev("1==1.0"), "1");
        assert_eq!(ev("1!=2"), "1");
    }

    #[test]
    fn string_comparisons() {
        assert_eq!(ev("{abc} == {abc}"), "1");
        assert_eq!(ev("{abc} < {abd}"), "1");
        assert_eq!(ev("{10} == {10}"), "1");
    }

    #[test]
    fn logical_operators() {
        assert_eq!(ev("1 && 0"), "0");
        assert_eq!(ev("1 || 0"), "1");
        assert_eq!(ev("!1"), "0");
        assert_eq!(ev("!0"), "1");
    }

    #[test]
    fn bitwise_operators() {
        assert_eq!(ev("6&3"), "2");
        assert_eq!(ev("6|3"), "7");
        assert_eq!(ev("6^3"), "5");
        assert_eq!(ev("~0"), "-1");
        assert_eq!(ev("1<<4"), "16");
        assert_eq!(ev("16>>2"), "4");
    }

    #[test]
    fn ternary() {
        assert_eq!(ev("1 ? 10 : 20"), "10");
        assert_eq!(ev("0 ? 10 : 20"), "20");
    }

    #[test]
    fn hex_and_octal_literals() {
        assert_eq!(ev("0x10"), "16");
        assert_eq!(ev("010"), "8");
    }

    #[test]
    fn division_floors_and_wraps() {
        // Floor: the remainder takes the divisor's sign.
        assert_eq!((ev("7 / -2"), ev("7 % -2")), ("-4".into(), "-1".into()));
        assert_eq!((ev("-7 / 2"), ev("-7 % 2")), ("-4".into(), "1".into()));
        assert_eq!((ev("-7 / -2"), ev("-7 % -2")), ("3".into(), "-1".into()));
        assert_eq!((ev("7 / 2"), ev("7 % 2")), ("3".into(), "1".into()));
        // i64::MIN / -1 wraps like `*` instead of killing the process.
        let min = i64::MIN.to_string();
        assert_eq!(ev("(-9223372036854775807 - 1) / -1"), min);
        assert_eq!(ev("(-9223372036854775807 - 1) % -1"), "0");
        assert!(ev_err("7.0 % 2").msg.contains("integer operator"));
    }

    #[test]
    fn divide_by_zero_errors() {
        assert!(ev_err("1/0").msg.contains("divide by zero"));
        assert!(ev_err("1%0").msg.contains("divide by zero"));
    }

    #[test]
    fn variables_in_expressions() {
        let i = Interp::new();
        i.eval("set i 1").unwrap();
        assert_eq!(expr_string(&i, "$i<2").unwrap(), "1");
    }

    #[test]
    fn commands_in_expressions() {
        let i = Interp::new();
        i.eval("set x 5").unwrap();
        assert_eq!(expr_string(&i, "[set x]*2").unwrap(), "10");
    }

    #[test]
    fn short_circuit_skips_side_effects() {
        let i = Interp::new();
        i.eval("set hit 0").unwrap();
        assert_eq!(expr_string(&i, "0 && [set hit 1]").unwrap(), "0");
        assert_eq!(i.eval("set hit").unwrap(), "0");
        assert_eq!(expr_string(&i, "1 || [set hit 1]").unwrap(), "1");
        assert_eq!(i.eval("set hit").unwrap(), "0");
    }

    #[test]
    fn math_functions() {
        assert_eq!(ev("sqrt(16)"), "4.0");
        assert_eq!(ev("abs(-3)"), "3");
        assert_eq!(ev("int(3.7)"), "3");
        assert_eq!(ev("round(3.5)"), "4");
        assert_eq!(ev("pow(2,10)"), "1024.0");
        assert_eq!(ev("max(1,5,3)"), "5.0");
    }

    #[test]
    fn unknown_function_errors() {
        assert!(ev_err("nosuch(1)").msg.contains("unknown math function"));
    }

    #[test]
    fn boolean_words() {
        let i = Interp::new();
        assert!(expr_bool(&i, "true").unwrap());
        assert!(!expr_bool(&i, "false").unwrap());
        assert!(expr_bool(&i, "on").unwrap());
        assert!(!expr_bool(&i, "off").unwrap());
        assert!(expr_bool(&i, "yes").unwrap());
        assert!(expr_bool(&i, "nonsense").is_err());
    }

    #[test]
    fn quoted_strings_substitute() {
        let i = Interp::new();
        i.eval("set name world").unwrap();
        assert_eq!(expr_string(&i, "\"$name\" == \"world\"").unwrap(), "1");
    }

    #[test]
    fn unary_minus_and_precedence() {
        assert_eq!(ev("-2*3"), "-6");
        assert_eq!(ev("- -5"), "5");
        assert_eq!(ev("2+-3"), "-1");
    }

    #[test]
    fn double_to_string_forms() {
        assert_eq!(double_to_string(4.0), "4.0");
        assert_eq!(double_to_string(0.5), "0.5");
        assert_eq!(double_to_string(f64::INFINITY), "Inf");
        // Tcl 8.6 switches to an exponent above 1e16 and below 1e-4.
        assert_eq!(double_to_string(1e16), "10000000000000000.0");
        assert_eq!(double_to_string(1e17), "1e+17");
        assert_eq!(double_to_string(1e20), "1e+20");
        assert_eq!(double_to_string(1.5e301), "1.5e+301");
        assert_eq!(double_to_string(2.5e-10), "2.5e-10");
        assert_eq!(double_to_string(-2.5e-10), "-2.5e-10");
        assert_eq!(double_to_string(1e-4), "0.0001");
        assert_eq!(double_to_string(1e-5), "1e-5");
        assert_eq!(
            double_to_string(123456789012345678.0),
            "1.2345678901234568e+17"
        );
        assert_eq!(double_to_string(12345678901234567.0), "12345678901234568.0");
        assert_eq!(double_to_string(5e-324), "5e-324");
        assert_eq!(ev("1e20"), "1e+20");
        assert_eq!(ev("1e10 * 1e10"), "1e+20");
    }

    #[test]
    fn parse_number_forms() {
        assert_eq!(parse_number("42"), Some(Value::Int(42)));
        assert_eq!(parse_number("-42"), Some(Value::Int(-42)));
        assert_eq!(parse_number("0x1f"), Some(Value::Int(31)));
        assert_eq!(parse_number("017"), Some(Value::Int(15)));
        assert_eq!(parse_number("3.25"), Some(Value::Double(3.25)));
        assert_eq!(parse_number("1e3"), Some(Value::Double(1000.0)));
        assert_eq!(parse_number("abc"), None);
        assert_eq!(parse_number(""), None);
        assert_eq!(parse_number(" 7 "), Some(Value::Int(7)));
        let min = Some(Value::Int(i64::MIN));
        assert_eq!(parse_number("-9223372036854775808"), min);
        assert_eq!(parse_number("-0x8000000000000000"), min);
        assert_eq!(parse_number("-01000000000000000000000"), min);
        assert_eq!(parse_number("9223372036854775808"), None);
        assert_eq!(parse_number("0x8000000000000000"), None);
        assert_eq!(parse_number("0x+5"), None);
        assert_eq!(parse_number("0X-5"), None);
    }

    #[test]
    fn trailing_junk_is_error() {
        assert!(expr_string(&Interp::new(), "1 2").is_err());
    }

    #[test]
    fn comparison_chains_parse_left_assoc() {
        // (1<2) is 1, then 1<3 -> 1
        assert_eq!(ev("1<2<3"), "1");
    }
}
