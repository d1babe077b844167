//! The Tcl interpreter: command registry, call frames, and evaluation.
//!
//! The interpreter is a cheaply clonable handle (`Rc` inside) whose methods
//! take `&self`; interior mutability is scoped to individual operations and
//! never held across a nested evaluation. This is what lets command
//! procedures re-enter the interpreter — the pattern the paper relies on
//! everywhere: `if` evaluating its body, widgets evaluating their `-command`
//! scripts, `send` evaluating scripts that arrive from other applications.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::compile::{CompiledCmd, CompiledWord, Held, OpKind, Program};
use crate::error::{Code, Exception, TclResult};
use crate::expr::ExprProgram;
use crate::parser::{parse_command, Part, Word};

/// A native command procedure.
///
/// `argv[0]` is the command name, further elements are the fully
/// substituted arguments — the same calling convention as the C `Tcl_CmdProc`.
pub type CmdFn = Rc<dyn Fn(&Interp, &[String]) -> TclResult>;

/// A registered command: either native Rust or a Tcl `proc`.
#[derive(Clone)]
pub enum Command {
    /// A command implemented in Rust.
    Native(CmdFn),
    /// A command defined by the `proc` built-in.
    Proc(Rc<ProcDef>),
}

/// The definition of a Tcl procedure.
pub struct ProcDef {
    /// Formal parameters: `(name, default)`. The final parameter may be the
    /// special name `args`, which collects remaining arguments as a list.
    /// Each call binds its arguments under these same shared names.
    pub params: Vec<(Rc<str>, Option<String>)>,
    /// The body script.
    pub body: String,
    /// The body's program, found on the first call under the compiler.
    pub prog: Held<Program>,
}

/// One variable slot in a call frame.
#[derive(Clone, Debug)]
pub enum Var {
    /// An ordinary string-valued variable.
    Scalar(String),
    /// An associative array of elements.
    Array(HashMap<String, String>),
    /// A link to a variable in another frame, created by `upvar`/`global`.
    /// The name is shared, so following a link copies nothing.
    Link { level: usize, name: Rc<str> },
}

/// Which operations a variable trace fires on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceOps {
    /// Fire on reads.
    pub read: bool,
    /// Fire on writes.
    pub write: bool,
    /// Fire on unset.
    pub unset: bool,
}

impl TraceOps {
    /// Parses an ops string of `r`, `w`, and `u` characters.
    pub fn parse(spec: &str) -> Result<TraceOps, Exception> {
        let mut ops = TraceOps::default();
        for c in spec.chars() {
            match c {
                'r' => ops.read = true,
                'w' => ops.write = true,
                'u' => ops.unset = true,
                other => {
                    return Err(Exception::error(format!(
                        "bad operation \"{other}\": should be one or more of rwu"
                    )))
                }
            }
        }
        if ops == TraceOps::default() {
            return Err(Exception::error(
                "bad operations \"\": should be one or more of rwu",
            ));
        }
        Ok(ops)
    }

    /// Renders back into the `rwu` form.
    pub fn text(&self) -> String {
        let mut s = String::new();
        if self.read {
            s.push('r');
        }
        if self.write {
            s.push('w');
        }
        if self.unset {
            s.push('u');
        }
        s
    }
}

/// A native trace callback: `(interp, name1, name2, op)`.
pub type NativeTraceFn = Rc<dyn Fn(&Interp, &str, &str, &str)>;

/// What a trace runs when it fires.
pub enum TraceAction {
    /// A Tcl command, called as `command name1 name2 op`.
    Script(String),
    /// A native callback — used by Tk widgets to track their
    /// `-variable` options.
    Native(NativeTraceFn),
}

/// One registered variable trace.
pub struct TraceDef {
    /// Unique id (for removal of native traces).
    pub id: u64,
    /// The operations this trace fires on.
    pub ops: TraceOps,
    /// The action to run.
    pub action: TraceAction,
    /// Re-entrancy guard: a trace does not fire while it is running.
    firing: std::cell::Cell<bool>,
}

/// A call frame holding local variables. Frame 0 is the global frame.
#[derive(Default)]
pub struct Frame {
    /// Variables by name. A key is allocated only when a variable is
    /// created, and a proc's parameters share the names in its `ProcDef`.
    vars: HashMap<Rc<str>, Var, TextHash>,
    /// Traces by variable name. An access consults this map only when it
    /// is not empty, so a frame without traces pays nothing for them.
    traces: HashMap<String, Vec<Rc<TraceDef>>>,
    /// The words of the proc call that created this frame, for `info
    /// level`: shared with the caller, not copied.
    pub invocation: Option<Rc<[String]>>,
}

/// Where a variable access landed after following `upvar`/`global` links.
struct Place {
    /// The frame the variable lives in.
    level: usize,
    /// The last link's target name, if a link was followed.
    target: Option<Rc<str>>,
    /// Does that frame hold traces on the variable?
    traced: bool,
}

impl Place {
    /// The variable's name in its own frame: the last link's target, or
    /// the name asked for without its `::` prefix.
    fn name<'a>(&'a self, asked: &'a str) -> &'a str {
        self.target
            .as_deref()
            .unwrap_or_else(|| asked.strip_prefix("::").unwrap_or(asked))
    }
}

/// The entry a variable lookup lands on.
enum Slot<'a> {
    /// The variable (never a link).
    Found(&'a mut Var),
    /// No such variable: the frame's map, for creating it.
    Vacant(&'a mut HashMap<Rc<str>, Var, TextHash>),
}

/// What an access does with the value it finds. An access that reads
/// fires `r` traces first, and a missing or misshapen variable is then a
/// read error; one that writes fires `w` traces after, and reports an
/// array where it wants a scalar as a set error, as Tcl does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Read only (`$x`, `set x`): a missing variable is an error.
    Read,
    /// Write only (`set x v`).
    Write,
    /// Read, then write (`incr`): a missing variable or element starts
    /// at `0`, as in Tcl 8.5+, after its `r` traces fire; the write
    /// creates it only if `op` succeeds.
    Update,
    /// Read what exists, then write (`append`, `lappend`): a missing
    /// variable starts empty.
    Extend,
}

/// Why a variable access failed.
enum Fault {
    NoVariable,
    NoElement,
    IsArray,
    NotArray,
}

impl Fault {
    /// The error for `verb` ("read", "set" or "unset") on `name(index)`.
    fn error(self, verb: &str, name: &str, index: Option<&str>) -> Exception {
        let what = match (&self, index) {
            (Fault::NoElement | Fault::NotArray, Some(idx)) => format!("{name}({idx})"),
            _ => name.to_string(),
        };
        let why = match self {
            Fault::NoVariable => "no such variable",
            Fault::NoElement => "no such element in array",
            Fault::IsArray => "variable is array",
            Fault::NotArray => "variable isn't array",
        };
        Exception::error(format!("can't {verb} \"{what}\": {why}"))
    }
}

impl Var {
    /// The value `index` (or the whole variable) names, or why it has none.
    fn value(&mut self, index: Option<&str>) -> Result<&mut String, Fault> {
        match (self, index) {
            (Var::Scalar(s), None) => Ok(s),
            (Var::Array(map), Some(idx)) => map.get_mut(idx).ok_or(Fault::NoElement),
            (Var::Array(_), None) => Err(Fault::IsArray),
            (Var::Scalar(_), Some(_)) => Err(Fault::NotArray),
            (Var::Link { .. }, _) => unreachable!("lookups follow links"),
        }
    }

    /// Does `index` (or the whole variable) exist, as `info exists` asks?
    fn holds(&self, index: Option<&str>) -> bool {
        match (self, index) {
            (Var::Array(map), Some(idx)) => map.contains_key(idx),
            (Var::Scalar(_), Some(_)) => false,
            _ => true,
        }
    }
}

/// A command's words on their way to dispatch. A proc call keeps them in
/// its frame for `info level`: shared words as they are and owned ones
/// moved in; only borrowed ones are copied.
enum Words<'a> {
    /// Words the caller keeps, as `Interp::invoke` receives them.
    Borrowed(&'a [String]),
    /// A compiled all-literal command's argv.
    Shared(&'a Rc<[String]>),
    /// Words substituted for this call.
    Owned(Vec<String>),
}

impl Words<'_> {
    fn as_slice(&self) -> &[String] {
        match self {
            Words::Borrowed(words) => words,
            Words::Shared(words) => words,
            Words::Owned(words) => words,
        }
    }

    fn into_shared(self) -> Rc<[String]> {
        match self {
            Words::Borrowed(words) => Rc::from(words),
            Words::Shared(words) => Rc::clone(words),
            Words::Owned(words) => Rc::from(words),
        }
    }
}

/// Where `print`/`puts` output goes.
enum Output {
    /// Write to the process standard output.
    Stdout,
    /// Capture into an in-memory buffer readable by tests.
    Capture(Rc<RefCell<String>>),
}

/// Runs external commands on behalf of `exec`. Applications substitute a
/// fake executor to keep tests hermetic.
pub trait Executor {
    /// Runs `argv` and returns its standard output, or an error message.
    fn run(&self, interp: &Interp, argv: &[String]) -> Result<String, String>;
}

/// The default executor: `std::process::Command`.
struct SystemExecutor;

impl Executor for SystemExecutor {
    fn run(&self, _interp: &Interp, argv: &[String]) -> Result<String, String> {
        if argv.is_empty() {
            return Err("exec: no command given".into());
        }
        // A trailing `&` requests background execution, as in Figure 9's
        // `exec sh -c "browse $file &"`.
        let (argv, background) = match argv.last().map(String::as_str) {
            Some("&") => (&argv[..argv.len() - 1], true),
            _ => (argv, false),
        };
        if argv.is_empty() {
            return Err("exec: no command given".into());
        }
        let mut cmd = std::process::Command::new(&argv[0]);
        cmd.args(&argv[1..]);
        if background {
            match cmd.spawn() {
                Ok(_) => Ok(String::new()),
                Err(e) => Err(format!("couldn't execute \"{}\": {e}", argv[0])),
            }
        } else {
            match cmd.output() {
                Ok(out) => {
                    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
                    // Tcl's exec trims one trailing newline.
                    if text.ends_with('\n') {
                        text.pop();
                    }
                    if out.status.success() {
                        Ok(text)
                    } else {
                        let err = String::from_utf8_lossy(&out.stderr).into_owned();
                        Err(if err.is_empty() {
                            format!("command \"{}\" returned non-zero status", argv[0])
                        } else {
                            err.trim_end().to_string()
                        })
                    }
                }
                Err(e) => Err(format!("couldn't execute \"{}\": {e}", argv[0])),
            }
        }
    }
}

/// Deterministic counters for the compile pipeline. All are monotonic
/// between resets and carry no wall-clock noise, so CI budgets can pin
/// their exact values. [`CompileStats::iter`] is the one place their
/// `obs` names are written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Scripts lowered to programs.
    pub compiles: u64,
    /// Program-cache lookups that found a current entry.
    pub cache_hits: u64,
    /// Program-cache lookups that had to (re)compile.
    pub cache_misses: u64,
    /// Entries dropped because the cache hit capacity.
    pub evictions: u64,
    /// Commands parsed (`parse_command` yields), in either eval mode.
    pub parses: u64,
    /// Commands executed from a cached program past its first run:
    /// each one is a parse the direct interpreter would have repeated.
    pub parses_avoided: u64,
    /// Expressions lowered to cached programs.
    pub expr_compiles: u64,
    /// Expression-cache lookups that found an entry.
    pub expr_cache_hits: u64,
}

impl CompileStats {
    /// `(obs name, value)` for every counter, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("tcl.compiles", self.compiles),
            ("tcl.compile_cache_hits", self.cache_hits),
            ("tcl.compile_cache_misses", self.cache_misses),
            ("tcl.compile_evictions", self.evictions),
            ("tcl.parses", self.parses),
            ("tcl.parses_avoided", self.parses_avoided),
            ("tcl.expr_compiles", self.expr_compiles),
            ("tcl.expr_cache_hits", self.expr_cache_hits),
        ]
        .into_iter()
    }
}

/// One program-cache entry. `gen` is a recency stamp for eviction. `prog`
/// is `None` for scripts that failed to parse — a negative marker so
/// repeated evaluations of a broken script don't re-attempt compilation.
struct CacheEntry {
    prog: Option<Rc<Program>>,
    gen: u64,
}

/// Capacity of the program cache; above it the least recently used half
/// is evicted in one sweep.
const PROGRAM_CACHE_CAP: usize = 512;
/// Capacity of the compiled-expression cache; cleared wholesale when full.
const EXPR_CACHE_CAP: usize = 512;

/// The hasher of the two caches, which hash a script or expression each
/// time one is found by text, and of every frame's variable map, which
/// hashes a name on every access: FxHash over 8-byte words, rotated at
/// the end so the bucket bits come from the best-mixed product bits. It
/// is not DoS-resistant like the default, and need not be. Both caches
/// are capped, so colliding keys cost at most a bounded probe. A variable
/// map is not capped, but only a script running in the interpreter (its
/// own, or one another application `send`s it) names its variables, and
/// such a script can already spend unbounded time there (`while 1 {}`)
/// without crafting colliding names.
#[derive(Default)]
struct TextHasher(u64);

impl TextHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for TextHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type TextHash = std::hash::BuildHasherDefault<TextHasher>;

/// The compile pipeline's shared state.
struct CompileState {
    /// Script string → compiled program.
    programs: RefCell<HashMap<String, CacheEntry, TextHash>>,
    /// Recency stamp source for eviction ordering.
    gen: Cell<u64>,
    /// The `RTK_NO_COMPILE` escape hatch, also settable programmatically.
    enabled: Cell<bool>,
    stats: RefCell<CompileStats>,
    /// The builtin `set` captured at construction: [`OpKind::Set`] runs
    /// directly only while the `set` slot still holds it.
    set_builtin: OnceCell<CmdFn>,
    /// Expression source → compiled expression (`None`: parse failed).
    exprs: RefCell<HashMap<String, Option<Rc<ExprProgram>>, TextHash>>,
}

impl CompileState {
    fn new() -> CompileState {
        // `RTK_NO_COMPILE` set and non-zero disables the compiler.
        let enabled = std::env::var("RTK_NO_COMPILE").map_or(true, |v| v.is_empty() || v == "0");
        CompileState {
            programs: RefCell::default(),
            gen: Cell::new(0),
            enabled: Cell::new(enabled),
            stats: RefCell::default(),
            set_builtin: OnceCell::new(),
            exprs: RefCell::default(),
        }
    }
}

/// The command table. Every command name, and every name compiled as
/// the head of a command, has a slot, which is empty while the name is
/// not a command. A compiled command's `head_atom` is its name's slot,
/// so a cached program dispatches to whatever the name means now. A slot
/// no compiled program holds is given back when its command is deleted:
/// its name leaves the map and the next new name reuses it.
#[derive(Default)]
struct Commands {
    /// Name → index into `slots`, and whether a compiled program resolved
    /// a head word to it: such a name keeps its slot for good.
    ids: HashMap<String, (u32, bool)>,
    slots: Vec<Option<Command>>,
    /// Slots given back, for the next new name.
    free: Vec<u32>,
}

impl Commands {
    /// The index of `name`'s slot, made (empty) on first use; `compiled`
    /// marks it held by a compiled program.
    fn id(&mut self, name: &str, compiled: bool) -> u32 {
        if let Some((id, held)) = self.ids.get_mut(name) {
            *held |= compiled;
            return *id;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() as u32 - 1
        });
        self.ids.insert(name.to_string(), (id, compiled));
        id
    }

    /// The slot of `name`, made (empty) on first use.
    fn slot(&mut self, name: &str) -> &mut Option<Command> {
        let id = self.id(name, false);
        &mut self.slots[id as usize]
    }

    /// Empties `name`'s slot, returning the command it held. A slot no
    /// compiled program holds is given back.
    fn take(&mut self, name: &str) -> Option<Command> {
        let (id, compiled) = *self.ids.get(name)?;
        if !compiled {
            self.ids.remove(name);
            self.free.push(id);
        }
        self.slots[id as usize].take()
    }

    /// The command `name` holds now.
    fn get(&self, name: &str) -> Option<&Command> {
        self.slots[self.ids.get(name)?.0 as usize].as_ref()
    }

    /// The names holding a command that `keep` accepts, sorted.
    fn names(&self, keep: impl Fn(&Command) -> bool) -> Vec<String> {
        let mut names: Vec<String> = self
            .ids
            .iter()
            .filter(|(_, &(id, _))| self.slots[id as usize].as_ref().is_some_and(&keep))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }
}

struct InterpInner {
    commands: RefCell<Commands>,
    frames: RefCell<Vec<Frame>>,
    output: RefCell<Output>,
    executor: RefCell<Rc<dyn Executor>>,
    nesting: Cell<usize>,
    next_trace_id: std::cell::Cell<u64>,
    /// Set by the `exit` command so embedding shells can terminate cleanly.
    exit_requested: RefCell<Option<i32>>,
    compile: CompileState,
}

/// A Tcl interpreter. Clones share the same state.
#[derive(Clone)]
pub struct Interp {
    inner: Rc<InterpInner>,
}

/// The maximum depth of nested script evaluations before the interpreter
/// reports an infinite-recursion error.
const MAX_NESTING: usize = 150;

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// Creates an interpreter with all built-in commands registered.
    pub fn new() -> Interp {
        let interp = Interp::bare();
        crate::commands::register_all(&interp);
        if let Some(Command::Native(f)) = interp.command("set") {
            let _ = interp.inner.compile.set_builtin.set(f);
        }
        interp
    }

    /// Creates an interpreter with no commands at all (for parser-level
    /// testing or highly restricted embeddings).
    pub fn bare() -> Interp {
        Interp {
            inner: Rc::new(InterpInner {
                commands: RefCell::default(),
                frames: RefCell::new(vec![Frame::default()]),
                output: RefCell::new(Output::Stdout),
                executor: RefCell::new(Rc::new(SystemExecutor)),
                nesting: Cell::new(0),
                next_trace_id: std::cell::Cell::new(0),
                exit_requested: RefCell::new(None),
                compile: CompileState::new(),
            }),
        }
    }

    // ----- command registry -------------------------------------------------

    /// Registers a native command, replacing any existing command of the
    /// same name (exactly like `Tcl_CreateCommand`).
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(&Interp, &[String]) -> TclResult + 'static,
    {
        *self.inner.commands.borrow_mut().slot(name) = Some(Command::Native(Rc::new(f)));
    }

    /// Registers a Tcl procedure.
    pub fn register_proc(&self, name: &str, def: ProcDef) {
        *self.inner.commands.borrow_mut().slot(name) = Some(Command::Proc(Rc::new(def)));
    }

    /// Removes a command. Returns true if it existed.
    pub fn unregister(&self, name: &str) -> bool {
        self.inner.commands.borrow_mut().take(name).is_some()
    }

    /// Renames a command; an empty new name deletes it.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), Exception> {
        let mut table = self.inner.commands.borrow_mut();
        let Some(cmd) = table.take(from) else {
            return Err(Exception::error(format!(
                "can't rename \"{from}\": command doesn't exist"
            )));
        };
        if !to.is_empty() {
            *table.slot(to) = Some(cmd);
        }
        Ok(())
    }

    /// Looks up a command by name.
    pub fn command(&self, name: &str) -> Option<Command> {
        self.inner.commands.borrow().get(name).cloned()
    }

    /// Returns the names of all registered commands, sorted.
    pub fn command_names(&self) -> Vec<String> {
        self.inner.commands.borrow().names(|_| true)
    }

    /// Returns the names of commands defined as Tcl procs, sorted.
    pub fn proc_names(&self) -> Vec<String> {
        self.inner
            .commands
            .borrow()
            .names(|c| matches!(c, Command::Proc(_)))
    }

    /// Returns the definition of a proc, if `name` is one.
    pub fn proc_def(&self, name: &str) -> Option<Rc<ProcDef>> {
        match self.inner.commands.borrow().get(name) {
            Some(Command::Proc(p)) => Some(p.clone()),
            _ => None,
        }
    }

    // ----- output and exec hooks --------------------------------------------

    /// Redirects `print`/`puts` into a capture buffer and returns it.
    pub fn capture_output(&self) -> Rc<RefCell<String>> {
        let buf = Rc::new(RefCell::new(String::new()));
        *self.inner.output.borrow_mut() = Output::Capture(buf.clone());
        buf
    }

    /// Writes text to the interpreter's output sink.
    pub fn write_output(&self, text: &str) {
        match &*self.inner.output.borrow() {
            Output::Stdout => {
                use std::io::Write;
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                let _ = lock.write_all(text.as_bytes());
                let _ = lock.flush();
            }
            Output::Capture(buf) => buf.borrow_mut().push_str(text),
        }
    }

    /// Replaces the `exec` executor (tests install fakes here).
    pub fn set_executor(&self, exec: Rc<dyn Executor>) {
        *self.inner.executor.borrow_mut() = exec;
    }

    /// Runs `argv` through the current executor.
    pub fn run_exec(&self, argv: &[String]) -> Result<String, String> {
        let exec = self.inner.executor.borrow().clone();
        exec.run(self, argv)
    }

    /// Records a request to exit with the given status (set by `exit`).
    pub fn request_exit(&self, status: i32) {
        *self.inner.exit_requested.borrow_mut() = Some(status);
    }

    /// The status passed to `exit`, if it has been called.
    pub fn exit_requested(&self) -> Option<i32> {
        *self.inner.exit_requested.borrow()
    }

    // ----- variables ----------------------------------------------------------

    fn frame_count(&self) -> usize {
        self.inner.frames.borrow().len()
    }

    /// The current frame's level (0 = global).
    pub fn level(&self) -> usize {
        self.frame_count() - 1
    }

    /// The one variable lookup behind every access. It follows
    /// `upvar`/`global` links from `(level, name)` inside one borrow of the
    /// frames, probing each frame's map once, and runs `f` on the entry it
    /// lands on. Names are borrowed, or shared from the link, never copied.
    /// `f` runs inside the borrow, so it must not evaluate Tcl: traces fire
    /// around it, from the returned [`Place`]. A name that starts with
    /// `::` names the global variable of the rest, from any level.
    fn with_var<R>(
        &self,
        mut level: usize,
        mut name: &str,
        f: impl FnOnce(&Place, Slot<'_>) -> R,
    ) -> (Place, R) {
        if let Some(global) = name.strip_prefix("::") {
            (level, name) = (0, global);
        }
        let mut frames = self.inner.frames.borrow_mut();
        let mut target: Option<Rc<str>> = None;
        loop {
            let Frame { vars, traces, .. } = &mut frames[level];
            let key = target.as_deref().unwrap_or(name);
            let slot = match vars.get_mut(key) {
                Some(Var::Link { level: l, name: n }) => {
                    level = *l;
                    target = Some(n.clone());
                    continue;
                }
                Some(var) => Slot::Found(var),
                None => Slot::Vacant(vars),
            };
            let traced = !traces.is_empty() && traces.contains_key(key);
            let place = Place {
                level,
                target,
                traced,
            };
            let r = f(&place, slot);
            return (place, r);
        }
    }

    /// Reads a variable (scalar or array element) in the current frame.
    pub fn get_var(&self, name: &str, index: Option<&str>) -> Result<String, Exception> {
        self.get_var_at(self.level(), name, index)
    }

    /// Reads a variable in an explicit frame level.
    pub fn get_var_at(
        &self,
        level: usize,
        name: &str,
        index: Option<&str>,
    ) -> Result<String, Exception> {
        self.access(level, name, index, Access::Read, |v| Ok(v.clone()))
    }

    /// Writes a variable in the current frame. Returns the value written.
    pub fn set_var(
        &self,
        name: &str,
        index: Option<&str>,
        value: &str,
    ) -> Result<String, Exception> {
        self.set_var_at(self.level(), name, index, value)
    }

    /// Writes a variable in an explicit frame level.
    pub fn set_var_at(
        &self,
        level: usize,
        name: &str,
        index: Option<&str>,
        value: &str,
    ) -> Result<String, Exception> {
        self.assign(level, name, index, value)?;
        Ok(value.to_string())
    }

    /// Writes a variable over its old value's buffer.
    fn assign(
        &self,
        level: usize,
        name: &str,
        index: Option<&str>,
        value: &str,
    ) -> Result<(), Exception> {
        self.access(level, name, index, Access::Write, |s| {
            s.clear();
            s.push_str(value);
            Ok(())
        })
    }

    /// The read-modify-write behind `incr` (`how` is [`Access::Update`]),
    /// `append` and `lappend` ([`Access::Extend`]). `edit` changes the
    /// value in place; `r` traces fire before it and `w` traces after, as
    /// a read followed by a write would fire them. Returns a copy of the
    /// new value.
    pub(crate) fn update_var(
        &self,
        name: &str,
        index: Option<&str>,
        how: Access,
        edit: impl FnOnce(&mut String) -> Result<(), Exception>,
    ) -> Result<String, Exception> {
        self.access(self.level(), name, index, how, |s| {
            edit(s)?;
            Ok(s.clone())
        })
    }

    /// The one access behind every read and write. `op` gets the value in
    /// place, or a new one (empty, or `0` for `incr`) when a write creates
    /// the variable or element: the only time a key is allocated. `r` traces fire before
    /// `op` when `how` reads, and `w` traces after it when `how` writes.
    pub(crate) fn access<R>(
        &self,
        level: usize,
        name: &str,
        index: Option<&str>,
        how: Access,
        op: impl FnOnce(&mut String) -> Result<R, Exception>,
    ) -> Result<R, Exception> {
        // `incr` on a scalar as an array element is a read error, as in Tcl.
        let read_verb = matches!(how, Access::Read | Access::Update);
        let fresh = || String::from(if how == Access::Update { "0" } else { "" });
        let mut op = Some(op);
        let mut fired = false;
        loop {
            let (place, got) = self.with_var(level, name, |place, slot| {
                let reads = match (&slot, how) {
                    (_, Access::Write) => false,
                    (Slot::Found(var), Access::Extend) => var.holds(index),
                    (Slot::Vacant(_), Access::Extend) => false,
                    _ => true,
                };
                if reads && place.traced && !fired {
                    return None;
                }
                let op = op.take().expect("an access runs its op once");
                let fail = |fault: Fault, verb| Err(fault.error(verb, name, index));
                Some(match slot {
                    Slot::Found(var) => match var.value(index) {
                        Ok(v) => op(v),
                        Err(Fault::NoElement) if how != Access::Read => {
                            let (Var::Array(map), Some(idx)) = (var, index) else {
                                unreachable!("only an array lacks an element")
                            };
                            let mut v = fresh();
                            op(&mut v).map(|r| {
                                map.insert(idx.to_string(), v);
                                r
                            })
                        }
                        Err(Fault::IsArray) if how != Access::Read => fail(Fault::IsArray, "set"),
                        Err(Fault::NotArray) if !read_verb => fail(Fault::NotArray, "set"),
                        Err(fault) => fail(fault, "read"),
                    },
                    Slot::Vacant(_) if how == Access::Read => fail(Fault::NoVariable, "read"),
                    Slot::Vacant(vars) => {
                        let mut v = fresh();
                        op(&mut v).map(|r| {
                            let var = match index {
                                None => Var::Scalar(v),
                                Some(idx) => Var::Array(HashMap::from([(idx.to_string(), v)])),
                            };
                            let key = place.target.clone();
                            vars.insert(key.unwrap_or_else(|| Rc::from(place.name(name))), var);
                            r
                        })
                    }
                })
            });
            let Some(result) = got else {
                self.fire_traces(place.level, place.name(name), name, index, "r")?;
                fired = true;
                continue;
            };
            let r = result?;
            if place.traced && how != Access::Read {
                self.fire_traces(place.level, place.name(name), name, index, "w")?;
            }
            return Ok(r);
        }
    }

    /// Removes a variable (or array element) from the current frame. Unset
    /// traces fire after the removal; a whole-variable unset then discards
    /// its traces, as in Tcl.
    pub fn unset_var(&self, name: &str, index: Option<&str>) -> Result<(), Exception> {
        let (place, found) = self.with_var(self.level(), name, |_, slot| match (slot, index) {
            (Slot::Vacant(_), _) => Err(Fault::NoVariable),
            (Slot::Found(_), None) => Ok(()),
            (Slot::Found(var), Some(idx)) => match var {
                Var::Array(map) => map.remove(idx).map(drop).ok_or(Fault::NoElement),
                _ => Err(Fault::NotArray),
            },
        });
        found.map_err(|fault| fault.error("unset", name, index))?;
        let (level, key) = (place.level, place.name(name));
        if index.is_none() {
            self.inner.frames.borrow_mut()[level].vars.remove(key);
        }
        let _ = self.fire_traces(level, key, name, index, "u");
        if index.is_none() {
            self.inner.frames.borrow_mut()[level].traces.remove(key);
        }
        Ok(())
    }

    /// Does the variable exist (readably) in the current frame?
    pub fn var_exists(&self, name: &str, index: Option<&str>) -> bool {
        let (_, held) = self.with_var(
            self.level(),
            name,
            |_, slot| matches!(slot, Slot::Found(var) if var.holds(index)),
        );
        held
    }

    /// Names of the variables of frame `level` (0 = global), sorted.
    pub fn var_names(&self, level: usize) -> Vec<String> {
        let frames = self.inner.frames.borrow();
        let mut names: Vec<String> = frames[level].vars.keys().map(|k| k.to_string()).collect();
        names.sort();
        names
    }

    /// Creates a link (`upvar`) in the current frame to `(level, other)`.
    /// As in tclsh, the local name may not look like an array element,
    /// be the other variable itself, or name a variable that is no link.
    pub fn link_var(&self, local: &str, level: usize, other: &str) -> Result<(), Exception> {
        if level >= self.frame_count() {
            return Err(Exception::error("bad level for upvar"));
        }
        if local.contains('(') && local.ends_with(')') {
            return Err(Exception::error(format!("bad variable name \"{local}\": can't create a scalar variable that looks like an array element")));
        }
        let (place, ()) = self.with_var(level, other, |_, _| ());
        let cur = self.level();
        if place.level == cur && place.name(other) == local {
            return Err(Exception::error("can't upvar from variable to itself"));
        }
        let mut frames = self.inner.frames.borrow_mut();
        let vars = &mut frames[cur].vars;
        if let Some(Var::Scalar(_) | Var::Array(_)) = vars.get(local) {
            return Err(Exception::error(format!(
                "variable \"{local}\" already exists"
            )));
        }
        let name = place.target.clone();
        let name = name.unwrap_or_else(|| Rc::from(place.name(other)));
        // `global x` links a name to itself: one shared copy serves both.
        let local = if *name == *local {
            name.clone()
        } else {
            Rc::from(local)
        };
        let level = place.level;
        vars.insert(local, Var::Link { level, name });
        Ok(())
    }

    /// Returns the sorted element names of an array variable, or `None`
    /// when `name` is not an array (missing, or a scalar).
    pub fn array_names(&self, name: &str) -> Option<Vec<String>> {
        let (_, keys) = self.with_var(self.level(), name, |_, slot| match slot {
            Slot::Found(Var::Array(map)) => Some(map.keys().cloned().collect::<Vec<_>>()),
            _ => None,
        });
        let mut keys = keys?;
        keys.sort();
        Some(keys)
    }

    // ----- variable traces ------------------------------------------------

    /// Where the variable a trace command names lives: its frame, and its
    /// base name there (an element's trace is its array's).
    fn trace_place<'a>(&self, name: &'a str) -> (Place, &'a str) {
        let (base, _) = split_var_name(name);
        (self.with_var(self.level(), base, |_, _| ()).0, base)
    }

    /// Attaches a trace to a variable in the current frame; returns its id.
    pub fn trace_variable(&self, name: &str, ops: TraceOps, action: TraceAction) -> u64 {
        let (place, base) = self.trace_place(name);
        let id = self.inner.next_trace_id.get() + 1;
        self.inner.next_trace_id.set(id);
        self.inner.frames.borrow_mut()[place.level]
            .traces
            .entry(place.name(base).to_string())
            .or_default()
            .push(Rc::new(TraceDef {
                id,
                ops,
                action,
                firing: std::cell::Cell::new(false),
            }));
        id
    }

    /// Removes the first trace on `name` that `pick` selects, dropping the
    /// variable's trace list once it is empty.
    fn remove_trace(&self, name: &str, pick: impl Fn(&TraceDef) -> bool) -> bool {
        let (place, base) = self.trace_place(name);
        let base = place.name(base);
        let mut frames = self.inner.frames.borrow_mut();
        let traces = &mut frames[place.level].traces;
        let Some(list) = traces.get_mut(base) else {
            return false;
        };
        let Some(i) = list.iter().position(|t| pick(t)) else {
            return false;
        };
        list.remove(i);
        if list.is_empty() {
            traces.remove(base);
        }
        true
    }

    /// Removes the first script trace matching ops and command text.
    pub fn trace_vdelete(&self, name: &str, ops: TraceOps, command: &str) -> bool {
        self.remove_trace(name, |t| {
            t.ops == ops && matches!(&t.action, TraceAction::Script(c) if c == command)
        })
    }

    /// Removes a trace by id (native traces use this).
    pub fn trace_remove(&self, name: &str, id: u64) -> bool {
        self.remove_trace(name, |t| t.id == id)
    }

    /// Lists the traces on a variable as `(ops, command)` pairs; native
    /// traces show a placeholder command.
    pub fn trace_info(&self, name: &str) -> Vec<(String, String)> {
        let (place, base) = self.trace_place(name);
        let frames = self.inner.frames.borrow();
        frames[place.level]
            .traces
            .get(place.name(base))
            .map(|list| {
                list.iter()
                    .map(|t| {
                        let cmd = match &t.action {
                            TraceAction::Script(c) => c.clone(),
                            TraceAction::Native(_) => "<native>".to_string(),
                        };
                        (t.ops.text(), cmd)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Fires the traces on variable `key` of frame `level` for operation
    /// `op` (`r`/`w`/`u`). Each callback gets `name`, the name the access
    /// was written with (through a link or a `::` prefix, not the
    /// variable's own), as Tcl passes it. Script-trace errors propagate
    /// (except for unset traces, as in Tcl).
    fn fire_traces(
        &self,
        level: usize,
        key: &str,
        name: &str,
        index: Option<&str>,
        op: &str,
    ) -> Result<(), Exception> {
        let list: Vec<Rc<TraceDef>> = {
            let frames = self.inner.frames.borrow();
            match frames[level].traces.get(key) {
                Some(l) if !l.is_empty() => l.clone(),
                _ => return Ok(()),
            }
        };
        for t in list {
            let wanted = match op {
                "r" => t.ops.read,
                "w" => t.ops.write,
                "u" => t.ops.unset,
                _ => false,
            };
            if !wanted || t.firing.get() {
                continue;
            }
            t.firing.set(true);
            let result = match &t.action {
                TraceAction::Script(cmd) => {
                    let call = format!(
                        "{cmd} {}",
                        crate::list::format_list(&[name, index.unwrap_or(""), op])
                    );
                    self.eval(&call).map(|_| ())
                }
                TraceAction::Native(f) => {
                    f(self, name, index.unwrap_or(""), op);
                    Ok(())
                }
            };
            t.firing.set(false);
            if let Err(e) = result {
                if op != "u" && e.code == Code::Error {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    // ----- evaluation ---------------------------------------------------------

    /// Evaluates a script: parses commands one at a time, substitutes their
    /// words, and invokes them. Returns the result of the last command.
    ///
    /// With compilation enabled (the default), the script is lowered once
    /// to a cached [`Program`] and replayed from the cache on subsequent
    /// evaluations; `RTK_NO_COMPILE=1` (or [`Interp::set_compile`]) keeps
    /// every evaluation on the direct parse-and-substitute path. This is
    /// `eval_held` with a holder of its own.
    pub fn eval(&self, script: &str) -> TclResult {
        self.eval_held(script, &Held::default())
    }

    /// Evaluates `script` through the program `held` keeps for it: found
    /// by text on the first run under the compiler and run as found on
    /// every later one, so a holder that runs its script many times (a
    /// loop or proc body, a `[cmd]` word) searches the cache once. With
    /// the compiler off the held program is not used. An empty script
    /// makes no lookup.
    pub(crate) fn eval_held(&self, script: &str, held: &Held<Program>) -> TclResult {
        let depth = self.inner.nesting.get();
        if depth >= MAX_NESTING {
            return Err(Exception::error(
                "too many nested calls to Tcl_Eval (infinite loop?)",
            ));
        }
        self.inner.nesting.set(depth + 1);
        let prog = if self.compile_enabled() && !script.is_empty() {
            held.get_or_init(|| self.lookup_or_compile(script))
                .as_deref()
        } else {
            None
        };
        let result = match prog {
            Some(prog) => self.run_program(prog),
            None => self.eval_inner(script),
        };
        self.inner.nesting.set(depth);
        result
    }

    fn eval_inner(&self, script: &str) -> TclResult {
        let mut pos = 0usize;
        let mut result = String::new();
        loop {
            let start = pos;
            let words = match parse_command(script, &mut pos) {
                Ok(Some(w)) => w,
                Ok(None) => return Ok(result),
                Err(e) => return Err(e),
            };
            self.note_parse();
            let source = script[start..pos].trim();
            let mut argv = Vec::with_capacity(words.len());
            let mut subst_err = None;
            for w in &words {
                match self.subst_word(w) {
                    Ok(v) => argv.push(v),
                    Err(e) => {
                        subst_err = Some(e);
                        break;
                    }
                }
            }
            let outcome = match subst_err {
                Some(e) => Err(e),
                None => self.invoke_words(Words::Owned(argv)),
            };
            match outcome {
                Ok(r) => result = r,
                Err(e) if e.code == Code::Error => {
                    let line = if e.trace.is_empty() {
                        format!("while executing\n\"{}\"", truncate(source, 150))
                    } else {
                        format!("invoked from within\n\"{}\"", truncate(source, 150))
                    };
                    let e = e.add_trace(line);
                    self.record_error_info(&e);
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ----- the compile pipeline ---------------------------------------------

    /// Is the compile-once/execute-many pipeline active?
    pub fn compile_enabled(&self) -> bool {
        self.inner.compile.enabled.get()
    }

    /// Enables or disables compilation programmatically (the in-process
    /// equivalent of `RTK_NO_COMPILE=1`). Disabling also drops the caches
    /// so a later re-enable starts cold and deterministic; programs held
    /// by procs and compiled nodes stay with their holders, unused while
    /// the compiler is off.
    pub fn set_compile(&self, enabled: bool) {
        self.inner.compile.enabled.set(enabled);
        if !enabled {
            self.inner.compile.programs.borrow_mut().clear();
            self.inner.compile.exprs.borrow_mut().clear();
        }
    }

    /// The compile pipeline's deterministic counters, in `obs` naming.
    pub fn compile_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.compile.stats.borrow().iter().collect()
    }

    /// Zeroes the compile counters without touching the caches: `obs
    /// reset` starts a fresh measurement epoch against warm caches.
    pub fn reset_compile_stats(&self) {
        *self.inner.compile.stats.borrow_mut() = CompileStats::default();
    }

    /// Number of cached programs (for capacity/invalidation tests).
    pub fn program_cache_len(&self) -> usize {
        self.inner.compile.programs.borrow().len()
    }

    /// Counts one `parse_command` yield (called from both eval modes and
    /// from the compiler, so `tcl.parses` measures total parse work).
    pub(crate) fn note_parse(&self) {
        self.inner.compile.stats.borrow_mut().parses += 1;
    }

    /// The command-table slot of `name`, a compiled command's atom:
    /// dispatch through it is an index lookup that still honors later
    /// (re)registrations.
    pub(crate) fn intern_atom(&self, name: &str) -> u32 {
        self.inner.commands.borrow_mut().id(name, true)
    }

    /// Dispatches a substituted command line through its atom, if it has
    /// one. Behaviorally identical to [`Interp::invoke`] — an empty slot
    /// falls back to the full path so the `unknown` hook still fires.
    fn invoke_atom(&self, atom: Option<u32>, words: Words) -> TclResult {
        let cmd = atom.and_then(|a| self.inner.commands.borrow().slots[a as usize].clone());
        match cmd {
            Some(cmd) => self.call(cmd, words),
            None => self.invoke_words(words),
        }
    }

    /// Looks up (or compiles and caches) the program for a script.
    /// `None` means the script does not compile — the caller falls back to
    /// direct evaluation, which reproduces the parse error in place after
    /// executing any leading commands.
    fn lookup_or_compile(&self, script: &str) -> Option<Rc<Program>> {
        let st = &self.inner.compile;
        if let Some(entry) = st.programs.borrow_mut().get_mut(script) {
            st.stats.borrow_mut().cache_hits += 1;
            st.gen.set(st.gen.get() + 1);
            entry.gen = st.gen.get();
            return entry.prog.clone();
        }
        st.stats.borrow_mut().cache_misses += 1;
        let prog = match crate::compile::compile(self, script) {
            Ok(p) => {
                st.stats.borrow_mut().compiles += 1;
                Some(Rc::new(p))
            }
            Err(_) => None,
        };
        let mut cache = st.programs.borrow_mut();
        if cache.len() >= PROGRAM_CACHE_CAP {
            let mut gens: Vec<u64> = cache.values().map(|e| e.gen).collect();
            gens.sort_unstable();
            let cutoff = gens[gens.len() / 2];
            let before = cache.len();
            cache.retain(|_, e| e.gen > cutoff);
            st.stats.borrow_mut().evictions += (before - cache.len()) as u64;
        }
        st.gen.set(st.gen.get() + 1);
        cache.insert(
            script.to_string(),
            CacheEntry {
                prog: prog.clone(),
                gen: st.gen.get(),
            },
        );
        prog
    }

    /// Executes a compiled program with the exact result/traceback
    /// semantics of [`Interp::eval_inner`].
    fn run_program(&self, prog: &Program) -> TclResult {
        prog.runs.set(prog.runs.get() + 1);
        let rerun = prog.runs.get() > 1;
        let st = &self.inner.compile;
        let mut result = String::new();
        for cmd in &prog.cmds {
            if rerun {
                st.stats.borrow_mut().parses_avoided += 1;
            }
            match self.run_cmd(cmd) {
                Ok(r) => result = r,
                Err(e) if e.code == Code::Error => {
                    let line = if e.trace.is_empty() {
                        format!("while executing\n\"{}\"", truncate(&cmd.source, 150))
                    } else {
                        format!("invoked from within\n\"{}\"", truncate(&cmd.source, 150))
                    };
                    let e = e.add_trace(line);
                    self.record_error_info(&e);
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(result)
    }

    /// Substitutes one compiled word.
    fn word_text(&self, word: &CompiledWord) -> Result<String, Exception> {
        match word {
            CompiledWord::Lit(s) => Ok(s.clone()),
            CompiledWord::Cmd(script, held) => self.eval_held(script, held),
            CompiledWord::Dyn(w) => self.subst_word(w),
        }
    }

    /// Executes one compiled command through the registered command
    /// procedure, as [`Interp::eval_inner`] would. A literal argv is
    /// dispatched by reference; [`OpKind::Set`] reads or writes its
    /// variable directly while its atom holds the builtin `set`.
    fn run_cmd(&self, cmd: &CompiledCmd) -> TclResult {
        let words = match &cmd.op {
            OpKind::Literal(argv) => Words::Shared(argv),
            OpKind::Set { name, index, words } if self.set_is_builtin(cmd.head_atom) => {
                let index = index.as_deref();
                return match words.get(2) {
                    None => self.get_var(name, index),
                    // The substituted value is the result: no copy.
                    Some(w) => {
                        let v = self.word_text(w)?;
                        self.assign(self.level(), name, index, &v)?;
                        Ok(v)
                    }
                };
            }
            OpKind::Set { words, .. } | OpKind::Generic(words) => {
                let mut argv = Vec::with_capacity(words.len());
                for w in words {
                    argv.push(self.word_text(w)?);
                }
                Words::Owned(argv)
            }
        };
        self.invoke_atom(cmd.head_atom, words)
    }

    /// Is `atom` bound to the builtin `set` captured by [`Interp::new`]?
    fn set_is_builtin(&self, atom: Option<u32>) -> bool {
        let (Some(atom), Some(builtin)) = (atom, self.inner.compile.set_builtin.get()) else {
            return false;
        };
        match &self.inner.commands.borrow().slots[atom as usize] {
            Some(Command::Native(f)) => Rc::ptr_eq(f, builtin),
            _ => false,
        }
    }

    /// Looks up (or compiles and caches) the program for an expression.
    /// `None` marks a source that does not parse: the caller evaluates it
    /// directly, which reports the error.
    pub(crate) fn find_expr(&self, src: &str) -> Option<Rc<ExprProgram>> {
        let st = &self.inner.compile;
        if let Some(hit) = st.exprs.borrow().get(src) {
            st.stats.borrow_mut().expr_cache_hits += 1;
            return hit.clone();
        }
        let prog = crate::expr::compile_expr(src).ok().map(Rc::new);
        if prog.is_some() {
            st.stats.borrow_mut().expr_compiles += 1;
        }
        let mut cache = st.exprs.borrow_mut();
        if cache.len() >= EXPR_CACHE_CAP {
            cache.clear();
        }
        cache.insert(src.to_string(), prog.clone());
        prog
    }

    /// Stores `errorInfo` in the global frame when an error unwinds.
    fn record_error_info(&self, e: &Exception) {
        let _ = self.set_var_at(0, "errorInfo", None, &e.error_info());
    }

    /// Performs the substitutions of Figures 3-5 on one parsed word.
    pub fn subst_word(&self, word: &Word) -> Result<String, Exception> {
        // Fast path: a single literal part needs no allocation gymnastics.
        if let [Part::Lit(s)] = word.as_slice() {
            return Ok(s.clone());
        }
        let mut out = String::new();
        for part in word {
            match part {
                Part::Lit(s) => out.push_str(s),
                // The value is copied straight into the word.
                Part::Var(name, idx_parts) => {
                    let idx = match idx_parts {
                        Some(parts) => Some(self.subst_word(parts)?),
                        None => None,
                    };
                    self.access(self.level(), name, idx.as_deref(), Access::Read, |v| {
                        out.push_str(v);
                        Ok(())
                    })?;
                }
                Part::Cmd(script) => out.push_str(&self.eval(script)?),
            }
        }
        Ok(out)
    }

    /// Performs `$`, `[]`, and `\` substitution on an arbitrary string (the
    /// `subst` command, also used by `expr` for brace-shielded operands).
    pub fn subst_string(&self, src: &str) -> Result<String, Exception> {
        use crate::parser::{backslash, parse_brackets};
        let bytes = src.as_bytes();
        let mut out = String::new();
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'$' => {
                    let mut parts = Vec::new();
                    i = crate::parser::parse_dollar(src, i, &mut parts)?;
                    out.push_str(&self.subst_word(&parts)?);
                }
                b'[' => {
                    let (script, next) = parse_brackets(src, i)?;
                    out.push_str(&self.eval(&script)?);
                    i = next;
                }
                b'\\' => {
                    let (s, used) = backslash(src, i);
                    out.push_str(&s);
                    i += used;
                }
                _ => {
                    let ch = src[i..].chars().next().unwrap();
                    out.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
        Ok(out)
    }

    /// Invokes a fully substituted command line.
    pub fn invoke(&self, argv: &[String]) -> TclResult {
        self.invoke_words(Words::Borrowed(argv))
    }

    fn invoke_words(&self, words: Words) -> TclResult {
        let argv = words.as_slice();
        if argv.is_empty() || argv.iter().all(|a| a.is_empty()) && argv.len() == 1 {
            return Ok(String::new());
        }
        match self.command(&argv[0]) {
            Some(cmd) => self.call(cmd, words),
            None => {
                // The `unknown` hook: if a proc or command named `unknown`
                // exists, it is called with the original words.
                if self.command("unknown").is_some() && argv[0] != "unknown" {
                    let mut call = vec!["unknown".to_string()];
                    call.extend_from_slice(argv);
                    return self.invoke_words(Words::Owned(call));
                }
                Err(Exception::error(format!(
                    "invalid command name \"{}\"",
                    argv[0]
                )))
            }
        }
    }

    fn call(&self, cmd: Command, words: Words) -> TclResult {
        match cmd {
            Command::Native(f) => f(self, words.as_slice()),
            Command::Proc(def) => self.invoke_proc(&def, words.into_shared()),
        }
    }

    /// Invokes a Tcl proc: binds formals in a fresh frame, evaluates the
    /// body, and maps `return` to a normal completion. The frame keeps
    /// `argv` for `info level`, and each parameter binds under its
    /// `ProcDef`'s shared name.
    fn invoke_proc(&self, def: &ProcDef, argv: Rc<[String]>) -> TclResult {
        let name = &argv[0];
        let mut frame = Frame {
            invocation: Some(argv.clone()),
            ..Frame::default()
        };
        let mut ai = 1usize;
        for (pi, (pname, default)) in def.params.iter().enumerate() {
            if &**pname == "args" && pi == def.params.len() - 1 {
                let rest = &argv[ai.min(argv.len())..];
                frame
                    .vars
                    .insert(pname.clone(), Var::Scalar(crate::list::format_list(rest)));
                ai = argv.len();
                break;
            }
            let value = if ai < argv.len() {
                ai += 1;
                argv[ai - 1].clone()
            } else if let Some(d) = default {
                d.clone()
            } else {
                return Err(Exception::error(format!(
                    "no value given for parameter \"{pname}\" to \"{name}\""
                )));
            };
            frame.vars.insert(pname.clone(), Var::Scalar(value));
        }
        if ai < argv.len() {
            return Err(Exception::error(format!(
                "called \"{name}\" with too many arguments"
            )));
        }
        self.inner.frames.borrow_mut().push(frame);
        let result = self.eval_held(&def.body, &def.prog);
        self.inner.frames.borrow_mut().pop();
        match result {
            Err(e) if e.code == Code::Return => Ok(e.msg),
            Err(e) if e.code == Code::Error => {
                Err(e.add_trace(format!("(procedure \"{name}\" line ?)")))
            }
            Err(e) if e.code == Code::Break => {
                Err(Exception::error("invoked \"break\" outside of a loop"))
            }
            Err(e) if e.code == Code::Continue => {
                Err(Exception::error("invoked \"continue\" outside of a loop"))
            }
            other => other,
        }
    }

    /// Evaluates a script in the frame at `level` (for `uplevel`).
    pub fn eval_at_level(&self, level: usize, script: &str) -> TclResult {
        if level >= self.frame_count() {
            return Err(Exception::error(format!("bad level \"{level}\"")));
        }
        // Temporarily hide the frames above `level`.
        let hidden: Vec<Frame> = {
            let mut frames = self.inner.frames.borrow_mut();
            frames.split_off(level + 1)
        };
        let result = self.eval(script);
        self.inner.frames.borrow_mut().extend(hidden);
        result
    }

    /// The invocation words of the proc at `level`, for `info level`.
    pub fn invocation_at(&self, level: usize) -> Option<Rc<[String]>> {
        let frames = self.inner.frames.borrow();
        frames.get(level).and_then(|f| f.invocation.clone())
    }

    /// Parses a `level` argument for `uplevel`/`upvar`: either `#N`
    /// (absolute) or `N` (relative to the current frame).
    pub fn parse_level(&self, spec: &str) -> Result<usize, Exception> {
        let cur = self.level();
        let (n, absolute) = match spec.strip_prefix('#') {
            Some(n) => (n, true),
            None => (spec, false),
        };
        match n.parse::<usize>() {
            Ok(n) if n <= cur => Ok(if absolute { n } else { cur - n }),
            _ => Err(Exception::error(format!("bad level \"{spec}\""))),
        }
    }
}

/// Truncates a source excerpt for tracebacks.
fn truncate(s: &str, max: usize) -> &str {
    if s.len() <= max {
        s
    } else {
        let mut end = max;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        &s[..end]
    }
}

/// Splits a variable reference `name(index)` into name and index parts.
/// Used by commands like `set` that accept either form.
pub fn split_var_name(spec: &str) -> (&str, Option<&str>) {
    if let Some(open) = spec.find('(') {
        if spec.ends_with(')') {
            return (&spec[..open], Some(&spec[open + 1..spec.len() - 1]));
        }
    }
    (spec, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_variable() {
        let i = Interp::new();
        assert_eq!(i.eval("set a 1000").unwrap(), "1000");
        assert_eq!(i.eval("set a").unwrap(), "1000");
    }

    #[test]
    fn variable_substitution() {
        let i = Interp::new();
        i.eval("set msg hello").unwrap();
        assert_eq!(i.eval("set b $msg").unwrap(), "hello");
    }

    #[test]
    fn command_substitution() {
        let i = Interp::new();
        i.eval("set x 5").unwrap();
        assert_eq!(i.eval("set y [set x]").unwrap(), "5");
    }

    #[test]
    fn unknown_command_reports_error() {
        let i = Interp::new();
        let e = i.eval("definitely_not_a_command").unwrap_err();
        assert!(e.msg.contains("invalid command name"));
    }

    #[test]
    fn unknown_hook_is_called() {
        let i = Interp::new();
        i.eval("proc unknown {args} {return \"caught: $args\"}")
            .unwrap();
        assert_eq!(i.eval("frobnicate 1 2").unwrap(), "caught: frobnicate 1 2");
    }

    #[test]
    fn undefined_variable_reports_error() {
        let i = Interp::new();
        let e = i.eval("set b $nosuch").unwrap_err();
        assert!(e.msg.contains("no such variable"), "{}", e.msg);
    }

    #[test]
    fn array_elements() {
        let i = Interp::new();
        i.eval("set a(x) 1; set a(y) 2").unwrap();
        assert_eq!(i.eval("set a(x)").unwrap(), "1");
        i.eval("set k y").unwrap();
        assert_eq!(i.eval("set b $a($k)").unwrap(), "2");
    }

    #[test]
    fn scalar_vs_array_mismatch_errors() {
        let i = Interp::new();
        i.eval("set s 1").unwrap();
        assert!(i.eval("set s(x) 2").is_err());
        i.eval("set arr(e) 1").unwrap();
        assert!(i.eval("set arr").is_err());
    }

    #[test]
    fn native_command_registration() {
        let i = Interp::new();
        i.register("double", |_i, argv| {
            let n: i64 = argv[1].parse().unwrap();
            Ok((n * 2).to_string())
        });
        assert_eq!(i.eval("double 21").unwrap(), "42");
    }

    #[test]
    fn rename_and_delete_command() {
        let i = Interp::new();
        i.register("orig", |_i, _a| Ok("hi".into()));
        i.rename("orig", "renamed").unwrap();
        assert_eq!(i.eval("renamed").unwrap(), "hi");
        assert!(i.eval("orig").is_err());
        i.rename("renamed", "").unwrap();
        assert!(i.eval("renamed").is_err());
    }

    #[test]
    fn result_is_last_command() {
        let i = Interp::new();
        assert_eq!(i.eval("set a 1; set b 2").unwrap(), "2");
    }

    #[test]
    fn nesting_limit_reported() {
        let i = Interp::new();
        i.eval("proc loop {} {loop}").unwrap();
        let e = i.eval("loop").unwrap_err();
        assert!(e.msg.contains("too many nested calls") || e.msg.contains("recursion"));
        // Every nested evaluation counts, loop bodies and `if` branches
        // included, as Tcl 6's `Tcl_Eval` counted them: a proc that
        // recurses from inside a loop stops at a half or a third of the
        // depth (docs/TCL.md, "Scope decisions").
        for compile in [true, false] {
            i.set_compile(compile);
            for (script, depth) in [
                (
                    "proc walk {} {incr ::d; foreach c {x} {if 1 {walk}}}; walk",
                    "50",
                ),
                ("proc rec {} {incr ::d; for {} 1 {} {rec}}; rec", "75"),
            ] {
                i.eval("set ::d 0").unwrap();
                let e = i.eval(script).unwrap_err();
                assert_eq!(e.msg, "too many nested calls to Tcl_Eval (infinite loop?)");
                assert_eq!(
                    i.eval("set ::d").unwrap(),
                    depth,
                    "{script}, compile {compile}"
                );
            }
        }
    }

    #[test]
    fn error_info_recorded() {
        let i = Interp::new();
        i.eval("proc f {} {set x $nosuch}").unwrap();
        assert!(i.eval("f").is_err());
        let info = i.get_var_at(0, "errorInfo", None).unwrap();
        assert!(info.contains("no such variable"));
        assert!(info.contains("while executing"));
    }

    #[test]
    fn capture_output_collects_print() {
        let i = Interp::new();
        let buf = i.capture_output();
        i.eval("print hello").unwrap();
        assert_eq!(&*buf.borrow(), "hello");
    }

    #[test]
    fn split_var_name_forms() {
        assert_eq!(split_var_name("a"), ("a", None));
        assert_eq!(split_var_name("a(i)"), ("a", Some("i")));
        assert_eq!(split_var_name("a(i"), ("a(i", None));
    }

    #[test]
    fn subst_string_performs_all_substitutions() {
        let i = Interp::new();
        i.eval("set x world").unwrap();
        assert_eq!(
            i.subst_string("hello $x [set x] \\n").unwrap(),
            "hello world world \n"
        );
    }

    fn counter(i: &Interp, name: &str) -> u64 {
        i.compile_counters()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    }

    #[test]
    fn repeated_eval_hits_the_program_cache() {
        let i = Interp::new();
        i.set_compile(true);
        i.eval("set a 1").unwrap();
        let compiles = counter(&i, "tcl.compiles");
        let hits = counter(&i, "tcl.compile_cache_hits");
        i.eval("set a 1").unwrap();
        i.eval("set a 1").unwrap();
        assert_eq!(
            counter(&i, "tcl.compiles"),
            compiles,
            "recompiled a cached script"
        );
        assert_eq!(counter(&i, "tcl.compile_cache_hits"), hits + 2);
    }

    #[test]
    fn proc_set_defined_after_caching_wins() {
        let i = Interp::new();
        i.set_compile(true);
        assert_eq!(i.eval("set a 7").unwrap(), "7");
        assert_eq!(i.eval("set a 7").unwrap(), "7");
        i.eval("proc set {args} {return shadowed}").unwrap();
        let hits = counter(&i, "tcl.compile_cache_hits");
        // The cached program runs again and dispatches to the proc (whose
        // body compiles on its first call).
        assert_eq!(i.eval("set a 7").unwrap(), "shadowed");
        assert_eq!(counter(&i, "tcl.compile_cache_hits"), hits + 1);
        i.eval("rename set {}").unwrap();
        assert!(i.eval("set a 7").is_err(), "builtin really gone");
    }

    #[test]
    fn rename_of_set_after_caching_is_honoured() {
        let i = Interp::new();
        i.set_compile(true);
        i.eval("set a 1").unwrap();
        i.rename("set", "set_orig").unwrap();
        let e = i.eval("set a 1").unwrap_err();
        assert!(e.msg.contains("invalid command name"), "{}", e.msg);
        assert_eq!(i.eval("set_orig a 2").unwrap(), "2");
        i.rename("set_orig", "set").unwrap();
        assert_eq!(i.eval("set a 1").unwrap(), "1");
        assert_eq!(i.eval("set a").unwrap(), "1");
        assert_eq!(
            counter(&i, "tcl.compiles"),
            3,
            "only the three scripts compiled"
        );
    }

    #[test]
    fn cached_literal_command_follows_a_later_proc() {
        let i = Interp::new();
        i.set_compile(true);
        i.eval("set i 0").unwrap();
        assert_eq!(i.eval("incr i").unwrap(), "1");
        assert_eq!(i.eval("incr i").unwrap(), "2");
        i.eval("proc incr {name} {return redefined}").unwrap();
        assert_eq!(i.eval("incr i").unwrap(), "redefined");
        assert_eq!(i.eval("set i").unwrap(), "2");
    }

    #[test]
    fn a_name_only_a_compiled_script_mentions_is_no_command() {
        let i = Interp::new();
        i.set_compile(true);
        assert_eq!(i.eval("catch {nosuch}").unwrap(), "1");
        assert_eq!(i.eval("info commands nosuch").unwrap(), "");
        assert!(!i.command_names().contains(&"nosuch".to_string()));
        let e = i.eval("rename nosuch x").unwrap_err();
        assert_eq!(e.msg, "can't rename \"nosuch\": command doesn't exist");
    }

    /// Error messages and trace callbacks name a variable as the script
    /// wrote it, through an `upvar` link or a `::` prefix: each script's
    /// result as tclsh 8.6 prints it.
    #[test]
    fn accesses_report_the_name_the_script_wrote() {
        let cases = [
            (
                "list [catch {upvar #0 nosuch2 b; set b} m] $m",
                "1 {can't read \"b\": no such variable}",
            ),
            (
                "list [catch {set ::nosuch5} m] $m",
                "1 {can't read \"::nosuch5\": no such variable}",
            ),
            (
                "proc q {} {upvar #0 nosuch3 u; catch {unset u} m; set m}; q",
                "can't unset \"u\": no such variable",
            ),
            ("set tv 1; trace variable tv r tr; set ::tv; set seen", "::tv r"),
            (
                "set g 1; trace variable g w tr; proc p {} {upvar #0 g l; set l 2}; p; set seen",
                "l w",
            ),
            (
                "set arr(k) 1; trace variable arr r tr; proc r {} {upvar #0 arr a; set a(k)}; r; set seen",
                "a r",
            ),
            (
                "set u1 1; trace variable u1 u tr; proc uu {} {upvar #0 u1 z; unset z}; uu; set seen",
                "z u",
            ),
        ];
        for compile in [true, false] {
            for (script, want) in cases {
                let i = Interp::new();
                i.set_compile(compile);
                i.eval("proc tr {n1 n2 op} {lappend ::seen $n1 $op}")
                    .unwrap();
                let got = i.eval(script).unwrap();
                assert_eq!(got, want, "compile {compile}: {script}");
            }
        }
    }

    /// A name no compiled program mentions gives its slot back when its
    /// command is deleted, so defining and deleting many names does not
    /// grow the table.
    #[test]
    fn a_deleted_command_gives_its_slot_back() {
        for compile in [true, false] {
            let i = Interp::new();
            i.set_compile(compile);
            let size = |i: &Interp| {
                let table = i.inner.commands.borrow();
                (table.slots.len(), table.ids.len())
            };
            let before = size(&i);
            i.eval("for {set i 0} {$i < 10000} {incr i} {proc p$i {} {}; rename p$i {}}")
                .unwrap();
            let after = size(&i);
            assert!(
                after.0 <= before.0 + 1 && after.1 <= before.1,
                "compile {compile}: (slots, names) {before:?} -> {after:?}"
            );
            assert_eq!(i.eval("info commands {p[0-9]*}").unwrap(), "");
        }
    }

    #[test]
    fn a_leading_double_colon_names_the_global_variable() {
        // Each script's result as tclsh 8.6 prints it.
        let cases = [
            ("set ::a 5; set a", "5"),
            ("set ::a 5; info exists a", "1"),
            ("proc p {} {set ::g 7}; p; set g", "7"),
            (
                "proc tr {args} {set ::tv 4}; set tv 1; trace variable tv r tr; set tv",
                "4",
            ),
            ("set ::a 5; set x $::a", "5"),
            (
                "set a 5; proc p {} {incr ::a; info exists ::a}; list [p] $a",
                "1 6",
            ),
            ("proc p {} {upvar ::z z; set z 3}; p; set z", "3"),
            ("proc p {} {global ::x; set x 3}; p; set x", "3"),
            (
                "set ::arr(x) 1; set k x; list $::arr($k) [array names ::arr]",
                "1 x",
            ),
            ("set a 1; unset ::a; info exists a", "0"),
            ("set {} e; set y $::", "e"),
            (
                "catch {set ::nosuch} m; set m",
                "can't read \"::nosuch\": no such variable",
            ),
        ];
        for compile in [true, false] {
            for (script, want) in cases {
                let i = Interp::new();
                i.set_compile(compile);
                assert_eq!(
                    i.eval(script).unwrap(),
                    want,
                    "{script} (compile {compile})"
                );
            }
        }
    }

    #[test]
    fn cache_capacity_eviction_is_bounded_and_counted() {
        let i = Interp::new();
        i.set_compile(true);
        for n in 0..(super::PROGRAM_CACHE_CAP + 40) {
            i.eval(&format!("set v{n} {n}")).unwrap();
        }
        assert!(i.program_cache_len() <= super::PROGRAM_CACHE_CAP);
        assert!(counter(&i, "tcl.compile_evictions") > 0);
        // Evicted scripts still evaluate correctly (recompile on demand).
        assert_eq!(i.eval("set v0 0").unwrap(), "0");
    }

    #[test]
    fn trace_installed_after_caching_fires_on_the_cached_set() {
        let i = Interp::new();
        i.set_compile(true);
        i.eval("set hits 0; proc count {args} {global hits; incr hits}")
            .unwrap();
        i.eval("set watched 1").unwrap();
        i.eval("set watched 1").unwrap();
        assert_eq!(i.eval("set hits").unwrap(), "0");
        i.eval("trace variable watched w count").unwrap();
        let hits = counter(&i, "tcl.compile_cache_hits");
        // A cache hit: the trace script and the proc body compile fresh.
        i.eval("set watched 1").unwrap();
        assert_eq!(counter(&i, "tcl.compile_cache_hits"), hits + 1);
        assert_eq!(i.eval("set hits").unwrap(), "1");
    }

    #[test]
    fn reset_compile_stats_keeps_the_cache_warm() {
        let i = Interp::new();
        i.set_compile(true);
        i.eval("set a 1").unwrap();
        let cached = i.program_cache_len();
        i.reset_compile_stats();
        assert_eq!(counter(&i, "tcl.compiles"), 0);
        assert_eq!(counter(&i, "tcl.compile_cache_hits"), 0);
        assert_eq!(i.program_cache_len(), cached, "reset wiped the cache");
        // The next evaluation is a pure cache hit: counters restart from
        // zero but no recompile happens.
        i.eval("set a 1").unwrap();
        assert_eq!(counter(&i, "tcl.compiles"), 0);
        assert_eq!(counter(&i, "tcl.compile_cache_hits"), 1);
    }

    #[test]
    fn compiled_and_direct_agree_on_error_traces() {
        let scripts = [
            "set",
            "set a $nosuch",
            "if {1} {set x $missing}",
            "while {$i < [broken} {set i 0}",
            "foreach x {a b c} {error boom}",
            "set a 1; nosuchcmd; set b 2",
            "expr {1/0}",
            "for {set i 0} {$i < 3} {incr i} {if {$i == 1} {error mid}}",
            "if {0} then {set a 1} elseif {1} then {error boom}",
            "if {0} {set a 1} elseif {$nosuch} {set b 2} else {set c 3}",
            "if {1} then",
            "if {0} {set a 1} {set b 2}",
            "set out {}; foreach x {a b c d} {if {$x == {b}} continue; \
             if {$x == {d}} break; append out $x}; set out",
            "foreach x {a b c} {if {$x == {c}} {error last} else continue}",
            "expr 1 + 2 * 3",
            "expr {1 +} {2} * 4",
            "expr 1 / 0 + 2",
            "expr {1 +}",
        ];
        for script in scripts {
            let direct = Interp::new();
            direct.set_compile(false);
            let compiled = Interp::new();
            compiled.set_compile(true);
            // Run twice so the compiled side exercises the cache-hit path.
            for _ in 0..2 {
                let d = direct.eval(script);
                let c = compiled.eval(script);
                match (&d, &c) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{script}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a.msg, b.msg, "{script}");
                        assert_eq!(a.code, b.code, "{script}");
                        assert_eq!(a.error_info(), b.error_info(), "{script}");
                    }
                    _ => panic!("{script}: direct={d:?} compiled={c:?}"),
                }
            }
            let di = direct.get_var_at(0, "errorInfo", None).ok();
            let ci = compiled.get_var_at(0, "errorInfo", None).ok();
            assert_eq!(di, ci, "{script}");
        }
    }

    #[test]
    fn parses_avoided_accrues_on_loop_bodies() {
        let i = Interp::new();
        i.set_compile(true);
        i.eval("set hot 0; for {set n 0} {$n < 50} {incr n} {set hot [expr {$hot + $n}]}")
            .unwrap();
        assert_eq!(i.eval("set hot").unwrap(), "1225");
        let parses = counter(&i, "tcl.parses");
        let avoided = counter(&i, "tcl.parses_avoided");
        assert!(
            avoided > parses * 10,
            "loop body should replay from cache: parses={parses} avoided={avoided}"
        );
    }
}
