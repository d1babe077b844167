//! The four workloads: seeded op sequences, the worlds they run in, and
//! the output check every op gets.
//!
//! Each workload is one client on one thread: a closed loop that issues
//! the next op only after the previous one ran to quiescence. The op
//! sequence, expected outputs included, is generated from the seed before
//! anything is timed, and expected values are computed here in Rust,
//! never read back from the program.

use tcl::Interp;
use tk::{TkApp, TkEnv};
use xsim::{Display, XorShift};

use crate::measure::{Call, Probe, RefCall};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    UiBuild,
    Interact,
    SendRpc,
    TclScript,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::UiBuild,
    Workload::Interact,
    Workload::SendRpc,
    Workload::TclScript,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::UiBuild => "ui_build",
            Workload::Interact => "interact",
            Workload::SendRpc => "send_rpc",
            Workload::TclScript => "tcl_script",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Timed ops per requested second. The count is fixed per run, never
    /// a time-bounded loop, so every run of a seed does the same work; the
    /// rates are sized so a run measures about the requested time on a
    /// 2-vCPU x86-64 host.
    pub fn ops_per_second(self) -> usize {
        match self {
            Workload::UiBuild => 37,
            Workload::Interact => 1800,
            Workload::SendRpc => 2800,
            Workload::TclScript => 7000,
        }
    }

    /// Ops run inside set-up, untimed, so caches fill and lazy set-up
    /// finishes before the first timed op.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::UiBuild => 4,
            Workload::Interact => 200,
            Workload::SendRpc => 500,
            Workload::TclScript => 600,
        }
    }

    /// The host reference call run after every op, about 10% of one op's
    /// time, with the op's share of register-only work (see `RefCall`).
    pub fn ref_call(self) -> RefCall {
        let (alloc_units, alu_iters) = match self {
            Workload::UiBuild => (160, 440_000),
            Workload::Interact => (3, 4_500),
            Workload::SendRpc => (2, 2_800),
            Workload::TclScript => (1, 0),
        };
        RefCall {
            alloc_units,
            alu_iters,
        }
    }

    /// Reference calls run after each set-up, about 10% of its time.
    pub fn setup_ref_calls(self) -> usize {
        match self {
            Workload::UiBuild => 4,
            Workload::Interact => 250,
            Workload::SendRpc => 500,
            Workload::TclScript => 600,
        }
    }
}

/// One op's input and expected outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `ui_build`: the commands that create and pack one panel under `.p`.
    Panel(Vec<String>),
    /// `interact`: one user gesture and the form state it must leave.
    Gesture(Gesture, Form),
    /// `send_rpc`: a script evaluated in app `a` and its expected result.
    Send { script: String, expect: String },
    /// `tcl_script`: a script for the bare interpreter and its result.
    Script { src: String, expect: String },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Gesture {
    /// Click the bound button.
    Click,
    /// Click at the end of the entry, erase its `erase` characters with
    /// BackSpace and type `word`.
    Type { erase: usize, word: String },
    /// Click a scrollbar arrow `lines` times.
    Scroll { down: bool, lines: u32 },
    /// Click the checkbutton.
    Toggle,
}

/// The `interact` form state: both button counters, the entry text, the
/// listbox's top line and the checkbutton's variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Form {
    clicks: u64,
    entry: String,
    top: usize,
    on: bool,
}

/// The op sequence of `w` for `seed`: endless, generated lazily so the
/// harness's own memory stays out of `peak_rss_mb`. The same seed always
/// gives the same sequence.
pub struct Ops {
    rng: XorShift,
    model: Model,
}

/// What a workload's generator remembers between ops.
enum Model {
    Panels,
    /// The `interact` form state the next gesture starts from, and the
    /// direction scrolling goes.
    Form {
        form: Form,
        down: bool,
    },
    Sends,
    Scripts {
        pool_seed: u64,
        hot: Vec<Op>,
    },
}

pub fn ops(w: Workload, seed: u64) -> Ops {
    let mut rng = XorShift::new(seed ^ (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let model = match w {
        Workload::UiBuild => Model::Panels,
        Workload::Interact => Model::Form {
            form: Form::default(),
            down: true,
        },
        Workload::SendRpc => Model::Sends,
        Workload::TclScript => {
            let pool_seed = rng.next_u64();
            // Hot script sizes climb a fixed ladder per template, so the
            // costliest few, which set the 95th percentile, cost the same
            // for every seed.
            let hot = (0..HOT_SCRIPTS)
                .map(|i| {
                    tcl_script(
                        &mut XorShift::new(pool_seed ^ (i + 1)),
                        "hot",
                        i,
                        i % TEMPLATES,
                        36 + 2 * (i / TEMPLATES),
                    )
                })
                .collect();
            Model::Scripts { pool_seed, hot }
        }
    };
    Ops { rng, model }
}

impl Iterator for Ops {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let rng = &mut self.rng;
        Some(match &mut self.model {
            Model::Panels => Op::Panel(panel(rng)),
            Model::Form { form, down } => {
                let gesture = match rng.below(20) {
                    0..=5 => {
                        form.clicks += 1;
                        Gesture::Click
                    }
                    6..=10 => {
                        let word = WORDS[rng.below(WORDS.len() as u64) as usize].to_string();
                        let erase = std::mem::replace(&mut form.entry, word.clone()).len();
                        Gesture::Type { erase, word }
                    }
                    11..=15 => {
                        let lines = rng.range(1, 4) as u32;
                        let l = lines as usize;
                        if (*down && form.top + l > SCROLL_MAX) || (!*down && form.top < l) {
                            *down = !*down;
                        }
                        form.top = if *down { form.top + l } else { form.top - l };
                        Gesture::Scroll { down: *down, lines }
                    }
                    _ => {
                        form.on = !form.on;
                        Gesture::Toggle
                    }
                };
                Op::Gesture(gesture, form.clone())
            }
            Model::Sends => send_op(rng),
            Model::Scripts { pool_seed, hot } => {
                if rng.below(10) < 8 {
                    hot[rng.below(HOT_SCRIPTS) as usize].clone()
                } else {
                    let i = rng.below(COLD_POOL);
                    let mut script_rng = XorShift::new(*pool_seed ^ ((i + 1) << 20));
                    let n = script_rng.range(36, 45);
                    tcl_script(&mut script_rng, "cold", i, i % TEMPLATES, n)
                }
            }
        })
    }
}

const WORDS: [&str; 12] = [
    "tcl", "button", "pack", "send", "expose", "focus", "widget", "bind", "wish", "frame", "label",
    "entry",
];

/// Widget kinds of one `ui_build` frame. Every frame holds the same mix,
/// so a panel's cost depends on the seed only through order, text and
/// sizes.
const FRAME_MIX: [&str; 12] = [
    "button",
    "button",
    "button",
    "button",
    "button",
    "label",
    "label",
    "checkbutton",
    "checkbutton",
    "checkbutton",
    "entry",
    "entry",
];
const PANEL_FRAMES: usize = 4;

/// 50 mixed widgets (Table II row 3, generalized): four nested frames of
/// buttons, labels, checkbuttons and entries in a seeded order, plus one
/// listbox and one scale.
fn panel(rng: &mut XorShift) -> Vec<String> {
    let mut cmds = vec!["frame .p".to_string()];
    for f in 0..PANEL_FRAMES {
        let fp = format!(".p.f{f}");
        cmds.push(format!("frame {fp} -relief raised -borderwidth 2"));
        let side = if f % 2 == 0 { "top fillx" } else { "left" };
        let mut kinds = FRAME_MIX;
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (i, kind) in kinds.into_iter().enumerate() {
            let path = format!("{fp}.w{i}");
            let text = WORDS[rng.below(WORDS.len() as u64) as usize];
            match kind {
                "button" => cmds.push(format!(
                    "button {path} -text {{{text} {i}}} -command {{set pressed {i}}}"
                )),
                "label" => cmds.push(format!("label {path} -text {text}")),
                "checkbutton" => {
                    cmds.push(format!("checkbutton {path} -text {text} -variable v{f}{i}"))
                }
                _ => {
                    cmds.push(format!("entry {path} -width {}", rng.range(8, 20)));
                    cmds.push(format!("{path} insert 0 {text}"));
                }
            }
            cmds.push(format!("pack append {fp} {path} {{{side}}}"));
        }
        cmds.push(format!("pack append .p {fp} {{top fillx}}"));
    }
    cmds.push("listbox .p.l -geometry 20x5".into());
    let items: Vec<&str> = (0..8)
        .map(|_| WORDS[rng.below(WORDS.len() as u64) as usize])
        .collect();
    cmds.push(format!(".p.l insert end {}", items.join(" ")));
    cmds.push(format!(
        "scale .p.s -from 0 -to {} -orient horizontal",
        rng.range(50, 200)
    ));
    cmds.push("pack append .p .p.l {top} .p.s {top fillx}".into());
    cmds.push("pack append . .p {top fillx}".into());
    cmds
}

/// Lines in the `interact` listbox; gestures keep its top line within
/// `0..=SCROLL_MAX` so it never clamps and the model stays exact.
const LIST_ITEMS: usize = 60;
const SCROLL_MAX: usize = 30;

/// The proc app `b` serves for the ~1 KB `send` replies, and the value it
/// returns, computed here independently.
const BLOB_PROC: &str = "proc blob {n k} {set s {}; for {set i 0} {$i < $n} {incr i} \
                         {append s [expr {$k + $i}] .}; return $s}";

fn blob(n: u64, k: u64) -> String {
    (k..k + n).map(|v| format!("{v}.")).collect()
}

fn send_op(rng: &mut XorShift) -> Op {
    let (script, expect) = match rng.below(20) {
        0..=7 => ("send b {}".to_string(), String::new()),
        8..=14 => {
            let (x, y) = (rng.below(1_000_000), rng.below(1_000_000));
            (
                format!("send b {{expr {{{x} + {y}}}}}"),
                (x + y).to_string(),
            )
        }
        15..=18 => {
            let (n, k) = (rng.range(150, 200), rng.range(1000, 9000));
            (format!("send b {{blob {n} {k}}}"), blob(n, k))
        }
        _ => ("winfo interps".to_string(), "a b".to_string()),
    };
    Op::Send { script, expect }
}

/// Procs every `tcl_script` interpreter defines at set-up.
const TCL_PROCS: &str = "proc sq {x} {expr {$x * $x}}\n\
                         proc fib {n} {if {$n < 2} {return $n}; \
                         expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}}";

/// Hot scripts and cold-pool size for `tcl_script`. The pool is far
/// larger than the interpreter's 512-entry program cache, so cold picks
/// miss and evict while hot picks hit. The hot set holds four scripts of
/// each template, so its cost mix is the same for every seed.
const TEMPLATES: u64 = 7;
const HOT_SCRIPTS: u64 = 4 * TEMPLATES;
const COLD_POOL: u64 = 4096;

/// One script of the given template (arithmetic loop, lists, strings,
/// arrays, proc calls, recursion, control flow) and size `n` with its
/// expected result. The leading comment makes every script's text
/// distinct.
fn tcl_script(rng: &mut XorShift, pool: &str, id: u64, template: u64, n: u64) -> Op {
    let k = rng.range(1, 50);
    let (body, expect) = match template {
        0 => (
            format!("set s 0; for {{set i 0}} {{$i < {n}}} {{incr i}} {{set s [expr {{$s + $i * {k}}}]}}; set s"),
            (k * n * (n - 1) / 2).to_string(),
        ),
        1 => {
            let m = rng.below(n);
            (
                format!("set l {{}}; for {{set i 0}} {{$i < {n}}} {{incr i}} {{lappend l [expr {{$i * {k}}}]}}; list [llength $l] [lindex $l {m}]"),
                format!("{n} {}", m * k),
            )
        }
        2 => {
            let w = WORDS[rng.below(WORDS.len() as u64) as usize];
            let cut = rng.below(n * w.len() as u64);
            let s = w.repeat(n as usize);
            (
                format!("set s {{}}; for {{set i 0}} {{$i < {n}}} {{incr i}} {{append s {w}}}; list [string length $s] [string range $s 0 {cut}]"),
                format!("{} {}", s.len(), &s[..=cut as usize]),
            )
        }
        3 => (
            format!("catch {{unset a}}; for {{set i 0}} {{$i < {n}}} {{incr i}} {{set a($i) [expr {{$i * $i + {k}}}]}}; set t 0; foreach j [array names a] {{incr t $a($j)}}; set t"),
            (0..n).map(|i| i * i + k).sum::<u64>().to_string(),
        ),
        4 => {
            let xs: Vec<u64> = (0..n).map(|_| rng.below(100)).collect();
            let list: Vec<String> = xs.iter().map(u64::to_string).collect();
            (
                format!("set t 0; foreach x {{{}}} {{set t [expr {{$t + [sq $x]}}]}}; set t", list.join(" ")),
                xs.iter().map(|x| x * x).sum::<u64>().to_string(),
            )
        }
        // The costliest template by far: with the cold picks of it, 14% of
        // ops, so the 95th percentile falls inside its fixed-cost class.
        5 => (format!("expr {{[fib 10] + {k}}}"), (fib(10) + k).to_string()),
        _ => (
            format!("set t 0; set i 0; while {{$i < {n}}} {{if {{$i % 3 == 0}} {{incr t {k}}} else {{incr t}}; incr i}}; set t"),
            (0..n).map(|i| if i % 3 == 0 { k } else { 1 }).sum::<u64>().to_string(),
        ),
    };
    Op::Script {
        src: format!("# {pool} {id}\n{body}"),
        expect,
    }
}

fn fib(n: u64) -> u64 {
    (0..n).fold((0, 1), |(a, b), _| (b, a + b)).0
}

/// Screen points the `interact` gestures click, found once at set-up.
pub struct Targets {
    button: (i32, i32),
    entry_end: (i32, i32),
    check: (i32, i32),
    up: (i32, i32),
    down: (i32, i32),
}

/// Everything one workload runs against.
pub enum World {
    Tk {
        env: TkEnv,
        apps: Vec<TkApp>,
        targets: Option<Targets>,
    },
    Tcl(Interp),
}

fn eval_ok(app: &TkApp, script: &str) -> Result<String, String> {
    app.eval(script).map_err(|e| format!("{script}: {}", e.msg))
}

/// A screen point inside `path`: `dx`/`dy` in from its left/top edge but
/// no further than its center, or in from its right/bottom edge when
/// negative.
fn root_point(app: &TkApp, path: &str, dx: i32, dy: i32) -> Result<(i32, i32), String> {
    let n = |q: &str| -> Result<i32, String> {
        eval_ok(app, &format!("winfo {q} {path}"))?
            .parse()
            .map_err(|_| format!("winfo {q} {path}: not a number"))
    };
    let (w, h) = (n("width")?, n("height")?);
    let x = n("rootx")? + if dx < 0 { w + dx } else { dx.min(w / 2) };
    let y = n("rooty")? + if dy < 0 { h + dy } else { dy.min(h / 2) };
    Ok((x, y))
}

impl World {
    /// Opens a display on the framed wire transport (`wire`, the default
    /// configuration) or the in-process oracle, and builds the
    /// workload's applications.
    pub fn new(w: Workload, wire: bool) -> Result<World, String> {
        if w == Workload::TclScript {
            let interp = Interp::new();
            interp.eval(TCL_PROCS).map_err(|e| e.msg)?;
            return Ok(World::Tcl(interp));
        }
        let display = Display::new();
        display.set_wire(wire);
        let env = TkEnv::with_display(display);
        let names: &[&str] = if w == Workload::SendRpc {
            &["a", "b"]
        } else {
            &["ui"]
        };
        let apps: Vec<TkApp> = names.iter().map(|n| env.app(n)).collect();
        let mut targets = None;
        match w {
            Workload::SendRpc => {
                eval_ok(&apps[1], BLOB_PROC)?;
            }
            Workload::Interact => {
                let app = &apps[0];
                let items: Vec<String> = (0..LIST_ITEMS).map(|i| format!("line{i}")).collect();
                for cmd in [
                    "set clicks 0; set cmds 0; set chk 0",
                    "button .b -text Press -command {incr cmds}",
                    "bind .b <ButtonPress-1> {incr clicks}",
                    "entry .e -width 20",
                    "frame .f",
                    "listbox .f.l -geometry 20x8 -scroll {.f.s set}",
                    "scrollbar .f.s -command {.f.l view}",
                    &format!(".f.l insert end {}", items.join(" ")),
                    "checkbutton .c -text Check -variable chk",
                    "pack append .f .f.l {left} .f.s {right filly}",
                    "pack append . .b {top fillx} .e {top fillx} .f {top} .c {top}",
                ] {
                    eval_ok(app, cmd)?;
                }
                app.update();
                targets = Some(Targets {
                    button: root_point(app, ".b", 1000, 1000)?,
                    entry_end: root_point(app, ".e", -4, 1000)?,
                    check: root_point(app, ".c", 1000, 1000)?,
                    up: root_point(app, ".f.s", 1000, 4)?,
                    down: root_point(app, ".f.s", 1000, -4)?,
                });
            }
            _ => {}
        }
        Ok(World::Tk { env, apps, targets })
    }

    pub fn apps(&self) -> &[TkApp] {
        match self {
            World::Tk { apps, .. } => apps,
            World::Tcl(_) => &[],
        }
    }

    pub fn interps(&self) -> Vec<&Interp> {
        match self {
            World::Tk { apps, .. } => apps.iter().map(TkApp::interp).collect(),
            World::Tcl(interp) => vec![interp],
        }
    }

    pub fn display(&self) -> Option<&Display> {
        match self {
            World::Tk { env, .. } => Some(env.display()),
            World::Tcl(_) => None,
        }
    }

    /// Runs one op to quiescence, timing each layer call through `probe`,
    /// and returns its output. This is the timed part of an op.
    pub fn run(&self, op: &Op, probe: &Probe) -> Result<String, String> {
        let tk_eval = |app: &TkApp, s: &str| probe.call(Call::TkEval, || eval_ok(app, s));
        match (self, op) {
            (World::Tcl(interp), Op::Script { src, .. }) => probe
                .call(Call::TclEval, || interp.eval(src))
                .map_err(|e| e.msg),
            (World::Tk { env, apps, .. }, Op::Send { script, .. }) => {
                let out = tk_eval(&apps[0], script)?;
                probe.call(Call::TkDispatch, || env.dispatch_all());
                Ok(out)
            }
            (World::Tk { apps, .. }, Op::Panel(cmds)) => {
                let app = &apps[0];
                for c in cmds {
                    tk_eval(app, c)?;
                }
                probe.call(Call::TkUpdate, || app.update());
                tk_eval(app, "destroy .p")?;
                probe.call(Call::TkUpdate, || app.update());
                Ok(String::new())
            }
            (
                World::Tk {
                    env,
                    apps,
                    targets: Some(t),
                },
                Op::Gesture(g, _),
            ) => {
                let d = env.display();
                let input = |f: &dyn Fn()| {
                    probe.call(Call::XsimInput, f);
                    probe.call(Call::TkDispatch, || env.dispatch_all());
                };
                let click_at = |(x, y): (i32, i32)| {
                    input(&|| d.move_pointer(x, y));
                    input(&|| d.click(1));
                };
                match g {
                    Gesture::Click => click_at(t.button),
                    Gesture::Type { erase, word } => {
                        click_at(t.entry_end);
                        for _ in 0..*erase {
                            input(&|| d.press_key("BackSpace"));
                        }
                        for c in word.chars() {
                            input(&|| d.type_char(c));
                        }
                    }
                    Gesture::Scroll { down, lines } => {
                        let (x, y) = if *down { t.down } else { t.up };
                        input(&|| d.move_pointer(x, y));
                        for _ in 0..*lines {
                            input(&|| d.click(1));
                        }
                    }
                    Gesture::Toggle => click_at(t.check),
                }
                probe.call(Call::TkUpdate, || apps[0].update());
                Ok(String::new())
            }
            _ => Err("op does not belong to this workload".into()),
        }
    }

    /// Checks an op's output and the state it left, outside the op timer.
    /// Reads go through `invoke` and variable lookups so the check adds no
    /// parse or compile work to the counters.
    pub fn check(&self, op: &Op, out: &str) -> Result<(), String> {
        let expect_eq = |what: &str, got: String, want: &str| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: got {got:?}, want {want:?}"))
            }
        };
        match op {
            Op::Script { expect, .. } => expect_eq("script result", out.to_string(), expect),
            Op::Send { script, expect } if script == "winfo interps" => {
                let mut names: Vec<&str> = out.split_whitespace().collect();
                names.sort_unstable();
                expect_eq("winfo interps", names.join(" "), expect)
            }
            Op::Send { expect, .. } => expect_eq("send result", out.to_string(), expect),
            Op::Panel(_) | Op::Gesture(..) => {
                let interp = self.apps()[0].interp();
                let call = |argv: &[&str]| {
                    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
                    interp.invoke(&argv).map_err(|e| e.msg)
                };
                let var = |name: &str| interp.get_var(name, None).map_err(|e| e.msg);
                let Op::Gesture(_, form) = op else {
                    return expect_eq(
                        "children after destroy",
                        call(&["winfo", "children", "."])?,
                        "",
                    );
                };
                let clicks = form.clicks.to_string();
                expect_eq("bound clicks", var("clicks")?, &clicks)?;
                expect_eq("button commands", var("cmds")?, &clicks)?;
                expect_eq("entry text", call(&[".e", "get"])?, &form.entry)?;
                let top = form.top.to_string();
                expect_eq("listbox top", call(&[".f.l", "nearest", "1"])?, &top)?;
                let on = if form.on { "1" } else { "0" };
                expect_eq("check variable", var("chk")?, on)
            }
        }
    }

    /// FNV-1a digest of the composited screen, `None` without a display.
    pub fn screen_digest(&self) -> Option<u64> {
        let shot = self.display()?.screenshot();
        Some(
            shot.raw_pixels()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
                    (h ^ u64::from(*p)).wrapping_mul(0x0100_0000_01b3)
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        for w in WORKLOADS {
            let n = if w == Workload::UiBuild { 3 } else { 40 };
            let seq = |seed| ops(w, seed).take(n).collect::<Vec<_>>();
            assert_eq!(seq(7), seq(7), "{}", w.name());
            assert_ne!(seq(7), seq(8), "{}", w.name());
        }
    }

    #[test]
    fn expected_values_match_hand_computed_ones() {
        assert_eq!(fib(12), 144);
        assert_eq!(blob(3, 1000), "1000.1001.1002.");
    }

    #[test]
    fn scroll_model_stays_inside_the_unclamped_range() {
        for op in ops(Workload::Interact, 3).take(2000) {
            if let Op::Gesture(_, form) = op {
                assert!(form.top <= SCROLL_MAX);
            }
        }
    }

    #[test]
    fn every_workload_passes_its_checks_in_process() {
        for w in WORKLOADS {
            let world = World::new(w, false).expect("world builds");
            let probe = Probe::default();
            let n = if w == Workload::UiBuild { 2 } else { 60 };
            for op in ops(w, 11).take(n) {
                let out = world.run(&op, &probe).expect("op runs");
                world.check(&op, &out).expect("op output checks");
            }
        }
    }
}
