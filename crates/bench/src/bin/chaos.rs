//! Seeded chaos-fuzz driver for the whole Tcl/Tk surface.
//!
//! Usage:
//!   chaos --seeds N [--base-seed S]     run N fresh (script, fault) pairs
//!   chaos --replay SCRIPT FAULT         replay one pair and shrink on failure
//!   chaos --corpus FILE [--seeds N]     run checked-in pairs first, then N fresh
//!   chaos --storm [--apps N] ...        same flags, send-storm mode (N apps)
//!   chaos --bytes ...                   same flags, byte-level wire-fault mode
//!
//! A corpus file holds one `script_seed fault_seed [apps]` entry per line
//! (`#` comments allowed). The optional third column is the storm's app
//! count; absent, the `--apps` value (default 3) applies, which keeps
//! classic two-column pairs replayable unchanged. Exit status is non-zero
//! iff any case fails; the failing pair, its fault plan, and a greedily
//! shrunk reproducer are printed so the pair can be checked in as a
//! regression test.
//!
//! The flags only pick a [`Mode`]; every mode runs, generates and
//! shrinks through the same `tk_bench::chaos` entry points, and the
//! totals are the cases' [`RunStats`] summed.
//!
//! `--storm` swaps the generic two-app fuzz for the send-storm harness:
//! N applications exchanging seeded nested/concurrent `send`s under
//! the same fault plans, checked against the exactly-once-or-clean-error
//! invariant (a send that "succeeds" must have evaluated exactly once
//! with the correct result; no send may ever evaluate twice).
//!
//! `--bytes` swaps the request-level fault plans for byte-level wire
//! faults (corrupted bytes, truncated frames, injected garbage, split
//! writes, stalled dispatch) and checks each run differentially against
//! a fault-free wire run: byte-identical outcomes or clean-death
//! evidence, with an intact span tree and a clean resource audit either
//! way.

use std::process::ExitCode;

use tk_bench::chaos::{run_case, run_ops, shrink, with_quiet_panics, Mode, RunStats, STORM_APPS};
use xsim::fault::FAULT_KIND_NAMES;

fn print_totals(cases: u64, totals: &RunStats) {
    println!(
        "{cases} cases, {} tcl errors, {} faults injected",
        totals.tcl_errors, totals.faults_injected
    );
    for (name, n) in FAULT_KIND_NAMES.iter().zip(totals.fault_counts) {
        if n > 0 {
            println!("  {name}: {n}");
        }
    }
    println!(
        "send rpc: {} timeouts, {} retries, {} dedup drops, {} registry gc",
        totals.send_timeouts, totals.send_retries, totals.send_dedup_drops, totals.registry_gc
    );
}

/// Runs one pair; on failure prints the reproducer and returns `None`.
fn run_one(script_seed: u64, fault_seed: u64, mode: Mode) -> Option<RunStats> {
    let failure = match run_case(mode, script_seed, fault_seed) {
        Ok(stats) => return Some(stats),
        Err(failure) => failure,
    };
    println!("FAIL: script_seed={script_seed} fault_seed={fault_seed}");
    println!("  {failure}");
    println!("  plan:");
    for line in failure.plan.lines() {
        println!("    {line}");
    }
    println!("  shrinking...");
    let (min_ops, min_plan) = shrink(mode, &mode.ops(script_seed), &mode.plan(fault_seed));
    println!(
        "  minimal reproducer: {} ops, {} fault specs",
        min_ops.len(),
        min_plan.specs().len()
    );
    for op in &min_ops {
        println!("    {op}");
    }
    for line in min_plan.describe().lines() {
        println!("    {line}");
    }
    // Confirm the shrunk case still fails (a flaky shrink would mean
    // nondeterminism, which is itself a bug worth flagging).
    if run_ops(mode, &min_ops, &min_plan).is_ok() {
        println!("  WARNING: shrunk reproducer no longer fails (nondeterminism?)");
    }
    let mode_flag = match mode {
        Mode::Classic => String::new(),
        Mode::Storm(napps) => format!("--storm --apps {napps} "),
        Mode::Bytes => "--bytes ".to_string(),
    };
    println!("  replay with: chaos {mode_flag}--replay {script_seed} {fault_seed}");
    None
}

fn parse_corpus(path: &str) -> Result<Vec<(u64, u64, Option<usize>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut pairs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(format!(
                "{path}:{}: expected `script_seed fault_seed [apps]`",
                lineno + 1
            ));
        };
        let apps = it.next();
        if it.next().is_some() {
            return Err(format!(
                "{path}:{}: expected `script_seed fault_seed [apps]`",
                lineno + 1
            ));
        }
        let a = a
            .parse()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let b = b
            .parse()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let apps = match apps {
            Some(n) => Some(
                n.parse()
                    .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
            ),
            None => None,
        };
        pairs.push((a, b, apps));
    }
    Ok(pairs)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos [--storm | --bytes] [--apps N] [--seeds N] [--base-seed S] \
         [--corpus FILE] [--replay SCRIPT FAULT]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: u64 = 0;
    let mut base_seed: u64 = 1;
    let mut corpus: Option<String> = None;
    let mut replay: Option<(u64, u64)> = None;
    let mut mode = Mode::Classic;
    let mut apps = STORM_APPS;
    fn num(it: &mut std::slice::Iter<'_, String>, name: &str) -> Option<u64> {
        let v = it.next().and_then(|v| v.parse().ok());
        if v.is_none() {
            eprintln!("chaos: {name} needs a numeric argument");
        }
        v
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match num(&mut it, "--seeds") {
                Some(n) => seeds = n,
                None => return usage(),
            },
            "--base-seed" => match num(&mut it, "--base-seed") {
                Some(n) => base_seed = n,
                None => return usage(),
            },
            "--replay" => {
                let (Some(s), Some(f)) = (num(&mut it, "--replay"), num(&mut it, "--replay"))
                else {
                    return usage();
                };
                replay = Some((s, f));
            }
            "--corpus" => match it.next() {
                Some(p) => corpus = Some(p.clone()),
                None => return usage(),
            },
            "--storm" if mode == Mode::Classic => mode = Mode::Storm(STORM_APPS),
            "--bytes" if mode == Mode::Classic => mode = Mode::Bytes,
            "--apps" => match num(&mut it, "--apps") {
                Some(n) if n >= 2 => apps = n as usize,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    if replay.is_none() && corpus.is_none() && seeds == 0 {
        return usage();
    }
    // A storm corpus line's third column overrides `--apps`.
    let mode_for = |napps: Option<usize>| match mode {
        Mode::Storm(_) => Mode::Storm(napps.unwrap_or(apps)),
        other => other,
    };

    with_quiet_panics(|| {
        let (mut cases, mut totals, mut failed) = (0, RunStats::default(), false);
        let mut run = |s, f, mode| match run_one(s, f, mode) {
            Some(stats) => {
                cases += 1;
                totals.add(&stats);
                true
            }
            None => false,
        };

        if let Some((s, f)) = replay {
            let ok = run(s, f, mode_for(None));
            if ok {
                println!("replay script_seed={s} fault_seed={f}: ok");
                print_totals(cases, &totals);
            }
            return if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }

        if let Some(path) = corpus {
            let pairs = match parse_corpus(&path) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("chaos: {e}");
                    return ExitCode::from(2);
                }
            };
            println!("corpus: {} pairs from {path}", pairs.len());
            for (s, f, n) in pairs {
                failed |= !run(s, f, mode_for(n));
            }
        }

        if seeds > 0 {
            println!("fresh: {seeds} pairs from base seed {base_seed}");
            for i in 0..seeds {
                // Decorrelate the two streams: the fault seed is a mixed
                // function of the script seed so adjacent cases share
                // neither scripts nor plans.
                let script_seed = base_seed.wrapping_add(i);
                let fault_seed = script_seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
                failed |= !run(script_seed, fault_seed, mode_for(None));
            }
        }

        print_totals(cases, &totals);
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    })
}
