//! Corpus-anchoring maintenance tool. Fault plans key on sequence
//! numbers, so any change to the request stream (new round trips,
//! interest registration, fewer registry reads) silently shifts which
//! requests the corpus's fault specs land on. When that drifts a seed
//! pair off the behavior its regression test asserts, rerun this:
//!
//! * `audit` — replays `tests/chaos_storm_corpus.txt` and prints which
//!   fault kinds each entry actually fires now (and its dedup drops).
//! * `pairs` — the same for the two-app corpus, `tests/chaos_corpus.txt`.
//! * `bytes` — replays `tests/chaos_bytes_corpus.txt` and prints each
//!   entry's `byte.*` firings. Byte faults key on per-client frame
//!   indices, so any change to how many request frames a client ships
//!   moves them; an entry that stops
//!   hitting its fault needs a new fault seed.
//! * `flagship` — searches for a 3-app storm fault seed that fires
//!   ONLY a duplicate, with the receiver dropping the copy (corpus
//!   entry 0's contract).
//! * `twoapp` — same for the two-app fuzz's dedup anchor (pair 142).
//! * `remine SCRIPT KIND[=N]...` — searches for a fault seed that makes
//!   the two-app script `SCRIPT` fire every listed fault kind (at least
//!   `N` times), for a `pairs` entry that stopped hitting its faults.
//! * `fleet [napps]` — mines N-app storm entries that each cover 3+
//!   fault kinds, for the corpus's fleet-sized rows.

use tk_bench::chaos::{run_case, Mode};
use tk_bench::XorShift;
use xsim::fault::FAULT_KIND_NAMES;

fn show(tag: &str, counts: &[u64], dedup: u64) {
    let mut parts = Vec::new();
    for (name, n) in FAULT_KIND_NAMES.iter().zip(counts) {
        if *n > 0 {
            parts.push(format!("{name}={n}"));
        }
    }
    println!("{tag}: {} dedup={dedup}", parts.join(" "));
}

/// The `script_seed fault_seed [apps]` entries of a corpus file.
fn corpus(path: &str) -> Vec<(u64, u64, Option<usize>)> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|line| !line.is_empty())
        .map(|line| {
            let mut it = line.split_whitespace();
            let s = it.next().unwrap().parse().unwrap();
            let f = it.next().unwrap().parse().unwrap();
            (s, f, it.next().map(|v| v.parse().unwrap()))
        })
        .collect()
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "audit" => {
            for (s, f, n) in corpus("tests/chaos_storm_corpus.txt") {
                let n = n.unwrap_or(3);
                match run_case(Mode::Storm(n), s, f) {
                    Ok(st) => show(
                        &format!("{s} {f} {n}"),
                        &st.fault_counts,
                        st.send_dedup_drops,
                    ),
                    Err(e) => println!("{s} {f} {n}: FAILED {e}"),
                }
            }
        }
        "pairs" => {
            for (s, f, _) in corpus("tests/chaos_corpus.txt") {
                match run_case(Mode::Classic, s, f) {
                    Ok(st) => show(&format!("{s} {f}"), &st.fault_counts, st.send_dedup_drops),
                    Err(e) => println!("{s} {f}: FAILED {e}"),
                }
            }
        }
        "bytes" => {
            for (s, f, _) in corpus("tests/chaos_bytes_corpus.txt") {
                match run_case(Mode::Bytes, s, f) {
                    Ok(st) => {
                        let fired: Vec<String> = FAULT_KIND_NAMES
                            .iter()
                            .zip(&st.fault_counts)
                            .filter(|(name, n)| name.starts_with("byte.") && **n > 0)
                            .map(|(name, n)| format!("{name}={n}"))
                            .collect();
                        println!("{s} {f}: {}", fired.join(" "));
                    }
                    Err(e) => println!("{s} {f}: FAILED {e}"),
                }
            }
        }
        "flagship" => {
            // A storm pair whose plan fires ONLY duplicate faults, with
            // the receiver dropping at least one copy.
            let mut rng = XorShift::new(0xf1a9);
            for _ in 0..100_000 {
                let f = rng.next_u64();
                let Ok(st) = run_case(Mode::Storm(3), 0, f) else {
                    continue;
                };
                let dup = st.fault_counts[FAULT_KIND_NAMES
                    .iter()
                    .position(|n| *n == "duplicate")
                    .unwrap()];
                let total: u64 = st.fault_counts.iter().sum();
                if dup >= 1 && total == dup && st.send_dedup_drops >= 1 {
                    show(
                        &format!("FLAGSHIP 0 {f} 3"),
                        &st.fault_counts,
                        st.send_dedup_drops,
                    );
                    return;
                }
            }
            println!("no flagship found");
        }
        "twoapp" => {
            let mut rng = XorShift::new(0x2a44);
            for _ in 0..100_000 {
                let f = rng.next_u64();
                let Ok(st) = run_case(Mode::Classic, 142, f) else { continue };
                let dup = st.fault_counts[FAULT_KIND_NAMES
                    .iter()
                    .position(|n| *n == "duplicate")
                    .unwrap()];
                if dup >= 1 && st.send_dedup_drops >= 1 {
                    show(
                        &format!("TWOAPP 142 {f}"),
                        &st.fault_counts,
                        st.send_dedup_drops,
                    );
                    return;
                }
            }
            println!("no two-app pair found");
        }
        "remine" => {
            let args: Vec<String> = std::env::args().skip(2).collect();
            let script: u64 = args[0].parse().unwrap();
            // `kind` or `kind=N`: fire that kind at least once (N times).
            let kinds: Vec<(usize, u64)> = args[1..]
                .iter()
                .map(|arg| {
                    let (k, n) = arg.split_once('=').unwrap_or((arg, "1"));
                    let kind = FAULT_KIND_NAMES.iter().position(|name| *name == k);
                    (kind.unwrap(), n.parse().unwrap())
                })
                .collect();
            let mut rng = XorShift::new(0x4e3a ^ script);
            for _ in 0..100_000 {
                let f = rng.next_u64();
                let Ok(st) = run_case(Mode::Classic, script, f) else { continue };
                if kinds.iter().all(|(k, n)| st.fault_counts[*k] >= *n) {
                    show(&format!("{script} {f}"), &st.fault_counts, st.send_dedup_drops);
                    return;
                }
            }
            println!("no fault seed found for {script}");
        }
        "fleet" => {
            // N-app storm entries (N > 3) that together cover every
            // fault kind, for the corpus's fleet rows.
            let napps: usize = std::env::args()
                .nth(2)
                .and_then(|v| v.parse().ok())
                .unwrap_or(8);
            let mut rng = XorShift::new(0xf1ee7 ^ napps as u64);
            let mut found = 0;
            for _ in 0..50_000 {
                let s = rng.below(200);
                let f = rng.next_u64();
                let Ok(st) = run_case(Mode::Storm(napps), s, f) else {
                    println!("{s} {f} {napps}: INVARIANT FAILED");
                    continue;
                };
                if st.fault_counts.iter().filter(|n| **n > 0).count() >= 3 {
                    show(
                        &format!("{s} {f} {napps}"),
                        &st.fault_counts,
                        st.send_dedup_drops,
                    );
                    found += 1;
                    if found >= 8 {
                        return;
                    }
                }
            }
        }
        _ => println!(
            "modes: audit | pairs | bytes | flagship | twoapp | remine SCRIPT KIND[=N]... | fleet [napps]"
        ),
    }
}
