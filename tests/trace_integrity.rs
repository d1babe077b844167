//! Trace integrity under faults.
//!
//! The causal span tracer records across every chaos replay (it is always
//! on), and faults — dropped requests, error replies, duplicated and
//! reordered traffic, killed connections — must never corrupt the span
//! tree: no span may reference a missing parent, and no span may still be
//! open once the run is quiescent. `tk_bench::chaos` enforces this inside
//! every run (a violation is a `Failure` like a panic or a broken send
//! invariant); this suite replays both checked-in corpora with explicit
//! shape assertions on top, so a tracer regression fails here by name
//! rather than as a generic chaos failure.

use tk_bench::chaos::{run_case, Mode, STORM_APPS};

/// Corpus lines are `script_seed fault_seed [apps]`; the third column is
/// the storm's app count (the two-app corpus ignores it).
fn parse_entries(text: &str) -> Vec<(u64, u64, usize)> {
    text.lines()
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                return None;
            }
            let mut it = line.split_whitespace();
            Some((
                it.next().unwrap().parse().expect("script seed"),
                it.next().unwrap().parse().expect("fault seed"),
                it.next()
                    .map(|n| n.parse().expect("app count"))
                    .unwrap_or(STORM_APPS),
            ))
        })
        .collect()
}

#[test]
fn every_corpus_pair_yields_a_well_formed_span_tree() {
    for (script_seed, fault_seed, _) in parse_entries(include_str!("chaos_corpus.txt")) {
        let stats = run_case(Mode::Classic, script_seed, fault_seed)
            .unwrap_or_else(|e| panic!("pair ({script_seed}, {fault_seed}): {e}"));
        assert!(
            stats.spans_recorded > 0,
            "pair ({script_seed}, {fault_seed}) recorded no spans"
        );
        assert_eq!(
            stats.span_shape.orphans, 0,
            "pair ({script_seed}, {fault_seed}) produced orphaned spans"
        );
        assert_eq!(
            stats.span_shape.open, 0,
            "pair ({script_seed}, {fault_seed}) left spans open at quiescence"
        );
    }
}

#[test]
fn every_storm_pair_yields_a_well_formed_span_tree() {
    for (script_seed, fault_seed, napps) in parse_entries(include_str!("chaos_storm_corpus.txt")) {
        let stats = run_case(Mode::Storm(napps), script_seed, fault_seed)
            .unwrap_or_else(|e| panic!("storm pair ({script_seed}, {fault_seed}): {e}"));
        assert!(
            stats.spans_recorded > 0,
            "storm pair ({script_seed}, {fault_seed}) recorded no spans"
        );
        assert_eq!(
            stats.span_shape.orphans, 0,
            "storm pair ({script_seed}, {fault_seed}) produced orphaned spans"
        );
        assert_eq!(
            stats.span_shape.open, 0,
            "storm pair ({script_seed}, {fault_seed}) left spans open at quiescence"
        );
    }
}

/// The recorded shape — not just its well-formedness — is deterministic
/// for a faulted replay: same seeds, same span tree.
#[test]
fn faulted_replay_span_shapes_are_deterministic() {
    let (script_seed, fault_seed, _) = parse_entries(include_str!("chaos_corpus.txt"))[0];
    let a = run_case(Mode::Classic, script_seed, fault_seed).expect("no panic");
    let b = run_case(Mode::Classic, script_seed, fault_seed).expect("no panic");
    assert_eq!(a.spans_recorded, b.spans_recorded);
    assert_eq!(a.span_shape, b.span_shape);
}

/// Faulted sends still correlate: every storm replay records `send` spans
/// on senders and `send.eval` spans on receivers, and a faulted run can
/// legitimately have fewer evals than sends — but never more.
#[test]
fn storm_send_spans_dominate_their_evals() {
    let (script_seed, fault_seed, napps) = parse_entries(include_str!("chaos_storm_corpus.txt"))[0];
    let stats = run_case(Mode::Storm(napps), script_seed, fault_seed).expect("invariant holds");
    let sends = stats.span_shape.by_kind.get("send").copied().unwrap_or(0);
    let evals = stats
        .span_shape
        .by_kind
        .get("send.eval")
        .copied()
        .unwrap_or(0);
    assert!(sends > 0, "storm run recorded no send spans");
    assert!(
        evals <= sends,
        "more send.eval spans ({evals}) than send spans ({sends})"
    );
}
