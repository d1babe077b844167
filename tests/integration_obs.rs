//! End-to-end tests of the observability core: the `obs` command surface
//! must agree with the protocol-level accounting, and `obs reset` must
//! make workloads exactly reproducible.

use tk::TkEnv;

/// Parses a flat Tcl name/value list (`obs counters` output) into pairs.
fn parse_counters(list: &str) -> Vec<(String, u64)> {
    let words: Vec<String> = tcl::parse_list(list).expect("valid list");
    words
        .chunks(2)
        .map(|c| (c[0].clone(), c[1].parse().expect("numeric counter")))
        .collect()
}

fn counter(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn fifty_buttons(app: &tk::TkApp) {
    for i in 0..50 {
        app.eval(&format!("button .b{i} -text \"Button {i}\""))
            .unwrap();
        app.eval(&format!("pack append . .b{i} {{top fillx}}"))
            .unwrap();
    }
    app.update();
    for i in 0..50 {
        app.eval(&format!("destroy .b{i}")).unwrap();
    }
    app.update();
}

#[test]
fn obs_counters_agree_with_connection_stats() {
    let env = TkEnv::new();
    let app = env.app("fifty");
    fifty_buttons(&app);

    let stats = app.conn().stats();
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    assert_eq!(counter(&pairs, "protocol.requests"), stats.requests);
    assert_eq!(counter(&pairs, "protocol.round_trips"), stats.round_trips);
    assert_eq!(counter(&pairs, "protocol.flushes"), stats.flushes);
    assert_eq!(
        counter(&pairs, "protocol.batched_requests"),
        stats.batched_requests
    );
    assert_eq!(counter(&pairs, "protocol.max_batch"), stats.max_batch);

    // Batching really happened: far fewer flushes than requests, and the
    // batch high-water mark covers more than one request.
    assert!(stats.flushes > 0, "workload never flushed");
    assert!(
        stats.flushes * 10 < stats.requests,
        "batching ineffective: {} flushes for {} requests",
        stats.flushes,
        stats.requests
    );
    assert!(stats.max_batch > 1, "no request ever shared a flush");

    // The per-kind breakdown sums to the total request count.
    let by_kind: u64 = pairs
        .iter()
        .filter(|(n, _)| n.starts_with("req."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(by_kind, stats.requests);

    // 50 buttons existed: at least 50 CreateWindow requests and some
    // cache activity.
    assert!(counter(&pairs, "req.CreateWindow") >= 50);
    assert!(counter(&pairs, "cache.color.misses") > 0);
    assert!(counter(&pairs, "idle.relayouts") > 0);
}

#[test]
fn reset_makes_workload_counts_reproducible() {
    let env = TkEnv::new();
    let app = env.app("fifty");
    // Warm every cache so both measured runs hit the same cache state.
    // That includes the Tcl program cache, and the measurement scripts
    // themselves: reading the counters evals "obs counters", which would
    // otherwise show up as a compile in the first epoch only.
    fifty_buttons(&app);
    app.eval("obs counters").unwrap();

    app.eval("obs reset").unwrap();
    fifty_buttons(&app);
    let first = parse_counters(&app.eval("obs counters").unwrap());

    app.eval("obs reset").unwrap();
    fifty_buttons(&app);
    let second = parse_counters(&app.eval("obs counters").unwrap());

    // Counters must reproduce exactly; histograms carry wall-clock noise
    // so they are excluded from `obs counters` by design. This includes
    // the flush/batch counters: `obs reset` flushes the output buffer
    // first, so each epoch starts from an empty buffer and batch
    // boundaries land in the same places.
    assert_eq!(first, second);
    assert!(counter(&first, "protocol.requests") > 0);
    assert!(counter(&first, "protocol.flushes") > 0);
}

#[test]
fn reset_zeroes_flush_and_batch_counters() {
    let env = TkEnv::new();
    let app = env.app("fifty");
    fifty_buttons(&app);
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    assert!(counter(&pairs, "protocol.flushes") > 0);
    assert!(counter(&pairs, "protocol.batched_requests") > 0);

    app.eval("obs reset").unwrap();
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    for name in [
        "protocol.requests",
        "protocol.round_trips",
        "protocol.flushes",
        "protocol.batched_requests",
        "protocol.max_batch",
        "protocol.max_pending_replies",
    ] {
        assert_eq!(counter(&pairs, name), 0, "{name} survived reset");
    }
}

#[test]
fn obs_reset_zeroes_tcl_counters_but_keeps_the_program_cache_warm() {
    let env = TkEnv::new();
    let app = env.app("fifty");
    app.interp().set_compile(true);
    for _ in 0..3 {
        app.eval("set warmth 1").unwrap();
    }
    // Warm the measurement script too, so reading the counters below is a
    // cache hit rather than a compile.
    app.eval("obs counters").unwrap();
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    assert!(counter(&pairs, "tcl.compiles") > 0);
    assert!(counter(&pairs, "tcl.compile_cache_hits") > 0);

    app.eval("obs reset").unwrap();
    // The counters restart from zero...
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    assert_eq!(counter(&pairs, "tcl.compiles"), 0);
    assert_eq!(counter(&pairs, "tcl.compile_cache_misses"), 0);
    // ...but the program cache survives the reset: replaying the warmed
    // script is a cache hit, not a fresh compile.
    app.eval("set warmth 1").unwrap();
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    assert_eq!(counter(&pairs, "tcl.compiles"), 0);
    assert!(counter(&pairs, "tcl.compile_cache_hits") >= 2);
}

#[test]
fn dump_json_is_valid_and_complete() {
    let env = TkEnv::new();
    let app = env.app("fifty");
    fifty_buttons(&app);
    let j = app.eval("obs dump -format json").unwrap();
    assert!(rtk_obs::json::is_valid(&j), "{j}");
    for key in [
        "\"app\"",
        "\"protocol\"",
        "\"by_kind\"",
        "\"round_trip_ns\"",
        "\"cache\"",
        "\"hits\"",
        "\"misses\"",
        "\"toolkit\"",
        "\"counters\"",
        "\"histograms\"",
        "\"tcl\"",
        "\"compile_enabled\"",
    ] {
        assert!(j.contains(key), "dump missing {key}: {j}");
    }
}

#[test]
fn trace_captures_the_workload_when_enabled() {
    let env = TkEnv::new();
    let app = env.app("t");
    app.eval("obs trace on").unwrap();
    app.eval("frame .f; frame .g").unwrap();
    let trace = app.eval("obs trace 100").unwrap();
    let create_lines = trace.lines().filter(|l| l.contains("CreateWindow")).count();
    assert_eq!(create_lines, 2, "{trace}");
    // The dump reflects the enabled trace.
    let j = app.eval("obs dump -format json").unwrap();
    assert!(j.contains("\"trace_enabled\":true"), "{j}");
}

/// Traced requests join the server's flush spans on the sequence number
/// (the x11rb cookie model): every traced one-way request lies in exactly
/// one `flush` span's `seq first..last` range.
#[test]
fn traced_one_way_requests_join_exactly_one_flush() {
    let env = TkEnv::new();
    let app = env.app("join");
    app.eval("obs trace on").unwrap();
    fifty_buttons(&app);
    let spans = app.tracer().snapshot();
    let flushes: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.kind == "flush")
        .map(|s| {
            let range = s.detail.strip_prefix("seq ").expect("flush detail");
            let (first, last) = range.split_once("..").expect("a seq range");
            let first: u64 = first.parse().unwrap();
            assert_eq!(first, s.seq, "a flush is keyed on its first seq");
            (first, last.parse().unwrap())
        })
        .collect();
    let one_way: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == "request" && s.detail.split(' ').nth(1) == Some("one-way"))
        .map(|s| s.seq)
        .collect();
    assert!(
        one_way.len() > 100,
        "{} one-way requests traced",
        one_way.len()
    );
    for seq in one_way {
        let batches = flushes
            .iter()
            .filter(|(first, last)| (*first..=*last).contains(&seq))
            .count();
        assert_eq!(batches, 1, "request {seq} lies in {batches} flush batches");
    }
}

/// `obs reset` is a span-epoch boundary: the recorded spans are cleared,
/// the epoch advances, and spans begun after the reset land in the new
/// epoch with no dangling references to the cleared ones.
#[test]
fn obs_reset_epoch_scopes_the_span_store() {
    let env = TkEnv::new();
    let app = env.app("spans");
    fifty_buttons(&app);
    assert!(!app.tracer().is_empty(), "workload recorded no spans");
    let epoch_before = app.tracer().epoch();

    app.eval("obs reset").unwrap();
    assert!(
        app.tracer().is_empty(),
        "obs reset left spans from the previous epoch"
    );
    assert_eq!(app.tracer().epoch(), epoch_before + 1);
    assert_eq!(app.tracer().open_count(), 0);

    // Work after the reset records into the new epoch, well formed.
    fifty_buttons(&app);
    let spans = app.tracer().snapshot();
    assert!(!spans.is_empty());
    assert!(spans.iter().all(|s| s.epoch == epoch_before + 1));
    app.tracer()
        .check_integrity()
        .expect("post-reset span tree");

    // The textual surface agrees: `obs spans` renders the new epoch only.
    let tree = app.eval("obs spans tree").unwrap();
    assert!(tree.contains("update"), "{tree}");
}

/// The wire-transport counters and the audit counters are epoch-scoped
/// like everything else: `obs reset` zeroes them, and a clean post-run
/// audit after the reset still reports no violations.
#[test]
fn obs_reset_zeroes_wire_and_audit_counters() {
    let display = xsim::Display::new();
    display.set_wire(true);
    let env = TkEnv::with_display(display);
    let app = env.app("wirereset");
    fifty_buttons(&app);

    // The workload crossed the framed transport and a first audit ran.
    let audit = app.eval("obs audit").unwrap();
    assert_eq!(audit, "", "clean run must audit clean: {audit}");
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    assert!(counter(&pairs, "wire.frames_encoded") > 0, "{pairs:?}");
    assert!(counter(&pairs, "wire.flushes") > 0, "{pairs:?}");
    assert_eq!(counter(&pairs, "wire.checksum_errors"), 0, "{pairs:?}");
    assert_eq!(counter(&pairs, "wire.watchdog_fires"), 0, "{pairs:?}");
    assert_eq!(counter(&pairs, "audit.runs"), 1, "{pairs:?}");
    assert_eq!(counter(&pairs, "audit.violations"), 0, "{pairs:?}");

    // Reset is an epoch boundary for the wire and audit families too.
    app.eval("obs reset").unwrap();
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    for name in [
        "wire.frames_encoded",
        "wire.bytes_encoded",
        "wire.frames_decoded",
        "wire.flushes",
        "wire.checksum_errors",
        "wire.watchdog_fires",
        "audit.runs",
        "audit.violations",
    ] {
        assert_eq!(counter(&pairs, name), 0, "{name} survived obs reset");
    }

    // And the post-reset world still audits clean end to end.
    assert_eq!(app.eval("obs audit").unwrap(), "");
    let pairs = parse_counters(&app.eval("obs counters").unwrap());
    assert_eq!(counter(&pairs, "audit.runs"), 1, "{pairs:?}");
}
