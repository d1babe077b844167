//! The `obs` command: the Tcl-level surface of the observability core.
//!
//! Everything the toolkit measures — protocol requests per kind, round-trip
//! latency, cache hits and misses, binding dispatch, redraw and relayout
//! timing — is inspectable from scripts. Stage timings (`<kind>_ns`) and
//! the protocol trace are views of the span tracer's store:
//!
//! ```tcl
//! obs counters              ;# flat name/value list
//! obs histogram redraw_ns   ;# one-line latency summary
//! obs trace on              ;# start recording the protocol trace
//! obs trace 10              ;# the last 10 traced requests and faults
//! obs spans                 ;# causal span tree (rtk-trace)
//! obs spans flat            ;# one span per line
//! obs spans json            ;# span records as JSON
//! obs snapshot              ;# human-readable overview
//! obs audit                 ;# post-run resource-leak audit (empty = clean)
//! obs reset                 ;# zero every counter, histogram, and trace
//! obs dump -format json     ;# machine-readable dump of everything
//! ```

use tcl::{wrong_args, Exception, TclResult};

use crate::app::TkApp;

/// Registers the `obs` command.
pub fn register(app: &TkApp) {
    app.register_command("obs", cmd_obs);
}

fn cmd_obs(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("obs option ?arg ...?"));
    }
    match argv[1].as_str() {
        "counters" => Ok(counters_list(app)),
        "histogram" => {
            let name = argv
                .get(2)
                .ok_or_else(|| wrong_args("obs histogram name"))?;
            match find_histogram(app, name) {
                Some(h) => Ok(h.summary()),
                None => Err(Exception::error(format!(
                    "no histogram named \"{name}\": should be one of {}",
                    histogram_names(app).join(", ")
                ))),
            }
        }
        "trace" => match argv.get(2).map(String::as_str) {
            Some("on") => {
                app.conn().obs_set_trace(true);
                Ok(String::new())
            }
            Some("off") => {
                app.conn().obs_set_trace(false);
                Ok(String::new())
            }
            Some(n) => {
                let n: usize = n.parse().map_err(|_| {
                    Exception::error(format!("expected integer or on|off but got \"{n}\""))
                })?;
                Ok(trace_lines(app, n))
            }
            None => Ok(trace_lines(app, usize::MAX)),
        },
        "spans" => {
            let spans = app.tracer().snapshot();
            match argv.get(2).map(String::as_str) {
                None | Some("tree") => Ok(rtk_obs::span::spans_to_tree(&spans)),
                Some("flat") => Ok(rtk_obs::span::spans_to_flat(&spans)),
                Some("json") => Ok(rtk_obs::span::spans_to_json(&spans)),
                Some(other) => Err(Exception::error(format!(
                    "bad format \"{other}\": must be tree, flat, or json"
                ))),
            }
        }
        "snapshot" => Ok(snapshot(app)),
        "audit" => {
            // The post-run resource-leak reckoning: every violation is a
            // server object still chargeable to a dead client (or a
            // registry shard pointing at a vanished comm window). Clean
            // runs return the empty string, so scripts can gate on it.
            let violations = app.conn().audit();
            app.obs().incr("audit.runs");
            app.obs().add("audit.violations", violations.len() as u64);
            Ok(violations.join("\n"))
        }
        "reset" => {
            // `reset_obs` starts a new tracer epoch server-side (the span
            // store clears and in-flight spans re-parent to the new root),
            // so spans stay scoped to the same epoch as every counter.
            app.conn().reset_obs();
            app.obs().reset();
            app.cache().reset_stats();
            app.inner.bindings.borrow_mut().reset_stats();
            // Compile counters reset; the program cache itself stays warm
            // so post-reset measurement epochs replay cached programs.
            app.interp().reset_compile_stats();
            Ok(String::new())
        }
        "dump" => {
            match argv.get(2).map(String::as_str) {
                None => {}
                Some("-format") => {
                    let fmt = argv.get(3).map(String::as_str).unwrap_or("");
                    if fmt != "json" {
                        return Err(Exception::error(format!(
                            "bad format \"{fmt}\": must be json"
                        )));
                    }
                }
                Some(other) => {
                    return Err(Exception::error(format!(
                        "bad option \"{other}\": must be -format"
                    )))
                }
            }
            Ok(dump_json(app))
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": must be counters, histogram, trace, spans, snapshot, \
             audit, reset, or dump"
        ))),
    }
}

/// Every counter the toolkit knows, as a flat Tcl list of name/value pairs:
/// protocol requests per kind (prefixed `req.`), cache hits and misses
/// (`cache.<class>.hits`/`.misses`), binding match statistics, and the
/// toolkit registry counters.
fn counters_list(app: &TkApp) -> String {
    let mut items: Vec<String> = Vec::new();
    let stats = app.conn().stats();
    items.push("protocol.requests".into());
    items.push(stats.requests.to_string());
    items.push("protocol.round_trips".into());
    items.push(stats.round_trips.to_string());
    items.push("protocol.events".into());
    items.push(stats.events.to_string());
    items.push("protocol.flushes".into());
    items.push(stats.flushes.to_string());
    items.push("protocol.batched_requests".into());
    items.push(stats.batched_requests.to_string());
    items.push("protocol.max_batch".into());
    items.push(stats.max_batch.to_string());
    items.push("protocol.max_pending_replies".into());
    items.push(stats.max_pending_replies.to_string());
    for (kind, n) in app.conn().obs_kind_counts() {
        items.push(format!("req.{kind}"));
        items.push(n.to_string());
    }
    let faults = app
        .conn()
        .with_obs(|o| (o.faults_injected, o.fault_kind_counts()));
    if let Some((total, by_kind)) = faults {
        items.push("protocol.faults_injected".into());
        items.push(total.to_string());
        for (kind, n) in by_kind {
            items.push(format!("fault.{kind}"));
            items.push(n.to_string());
        }
    }
    let wire = app.conn().wire_stats();
    if wire.active() {
        for (name, v) in [
            ("wire.frames_encoded", wire.frames_encoded),
            ("wire.bytes_encoded", wire.bytes_encoded),
            ("wire.frames_decoded", wire.frames_decoded),
            ("wire.bytes_decoded", wire.bytes_decoded),
            ("wire.flushes", wire.flushes),
            ("wire.backpressure_stalls", wire.backpressure_stalls),
            ("wire.checksum_errors", wire.checksum_errors),
            ("wire.watchdog_fires", wire.watchdog_fires),
        ] {
            items.push(name.into());
            items.push(v.to_string());
        }
    }
    for (class, hits, misses) in app.cache().stats() {
        items.push(format!("cache.{class}.hits"));
        items.push(hits.to_string());
        items.push(format!("cache.{class}.misses"));
        items.push(misses.to_string());
    }
    let (considered, matched) = app.inner.bindings.borrow().match_stats();
    items.push("bind.considered".into());
    items.push(considered.to_string());
    items.push("bind.matched".into());
    items.push(matched.to_string());
    for (name, v) in app.interp().compile_counters() {
        items.push(name.into());
        items.push(v.to_string());
    }
    for (name, v) in app.obs().counters() {
        items.push(name);
        items.push(v.to_string());
    }
    tcl::format_list(&items)
}

/// The span store's per-stage rollup: the one source of the `<kind>_ns`
/// stage histograms.
fn stages(app: &TkApp) -> Vec<rtk_obs::span::Stage> {
    rtk_obs::span::stage_totals(&app.tracer().snapshot())
}

/// Looks up a histogram by name: the protocol histograms have the fixed
/// names `request_ns` and `round_trip_ns`; any other `<kind>_ns` is the
/// wall time of the current epoch's closed `<kind>` spans; everything
/// else lives in the toolkit registry.
fn find_histogram(app: &TkApp, name: &str) -> Option<rtk_obs::Histogram> {
    match name {
        "request_ns" => Some(app.conn().obs_request_histogram()),
        "round_trip_ns" => Some(app.conn().obs_round_trip_histogram()),
        _ => match name.strip_suffix("_ns") {
            Some(kind) => stages(app).into_iter().find(|s| s.kind == kind)?.ns,
            None => app.obs().histogram(name),
        },
    }
}

fn histogram_names(app: &TkApp) -> Vec<String> {
    let mut names = vec!["request_ns".to_string(), "round_trip_ns".to_string()];
    for stage in stages(app) {
        if stage.ns.is_some() {
            names.push(format!("{}_ns", stage.kind));
        }
    }
    names.extend(app.obs().histogram_names());
    names
}

/// The last `n` protocol trace records, one per line: a traced request
/// as `seq kind one-way|round-trip window duration_ns`, an injected
/// fault as `seq fault=<kind>` (the faulted request shares its `seq`).
fn trace_lines(app: &TkApp, n: usize) -> String {
    app.conn()
        .obs_trace(n)
        .iter()
        .map(|r| match r.kind {
            "fault" => format!("{} fault={}", r.seq, r.detail),
            _ => format!("{} {}", r.seq, r.detail),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A human-readable overview of everything, for interactive poking.
fn snapshot(app: &TkApp) -> String {
    let mut out = String::new();
    let stats = app.conn().stats();
    out.push_str(&format!(
        "protocol: {} requests, {} round trips, {} events, {} flushes (max batch {})\n",
        stats.requests, stats.round_trips, stats.events, stats.flushes, stats.max_batch
    ));
    for (kind, n) in app.conn().obs_kind_counts() {
        out.push_str(&format!("  {kind}: {n}\n"));
    }
    out.push_str(&format!(
        "round_trip_ns: {}\n",
        app.conn().obs_round_trip_histogram().summary()
    ));
    out.push_str("cache:\n");
    for (class, hits, misses) in app.cache().stats() {
        if hits + misses > 0 {
            out.push_str(&format!("  {class}: {hits} hits, {misses} misses\n"));
        }
    }
    if let Some((total, by_kind)) = app
        .conn()
        .with_obs(|o| (o.faults_injected, o.fault_kind_counts()))
    {
        if total > 0 {
            out.push_str(&format!("faults: {total} injected\n"));
            for (kind, n) in by_kind {
                out.push_str(&format!("  {kind}: {n}\n"));
            }
        }
    }
    let (considered, matched) = app.inner.bindings.borrow().match_stats();
    out.push_str(&format!(
        "bind: {considered} considered, {matched} matched\n"
    ));
    out.push_str(&format!(
        "tcl: compile {}\n",
        if app.interp().compile_enabled() {
            "on"
        } else {
            "off"
        }
    ));
    for (name, v) in app.interp().compile_counters() {
        out.push_str(&format!("  {name}: {v}\n"));
    }
    out.push_str("toolkit:\n");
    for (name, v) in app.obs().counters() {
        out.push_str(&format!("  {name}: {v}\n"));
    }
    for name in app.obs().histogram_names() {
        if let Some(h) = app.obs().histogram(&name) {
            out.push_str(&format!("  {name}: {}\n", h.summary()));
        }
    }
    out.push_str("stages:\n");
    for stage in stages(app) {
        if let Some(h) = stage.ns {
            out.push_str(&format!("  {}_ns: {}\n", stage.kind, h.summary()));
        }
    }
    out.push_str(&format!(
        "trace: {}\n",
        if app.conn().obs_trace_enabled() {
            "on"
        } else {
            "off"
        }
    ));
    let t = app.tracer();
    out.push_str(&format!(
        "spans: {} recorded (epoch {}, {} open, {} dropped)\n",
        t.len(),
        t.epoch(),
        t.open_count(),
        t.dropped()
    ));
    out.pop();
    out
}

/// The full machine-readable dump: the acceptance surface of the
/// observability core. Validated JSON with the app name, the protocol
/// view (compat `ClientStats` plus the structured per-kind counters,
/// histograms, and trace), the cache hit/miss table, binding match
/// statistics, the toolkit registry, and the span store's per-stage
/// rollup (each timed stage with its `ns` histogram).
pub fn dump_json(app: &TkApp) -> String {
    let stats = app.conn().stats();
    let mut protocol = rtk_obs::json::Object::new();
    protocol.field_u64("requests", stats.requests);
    protocol.field_u64("round_trips", stats.round_trips);
    protocol.field_u64("events", stats.events);
    protocol.field_u64("flushes", stats.flushes);
    protocol.field_u64("batched_requests", stats.batched_requests);
    protocol.field_u64("max_batch", stats.max_batch);
    protocol.field_u64("max_pending_replies", stats.max_pending_replies);
    protocol.field_u64(
        "faults_injected",
        app.conn().with_obs(|o| o.faults_injected).unwrap_or(0),
    );
    protocol.field_raw("detail", &app.conn().obs_json());

    let (considered, matched) = app.inner.bindings.borrow().match_stats();
    let mut bind = rtk_obs::json::Object::new();
    bind.field_u64("considered", considered);
    bind.field_u64("matched", matched);

    let mut tcl_obj = rtk_obs::json::Object::new();
    tcl_obj.field_bool("compile_enabled", app.interp().compile_enabled());
    for (name, v) in app.interp().compile_counters() {
        tcl_obj.field_u64(name.trim_start_matches("tcl."), v);
    }

    let t = app.tracer();
    let span_records = t.snapshot();
    let mut shape = rtk_obs::SpanShape::default();
    shape.collect(&span_records);
    let mut stages = rtk_obs::json::Array::new();
    for stage in rtk_obs::span::stage_totals(&span_records) {
        let mut st = rtk_obs::json::Object::new();
        st.field_str("kind", stage.kind)
            .field_u64("count", stage.count)
            .field_u64("total_ns", stage.total_ns)
            .field_u64("total_vms", stage.total_vms);
        if let Some(h) = stage.ns {
            st.field_raw("ns", &h.to_json());
        }
        stages.push_raw(&st.build());
    }
    let mut spans = rtk_obs::json::Object::new();
    spans
        .field_u64("count", span_records.len() as u64)
        .field_u64("epoch", t.epoch())
        .field_u64("open", t.open_count() as u64)
        .field_u64("dropped", t.dropped())
        .field_raw("stages", &stages.build())
        .field_raw("shape", &shape.to_json());

    let mut o = rtk_obs::json::Object::new();
    o.field_str("app", &app.name());
    o.field_raw("protocol", &protocol.build());
    o.field_raw("cache", &app.cache().stats_json());
    o.field_raw("bind", &bind.build());
    o.field_raw("tcl", &tcl_obj.build());
    o.field_raw("toolkit", &app.obs().to_json());
    o.field_raw("spans", &spans.build());
    o.build()
}

#[cfg(test)]
mod tests {
    use crate::TkEnv;

    #[test]
    fn counters_include_protocol_and_cache() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -text hi").unwrap();
        app.update();
        let out = app.eval("obs counters").unwrap();
        assert!(out.contains("protocol.requests"), "{out}");
        assert!(out.contains("protocol.flushes"), "{out}");
        assert!(out.contains("protocol.batched_requests"), "{out}");
        assert!(out.contains("req.CreateWindow"), "{out}");
        assert!(out.contains("cache.color.misses"), "{out}");
    }

    #[test]
    fn histogram_summary_and_unknown_name() {
        let env = TkEnv::new();
        let app = env.app("t");
        let out = app.eval("obs histogram round_trip_ns").unwrap();
        assert!(out.starts_with("count "), "{out}");
        let err = app.eval("obs histogram nosuch").unwrap_err();
        assert!(err.msg.contains("no histogram named"), "{}", err.msg);
    }

    #[test]
    fn trace_toggles_and_lists() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("obs trace on").unwrap();
        app.eval("frame .f").unwrap();
        let out = app.eval("obs trace 5").unwrap();
        assert!(out.contains("CreateWindow"), "{out}");
        app.eval("obs trace off").unwrap();
        let before = app.eval("obs trace").unwrap();
        app.eval("frame .g").unwrap();
        assert_eq!(
            app.eval("obs trace").unwrap(),
            before,
            "trace off records nothing"
        );
    }

    #[test]
    fn stage_histograms_count_the_spans_of_their_kind() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -text hi; pack append . .b {top}")
            .unwrap();
        app.eval("bind .b <ButtonPress-1> {set hits 1}").unwrap();
        app.update();
        let rec = app.window(".b").unwrap();
        env.display().move_pointer(rec.x.get() + 5, rec.y.get() + 5);
        env.display().click(1);
        env.dispatch_all();
        let kinds = ["dispatch", "update", "redraw", "bind", "relayout"];
        let spans_of = |flat: &str, kind: &str| {
            flat.lines()
                .filter(|l| l.split(' ').nth(1) == Some(kind))
                .count()
        };
        let flat = app.eval("obs spans flat").unwrap();
        for kind in kinds {
            let spans = spans_of(&flat, kind);
            assert!(spans > 0, "no {kind} spans: {flat}");
            let summary = app.eval(&format!("obs histogram {kind}_ns")).unwrap();
            assert!(
                summary.starts_with(&format!("count {spans} ")),
                "{kind}: {spans} spans, histogram {summary}"
            );
        }
        app.eval("obs reset").unwrap();
        let flat = app.eval("obs spans flat").unwrap();
        for kind in kinds {
            assert_eq!(spans_of(&flat, kind), 0, "{kind} after reset: {flat}");
            let err = app.eval(&format!("obs histogram {kind}_ns")).unwrap_err();
            assert!(err.msg.contains("no histogram named"), "{}", err.msg);
        }
    }

    #[test]
    fn spans_subcommand_renders_tree_flat_and_json() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -text hi; pack append . .b {top}")
            .unwrap();
        app.update();
        let tree = app.eval("obs spans").unwrap();
        assert!(tree.contains("update"), "{tree}");
        assert!(tree.contains("redraw"), "{tree}");
        assert!(tree.contains("relayout"), "{tree}");
        let flat = app.eval("obs spans flat").unwrap();
        assert!(flat.lines().count() >= tree.lines().count(), "{flat}");
        let json = app.eval("obs spans json").unwrap();
        assert!(rtk_obs::json::is_valid(&json), "{json}");
        assert!(json.contains("\"kind\":\"flush\""), "{json}");
        let err = app.eval("obs spans csv").unwrap_err();
        assert!(
            err.msg.contains("must be tree, flat, or json"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn dump_is_valid_json() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -text hi").unwrap();
        app.update();
        let j = app.eval("obs dump -format json").unwrap();
        assert!(rtk_obs::json::is_valid(&j), "{j}");
        assert!(j.contains("\"by_kind\""), "{j}");
        assert!(j.contains("\"by_kind_round_trip\""), "{j}");
        assert!(j.contains("\"flushes\""), "{j}");
        assert!(j.contains("\"max_batch\""), "{j}");
        assert!(j.contains("\"cache\""), "{j}");
        assert!(j.contains("\"round_trip_ns\""), "{j}");
        assert!(j.contains("\"spans\""), "{j}");
        assert!(j.contains("\"stages\""), "{j}");
        let err = app.eval("obs dump -format xml").unwrap_err();
        assert!(err.msg.contains("must be json"), "{}", err.msg);
    }

    #[test]
    fn reset_zeroes_every_layer() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("button .b -text hi; pack append . .b {top}")
            .unwrap();
        app.update();
        assert!(app.conn().stats().requests > 0);
        app.eval("obs reset").unwrap();
        assert_eq!(app.conn().stats().requests, 0);
        assert!(app.conn().obs_kind_counts().is_empty());
        assert_eq!(app.cache().hits() + app.cache().misses(), 0);
        assert!(app.obs().counters().is_empty());
        let (considered, matched) = app.inner.bindings.borrow().match_stats();
        assert_eq!((considered, matched), (0, 0));
    }

    #[test]
    fn snapshot_is_human_readable() {
        let env = TkEnv::new();
        let app = env.app("t");
        let out = app.eval("obs snapshot").unwrap();
        assert!(out.contains("protocol:"), "{out}");
        assert!(out.contains("trace: off"), "{out}");
    }

    #[test]
    fn injected_faults_show_in_counters_trace_and_dump() {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("obs trace on").unwrap();
        let seq = app.conn().sequence();
        env.display().with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().error_at(
                0,
                seq + 1,
                xsim::XErrorCode::BadAtom,
            ))
        });
        let err = app.eval("wm title . hello").unwrap_err();
        assert!(err.msg.contains("X protocol error"), "{}", err.msg);
        let out = app.eval("obs counters").unwrap();
        assert!(out.contains("protocol.faults_injected 1"), "{out}");
        assert!(out.contains("fault.error.BadAtom 1"), "{out}");
        let trace = app.eval("obs trace").unwrap();
        assert!(trace.contains("fault=error.BadAtom"), "{trace}");
        let snap = app.eval("obs snapshot").unwrap();
        assert!(snap.contains("faults: 1 injected"), "{snap}");
        let j = app.eval("obs dump -format json").unwrap();
        assert!(rtk_obs::json::is_valid(&j), "{j}");
        assert!(j.contains("\"faults_injected\":1"), "{j}");
        assert!(j.contains("\"by_fault\""), "{j}");
    }

    #[test]
    fn obs_reset_clears_fault_counters() {
        let env = TkEnv::new();
        let app = env.app("t");
        let seq = app.conn().sequence();
        env.display().with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().error_at(
                0,
                seq + 1,
                xsim::XErrorCode::BadValue,
            ))
        });
        app.eval("wm title . hello").unwrap_err();
        app.eval("obs reset").unwrap();
        let out = app.eval("obs counters").unwrap();
        assert!(out.contains("protocol.faults_injected 0"), "{out}");
        assert!(!out.contains("fault.error.BadValue"), "{out}");
    }
}
