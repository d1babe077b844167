//! The `obs` command: the Tcl-level surface of the observability core.
//!
//! Everything the toolkit measures — protocol requests per kind, round-trip
//! latency, cache hits and misses, binding dispatch, redraw and relayout
//! timing — is inspectable from scripts. Counters live in static counter
//! sets, one per family, and every subcommand walks the same sets. Stage timings (`<kind>_ns`), the request
//! latencies and the protocol trace are views of the span tracer's store:
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

use std::cell::{RefCell, RefMut};

use rtk_obs::json::Object;
use rtk_obs::Histogram;
use tcl::{wrong_args, Exception, TclResult};

use crate::app::TkApp;

rtk_obs::counter_set! {
    /// The toolkit's own counters: event dispatch, bindings, idle work,
    /// geometry, `send`, and `obs audit`.
    pub struct ToolkitCounters {
        events_dispatched => "events.dispatched",
        bind_matches => "bind.matches",
        bind_misses => "bind.misses",
        timers_fired => "timers.fired",
        idle_scripts => "idle.scripts",
        idle_redraws => "idle.redraws",
        idle_relayouts => "idle.relayouts",
        pack_relayouts => "pack.relayouts",
        background_errors => "background.errors",
        connection_dead => "connection.dead",
        send_retries => "send_retries",
        send_timeouts => "send_timeouts",
        send_dedup_drops => "send_dedup_drops",
        registry_gc => "registry_gc",
        audit_runs => "audit.runs",
        audit_violations => "audit.violations",
    }
}

/// One application's toolkit observability: its counter set and the
/// `send_latency_ms` histogram. Stage timings come from the tracer.
#[derive(Default)]
pub struct ToolkitObs {
    counters: RefCell<ToolkitCounters>,
    /// Virtual milliseconds per completed `send`.
    pub send_latency_ms: RefCell<Histogram>,
}

impl ToolkitObs {
    /// The counters, for bumping: `obs.count().timers_fired += 1`.
    pub fn count(&self) -> RefMut<'_, ToolkitCounters> {
        self.counters.borrow_mut()
    }

    /// One counter by its `obs` name (0 for a name the set lacks).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).unwrap_or(0)
    }

    /// Every counter.
    pub fn counters(&self) -> ToolkitCounters {
        *self.counters.borrow()
    }

    /// Zeroes the counters and the histogram.
    pub fn reset(&self) {
        self.counters.borrow_mut().reset();
        *self.send_latency_ms.borrow_mut() = Histogram::new();
    }
}

/// Registers the `obs` command.
pub fn register(app: &TkApp) {
    app.register_command("obs", cmd_obs);
}

fn cmd_obs(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    if argv.len() < 2 {
        return Err(wrong_args("obs option ?arg ...?"));
    }
    match argv[1].as_str() {
        "counters" => {
            let items = families(app).into_iter().flat_map(|(_, counters)| counters);
            let items: Vec<String> = items.flat_map(|(n, v)| [n, v.to_string()]).collect();
            Ok(tcl::format_list(&items))
        }
        "histogram" => {
            let name = argv
                .get(2)
                .ok_or_else(|| wrong_args("obs histogram name"))?;
            let all = histograms(app);
            match all.iter().find(|(n, _)| n == name) {
                Some((_, h)) => Ok(h.summary()),
                None => {
                    let names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
                    Err(Exception::error(format!(
                        "no histogram named \"{name}\": should be one of {}",
                        names.join(", ")
                    )))
                }
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
            // server object still chargeable to a dead client, or a
            // registry entry that is malformed or points at a vanished
            // comm window. Clean runs return the empty string, so
            // scripts can gate on it.
            let violations = crate::send::audit(app.env());
            let mut count = app.obs().count();
            count.audit_runs += 1;
            count.audit_violations += violations.len() as u64;
            Ok(violations.join("\n"))
        }
        "reset" => {
            // Every family of `families`, zeroed. `reset_obs` also starts
            // a new tracer epoch server-side (the span store clears and
            // in-flight spans re-parent to the new root), so spans stay
            // scoped to the same epoch as every counter. The Tcl program
            // cache itself stays warm, so post-reset measurement epochs
            // replay cached programs.
            app.conn().reset_obs();
            app.cache().reset_stats();
            app.inner.bindings.borrow_mut().reset_stats();
            app.interp().reset_compile_stats();
            app.obs().reset();
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

/// Every counter the application owns, family by family, each under its
/// `obs` name: the one list that `obs counters`, `obs snapshot` and `obs
/// dump` walk, and that `obs reset` zeroes. A family's name is its dump
/// section.
fn families(app: &TkApp) -> [(&'static str, Vec<(String, u64)>); 5] {
    fn named(set: impl Iterator<Item = (&'static str, u64)>) -> Vec<(String, u64)> {
        set.map(|(n, v)| (n.to_string(), v)).collect()
    }
    [
        (
            "protocol",
            app.conn().with_obs(|o| o.counters()).unwrap_or_default(),
        ),
        ("cache", named(app.cache().stats().iter())),
        ("bind", named(app.inner.bindings.borrow().stats().iter())),
        ("tcl", named(app.interp().compile_counters().into_iter())),
        ("toolkit", named(app.obs().counters().iter())),
    ]
}

/// Every histogram `obs histogram` answers to, by name: the protocol
/// latencies (built from the traced requests, so empty while the trace
/// is off), `send_latency_ms`, and one `<kind>_ns` per span kind with
/// closed spans in the current epoch.
fn histograms(app: &TkApp) -> Vec<(String, Histogram)> {
    let (requests, round_trips) = app.conn().obs_request_histograms();
    let mut out = vec![
        ("request_ns".to_string(), requests),
        ("round_trip_ns".to_string(), round_trips),
        (
            "send_latency_ms".to_string(),
            app.obs().send_latency_ms.borrow().clone(),
        ),
    ];
    for stage in rtk_obs::span::stage_totals(&app.tracer().snapshot()) {
        if let Some(h) = stage.ns {
            out.push((format!("{}_ns", stage.kind), h));
        }
    }
    out
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
    for (family, counters) in families(app) {
        out.push_str(&format!("{family}:\n"));
        for (name, v) in counters {
            out.push_str(&format!("  {name}: {v}\n"));
        }
    }
    out.push_str("histograms:\n");
    for (name, h) in histograms(app) {
        out.push_str(&format!("  {name}: {}\n", h.summary()));
    }
    let on_off = |on: bool| if on { "on" } else { "off" };
    out.push_str(&format!(
        "tcl compile: {}\n",
        on_off(app.interp().compile_enabled())
    ));
    out.push_str(&format!(
        "trace: {}\n",
        on_off(app.conn().obs_trace_enabled())
    ));
    let t = app.tracer();
    out.push_str(&format!(
        "spans: {} recorded (epoch {}, {} open, {} dropped)",
        t.len(),
        t.epoch(),
        t.open_count(),
        t.dropped()
    ));
    out
}

/// The full machine-readable dump: the acceptance surface of the
/// observability core. Validated JSON with the app name, every counter
/// family as a `counters` section (each counter nested on the dots of its
/// `obs` name, the family's own prefix dropped; `protocol` is xsim's
/// record with its per-kind tables and trace), every histogram `obs
/// histogram` knows, and the span store's per-stage rollup.
pub fn dump_json(app: &TkApp) -> String {
    let mut counters = Object::new();
    for (family, list) in families(app) {
        let section = match family {
            "protocol" => app.conn().obs_json(),
            _ => {
                let pairs = list.iter().map(|(n, v)| (n.as_str(), *v));
                Object::new().counters(&format!("{family}."), pairs).build()
            }
        };
        counters.field_raw(family, &section);
    }
    let mut hists = Object::new();
    for (name, h) in histograms(app) {
        hists.field_raw(&name, &h.to_json());
    }

    let t = app.tracer();
    let span_records = t.snapshot();
    let mut shape = rtk_obs::SpanShape::default();
    shape.collect(&span_records);
    let mut stages = rtk_obs::json::Array::new();
    for stage in rtk_obs::span::stage_totals(&span_records) {
        let mut st = Object::new();
        st.field_str("kind", stage.kind)
            .field_u64("count", stage.count)
            .field_u64("total_ns", stage.total_ns)
            .field_u64("total_vms", stage.total_vms);
        stages.push_raw(&st.build());
    }
    let mut spans = Object::new();
    spans
        .field_u64("count", span_records.len() as u64)
        .field_u64("epoch", t.epoch())
        .field_u64("open", t.open_count() as u64)
        .field_u64("dropped", t.dropped())
        .field_raw("stages", &stages.build())
        .field_raw("shape", &shape.to_json());

    let mut o = Object::new();
    o.field_str("app", &app.name())
        .field_bool("compile_enabled", app.interp().compile_enabled())
        .field_raw("counters", &counters.build())
        .field_raw("histograms", &hists.build())
        .field_raw("spans", &spans.build());
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
        assert!(rtk_obs::json::parse(&json).is_ok(), "{json}");
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
        assert!(rtk_obs::json::parse(&j).is_ok(), "{j}");
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
        assert_eq!(app.obs().counters(), Default::default());
        assert_eq!(app.inner.bindings.borrow().stats(), Default::default());
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
        assert!(snap.contains("protocol.faults_injected: 1"), "{snap}");
        let j = app.eval("obs dump -format json").unwrap();
        assert!(rtk_obs::json::parse(&j).is_ok(), "{j}");
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
