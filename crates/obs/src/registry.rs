//! A named-metric registry: monotonic counters and value histograms
//! behind interior mutability, so instrumented code only needs `&Registry`.
//! Stage timings are not kept here: they come from the span tracer
//! ([`crate::span::stage_totals`]).

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::hist::Histogram;

/// Named counters and histograms for one subsystem (e.g. one Tk app).
///
/// Counter bumps are a `BTreeMap` lookup plus an integer add; histogram
/// records add one bucket increment. Both are cheap enough to stay on in
/// production; the expensive operations (snapshot, JSON) only run when
/// someone asks.
#[derive(Default)]
pub struct Registry {
    counters: RefCell<BTreeMap<String, u64>>,
    histograms: RefCell<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds 1 to the named counter, creating it at zero first if needed.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        let mut c = self.counters.borrow_mut();
        match c.get_mut(name) {
            Some(v) => *v += n,
            None => {
                c.insert(name.to_string(), n);
            }
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Records `ns` into the named histogram, creating it if needed.
    pub fn record_ns(&self, name: &str, ns: u64) {
        self.histograms
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    /// Snapshot of one histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.borrow().get(name).cloned()
    }

    /// Names of all histograms, sorted.
    pub fn histogram_names(&self) -> Vec<String> {
        self.histograms.borrow().keys().cloned().collect()
    }

    /// Zeroes every counter and histogram (names are forgotten too, so a
    /// snapshot after reset shows only metrics touched since).
    pub fn reset(&self) {
        self.counters.borrow_mut().clear();
        self.histograms.borrow_mut().clear();
    }

    /// JSON object `{"counters":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut counters = crate::json::Object::new();
        for (k, v) in self.counters() {
            counters.field_u64(&k, v);
        }
        let mut hists = crate::json::Object::new();
        for name in self.histogram_names() {
            if let Some(h) = self.histogram(&name) {
                hists.field_raw(&name, &h.to_json());
            }
        }
        let mut o = crate::json::Object::new();
        o.field_raw("counters", &counters.build());
        o.field_raw("histograms", &hists.build());
        o.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let r = Registry::new();
        r.incr("b");
        r.add("a", 5);
        r.incr("b");
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 2);
        assert_eq!(r.counter("missing"), 0);
        let names: Vec<String> = r.counters().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn reset_forgets_everything() {
        let r = Registry::new();
        r.incr("x");
        r.record_ns("h", 10);
        r.reset();
        assert!(r.counters().is_empty());
        assert!(r.histogram("h").is_none());
    }

    #[test]
    fn json_is_structurally_valid() {
        let r = Registry::new();
        r.incr("events");
        r.record_ns("lat", 123);
        let j = r.to_json();
        assert!(crate::json::is_valid(&j), "{j}");
        assert!(j.contains("\"events\":1"), "{j}");
        assert!(j.contains("\"lat\":{"), "{j}");
    }
}
