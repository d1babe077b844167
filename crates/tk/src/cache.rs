//! Resource caches (Section 3.3).
//!
//! Allocating X resources requires round trips to the server, so Tk caches
//! them per application, indexed by their *textual descriptions* — color
//! names like `MediumSeaGreen`, cursor names like `coffee_mug`, font
//! names — and shares one server object among all uses. Given a resource,
//! the cache can also return the textual name it was created from, which
//! is how widgets report their configuration in human-readable form.
//!
//! The cache can be disabled (`set_enabled(false)`) for the ablation
//! benchmark that reproduces the section's claim about server traffic.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use tcl::Exception;
use xsim::{Connection, CursorId, FontId, FontMetrics, GcId, GcValues, Pixel, XError};

/// Converts a protocol error into a Tcl exception so it reaches scripts
/// (and ultimately `tkerror`) instead of panicking the process. A dead
/// connection — the server killed this client after wire corruption, or
/// a sync watchdog fired — gets its own message so scripts (and the chaos
/// harness) can tell a broken transport from an ordinary request error.
pub fn xerr(e: XError) -> Exception {
    if e.code == xsim::XErrorCode::ConnectionDead {
        return Exception::error("X connection broken".to_string());
    }
    Exception::error(format!("X protocol error: {e}"))
}

/// Runs a connection operation, retrying it exactly once when the server
/// answers with a transient allocation error (`BadValue`/`BadAlloc`).
/// Callers invalidate any stale cache entry before retrying.
fn retry_once<T>(mut f: impl FnMut() -> Result<T, XError>) -> Result<T, XError> {
    match f() {
        Err(e) if e.retryable() => f(),
        r => r,
    }
}

/// A three-shade border derived from a background color, used for the 3-D
/// reliefs of Motif-like widgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Border {
    /// The background itself.
    pub bg: Pixel,
    /// A lighter shade (top/left bevel of a raised relief).
    pub light: Pixel,
    /// A darker shade (bottom/right bevel).
    pub dark: Pixel,
}

rtk_obs::counter_set! {
    /// Hit/miss counters per cache class. A disabled cache counts every
    /// lookup as a miss, which is exactly what the ablation experiment
    /// wants to see.
    pub struct CacheStats {
        color_hits => "cache.color.hits",
        color_misses => "cache.color.misses",
        font_hits => "cache.font.hits",
        font_misses => "cache.font.misses",
        cursor_hits => "cache.cursor.hits",
        cursor_misses => "cache.cursor.misses",
        border_hits => "cache.border.hits",
        border_misses => "cache.border.misses",
        bitmap_hits => "cache.bitmap.hits",
        bitmap_misses => "cache.bitmap.misses",
        gc_hits => "cache.gc.hits",
        gc_misses => "cache.gc.misses",
    }
}

/// Per-application resource caches.
pub struct ResourceCache {
    enabled: Cell<bool>,
    colors: RefCell<HashMap<String, Pixel>>,
    fonts: RefCell<HashMap<String, (FontId, FontMetrics)>>,
    cursors: RefCell<HashMap<String, CursorId>>,
    borders: RefCell<HashMap<String, Border>>,
    gcs: RefCell<HashMap<(Pixel, Pixel, u32, FontId), GcId>>,
    bitmaps: RefCell<HashMap<String, (xsim::BitmapId, u32, u32)>>,
    stats: RefCell<CacheStats>,
}

impl Default for ResourceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceCache {
    /// Creates an empty, enabled cache.
    pub fn new() -> ResourceCache {
        ResourceCache {
            enabled: Cell::new(true),
            colors: RefCell::new(HashMap::new()),
            fonts: RefCell::new(HashMap::new()),
            cursors: RefCell::new(HashMap::new()),
            borders: RefCell::new(HashMap::new()),
            gcs: RefCell::new(HashMap::new()),
            bitmaps: RefCell::new(HashMap::new()),
            stats: Default::default(),
        }
    }

    /// Enables or disables caching (ablation experiments).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Is the cache enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// The hit/miss counters of every class.
    pub fn stats(&self) -> CacheStats {
        *self.stats.borrow()
    }

    /// Total hits across every class.
    pub fn hits(&self) -> u64 {
        self.total(".hits")
    }

    /// Total misses across every class.
    pub fn misses(&self) -> u64 {
        self.total(".misses")
    }

    fn total(&self, suffix: &str) -> u64 {
        self.stats()
            .iter()
            .filter(|(n, _)| n.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Zeroes all hit/miss counters (cached entries stay).
    pub fn reset_stats(&self) {
        self.stats.borrow_mut().reset();
    }

    /// Resolves a color name to a pixel, consulting the cache first.
    pub fn color(&self, conn: &Connection, name: &str) -> Result<Pixel, Exception> {
        let key = name.to_ascii_lowercase();
        if self.enabled.get() {
            if let Some(&p) = self.colors.borrow().get(&key) {
                self.stats.borrow_mut().color_hits += 1;
                return Ok(p);
            }
        }
        self.stats.borrow_mut().color_misses += 1;
        let (pixel, _) = retry_once(|| {
            self.colors.borrow_mut().remove(&key);
            conn.alloc_named_color(name)
        })
        .map_err(xerr)?
        .ok_or_else(|| Exception::error(format!("unknown color name \"{name}\"")))?;
        if self.enabled.get() {
            self.colors.borrow_mut().insert(key, pixel);
        }
        Ok(pixel)
    }

    /// Resolves a font name to `(id, metrics)`, cached. Caching the
    /// metrics is what lets widgets measure text without server traffic.
    pub fn font(&self, conn: &Connection, name: &str) -> Result<(FontId, FontMetrics), Exception> {
        if self.enabled.get() {
            if let Some(&f) = self.fonts.borrow().get(name) {
                self.stats.borrow_mut().font_hits += 1;
                return Ok(f);
            }
        }
        self.stats.borrow_mut().font_misses += 1;
        let id = retry_once(|| {
            self.fonts.borrow_mut().remove(name);
            conn.open_font(name)
        })
        .map_err(xerr)?
        .ok_or_else(|| Exception::error(format!("font \"{name}\" doesn't exist")))?;
        let metrics = retry_once(|| conn.font_metrics(id))
            .map_err(xerr)?
            .ok_or_else(|| Exception::error(format!("font \"{name}\" doesn't exist")))?;
        if self.enabled.get() {
            self.fonts
                .borrow_mut()
                .insert(name.to_string(), (id, metrics));
        }
        Ok((id, metrics))
    }

    /// Resolves a cursor name, cached.
    pub fn cursor(&self, conn: &Connection, name: &str) -> Result<CursorId, Exception> {
        if self.enabled.get() {
            if let Some(&c) = self.cursors.borrow().get(name) {
                self.stats.borrow_mut().cursor_hits += 1;
                return Ok(c);
            }
        }
        self.stats.borrow_mut().cursor_misses += 1;
        let id = retry_once(|| {
            self.cursors.borrow_mut().remove(name);
            conn.create_cursor(name)
        })
        .map_err(xerr)?
        .ok_or_else(|| Exception::error(format!("bad cursor spec \"{name}\"")))?;
        if self.enabled.get() {
            self.cursors.borrow_mut().insert(name.to_string(), id);
        }
        Ok(id)
    }

    /// Builds (and caches) the three-shade border for a background color.
    pub fn border(&self, conn: &Connection, bg_name: &str) -> Result<Border, Exception> {
        let key = bg_name.to_ascii_lowercase();
        if self.enabled.get() {
            if let Some(&b) = self.borders.borrow().get(&key) {
                self.stats.borrow_mut().border_hits += 1;
                return Ok(b);
            }
        }
        self.stats.borrow_mut().border_misses += 1;
        let rgb = xsim::lookup_color(bg_name)
            .ok_or_else(|| Exception::error(format!("unknown color name \"{bg_name}\"")))?;
        let scale = |v: u8, num: u32, den: u32| -> u8 { ((v as u32 * num / den).min(255)) as u8 };
        let light = xsim::Rgb {
            r: scale(rgb.r, 14, 10).max(60),
            g: scale(rgb.g, 14, 10).max(60),
            b: scale(rgb.b, 14, 10).max(60),
        };
        let dark = xsim::Rgb {
            r: scale(rgb.r, 6, 10),
            g: scale(rgb.g, 6, 10),
            b: scale(rgb.b, 6, 10),
        };
        // Pipeline the two shade allocations: they travel to the server in
        // the same flush as the (possible) background-color miss, so the
        // whole border costs one blocking wait instead of three.
        let light_cookie = conn.send_alloc_color(light);
        let dark_cookie = conn.send_alloc_color(dark);
        // A retryable error on a pipelined shade falls back to one fresh
        // synchronous allocation; the border cache entry for this key has
        // not been written yet, so nothing stale survives.
        let redeem = |cookie, rgb| match conn.wait(cookie) {
            Err(e) if e.retryable() => conn.alloc_color(rgb),
            r => r,
        };
        let border = Border {
            bg: self.color(conn, bg_name)?,
            light: redeem(light_cookie, light).map_err(xerr)?,
            dark: redeem(dark_cookie, dark).map_err(xerr)?,
        };
        if self.enabled.get() {
            self.borders.borrow_mut().insert(key, border);
        }
        Ok(border)
    }

    /// Resolves a bitmap name, cached: `@file` loads an XBM file (the
    /// Section 3.3 `@star` form), other names are Tk's built-ins
    /// (`gray25`, `gray50`, `black`, `white`). Returns `(id, w, h)`.
    pub fn bitmap(
        &self,
        conn: &Connection,
        name: &str,
    ) -> Result<(xsim::BitmapId, u32, u32), Exception> {
        if self.enabled.get() {
            if let Some(&b) = self.bitmaps.borrow().get(name) {
                self.stats.borrow_mut().bitmap_hits += 1;
                return Ok(b);
            }
        }
        self.stats.borrow_mut().bitmap_misses += 1;
        let bitmap = if let Some(path) = name.strip_prefix('@') {
            let text = std::fs::read_to_string(path).map_err(|e| {
                Exception::error(format!("error reading bitmap file \"{path}\": {e}"))
            })?;
            xsim::Bitmap::parse_xbm(&text).ok_or_else(|| {
                Exception::error(format!("file \"{path}\" isn't in bitmap format"))
            })?
        } else {
            xsim::bitmap::builtin(name)
                .ok_or_else(|| Exception::error(format!("bitmap \"{name}\" not defined")))?
        };
        let (w, h) = (bitmap.width, bitmap.height);
        let id = conn.create_bitmap(bitmap);
        if self.enabled.get() {
            self.bitmaps
                .borrow_mut()
                .insert(name.to_string(), (id, w, h));
        }
        Ok((id, w, h))
    }

    /// Returns a GC with the given values, shared among all requesters.
    pub fn gc(&self, conn: &Connection, values: GcValues) -> GcId {
        let key = (
            values.foreground,
            values.background,
            values.line_width,
            values.font,
        );
        if self.enabled.get() {
            if let Some(&gc) = self.gcs.borrow().get(&key) {
                self.stats.borrow_mut().gc_hits += 1;
                return gc;
            }
        }
        self.stats.borrow_mut().gc_misses += 1;
        let gc = conn.create_gc(values);
        if self.enabled.get() {
            self.gcs.borrow_mut().insert(key, gc);
        }
        gc
    }

    /// Cache sizes `(colors, fonts, cursors, borders, gcs)`, for tests.
    pub fn sizes(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.colors.borrow().len(),
            self.fonts.borrow().len(),
            self.cursors.borrow().len(),
            self.borders.borrow().len(),
            self.gcs.borrow().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsim::Display;

    #[test]
    fn color_cache_avoids_round_trips() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let before = conn.stats().round_trips;
        let p1 = cache.color(&conn, "red").unwrap();
        let after_first = conn.stats().round_trips;
        let p2 = cache.color(&conn, "Red").unwrap();
        let p3 = cache.color(&conn, "RED").unwrap();
        let after_all = conn.stats().round_trips;
        assert_eq!(p1, p2);
        assert_eq!(p2, p3);
        assert_eq!(after_first - before, 1);
        assert_eq!(
            after_all, after_first,
            "cached hits must not touch the server"
        );
    }

    #[test]
    fn disabled_cache_goes_to_server_every_time() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        cache.set_enabled(false);
        let before = conn.stats().round_trips;
        cache.color(&conn, "red").unwrap();
        cache.color(&conn, "red").unwrap();
        cache.color(&conn, "red").unwrap();
        assert_eq!(conn.stats().round_trips - before, 3);
    }

    #[test]
    fn unknown_color_reports_error() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let e = cache.color(&conn, "NotAColor").unwrap_err();
        assert!(e.msg.contains("unknown color name"));
    }

    #[test]
    fn font_cache_includes_metrics() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let (id, m) = cache.font(&conn, "fixed").unwrap();
        let before = conn.stats().round_trips;
        let (id2, m2) = cache.font(&conn, "fixed").unwrap();
        assert_eq!(conn.stats().round_trips, before);
        assert_eq!(id, id2);
        assert_eq!(m, m2);
    }

    #[test]
    fn cursor_cache() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let c = cache.cursor(&conn, "coffee_mug").unwrap();
        assert_eq!(cache.cursor(&conn, "coffee_mug").unwrap(), c);
        assert!(cache.cursor(&conn, "bogus_cursor").is_err());
    }

    #[test]
    fn border_shades_differ() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let b = cache.border(&conn, "gray").unwrap();
        assert_ne!(b.light, b.dark);
        let b2 = cache.border(&conn, "gray").unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn retryable_error_is_retried_once_and_succeeds() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let seq = conn.sequence();
        d.with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().error_at(
                0,
                seq + 1,
                xsim::XErrorCode::BadAlloc,
            ))
        });
        let p = cache.color(&conn, "red").unwrap();
        assert_eq!(cache.color(&conn, "red").unwrap(), p, "entry was cached");
        assert_eq!(conn.with_obs(|o| o.faults_injected).unwrap(), 1);
    }

    #[test]
    fn non_retryable_error_propagates_as_exception() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let seq = conn.sequence();
        d.with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().error_at(
                0,
                seq + 1,
                xsim::XErrorCode::BadAtom,
            ))
        });
        let e = cache.color(&conn, "red").unwrap_err();
        assert!(e.msg.contains("X protocol error"), "{}", e.msg);
        assert!(e.msg.contains("BadAtom"), "{}", e.msg);
        // Nothing stale was cached; the next lookup succeeds.
        cache.color(&conn, "red").unwrap();
    }

    #[test]
    fn border_shade_survives_a_retryable_fault() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let seq = conn.sequence();
        // Fault the first pipelined shade allocation; the border code
        // falls back to a synchronous retry.
        d.with_server(|s| {
            s.install_fault_plan(xsim::FaultPlan::default().error_at(
                0,
                seq + 1,
                xsim::XErrorCode::BadAlloc,
            ))
        });
        let b = cache.border(&conn, "gray").unwrap();
        assert_ne!(b.light, b.dark);
    }

    #[test]
    fn gc_cache_shares_by_values() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let v = GcValues::default();
        let g1 = cache.gc(&conn, v);
        let g2 = cache.gc(&conn, v);
        assert_eq!(g1, g2);
        let mut v2 = v;
        v2.line_width = 3;
        assert_ne!(cache.gc(&conn, v2), g1);
    }
}

#[cfg(test)]
mod bitmap_tests {
    use super::*;
    use xsim::Display;

    #[test]
    fn builtin_bitmaps_resolve_and_cache() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let (id, w, h) = cache.bitmap(&conn, "gray50").unwrap();
        assert_eq!((w, h), (16, 16));
        let before = conn.stats().requests;
        let (id2, _, _) = cache.bitmap(&conn, "gray50").unwrap();
        assert_eq!(id, id2);
        assert_eq!(conn.stats().requests, before, "cached hit is free");
    }

    #[test]
    fn at_file_form_loads_xbm() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        let path = std::env::temp_dir().join("rtk_star.xbm");
        std::fs::write(
            &path,
            "#define star_width 8\n#define star_height 2\nstatic char star_bits[] = {0xff, 0x81};\n",
        )
        .unwrap();
        let (_, w, h) = cache
            .bitmap(&conn, &format!("@{}", path.display()))
            .unwrap();
        assert_eq!((w, h), (8, 2));
    }

    #[test]
    fn bad_bitmaps_error() {
        let d = Display::new();
        let conn = d.connect();
        let cache = ResourceCache::new();
        assert!(cache.bitmap(&conn, "nosuchbitmap").is_err());
        assert!(cache.bitmap(&conn, "@/no/such/file").is_err());
    }
}
