//! The packer geometry manager (Section 3.4, Figure 8).
//!
//! `pack append .x .x.a {top} .x.b {top} ...` makes the packer claim the
//! named windows and arrange them inside `.x` by repeatedly carving a
//! *parcel* off one side of the remaining cavity, exactly as the paper's
//! Figure 8 shows for an all-in-a-column arrangement. The layout algorithm
//! (including `expand`'s look-ahead space distribution) follows the
//! original `tkPack.c`, and so does its timing: `pack` only schedules
//! the arrangement at idle time, and it settles top-down, placing each
//! slave once per `update`.

use std::collections::HashMap;

use tcl::{wrong_args, Exception, TclResult};

use crate::app::TkApp;
use crate::draw::Anchor;

/// Which side of the cavity a slave is packed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Side {
    #[default]
    Top,
    Bottom,
    Left,
    Right,
}

impl Side {
    fn is_vertical(self) -> bool {
        matches!(self, Side::Top | Side::Bottom)
    }
}

/// One packed window and its packing options.
#[derive(Debug, Clone)]
pub struct Slot {
    /// The slave window's path.
    pub path: String,
    pub side: Side,
    pub expand: bool,
    pub fill_x: bool,
    pub fill_y: bool,
    pub padx: u32,
    pub pady: u32,
    /// Where the slave sits inside its parcel when it does not fill it.
    pub anchor: Anchor,
}

impl Slot {
    fn new(path: &str) -> Slot {
        Slot {
            path: path.to_string(),
            side: Side::Top,
            expand: false,
            fill_x: false,
            fill_y: false,
            padx: 0,
            pady: 0,
            anchor: Anchor::Center,
        }
    }

    /// Renders the options back into the `pack append` word form.
    pub fn options_text(&self) -> String {
        let mut words: Vec<String> = Vec::new();
        words.push(
            match self.side {
                Side::Top => "top",
                Side::Bottom => "bottom",
                Side::Left => "left",
                Side::Right => "right",
            }
            .to_string(),
        );
        if self.expand {
            words.push("expand".into());
        }
        match (self.fill_x, self.fill_y) {
            (true, true) => words.push("fill".into()),
            (true, false) => words.push("fillx".into()),
            (false, true) => words.push("filly".into()),
            (false, false) => {}
        }
        if self.padx != 0 {
            words.push(format!("padx {}", self.padx));
        }
        if self.pady != 0 {
            words.push(format!("pady {}", self.pady));
        }
        if self.anchor != Anchor::Center {
            words.push(format!("frame {}", self.anchor.name()));
        }
        words.join(" ")
    }
}

/// Parses a packing option list like `{left expand fill padx 5}`.
pub fn parse_options(path: &str, spec: &str) -> Result<Slot, Exception> {
    let words = tcl::parse_list(spec)?;
    let mut slot = Slot::new(path);
    let mut i = 0usize;
    while i < words.len() {
        match words[i].as_str() {
            "top" => slot.side = Side::Top,
            "bottom" => slot.side = Side::Bottom,
            "left" => slot.side = Side::Left,
            "right" => slot.side = Side::Right,
            "expand" => slot.expand = true,
            "fill" => {
                slot.fill_x = true;
                slot.fill_y = true;
            }
            "fillx" => slot.fill_x = true,
            "filly" => slot.fill_y = true,
            "padx" | "pady" => {
                i += 1;
                let v: u32 = words.get(i).and_then(|w| w.parse().ok()).ok_or_else(|| {
                    Exception::error(format!("missing or bad pad value in \"{spec}\""))
                })?;
                if words[i - 1] == "padx" {
                    slot.padx = v;
                } else {
                    slot.pady = v;
                }
            }
            "frame" => {
                i += 1;
                let a = words
                    .get(i)
                    .ok_or_else(|| Exception::error(format!("missing anchor in \"{spec}\"")))?;
                slot.anchor = Anchor::parse(a)?;
            }
            other => {
                return Err(Exception::error(format!(
                    "bad option \"{other}\": should be top, bottom, left, right, \
                     expand, fill, fillx, filly, padx, pady, or frame"
                )))
            }
        }
        i += 1;
    }
    Ok(slot)
}

/// The packer's bookkeeping: which windows it manages in which masters.
#[derive(Debug, Default)]
pub struct Packer {
    masters: HashMap<String, Vec<Slot>>,
    master_of: HashMap<String, String>,
}

impl Packer {
    /// Creates an empty packer.
    pub fn new() -> Packer {
        Packer::default()
    }

    /// The master a slave is packed in, if any.
    pub fn master_of(&self, slave: &str) -> Option<String> {
        self.master_of.get(slave).cloned()
    }

    /// Does this master have packed slaves?
    pub fn has_slaves(&self, master: &str) -> bool {
        self.masters.get(master).is_some_and(|s| !s.is_empty())
    }

    /// The slots of a master, in packing order.
    pub fn slots(&self, master: &str) -> Vec<Slot> {
        self.masters.get(master).cloned().unwrap_or_default()
    }

    /// Adds a slot at `index` (or the end), reclaiming the slave from any
    /// previous master.
    pub fn insert(&mut self, master: &str, slot: Slot, index: Option<usize>) {
        self.unpack(&slot.path);
        self.master_of.insert(slot.path.clone(), master.to_string());
        let list = self.masters.entry(master.to_string()).or_default();
        match index {
            Some(i) if i <= list.len() => list.insert(i, slot),
            _ => list.push(slot),
        }
    }

    /// Position of a slave within its master's packing order.
    pub fn index_of(&self, master: &str, slave: &str) -> Option<usize> {
        self.masters
            .get(master)?
            .iter()
            .position(|s| s.path == slave)
    }

    /// Removes a slave from the packing order; returns its old master.
    pub fn unpack(&mut self, slave: &str) -> Option<String> {
        let master = self.master_of.remove(slave)?;
        if let Some(list) = self.masters.get_mut(&master) {
            list.retain(|s| s.path != slave);
        }
        Some(master)
    }

    /// Drops every record touching `path` (window destroyed).
    pub fn forget(&mut self, path: &str) {
        self.unpack(path);
        self.masters.remove(path);
    }
}

/// `YExpansion` from tkPack.c: how much extra vertical space an expanding
/// top/bottom slave may claim, looking ahead at the remaining slaves.
fn y_expansion(slots: &[Slot], req: &[(u32, u32)], mut cavity_height: i64) -> i64 {
    let mut min_expand = cavity_height;
    let mut num_expand: i64 = 0;
    for (slot, &(_, h)) in slots.iter().zip(req) {
        let child_height = h as i64 + 2 * slot.pady as i64;
        if !slot.side.is_vertical() {
            if num_expand > 0 {
                let cur = (cavity_height - child_height) / num_expand;
                min_expand = min_expand.min(cur);
            }
        } else {
            cavity_height -= child_height;
            if slot.expand {
                num_expand += 1;
            }
        }
    }
    if num_expand > 0 {
        min_expand = min_expand.min(cavity_height / num_expand);
    }
    min_expand.max(0)
}

/// `XExpansion`: the horizontal counterpart.
fn x_expansion(slots: &[Slot], req: &[(u32, u32)], mut cavity_width: i64) -> i64 {
    let mut min_expand = cavity_width;
    let mut num_expand: i64 = 0;
    for (slot, &(w, _)) in slots.iter().zip(req) {
        let child_width = w as i64 + 2 * slot.padx as i64;
        if slot.side.is_vertical() {
            if num_expand > 0 {
                let cur = (cavity_width - child_width) / num_expand;
                min_expand = min_expand.min(cur);
            }
        } else {
            cavity_width -= child_width;
            if slot.expand {
                num_expand += 1;
            }
        }
    }
    if num_expand > 0 {
        min_expand = min_expand.min(cavity_width / num_expand);
    }
    min_expand.max(0)
}

/// Recomputes the layout of `master`'s slaves and re-places their windows.
/// Also performs geometry propagation: the master's own requested size is
/// set to what its slaves need.
pub fn relayout(app: &TkApp, master: &str) {
    let slots = app.inner.packer.borrow().slots(master);
    let Some(master_rec) = app.window(master) else {
        return;
    };
    if slots.is_empty() {
        return;
    }
    app.inner.obs.count().pack_relayouts += 1;
    let _tspan = app.inner.tracer.begin("relayout", master, 0);
    // Requested sizes of every slave (the structure cache; no server trip).
    let req: Vec<(u32, u32)> = slots
        .iter()
        .map(|s| {
            app.window(&s.path)
                .map(|w| (w.req_width.get(), w.req_height.get()))
                .unwrap_or((1, 1))
        })
        .collect();

    // Geometry propagation: tell the master what the slaves need. The
    // requirement accumulates in reverse packing order.
    let ib = master_rec.internal_border.get() as i64;
    let (mut need_w, mut need_h) = (0i64, 0i64);
    for (slot, &(w, h)) in slots.iter().zip(&req).rev() {
        let cw = w as i64 + 2 * slot.padx as i64;
        let ch = h as i64 + 2 * slot.pady as i64;
        if slot.side.is_vertical() {
            need_w = need_w.max(cw);
            need_h += ch;
        } else {
            need_w += cw;
            need_h = need_h.max(ch);
        }
    }
    need_w += 2 * ib;
    need_h += 2 * ib;
    if need_w != master_rec.req_width.get() as i64 || need_h != master_rec.req_height.get() as i64 {
        app.geometry_request(master, need_w.max(1) as u32, need_h.max(1) as u32);
        // `ArrangePacking`'s abort: a packed master waits for its own
        // master to place it, then arranges its slaves once, top-down.
        if app.inner.packer.borrow().master_of(master).is_some() {
            app.schedule_relayout(master);
            return;
        }
    }

    // Carve parcels out of the cavity.
    let mut cx = ib;
    let mut cy = ib;
    let mut cw = master_rec.width.get() as i64 - 2 * ib;
    let mut ch = master_rec.height.get() as i64 - 2 * ib;
    for (i, slot) in slots.iter().enumerate() {
        let (rw, rh) = req[i];
        let (frame_x, frame_y, frame_w, frame_h);
        if slot.side.is_vertical() {
            frame_w = cw;
            let mut fh = rh as i64 + 2 * slot.pady as i64;
            if slot.expand {
                fh += y_expansion(&slots[i..], &req[i..], ch);
            }
            let fh = fh.min(ch).max(0);
            frame_h = fh;
            frame_x = cx;
            if slot.side == Side::Top {
                frame_y = cy;
                cy += fh;
            } else {
                frame_y = cy + ch - fh;
            }
            ch -= fh;
        } else {
            frame_h = ch;
            let mut fw = rw as i64 + 2 * slot.padx as i64;
            if slot.expand {
                fw += x_expansion(&slots[i..], &req[i..], cw);
            }
            let fw = fw.min(cw).max(0);
            frame_w = fw;
            frame_y = cy;
            if slot.side == Side::Left {
                frame_x = cx;
                cx += fw;
            } else {
                frame_x = cx + cw - fw;
            }
            cw -= fw;
        }
        // Size the slave within its parcel. As in Tk's `ArrangePacking`,
        // a slave left no room is unmapped until room returns.
        let avail_w = frame_w - 2 * slot.padx as i64;
        let avail_h = frame_h - 2 * slot.pady as i64;
        let w = if slot.fill_x {
            avail_w
        } else {
            (rw as i64).min(avail_w)
        };
        let h = if slot.fill_y {
            avail_h
        } else {
            (rh as i64).min(avail_h)
        };
        if w <= 0 || h <= 0 {
            app.unmap_window(&slot.path);
            continue;
        }
        let (ox, oy) = slot
            .anchor
            .place(avail_w as i32, avail_h as i32, w as i32, h as i32, 0);
        app.place_window(
            &slot.path,
            (frame_x + slot.padx as i64) as i32 + ox,
            (frame_y + slot.pady as i64) as i32 + oy,
            w as u32,
            h as u32,
        );
    }
}

/// Registers the `pack` command on an application.
pub fn register(app: &TkApp) {
    app.register_command("pack", cmd_pack);
}

fn cmd_pack(app: &TkApp, _interp: &tcl::Interp, argv: &[String]) -> TclResult {
    if argv.len() < 3 {
        return Err(wrong_args(
            "pack append|before|after|unpack|info arg ?arg ...?",
        ));
    }
    match argv[1].as_str() {
        "append" => {
            let master = &argv[2];
            app.require_window(master)?;
            let rest = &argv[3..];
            if rest.is_empty() || rest.len() % 2 != 0 {
                return Err(wrong_args(
                    "pack append master window options ?window options ...?",
                ));
            }
            for pair in rest.chunks(2) {
                let (path, options) = (&pair[0], &pair[1]);
                let rec = app.require_window(path)?;
                check_master(master, path)?;
                let slot = parse_options(path, options)?;
                *rec.manager.borrow_mut() = "pack".into();
                app.inner.packer.borrow_mut().insert(master, slot, None);
            }
            app.schedule_relayout(master);
            Ok(String::new())
        }
        "before" | "after" => {
            // pack before|after sibling window options ?window options ...?
            let sibling = &argv[2];
            let packer_master = app
                .inner
                .packer
                .borrow()
                .master_of(sibling)
                .ok_or_else(|| Exception::error(format!("window \"{sibling}\" isn't packed")))?;
            let rest = &argv[3..];
            if rest.is_empty() || rest.len() % 2 != 0 {
                return Err(wrong_args(
                    "pack before|after sibling window options ?window options ...?",
                ));
            }
            let insert_at = {
                let p = app.inner.packer.borrow();
                let base = p.index_of(&packer_master, sibling).unwrap_or(0);
                if argv[1] == "before" {
                    base
                } else {
                    base + 1
                }
            };
            for (offset, pair) in rest.chunks(2).enumerate() {
                let (path, options) = (&pair[0], &pair[1]);
                let rec = app.require_window(path)?;
                check_master(&packer_master, path)?;
                let slot = parse_options(path, options)?;
                *rec.manager.borrow_mut() = "pack".into();
                app.inner.packer.borrow_mut().insert(
                    &packer_master,
                    slot,
                    Some(insert_at + offset),
                );
            }
            app.schedule_relayout(&packer_master);
            Ok(String::new())
        }
        "unpack" => {
            let path = &argv[2];
            let master = app.inner.packer.borrow_mut().unpack(path);
            if let Some(rec) = app.window(path) {
                *rec.manager.borrow_mut() = String::new();
            }
            app.unmap_window(path);
            if let Some(master) = master {
                app.schedule_relayout(&master);
            }
            Ok(String::new())
        }
        "info" => {
            let master = &argv[2];
            let slots = app.inner.packer.borrow().slots(master);
            let mut words: Vec<String> = Vec::new();
            for s in slots {
                words.push(s.path.clone());
                words.push(s.options_text());
            }
            Ok(tcl::format_list(&words))
        }
        other => Err(Exception::error(format!(
            "bad option \"{other}\": should be append, before, after, unpack, or info"
        ))),
    }
}

/// The packer only manages children (or descendants) of the master.
fn check_master(master: &str, slave: &str) -> Result<(), Exception> {
    if crate::window::parent_path(slave) == Some(master) {
        Ok(())
    } else {
        Err(Exception::error(format!(
            "can't pack \"{slave}\" inside \"{master}\": not its parent"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TkEnv;

    fn setup() -> (TkEnv, TkApp) {
        let env = TkEnv::new();
        let app = env.app("t");
        (env, app)
    }

    /// Creates a plain window with a fixed requested size.
    fn child(app: &TkApp, path: &str, w: u32, h: u32) {
        let rec = app.make_window(path, "Frame", w, h, 0).unwrap();
        rec.req_width.set(w);
        rec.req_height.set(h);
    }

    #[test]
    fn column_layout_in_order() {
        let (_env, app) = setup();
        child(&app, ".a", 50, 20);
        child(&app, ".b", 60, 30);
        app.eval("pack append . .a {top} .b {top}").unwrap();
        app.update();
        let a = app.window(".a").unwrap();
        let b = app.window(".b").unwrap();
        // Non-fill slaves center horizontally in their parcel: the master
        // is 60 wide (widest slave), so .a (50 wide) sits at x=5.
        assert_eq!((a.x.get(), a.y.get()), (5, 0));
        assert_eq!((b.x.get(), b.y.get()), (0, 20));
        assert_eq!(a.height.get(), 20);
        assert_eq!(b.height.get(), 30);
        // Geometry propagation: the master asked for max width, sum height.
        let main = app.window(".").unwrap();
        assert_eq!(main.req_width.get(), 60);
        assert_eq!(main.req_height.get(), 50);
    }

    #[test]
    fn figure8_insufficient_space_clips() {
        // Figure 8: four windows packed in a column into a parent that is
        // too small; C gets less width, D gets less height.
        let (_env, app) = setup();
        // Parent .p is fixed at 100x90 (not a toplevel: its size is ours).
        child(&app, ".p", 100, 90);
        child(&app, ".p.a", 60, 30);
        child(&app, ".p.b", 80, 30);
        child(&app, ".p.c", 120, 20); // wider than the parent
        child(&app, ".p.d", 50, 40); // does not fit vertically
        app.eval("pack append .p .p.a {top} .p.b {top} .p.c {top} .p.d {top}")
            .unwrap();
        app.conn().configure_window(
            app.window(".p").unwrap().xid,
            None,
            None,
            Some(100),
            Some(90),
            None,
        );
        app.update();
        relayout(&app, ".p");
        let c = app.window(".p.c").unwrap();
        let d = app.window(".p.d").unwrap();
        // C wanted 120 wide but the parent is only 100.
        assert_eq!(c.width.get(), 100);
        // D wanted 40 high but only 90-30-30-20 = 10 remain.
        assert_eq!(d.height.get(), 10);
    }

    #[test]
    fn side_by_side_with_filly_and_expand() {
        // The Figure 9 arrangement:
        //   pack append . .scroll {right filly} .list {left expand fill}
        let (_env, app) = setup();
        child(&app, ".scroll", 16, 100);
        child(&app, ".list", 120, 200);
        app.eval("pack append . .scroll {right filly} .list {left expand fill}")
            .unwrap();
        app.update();
        let main = app.window(".").unwrap();
        assert_eq!(main.req_width.get(), 136);
        assert_eq!(main.req_height.get(), 200);
        let scroll = app.window(".scroll").unwrap();
        let list = app.window(".list").unwrap();
        // The scrollbar hugs the right edge at full height.
        assert_eq!(scroll.height.get(), main.height.get());
        assert_eq!(
            scroll.x.get() + scroll.width.get() as i32,
            main.width.get() as i32
        );
        // The listbox fills the rest.
        assert_eq!(list.x.get(), 0);
        assert_eq!(list.width.get(), main.width.get() - scroll.width.get());
        assert_eq!(list.height.get(), main.height.get());
    }

    #[test]
    fn expand_distributes_extra_space() {
        let (_env, app) = setup();
        child(&app, ".p", 100, 100);
        child(&app, ".p.a", 10, 10);
        child(&app, ".p.b", 10, 10);
        app.eval("pack append .p .p.a {top expand fill} .p.b {top expand fill}")
            .unwrap();
        // Pin the master at 100x100.
        app.conn().configure_window(
            app.window(".p").unwrap().xid,
            None,
            None,
            Some(100),
            Some(100),
            None,
        );
        app.update();
        relayout(&app, ".p");
        let a = app.window(".p.a").unwrap();
        let b = app.window(".p.b").unwrap();
        assert_eq!(a.height.get(), 50);
        assert_eq!(b.height.get(), 50);
        assert_eq!(a.width.get(), 100);
    }

    #[test]
    fn unpack_removes_and_unmaps() {
        let (_env, app) = setup();
        child(&app, ".a", 50, 20);
        app.eval("pack append . .a {top}").unwrap();
        app.update();
        assert!(app.window(".a").unwrap().mapped.get());
        app.eval("pack unpack .a").unwrap();
        app.update();
        assert!(!app.window(".a").unwrap().mapped.get());
        assert!(app.inner.packer.borrow().master_of(".a").is_none());
        // Unpacked and packed again before the UnmapNotify is read.
        app.eval("pack append . .a {top}; update; pack unpack .a; pack append . .a {top}")
            .unwrap();
        app.update();
        assert_eq!(app.eval("winfo ismapped .a").unwrap(), "1");
        let xid = app.window(".a").unwrap().xid;
        let client = app.conn().client_id();
        assert!(app
            .env()
            .display()
            .with_server(|s| s.is_viewable(client, xid)));
    }

    #[test]
    fn pack_before_and_after_order() {
        let (_env, app) = setup();
        child(&app, ".a", 10, 10);
        child(&app, ".b", 10, 10);
        child(&app, ".c", 10, 10);
        app.eval("pack append . .a {top} .c {top}").unwrap();
        app.eval("pack before .c .b {top}").unwrap();
        let order: Vec<String> = app
            .inner
            .packer
            .borrow()
            .slots(".")
            .iter()
            .map(|s| s.path.clone())
            .collect();
        assert_eq!(order, vec![".a", ".b", ".c"]);
    }

    #[test]
    fn pack_info_round_trips_options() {
        let (_env, app) = setup();
        child(&app, ".a", 10, 10);
        app.eval("pack append . .a {right filly padx 3}").unwrap();
        let info = app.eval("pack info .").unwrap();
        assert!(info.contains(".a"), "{info}");
        assert!(info.contains("right"), "{info}");
        assert!(info.contains("filly"), "{info}");
        assert!(info.contains("padx 3"), "{info}");
    }

    #[test]
    fn pack_rejects_non_children() {
        let (_env, app) = setup();
        child(&app, ".a", 10, 10);
        child(&app, ".b", 10, 10);
        child(&app, ".b.c", 10, 10);
        assert!(app.eval("pack append .a .b.c {top}").is_err());
    }

    #[test]
    fn repacking_moves_between_masters() {
        let (_env, app) = setup();
        child(&app, ".m1", 100, 100);
        child(&app, ".m2", 100, 100);
        child(&app, ".m1.w", 10, 10);
        app.eval("pack append .m1 .m1.w {top}").unwrap();
        assert_eq!(
            app.inner.packer.borrow().master_of(".m1.w"),
            Some(".m1".into())
        );
        // Repacking into the same master twice must not duplicate.
        app.eval("pack append .m1 .m1.w {bottom}").unwrap();
        assert_eq!(app.inner.packer.borrow().slots(".m1").len(), 1);
    }

    /// How many requests of `kind` the app sent since its last obs reset.
    fn sent(app: &TkApp, kind: &str) -> u64 {
        app.conn()
            .with_obs(|o| o.kind_counts())
            .unwrap()
            .into_iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| n)
    }

    #[test]
    fn nested_masters_settle_in_one_update() {
        // A frame of two frames of buttons, packed into ".": the packer
        // settles top-down, so every window is configured and mapped once.
        let (_env, app) = setup();
        app.conn().reset_obs();
        app.eval("frame .f; frame .f.a; frame .f.b").unwrap();
        for m in [".f.a", ".f.b"] {
            for i in 0..3 {
                app.eval(&format!(
                    "button {m}.b{i} -text {{b {i}}}; pack append {m} {m}.b{i} {{top fillx}}"
                ))
                .unwrap();
            }
        }
        app.eval("pack append .f .f.a {left} .f.b {left}; pack append . .f {top}")
            .unwrap();
        app.update();
        // Nine new windows plus ".", which was mapped when it was created.
        assert_eq!(sent(&app, "ConfigureWindow"), 10);
        assert_eq!(sent(&app, "MapWindow"), 9);
        let (a, b) = (app.window(".f.a").unwrap(), app.window(".f.b").unwrap());
        assert_eq!(b.x.get(), a.width.get() as i32);
        let b2 = app.window(".f.b.b2").unwrap();
        assert_eq!(b2.y.get() + b2.height.get() as i32, b.height.get() as i32);
        app.conn().reset_obs();
        app.update();
        assert_eq!(sent(&app, "ConfigureWindow"), 0);
        assert_eq!(sent(&app, "MapWindow"), 0);
    }

    #[test]
    fn external_configure_of_a_packed_master_rearranges_it() {
        let (_env, app) = setup();
        child(&app, ".m", 10, 10);
        child(&app, ".m.a", 10, 10);
        child(&app, ".m.b", 10, 10);
        app.eval("pack append .m .m.a {top expand fill} .m.b {top expand fill}")
            .unwrap();
        app.eval("pack append . .m {top}").unwrap();
        app.update();
        let (a, b) = (app.window(".m.a").unwrap(), app.window(".m.b").unwrap());
        assert_eq!((a.height.get(), b.y.get()), (10, 10));
        let m = app.window(".m").unwrap();
        app.conn()
            .configure_window(m.xid, None, None, Some(100), Some(100), None);
        app.update();
        assert_eq!((m.width.get(), m.height.get()), (100, 100));
        assert_eq!((a.width.get(), a.height.get()), (100, 50));
        assert_eq!((b.y.get(), b.height.get()), (50, 50));
    }

    #[test]
    fn a_stale_configure_notify_changes_nothing() {
        // `.m.a` fills `.m`'s height, which follows its sibling `.m.b`.
        // The sibling grows twice in one update, in idle generations far
        // enough apart that `.m.a` is placed twice before the app reads
        // either ConfigureNotify.
        let (_env, app) = setup();
        child(&app, ".m", 10, 10);
        child(&app, ".m.a", 20, 20);
        child(&app, ".m.a.x", 10, 10);
        app.eval("frame .m.b -geometry 20x20").unwrap();
        app.eval("pack append .m.a .m.a.x {top expand fill}")
            .unwrap();
        app.eval("pack append .m .m.a {left filly} .m.b {left}; pack append . .m {top}")
            .unwrap();
        app.update();
        app.eval("set heights {}; bind .m.a <Configure> {lappend heights [winfo height .m.a]}")
            .unwrap();
        app.eval(".m.b configure -geometry 20x50").unwrap();
        app.eval("after idle {after idle {after idle {.m.b configure -geometry 20x80}}}")
            .unwrap();
        app.conn().reset_obs();
        app.update();
        // Both notifies reached the binding; neither rolled the cache back.
        assert_eq!(app.eval("set heights").unwrap(), "80 80");
        assert_eq!(app.window(".m.a.x").unwrap().height.get(), 80);
        // Once the app reads the notifies, no relayout runs: they were
        // the echoes of its own placements.
        let spans = app.tracer().snapshot();
        let first_event = spans.iter().position(|s| s.kind == "dispatch").unwrap();
        let late: Vec<&str> = spans[first_event..]
            .iter()
            .filter(|s| s.kind == "relayout")
            .map(|s| s.detail.as_str())
            .collect();
        assert!(late.is_empty(), "relayouts after the notifies: {late:?}");
    }

    #[test]
    fn padding_offsets_slave() {
        let (_env, app) = setup();
        child(&app, ".a", 20, 20);
        app.eval("pack append . .a {top padx 5 pady 7}").unwrap();
        app.update();
        let a = app.window(".a").unwrap();
        assert_eq!(a.y.get(), 7);
        // Horizontally centered in the parcel (parcel is master width).
        assert!(a.x.get() >= 5);
    }
}
