//! Property tests for the packer (Section 3.4): across seeded random
//! widget trees and packing options, children stay inside their master,
//! siblings never overlap, and a second relayout of a settled tree is a
//! no-op on the wire (zero protocol requests — the structure cache and
//! the `place_window` short-circuit absorb it). A column keeps packing
//! order and propagates its summed size to the toplevel, unpacking in
//! any order unmaps every slave, and the window-path helpers invert each
//! other.

use tk::{TkApp, TkEnv};
use xsim::XorShift;

const SEEDS: u64 = 60;

const SIDES: [&str; 4] = ["top", "bottom", "left", "right"];
const ANCHORS: [&str; 9] = ["center", "n", "s", "e", "w", "ne", "nw", "se", "sw"];

/// One generated scenario: the masters that got slaves, and every
/// `(master, child)` packing edge.
struct Scenario {
    masters: Vec<String>,
    packed: Vec<(String, String)>,
}

/// Random packing options in the `pack append` word form.
fn random_options(rng: &mut XorShift) -> String {
    let mut words = vec![SIDES[rng.below(4) as usize].to_string()];
    if rng.below(4) == 0 {
        words.push("expand".into());
    }
    match rng.below(4) {
        0 => words.push("fill".into()),
        1 => words.push("fillx".into()),
        2 => words.push("filly".into()),
        _ => {}
    }
    if rng.below(3) == 0 {
        words.push(format!("padx {}", rng.below(7)));
    }
    if rng.below(3) == 0 {
        words.push(format!("pady {}", rng.below(7)));
    }
    if rng.below(3) == 0 {
        words.push(format!("frame {}", ANCHORS[rng.below(9) as usize]));
    }
    words.join(" ")
}

/// Builds a random two-level tree: a few frame masters packed into `.`,
/// each holding randomly-sized, randomly-optioned frame children.
fn build_scenario(app: &TkApp, seed: u64) -> Scenario {
    let mut rng = XorShift::new(seed);
    let mut masters = vec![".".to_string()];
    let mut packed = Vec::new();

    let n_masters = 1 + rng.below(3);
    for m in 0..n_masters {
        let master = format!(".m{m}");
        app.eval(&format!("frame {master} -borderwidth {}", rng.below(4)))
            .unwrap();
        let opts = random_options(&mut rng);
        app.eval(&format!("pack append . {master} {{{opts}}}"))
            .unwrap();
        packed.push((".".into(), master.clone()));
        masters.push(master.clone());

        let n_children = 1 + rng.below(5);
        for c in 0..n_children {
            let child = format!("{master}.c{c}");
            let w = 10 + rng.below(70);
            let h = 8 + rng.below(40);
            app.eval(&format!("frame {child} -geometry {w}x{h}"))
                .unwrap();
            let opts = random_options(&mut rng);
            app.eval(&format!("pack append {master} {child} {{{opts}}}"))
                .unwrap();
            packed.push((master.clone(), child.clone()));
        }
    }
    // A couple of directly-packed leaf widgets on the toplevel too.
    for l in 0..rng.below(3) {
        let child = format!(".l{l}");
        app.eval(&format!("label {child} -text {{leaf {l}}}"))
            .unwrap();
        let opts = random_options(&mut rng);
        app.eval(&format!("pack append . {child} {{{opts}}}"))
            .unwrap();
        packed.push((".".into(), child));
    }
    // Two updates: geometry propagation may cascade a master's new
    // requested size up one level; the second pass settles it.
    app.update();
    app.update();
    Scenario { masters, packed }
}

/// Parent-relative geometry of a window.
fn geometry(app: &TkApp, path: &str) -> (i32, i32, i32, i32) {
    let rec = app
        .window(path)
        .unwrap_or_else(|| panic!("no window {path}"));
    (
        rec.x.get(),
        rec.y.get(),
        rec.width.get() as i32,
        rec.height.get() as i32,
    )
}

/// Random slaves packed into a frame `.m` pinned at 120x100, so the
/// cavity can run out; returns each slave's geometry and whether it is
/// mapped. Seed 0 is a fixed input that once broke the law: a 5x100 and
/// a 5x5 slave, both `top`, no fill.
fn pinned_master_case(seed: u64) -> Vec<((i32, i32, i32, i32), bool)> {
    const FILLS: [&str; 6] = ["", " fill", " fillx", " filly", " expand", " expand fill"];
    let mut rng = XorShift::new(seed);
    let slaves: Vec<(u64, u64, String)> = if seed == 0 {
        vec![(5, 100, "top".into()), (5, 5, "top".into())]
    } else {
        (0..rng.range(1, 6))
            .map(|_| {
                let (w, h) = (rng.range(5, 150), rng.range(5, 150));
                let side = SIDES[rng.below(4) as usize];
                (w, h, format!("{side}{}", FILLS[rng.below(6) as usize]))
            })
            .collect()
    };
    let env = TkEnv::new();
    let app = env.app("pack");
    app.eval("frame .m -geometry 120x100").unwrap();
    app.eval("pack append . .m {top}").unwrap();
    let mut spec = String::new();
    for (i, (w, h, opts)) in slaves.iter().enumerate() {
        app.eval(&format!("frame .m.s{i} -geometry {w}x{h}"))
            .unwrap();
        spec.push_str(&format!(" .m.s{i} {{{opts}}}"));
    }
    app.eval(&format!("pack append .m{spec}")).unwrap();
    app.update();
    let m = app.window(".m").unwrap();
    app.conn()
        .configure_window(m.xid, None, None, Some(120), Some(100), None);
    app.update();
    tk::pack::relayout(&app, ".m");
    app.update();
    (0..slaves.len())
        .map(|i| {
            let path = format!(".m.s{i}");
            (
                geometry(&app, &path),
                app.window(&path).unwrap().mapped.get(),
            )
        })
        .collect()
}

#[test]
fn packed_children_stay_inside_their_master() {
    for seed in 1..=SEEDS {
        let env = TkEnv::new();
        let app = env.app("pack");
        let scenario = build_scenario(&app, seed);
        for (master, child) in &scenario.packed {
            let (x, y, w, h) = geometry(&app, child);
            let mrec = app.window(master).unwrap();
            let (mw, mh) = (mrec.width.get() as i32, mrec.height.get() as i32);
            assert!(
                x >= 0 && y >= 0 && x + w <= mw && y + h <= mh,
                "seed {seed}: {child} ({x},{y} {w}x{h}) escapes {master} ({mw}x{mh})"
            );
        }
    }
    for seed in 0..=SEEDS {
        let case = pinned_master_case(seed);
        for (i, ((x, y, w, h), mapped)) in case.iter().copied().enumerate() {
            // A slave left no cavity is unmapped (Tk's `ArrangePacking`),
            // so only mapped slaves are held to the master's bounds.
            assert!(
                !mapped || (x >= 0 && y >= 0 && x + w <= 120 && y + h <= 100),
                "pinned seed {seed}: .m.s{i} ({x},{y} {w}x{h}) escapes the 120x100 .m"
            );
        }
        if seed == 0 {
            assert!(!case[1].1, "the 5x5 slave below a 5x100 one has no room");
        }
    }
}

#[test]
fn packed_siblings_never_overlap() {
    for seed in 1..=SEEDS {
        let env = TkEnv::new();
        let app = env.app("pack");
        let scenario = build_scenario(&app, seed);
        for master in &scenario.masters {
            let sibs: Vec<&String> = scenario
                .packed
                .iter()
                .filter(|(m, _)| m == master)
                .map(|(_, c)| c)
                .collect();
            for (i, a) in sibs.iter().enumerate() {
                for b in &sibs[i + 1..] {
                    let (ax, ay, aw, ah) = geometry(&app, a);
                    let (bx, by, bw, bh) = geometry(&app, b);
                    let disjoint = ax + aw <= bx || bx + bw <= ax || ay + ah <= by || by + bh <= ay;
                    assert!(
                        disjoint,
                        "seed {seed}: {a} ({ax},{ay} {aw}x{ah}) overlaps \
                         {b} ({bx},{by} {bw}x{bh}) in {master}"
                    );
                }
            }
        }
    }
}

#[test]
fn relayout_of_a_settled_tree_is_free() {
    for seed in 1..=SEEDS {
        let env = TkEnv::new();
        let app = env.app("pack");
        let scenario = build_scenario(&app, seed);

        // Remember where everything sits...
        let before: Vec<(i32, i32, i32, i32)> = scenario
            .packed
            .iter()
            .map(|(_, c)| geometry(&app, c))
            .collect();

        // ...then relayout every master again. A settled tree must not
        // move a window, ask for new geometry, or touch the server.
        let requests = app.conn().stats().requests;
        for master in &scenario.masters {
            tk::pack::relayout(&app, master);
        }
        app.update();
        let delta = app.conn().stats().requests - requests;
        assert_eq!(
            delta, 0,
            "seed {seed}: second relayout sent {delta} protocol requests"
        );
        let after: Vec<(i32, i32, i32, i32)> = scenario
            .packed
            .iter()
            .map(|(_, c)| geometry(&app, c))
            .collect();
        assert_eq!(before, after, "seed {seed}: second relayout moved a window");
    }
}

/// A `{top}` column of frames with `sizes`, settled.
fn column(sizes: &[(u64, u64)]) -> (TkEnv, TkApp) {
    let env = TkEnv::new();
    let app = env.app("pack");
    let mut spec = String::new();
    for (i, (w, h)) in sizes.iter().enumerate() {
        app.eval(&format!("frame .s{i} -geometry {w}x{h}")).unwrap();
        spec.push_str(&format!(" .s{i} {{top}}"));
    }
    app.eval(&format!("pack append .{spec}")).unwrap();
    app.update();
    (env, app)
}

#[test]
fn column_slaves_keep_packing_order() {
    for seed in 1..=SEEDS {
        let mut rng = XorShift::new(seed);
        let sizes: Vec<(u64, u64)> = (0..rng.range(2, 6))
            .map(|_| (50, rng.range(5, 40)))
            .collect();
        let (_env, app) = column(&sizes);
        let mut last_bottom = 0;
        for i in 0..sizes.len() {
            let (_, y, _, h) = geometry(&app, &format!(".s{i}"));
            assert!(
                y >= last_bottom,
                "seed {seed}: .s{i} top {y} above {last_bottom}"
            );
            last_bottom = y + h;
        }
    }
}

/// A toplevel master asks for the column's widest slave and summed height.
#[test]
fn column_geometry_propagates_to_the_toplevel() {
    for seed in 1..=SEEDS {
        let mut rng = XorShift::new(seed);
        let sizes: Vec<(u64, u64)> = (0..rng.range(1, 6))
            .map(|_| (rng.range(5, 80), rng.range(5, 40)))
            .collect();
        let (_env, app) = column(&sizes);
        let main = app.window(".").unwrap();
        let want_w = sizes.iter().map(|(w, _)| *w).max().unwrap();
        let want_h: u64 = sizes.iter().map(|(_, h)| *h).sum();
        let got = (main.req_width.get() as u64, main.req_height.get() as u64);
        assert_eq!(got, (want_w, want_h), "seed {seed}: {sizes:?}");
    }
}

/// Unpacking a slave gives its space back: siblings re-settle, and the
/// unpacked window is no longer mapped.
#[test]
fn unpack_releases_the_parcel() {
    let env = TkEnv::new();
    let app = env.app("pack");
    app.eval("frame .a -geometry 40x20").unwrap();
    app.eval("frame .b -geometry 40x20").unwrap();
    app.eval("pack append . .a {top} .b {top}").unwrap();
    app.update();
    let (_, by, _, _) = geometry(&app, ".b");
    assert!(by >= 20, ".b below .a");
    app.eval("pack unpack .a").unwrap();
    app.update();
    let (_, by, _, _) = geometry(&app, ".b");
    assert_eq!(by, 0, ".b takes over the cavity");
    assert!(!app.window(".a").unwrap().mapped.get());

    // Unpacking every slave of a column, in any order, unmaps them all.
    for seed in 1..=SEEDS {
        let mut rng = XorShift::new(seed);
        let n = rng.range(1, 5) as usize;
        let (_env, app) = column(&vec![(20, 20); n]);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for i in &order {
            app.eval(&format!("pack unpack .s{i}")).unwrap();
        }
        app.update();
        for i in 0..n {
            let mapped = app.window(&format!(".s{i}")).unwrap().mapped.get();
            assert!(
                !mapped,
                "seed {seed}: .s{i} still mapped after unpacking {order:?}"
            );
        }
    }
}

#[test]
fn window_path_join_and_split_invert() {
    use tk::window::{components, join, name_of, parent_path};
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    for seed in 1..=SEEDS {
        let mut rng = XorShift::new(seed);
        let parts: Vec<String> = (0..rng.range(1, 5))
            .map(|_| {
                let mut p = String::from(FIRST[rng.below(26) as usize] as char);
                for _ in 0..rng.below(7) {
                    p.push(REST[rng.below(36) as usize] as char);
                }
                p
            })
            .collect();
        let path = format!(".{}", parts.join("."));
        assert_eq!(components(&path), parts, "seed {seed}: {path}");
        let leaf = parts.last().unwrap();
        assert_eq!(name_of(&path), leaf, "seed {seed}: {path}");
        let parent = parent_path(&path).unwrap();
        assert_eq!(join(parent, leaf), path, "seed {seed}: {path}");
    }
}
