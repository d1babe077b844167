//! The canvas widget: structured drawing commands for shapes and text.
//!
//! Section 5 of the paper: "I plan to enhance wish with drawing commands
//! for shapes and text and a few other features; once this is done it will
//! be possible to code a large class of interesting applications entirely
//! in Tcl." This widget delivers that future work: display items (lines,
//! rectangles, ovals, text) are created, moved, reconfigured, and deleted
//! from Tcl, addressed by id or tag.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tcl::{Exception, TclResult};
use xsim::{Event, GcValues, Rect};

use crate::app::TkApp;
use crate::config::{opt, synonym, ConfigStore, OptKind, OptSpec};
use crate::draw::draw_3d_rect;
use crate::widget::{bad_subcommand, create_widget, handle_configure, WidgetOps};

static SPECS: &[OptSpec] = &[
    opt(
        "-background",
        "background",
        "Background",
        "white",
        OptKind::Color,
    ),
    synonym("-bg", "-background"),
    opt(
        "-borderwidth",
        "borderWidth",
        "BorderWidth",
        "0",
        OptKind::Pixels,
    ),
    synonym("-bd", "-borderwidth"),
    opt("-cursor", "cursor", "Cursor", "crosshair", OptKind::Cursor),
    opt(
        "-geometry",
        "geometry",
        "Geometry",
        "200x150",
        OptKind::Geometry,
    ),
    opt("-relief", "relief", "Relief", "flat", OptKind::Relief),
];

/// The shape of one display item.
#[derive(Debug, Clone)]
enum Shape {
    /// A polyline through the points.
    Line { points: Vec<(i32, i32)>, width: u32 },
    /// A rectangle from corner to corner.
    Rectangle {
        x1: i32,
        y1: i32,
        x2: i32,
        y2: i32,
        filled: bool,
    },
    /// An ellipse inscribed in the rectangle.
    Oval {
        x1: i32,
        y1: i32,
        x2: i32,
        y2: i32,
        filled: bool,
    },
    /// A text string with its anchor point.
    Text { x: i32, y: i32, text: String },
}

/// One display item: shape + paint + tag.
#[derive(Debug, Clone)]
struct Item {
    id: u64,
    shape: Shape,
    color: String,
    font: String,
    tag: String,
}

/// The canvas widget.
pub struct Canvas {
    config: ConfigStore,
    items: RefCell<Vec<Item>>,
    next_id: Cell<u64>,
}

/// Registers the `canvas` creation command.
pub fn register(app: &TkApp) {
    app.register_command("canvas", |app, _i, argv| {
        create_widget(
            app,
            argv,
            Rc::new(Canvas {
                config: ConfigStore::new(SPECS),
                items: RefCell::new(Vec::new()),
                next_id: Cell::new(0),
            }),
        )
    });
}

/// Parses leading integer coordinates; returns them and the remaining args.
fn take_coords(args: &[String]) -> (Vec<i32>, &[String]) {
    let mut coords = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].parse::<i32>() {
            Ok(v) => coords.push(v),
            Err(_) => break,
        }
        i += 1;
    }
    (coords, &args[i..])
}

/// Parses `-option value` pairs for item creation/configuration.
struct ItemOpts {
    color: Option<String>,
    font: Option<String>,
    tag: Option<String>,
    width: Option<u32>,
    text: Option<String>,
    filled: Option<bool>,
}

fn parse_item_opts(args: &[String]) -> Result<ItemOpts, Exception> {
    let mut o = ItemOpts {
        color: None,
        font: None,
        tag: None,
        width: None,
        text: None,
        filled: None,
    };
    if args.len() % 2 != 0 {
        return Err(Exception::error(format!(
            "value for \"{}\" missing",
            args.last().map(String::as_str).unwrap_or("")
        )));
    }
    for pair in args.chunks(2) {
        match pair[0].as_str() {
            "-fill" => {
                o.color = Some(pair[1].clone());
                o.filled = Some(true);
            }
            "-outline" => {
                o.color = Some(pair[1].clone());
                o.filled = Some(false);
            }
            "-font" => o.font = Some(pair[1].clone()),
            "-tag" | "-tags" => o.tag = Some(pair[1].clone()),
            "-width" => {
                o.width = Some(
                    pair[1]
                        .parse()
                        .map_err(|_| Exception::error(format!("bad width \"{}\"", pair[1])))?,
                )
            }
            "-text" => o.text = Some(pair[1].clone()),
            other => return Err(Exception::error(format!("unknown item option \"{other}\""))),
        }
    }
    Ok(o)
}

impl Canvas {
    /// Indices of items matching an id, a tag, or `all`.
    fn matching(&self, spec: &str) -> Vec<usize> {
        let items = self.items.borrow();
        if spec == "all" {
            return (0..items.len()).collect();
        }
        if let Ok(id) = spec.parse::<u64>() {
            return items
                .iter()
                .enumerate()
                .filter(|(_, it)| it.id == id)
                .map(|(i, _)| i)
                .collect();
        }
        items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.tag == spec)
            .map(|(i, _)| i)
            .collect()
    }

    fn create_item(&self, app: &TkApp, path: &str, argv: &[String]) -> TclResult {
        let kind = argv
            .get(2)
            .ok_or_else(|| Exception::error("wrong # args: create type coords ?options?"))?
            .as_str();
        let (coords, rest) = take_coords(&argv[3..]);
        let opts = parse_item_opts(rest)?;
        let shape = match kind {
            "line" => {
                if coords.len() < 4 || coords.len() % 2 != 0 {
                    return Err(Exception::error(
                        "line items need an even number of >= 4 coordinates",
                    ));
                }
                Shape::Line {
                    points: coords.chunks(2).map(|c| (c[0], c[1])).collect(),
                    width: opts.width.unwrap_or(1),
                }
            }
            "rectangle" => {
                if coords.len() != 4 {
                    return Err(Exception::error("rectangle items need 4 coordinates"));
                }
                Shape::Rectangle {
                    x1: coords[0].min(coords[2]),
                    y1: coords[1].min(coords[3]),
                    x2: coords[0].max(coords[2]),
                    y2: coords[1].max(coords[3]),
                    filled: opts.filled.unwrap_or(false),
                }
            }
            "oval" => {
                if coords.len() != 4 {
                    return Err(Exception::error("oval items need 4 coordinates"));
                }
                Shape::Oval {
                    x1: coords[0].min(coords[2]),
                    y1: coords[1].min(coords[3]),
                    x2: coords[0].max(coords[2]),
                    y2: coords[1].max(coords[3]),
                    filled: opts.filled.unwrap_or(false),
                }
            }
            "text" => {
                if coords.len() != 2 {
                    return Err(Exception::error("text items need 2 coordinates"));
                }
                Shape::Text {
                    x: coords[0],
                    y: coords[1],
                    text: opts.text.clone().unwrap_or_default(),
                }
            }
            other => {
                return Err(Exception::error(format!(
                    "bad item type \"{other}\": must be line, oval, rectangle, or text"
                )))
            }
        };
        let id = self.next_id.get() + 1;
        self.next_id.set(id);
        self.items.borrow_mut().push(Item {
            id,
            shape,
            color: opts.color.unwrap_or_else(|| "black".to_string()),
            font: opts.font.unwrap_or_else(|| "fixed".to_string()),
            tag: opts.tag.unwrap_or_default(),
        });
        let rect = {
            let items = self.items.borrow();
            self.item_rect(app, items.last().unwrap())
        };
        app.schedule_redraw_damage(path, rect);
        Ok(id.to_string())
    }

    /// The screen rect an item can touch: its bbox padded for line
    /// width and outline overshoot, or the glyph extent for text (whose
    /// bbox is just the anchor point).
    fn item_rect(&self, app: &TkApp, item: &Item) -> Rect {
        if let Shape::Text { x, y, text } = &item.shape {
            if let Ok((_, m)) = app.cache().font(app.conn(), &item.font) {
                let w = text.chars().count() as u32 * m.char_width;
                return Rect::new(*x - 1, *y - m.ascent as i32 - 1, w + 2, m.line_height() + 2);
            }
        }
        let (x1, y1, x2, y2) = Canvas::bbox_of(&item.shape);
        let pad = match &item.shape {
            Shape::Line { width, .. } => *width as i32 + 1,
            _ => 2,
        };
        Rect::new(
            x1 - pad,
            y1 - pad,
            (x2 - x1 + 2 * pad) as u32,
            (y2 - y1 + 2 * pad) as u32,
        )
    }

    /// Schedules a repaint covering `rects`; an empty set still schedules
    /// (a degenerate rect) so both damage modes redraw in lockstep.
    fn damage_rects(&self, app: &TkApp, path: &str, rects: Vec<Rect>) {
        if rects.is_empty() {
            return app.schedule_redraw_damage(path, Rect::new(0, 0, 1, 1));
        }
        for r in rects {
            app.schedule_redraw_damage(path, r);
        }
    }

    fn bbox_of(shape: &Shape) -> (i32, i32, i32, i32) {
        match shape {
            Shape::Line { points, .. } => {
                let xs: Vec<i32> = points.iter().map(|p| p.0).collect();
                let ys: Vec<i32> = points.iter().map(|p| p.1).collect();
                (
                    *xs.iter().min().unwrap_or(&0),
                    *ys.iter().min().unwrap_or(&0),
                    *xs.iter().max().unwrap_or(&0),
                    *ys.iter().max().unwrap_or(&0),
                )
            }
            Shape::Rectangle { x1, y1, x2, y2, .. } | Shape::Oval { x1, y1, x2, y2, .. } => {
                (*x1, *y1, *x2, *y2)
            }
            Shape::Text { x, y, .. } => (*x, *y, *x, *y),
        }
    }

    fn move_shape(shape: &mut Shape, dx: i32, dy: i32) {
        match shape {
            Shape::Line { points, .. } => {
                for p in points {
                    p.0 += dx;
                    p.1 += dy;
                }
            }
            Shape::Rectangle { x1, y1, x2, y2, .. } | Shape::Oval { x1, y1, x2, y2, .. } => {
                *x1 += dx;
                *x2 += dx;
                *y1 += dy;
                *y2 += dy;
            }
            Shape::Text { x, y, .. } => {
                *x += dx;
                *y += dy;
            }
        }
    }
}

impl WidgetOps for Canvas {
    fn class(&self) -> &'static str {
        "Canvas"
    }

    fn config(&self) -> &ConfigStore {
        &self.config
    }

    fn command(&self, app: &TkApp, path: &str, argv: &[String]) -> TclResult {
        if let Some(r) = handle_configure(app, self, path, argv) {
            return r;
        }
        let sub = argv
            .get(1)
            .ok_or_else(|| {
                Exception::error(format!(
                    "wrong # args: should be \"{path} option ?arg ...?\""
                ))
            })?
            .as_str();
        match sub {
            "create" => self.create_item(app, path, argv),
            "delete" => {
                let spec = argv.get(2).map(String::as_str).unwrap_or("all");
                let doomed = self.matching(spec);
                let rects = {
                    let items = self.items.borrow();
                    doomed
                        .iter()
                        .map(|&i| self.item_rect(app, &items[i]))
                        .collect()
                };
                let mut items = self.items.borrow_mut();
                for &i in doomed.iter().rev() {
                    items.remove(i);
                }
                drop(items);
                self.damage_rects(app, path, rects);
                Ok(String::new())
            }
            "move" => {
                if argv.len() != 5 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} move tagOrId dx dy\""
                    )));
                }
                let dx: i32 = argv[3].parse().map_err(|_| Exception::error("bad dx"))?;
                let dy: i32 = argv[4].parse().map_err(|_| Exception::error("bad dy"))?;
                let which = self.matching(&argv[2]);
                // Damage both where each item was and where it lands.
                let mut rects: Vec<Rect> = {
                    let items = self.items.borrow();
                    which
                        .iter()
                        .map(|&i| self.item_rect(app, &items[i]))
                        .collect()
                };
                {
                    let mut items = self.items.borrow_mut();
                    for &i in &which {
                        Canvas::move_shape(&mut items[i].shape, dx, dy);
                    }
                }
                {
                    let items = self.items.borrow();
                    rects.extend(which.iter().map(|&i| self.item_rect(app, &items[i])));
                }
                self.damage_rects(app, path, rects);
                Ok(String::new())
            }
            "coords" => {
                let which = self.matching(
                    argv.get(2)
                        .ok_or_else(|| Exception::error("wrong # args: coords tagOrId"))?,
                );
                let items = self.items.borrow();
                match which.first() {
                    Some(&i) => {
                        let (x1, y1, x2, y2) = Canvas::bbox_of(&items[i].shape);
                        Ok(format!("{x1} {y1} {x2} {y2}"))
                    }
                    None => Ok(String::new()),
                }
            }
            "bbox" => {
                let which = self.matching(argv.get(2).map(String::as_str).unwrap_or("all"));
                if which.is_empty() {
                    return Ok(String::new());
                }
                let items = self.items.borrow();
                let boxes: Vec<(i32, i32, i32, i32)> = which
                    .iter()
                    .map(|&i| Canvas::bbox_of(&items[i].shape))
                    .collect();
                let x1 = boxes.iter().map(|b| b.0).min().unwrap();
                let y1 = boxes.iter().map(|b| b.1).min().unwrap();
                let x2 = boxes.iter().map(|b| b.2).max().unwrap();
                let y2 = boxes.iter().map(|b| b.3).max().unwrap();
                Ok(format!("{x1} {y1} {x2} {y2}"))
            }
            "itemconfigure" => {
                if argv.len() < 3 {
                    return Err(Exception::error(format!(
                        "wrong # args: should be \"{path} itemconfigure tagOrId ?option value ...?\""
                    )));
                }
                let opts = parse_item_opts(&argv[3..])?;
                let which = self.matching(&argv[2]);
                // Old and new extents both repaint (text may shrink).
                let mut rects: Vec<Rect> = {
                    let items = self.items.borrow();
                    which
                        .iter()
                        .map(|&i| self.item_rect(app, &items[i]))
                        .collect()
                };
                {
                    let mut items = self.items.borrow_mut();
                    for &i in &which {
                        if let Some(c) = &opts.color {
                            items[i].color = c.clone();
                        }
                        if let Some(f) = &opts.font {
                            items[i].font = f.clone();
                        }
                        if let Some(t) = &opts.text {
                            if let Shape::Text { text, .. } = &mut items[i].shape {
                                *text = t.clone();
                            }
                        }
                    }
                }
                {
                    let items = self.items.borrow();
                    rects.extend(which.iter().map(|&i| self.item_rect(app, &items[i])));
                }
                self.damage_rects(app, path, rects);
                Ok(String::new())
            }
            "items" => {
                let items = self.items.borrow();
                Ok(items
                    .iter()
                    .map(|i| i.id.to_string())
                    .collect::<Vec<_>>()
                    .join(" "))
            }
            other => Err(bad_subcommand(
                path,
                other,
                "bbox, configure, coords, create, delete, itemconfigure, items, or move",
            )),
        }
    }

    fn apply_config(&self, app: &TkApp, path: &str) -> Result<(), Exception> {
        let rec = app.require_window(path)?;
        let bg = app
            .cache()
            .color(app.conn(), &self.config.get("-background"))?;
        app.conn().set_window_background(rec.xid, bg);
        let (w, h) = crate::draw::parse_geometry(&self.config.get("-geometry"))?;
        app.geometry_request(path, w, h);
        app.schedule_redraw(path);
        Ok(())
    }

    fn event(&self, app: &TkApp, path: &str, ev: &Event) {
        if matches!(ev, Event::Expose { .. }) {
            app.expose_damage(path, ev);
        }
    }

    fn redraw(&self, app: &TkApp, path: &str) {
        let Some(rec) = app.window(path) else { return };
        let conn = app.conn();
        let cache = app.cache();
        conn.clear_area(rec.xid, 0, 0, 0, 0);
        let bw = self.config.get_pixels("-borderwidth").max(0) as u32;
        if bw > 0 {
            if let Ok(border) = cache.border(conn, &self.config.get("-background")) {
                draw_3d_rect(
                    conn,
                    cache,
                    rec.xid,
                    border,
                    0,
                    0,
                    rec.width.get(),
                    rec.height.get(),
                    bw,
                    self.config.get_relief("-relief"),
                );
            }
        }
        for item in self.items.borrow().iter() {
            let Ok(color) = cache.color(conn, &item.color) else {
                continue;
            };
            match &item.shape {
                Shape::Line { points, width } => {
                    let gc = cache.gc(
                        conn,
                        GcValues {
                            foreground: color,
                            line_width: *width,
                            ..Default::default()
                        },
                    );
                    for pair in points.windows(2) {
                        conn.draw_line(rec.xid, gc, pair[0].0, pair[0].1, pair[1].0, pair[1].1);
                    }
                }
                Shape::Rectangle {
                    x1,
                    y1,
                    x2,
                    y2,
                    filled,
                } => {
                    let gc = cache.gc(
                        conn,
                        GcValues {
                            foreground: color,
                            ..Default::default()
                        },
                    );
                    let (w, h) = ((x2 - x1).max(0) as u32, (y2 - y1).max(0) as u32);
                    if *filled {
                        conn.fill_rectangle(rec.xid, gc, *x1, *y1, w, h);
                    } else {
                        conn.draw_rectangle(rec.xid, gc, *x1, *y1, w, h);
                    }
                }
                Shape::Oval {
                    x1,
                    y1,
                    x2,
                    y2,
                    filled,
                } => {
                    let gc = cache.gc(
                        conn,
                        GcValues {
                            foreground: color,
                            ..Default::default()
                        },
                    );
                    // Parametric ellipse: outline as short chords, fill as
                    // horizontal spans.
                    let cx = (x1 + x2) as f64 / 2.0;
                    let cy = (y1 + y2) as f64 / 2.0;
                    let rx = (x2 - x1) as f64 / 2.0;
                    let ry = (y2 - y1) as f64 / 2.0;
                    if *filled {
                        for yy in *y1..=*y2 {
                            let t = (yy as f64 - cy) / ry.max(0.5);
                            if t.abs() <= 1.0 {
                                let half = rx * (1.0 - t * t).sqrt();
                                conn.draw_line(
                                    rec.xid,
                                    gc,
                                    (cx - half) as i32,
                                    yy,
                                    (cx + half) as i32,
                                    yy,
                                );
                            }
                        }
                    } else {
                        let steps = 48;
                        let mut prev: Option<(i32, i32)> = None;
                        for s in 0..=steps {
                            let a = s as f64 / steps as f64 * std::f64::consts::TAU;
                            let px = (cx + rx * a.cos()) as i32;
                            let py = (cy + ry * a.sin()) as i32;
                            if let Some((qx, qy)) = prev {
                                conn.draw_line(rec.xid, gc, qx, qy, px, py);
                            }
                            prev = Some((px, py));
                        }
                    }
                }
                Shape::Text { x, y, text } => {
                    let Ok((font, _m)) = cache.font(conn, &item.font) else {
                        continue;
                    };
                    let gc = cache.gc(
                        conn,
                        GcValues {
                            foreground: color,
                            font,
                            ..Default::default()
                        },
                    );
                    conn.draw_string(rec.xid, gc, *x, *y, text);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::app::TkEnv;

    fn setup() -> (TkEnv, crate::app::TkApp) {
        let env = TkEnv::new();
        let app = env.app("t");
        app.eval("canvas .c -geometry 100x80").unwrap();
        app.eval("pack append . .c {top}").unwrap();
        app.update();
        (env, app)
    }

    #[test]
    fn create_returns_increasing_ids() {
        let (_env, app) = setup();
        let a = app.eval(".c create line 0 0 10 10").unwrap();
        let b = app.eval(".c create rectangle 5 5 20 20").unwrap();
        assert_ne!(a, b);
        assert_eq!(app.eval(".c items").unwrap(), format!("{a} {b}"));
    }

    #[test]
    fn items_draw_pixels() {
        let (env, app) = setup();
        app.eval(".c create rectangle 10 10 30 30 -fill red")
            .unwrap();
        app.update();
        let rec = app.window(".c").unwrap();
        let red = xsim::Rgb::new(255, 0, 0);
        let painted = env
            .display()
            .with_server(|s| s.window_surface(rec.xid).unwrap().count_pixels(red));
        assert!(painted >= 19 * 19, "filled rect: {painted} red pixels");
    }

    #[test]
    fn move_and_coords() {
        let (_env, app) = setup();
        let id = app.eval(".c create rectangle 0 0 10 10").unwrap();
        app.eval(&format!(".c move {id} 5 7")).unwrap();
        assert_eq!(app.eval(&format!(".c coords {id}")).unwrap(), "5 7 15 17");
    }

    #[test]
    fn tags_address_groups() {
        let (_env, app) = setup();
        app.eval(".c create line 0 0 5 5 -tag grid").unwrap();
        app.eval(".c create line 0 5 5 0 -tag grid").unwrap();
        app.eval(".c create text 50 50 -text label").unwrap();
        app.eval(".c move grid 10 10").unwrap();
        assert_eq!(app.eval(".c coords grid").unwrap(), "10 10 15 15");
        app.eval(".c delete grid").unwrap();
        assert_eq!(app.eval(".c items").unwrap().split_whitespace().count(), 1);
        app.eval(".c delete all").unwrap();
        assert_eq!(app.eval(".c items").unwrap(), "");
    }

    #[test]
    fn itemconfigure_changes_text() {
        let (env, app) = setup();
        let id = app.eval(".c create text 20 40 -text before").unwrap();
        app.update();
        app.eval(&format!(".c itemconfigure {id} -text after"))
            .unwrap();
        app.update();
        let dump = env.display().ascii_dump();
        assert!(dump.contains("after"), "{dump}");
        assert!(!dump.contains("before"), "{dump}");
    }

    #[test]
    fn bbox_covers_items() {
        let (_env, app) = setup();
        app.eval(".c create line 5 6 50 60").unwrap();
        app.eval(".c create rectangle 40 2 70 30").unwrap();
        assert_eq!(app.eval(".c bbox all").unwrap(), "5 2 70 60");
    }

    #[test]
    fn oval_draws_inside_bbox() {
        let (env, app) = setup();
        app.eval(".c create oval 20 20 60 50 -fill blue").unwrap();
        app.update();
        let rec = app.window(".c").unwrap();
        let blue = xsim::Rgb::new(0, 0, 255);
        env.display().with_server(|s| {
            let surf = s.window_surface(rec.xid).unwrap();
            assert_eq!(surf.pixel(40, 35), blue, "center is filled");
            assert_ne!(surf.pixel(21, 21), blue, "corner is outside the ellipse");
        });
    }

    #[test]
    fn bad_item_type_errors() {
        let (_env, app) = setup();
        assert!(app.eval(".c create polygon 0 0 1 1").is_err());
        assert!(app.eval(".c create line 0 0").is_err());
        assert!(app.eval(".c create rectangle 0 0 1").is_err());
    }

    #[test]
    fn bar_chart_in_pure_tcl() {
        // The "large class of interesting applications entirely in Tcl"
        // the paper promises: a bar chart drawn by a Tcl proc.
        let (_env, app) = setup();
        app.eval(
            r#"
            proc barchart {c values} {
                $c delete all
                set x 10
                foreach v $values {
                    $c create rectangle $x [expr {70 - $v}] [expr {$x + 15}] 70 -fill SteelBlue -tag bar
                    set x [expr {$x + 20}]
                }
            }
            barchart .c {30 50 20 60}
        "#,
        )
        .unwrap();
        app.update();
        assert_eq!(app.eval(".c items").unwrap().split_whitespace().count(), 4);
        assert_eq!(app.eval(".c bbox bar").unwrap(), "10 10 85 70");
    }
}
