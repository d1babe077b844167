//! The color database and a shared pseudo-color colormap.
//!
//! Colors are named by the textual names of X11's `rgb.txt` (the paper's
//! `MediumSeaGreen` example) or by `#rgb`/`#rrggbb` hex strings. The
//! colormap allocates *pixel values* for RGB triples; identical colors
//! share a pixel with a reference count, which is what makes Tk's
//! color cache effective at cutting server traffic (Section 3.3).

use std::collections::HashMap;

use crate::ids::Pixel;

/// An RGB color, 8 bits per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rgb {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

impl Rgb {
    /// Builds an RGB triple.
    pub const fn new(r: u8, g: u8, b: u8) -> Rgb {
        Rgb { r, g, b }
    }

    /// Packs into `0x00RRGGBB` for framebuffer storage.
    pub fn packed(self) -> u32 {
        (self.r as u32) << 16 | (self.g as u32) << 8 | self.b as u32
    }

    /// Unpacks from `0x00RRGGBB`.
    pub fn from_packed(v: u32) -> Rgb {
        Rgb::new((v >> 16) as u8, (v >> 8) as u8, v as u8)
    }
}

/// A subset of X11's rgb.txt covering the names Tk's widgets and the
/// paper's examples use, plus the standard primaries and grays.
const NAMED_COLORS: &[(&str, Rgb)] = &[
    ("black", Rgb::new(0, 0, 0)),
    ("white", Rgb::new(255, 255, 255)),
    ("red", Rgb::new(255, 0, 0)),
    ("green", Rgb::new(0, 255, 0)),
    ("blue", Rgb::new(0, 0, 255)),
    ("yellow", Rgb::new(255, 255, 0)),
    ("cyan", Rgb::new(0, 255, 255)),
    ("magenta", Rgb::new(255, 0, 255)),
    ("orange", Rgb::new(255, 165, 0)),
    ("purple", Rgb::new(160, 32, 240)),
    ("brown", Rgb::new(165, 42, 42)),
    ("pink", Rgb::new(255, 192, 203)),
    ("gray", Rgb::new(190, 190, 190)),
    ("grey", Rgb::new(190, 190, 190)),
    ("lightgray", Rgb::new(211, 211, 211)),
    ("lightgrey", Rgb::new(211, 211, 211)),
    ("darkgray", Rgb::new(169, 169, 169)),
    ("darkgrey", Rgb::new(169, 169, 169)),
    ("dimgray", Rgb::new(105, 105, 105)),
    ("gainsboro", Rgb::new(220, 220, 220)),
    ("gray25", Rgb::new(64, 64, 64)),
    ("gray50", Rgb::new(127, 127, 127)),
    ("gray75", Rgb::new(191, 191, 191)),
    ("gray90", Rgb::new(229, 229, 229)),
    ("navy", Rgb::new(0, 0, 128)),
    ("navyblue", Rgb::new(0, 0, 128)),
    ("skyblue", Rgb::new(135, 206, 235)),
    ("lightblue", Rgb::new(173, 216, 230)),
    ("steelblue", Rgb::new(70, 130, 180)),
    ("lightsteelblue", Rgb::new(176, 196, 222)),
    ("royalblue", Rgb::new(65, 105, 225)),
    ("dodgerblue", Rgb::new(30, 144, 255)),
    ("cornflowerblue", Rgb::new(100, 149, 237)),
    ("cadetblue", Rgb::new(95, 158, 160)),
    ("midnightblue", Rgb::new(25, 25, 112)),
    ("darkgreen", Rgb::new(0, 100, 0)),
    ("forestgreen", Rgb::new(34, 139, 34)),
    ("seagreen", Rgb::new(46, 139, 87)),
    ("mediumseagreen", Rgb::new(60, 179, 113)),
    ("darkseagreen", Rgb::new(143, 188, 143)),
    ("lightseagreen", Rgb::new(32, 178, 170)),
    ("springgreen", Rgb::new(0, 255, 127)),
    ("palegreen", Rgb::new(152, 251, 152)),
    ("limegreen", Rgb::new(50, 205, 50)),
    ("yellowgreen", Rgb::new(154, 205, 50)),
    ("olivedrab", Rgb::new(107, 142, 35)),
    ("darkolivegreen", Rgb::new(85, 107, 47)),
    ("khaki", Rgb::new(240, 230, 140)),
    ("gold", Rgb::new(255, 215, 0)),
    ("goldenrod", Rgb::new(218, 165, 32)),
    ("darkgoldenrod", Rgb::new(184, 134, 11)),
    ("salmon", Rgb::new(250, 128, 114)),
    ("lightsalmon", Rgb::new(255, 160, 122)),
    ("coral", Rgb::new(255, 127, 80)),
    ("tomato", Rgb::new(255, 99, 71)),
    ("orangered", Rgb::new(255, 69, 0)),
    ("darkorange", Rgb::new(255, 140, 0)),
    ("firebrick", Rgb::new(178, 34, 34)),
    ("indianred", Rgb::new(205, 92, 92)),
    ("darkred", Rgb::new(139, 0, 0)),
    ("maroon", Rgb::new(176, 48, 96)),
    ("hotpink", Rgb::new(255, 105, 180)),
    ("deeppink", Rgb::new(255, 20, 147)),
    ("palepink1", Rgb::new(255, 224, 229)), // Tk example in Section 4
    ("lightpink", Rgb::new(255, 182, 193)),
    ("violet", Rgb::new(238, 130, 238)),
    ("violetred", Rgb::new(208, 32, 144)),
    ("plum", Rgb::new(221, 160, 221)),
    ("orchid", Rgb::new(218, 112, 214)),
    ("mediumorchid", Rgb::new(186, 85, 211)),
    ("darkorchid", Rgb::new(153, 50, 204)),
    ("blueviolet", Rgb::new(138, 43, 226)),
    ("mediumpurple", Rgb::new(147, 112, 219)),
    ("thistle", Rgb::new(216, 191, 216)),
    ("lavender", Rgb::new(230, 230, 250)),
    ("beige", Rgb::new(245, 245, 220)),
    ("bisque", Rgb::new(255, 228, 196)),
    ("bisque1", Rgb::new(255, 228, 196)),
    ("bisque2", Rgb::new(238, 213, 183)),
    ("bisque3", Rgb::new(205, 183, 158)),
    ("wheat", Rgb::new(245, 222, 179)),
    ("tan", Rgb::new(210, 180, 140)),
    ("chocolate", Rgb::new(210, 105, 30)),
    ("sienna", Rgb::new(160, 82, 45)),
    ("peru", Rgb::new(205, 133, 63)),
    ("burlywood", Rgb::new(222, 184, 135)),
    ("sandybrown", Rgb::new(244, 164, 96)),
    ("ivory", Rgb::new(255, 255, 240)),
    ("linen", Rgb::new(250, 240, 230)),
    ("seashell", Rgb::new(255, 245, 238)),
    ("snow", Rgb::new(255, 250, 250)),
    ("floralwhite", Rgb::new(255, 250, 240)),
    ("ghostwhite", Rgb::new(248, 248, 255)),
    ("whitesmoke", Rgb::new(245, 245, 245)),
    ("antiquewhite", Rgb::new(250, 235, 215)),
    ("papayawhip", Rgb::new(255, 239, 213)),
    ("peachpuff", Rgb::new(255, 218, 185)),
    ("mistyrose", Rgb::new(255, 228, 225)),
    ("lemonchiffon", Rgb::new(255, 250, 205)),
    ("lightyellow", Rgb::new(255, 255, 224)),
    ("honeydew", Rgb::new(240, 255, 240)),
    ("mintcream", Rgb::new(245, 255, 250)),
    ("azure", Rgb::new(240, 255, 255)),
    ("aliceblue", Rgb::new(240, 248, 255)),
    ("lavenderblush", Rgb::new(255, 240, 245)),
    ("cornsilk", Rgb::new(255, 248, 220)),
    ("oldlace", Rgb::new(253, 245, 230)),
    ("aquamarine", Rgb::new(127, 255, 212)),
    ("turquoise", Rgb::new(64, 224, 208)),
    ("mediumturquoise", Rgb::new(72, 209, 204)),
    ("darkturquoise", Rgb::new(0, 206, 209)),
    ("paleturquoise", Rgb::new(175, 238, 238)),
    ("powderblue", Rgb::new(176, 224, 230)),
    ("lightcyan", Rgb::new(224, 255, 255)),
    ("slateblue", Rgb::new(106, 90, 205)),
    ("darkslateblue", Rgb::new(72, 61, 139)),
    ("mediumslateblue", Rgb::new(123, 104, 238)),
    ("lightslateblue", Rgb::new(132, 112, 255)),
    ("slategray", Rgb::new(112, 128, 144)),
    ("lightslategray", Rgb::new(119, 136, 153)),
    ("darkslategray", Rgb::new(47, 79, 79)),
    ("deepskyblue", Rgb::new(0, 191, 255)),
    ("lightskyblue", Rgb::new(135, 206, 250)),
    ("greenyellow", Rgb::new(173, 255, 47)),
    ("lawngreen", Rgb::new(124, 252, 0)),
    ("chartreuse", Rgb::new(127, 255, 0)),
    ("mediumspringgreen", Rgb::new(0, 250, 154)),
    ("rosybrown", Rgb::new(188, 143, 143)),
];

/// Looks up a color by name or `#hex` specification.
///
/// Names are case- and space-insensitive (`MediumSeaGreen`, `medium sea
/// green`, and `mediumseagreen` all match), as in Xlib.
pub fn lookup_color(name: &str) -> Option<Rgb> {
    if let Some(hex) = name.strip_prefix('#') {
        return parse_hex(hex);
    }
    let key: String = name
        .chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_ascii_lowercase())
        .collect();
    // `gray37`-style names: any gray level 0-100.
    for prefix in ["gray", "grey"] {
        if let Some(level) = key.strip_prefix(prefix) {
            if !level.is_empty() {
                if let Ok(pct) = level.parse::<u32>() {
                    if pct <= 100 {
                        let v = (pct * 255 / 100) as u8;
                        return Some(Rgb::new(v, v, v));
                    }
                }
            }
        }
    }
    NAMED_COLORS
        .iter()
        .find(|(n, _)| *n == key)
        .map(|(_, rgb)| *rgb)
}

fn parse_hex(hex: &str) -> Option<Rgb> {
    let val = |s: &str| u8::from_str_radix(s, 16).ok();
    match hex.len() {
        3 => {
            let r = val(&hex[0..1])?;
            let g = val(&hex[1..2])?;
            let b = val(&hex[2..3])?;
            Some(Rgb::new(r * 17, g * 17, b * 17))
        }
        6 => Some(Rgb::new(
            val(&hex[0..2])?,
            val(&hex[2..4])?,
            val(&hex[4..6])?,
        )),
        12 => {
            // 16-bit-per-channel form; keep the high byte.
            Some(Rgb::new(
                val(&hex[0..2])?,
                val(&hex[4..6])?,
                val(&hex[8..10])?,
            ))
        }
        _ => None,
    }
}

/// A shared pseudo-color colormap: RGB triples map to reference-counted
/// pixel values. Allocating the same color twice returns the same pixel.
#[derive(Debug, Default)]
pub struct Colormap {
    by_rgb: HashMap<Rgb, Pixel>,
    cells: Vec<(Rgb, u32)>, // (color, refcount); index = pixel value
}

impl Colormap {
    /// Creates a colormap with black and white preallocated as pixels 0/1.
    pub fn new() -> Colormap {
        let mut cm = Colormap::default();
        cm.alloc(Rgb::new(0, 0, 0));
        cm.alloc(Rgb::new(255, 255, 255));
        cm
    }

    /// Allocates (or re-shares) a pixel for `rgb`.
    pub fn alloc(&mut self, rgb: Rgb) -> Pixel {
        if let Some(&p) = self.by_rgb.get(&rgb) {
            self.cells[p.0 as usize].1 += 1;
            return p;
        }
        let p = Pixel(self.cells.len() as u32);
        self.cells.push((rgb, 1));
        self.by_rgb.insert(rgb, p);
        p
    }

    /// Releases one reference to the pixel. Fully released cells keep their
    /// color (real servers would recycle them; we never run out).
    pub fn free(&mut self, pixel: Pixel) {
        if let Some(cell) = self.cells.get_mut(pixel.0 as usize) {
            cell.1 = cell.1.saturating_sub(1);
        }
    }

    /// The color stored in a pixel.
    pub fn rgb(&self, pixel: Pixel) -> Rgb {
        self.cells
            .get(pixel.0 as usize)
            .map(|(rgb, _)| *rgb)
            .unwrap_or(Rgb::new(0, 0, 0))
    }

    /// Reference count of a pixel (for tests and cache ablation).
    pub fn refcount(&self, pixel: Pixel) -> u32 {
        self.cells
            .get(pixel.0 as usize)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_named_colors() {
        assert_eq!(lookup_color("red"), Some(Rgb::new(255, 0, 0)));
        assert_eq!(lookup_color("MediumSeaGreen"), Some(Rgb::new(60, 179, 113)));
        assert_eq!(
            lookup_color("medium sea green"),
            Some(Rgb::new(60, 179, 113))
        );
        assert_eq!(lookup_color("PalePink1"), Some(Rgb::new(255, 224, 229)));
        assert_eq!(lookup_color("NoSuchColor"), None);
    }

    #[test]
    fn lookup_hex_colors() {
        assert_eq!(lookup_color("#ff0000"), Some(Rgb::new(255, 0, 0)));
        assert_eq!(lookup_color("#f00"), Some(Rgb::new(255, 0, 0)));
        assert_eq!(lookup_color("#zzzzzz"), None);
    }

    #[test]
    fn gray_levels() {
        assert_eq!(lookup_color("gray0"), Some(Rgb::new(0, 0, 0)));
        assert_eq!(lookup_color("grey100"), Some(Rgb::new(255, 255, 255)));
        assert_eq!(lookup_color("gray40"), Some(Rgb::new(102, 102, 102)));
    }

    #[test]
    fn colormap_shares_pixels() {
        let mut cm = Colormap::new();
        let a = cm.alloc(Rgb::new(1, 2, 3));
        let b = cm.alloc(Rgb::new(1, 2, 3));
        assert_eq!(a, b);
        assert_eq!(cm.refcount(a), 2);
        cm.free(a);
        assert_eq!(cm.refcount(a), 1);
    }

    #[test]
    fn colormap_preallocates_black_white() {
        let cm = Colormap::new();
        assert_eq!(cm.rgb(Pixel(0)), Rgb::new(0, 0, 0));
        assert_eq!(cm.rgb(Pixel(1)), Rgb::new(255, 255, 255));
    }

    #[test]
    fn packed_round_trip() {
        let c = Rgb::new(10, 20, 30);
        assert_eq!(Rgb::from_packed(c.packed()), c);
    }
}
