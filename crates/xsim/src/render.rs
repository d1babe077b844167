//! Rasterization: per-window backing surfaces and drawing primitives.
//!
//! Each window owns a pixel surface the size of its interior. Clients
//! draw into surfaces with GC-driven primitives; the server composites
//! the window tree into a single screen image for screendumps (the
//! reproduction of the paper's Figure 10).

use crate::color::Rgb;
use crate::damage::Rect;
use crate::font::{glyph, FontMetrics};

/// A rectangular pixel buffer, `0x00RRGGBB` per pixel.
///
/// A surface may carry a *clip region* (a disjoint rect list, normally a
/// window's pending damage): rasterizing primitives write — and count —
/// only pixels inside the clip, so drawing outside it costs nothing.
/// Compositing ([`blit`]) and scrolling ([`copy_within`]) ignore the
/// clip; they move pixels rather than rasterize them.
///
/// A surface may also be *undrawn* ([`Surface::undrawn`]): every pixel
/// is one colour and no buffer is held. The first write that lands on it
/// allocates the buffer, filled with that colour; until then reads
/// answer from the colour, a fill over the whole surface only recolours
/// it, and [`copy_within`] has nothing to move.
///
/// [`blit`]: Surface::blit
/// [`copy_within`]: Surface::copy_within
#[derive(Debug, Clone)]
pub struct Surface {
    width: u32,
    height: u32,
    /// Row-major pixels: empty while undrawn, `width * height` once drawn.
    pixels: Vec<u32>,
    /// The colour of every pixel while undrawn.
    fill: u32,
    /// Pairwise-disjoint clip rects; `None` = unclipped.
    clip: Option<Vec<Rect>>,
    /// Pixels written by rasterizing primitives since the last
    /// [`Surface::take_pixels_drawn`].
    pixels_drawn: u64,
    /// Text drawn since the last clear, for legible ASCII dumps:
    /// `(x, baseline_y, text)`.
    pub texts: Vec<(i32, i32, String)>,
}

impl Surface {
    /// Creates a surface filled with `fill`, its buffer allocated.
    pub fn new(width: u32, height: u32, fill: Rgb) -> Surface {
        let mut s = Surface::undrawn(width, height, fill);
        s.buffer();
        s
    }

    /// Creates an undrawn surface: every pixel reads as `fill`, and no
    /// buffer exists until a write lands on it.
    pub fn undrawn(width: u32, height: u32, fill: Rgb) -> Surface {
        Surface {
            width,
            height,
            pixels: Vec::new(),
            fill: fill.packed(),
            clip: None,
            pixels_drawn: 0,
            texts: Vec::new(),
        }
    }

    /// Pixel count of the whole surface.
    fn area(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The pixel buffer, allocated and filled with the undrawn colour by
    /// the first write that needs it.
    fn buffer(&mut self) -> &mut [u32] {
        if self.pixels.is_empty() {
            self.pixels = vec![self.fill; self.area()];
        }
        &mut self.pixels
    }

    /// The word at row-major index `i`, read from the colour while undrawn.
    fn word(&self, i: usize) -> u32 {
        self.pixels.get(i).copied().unwrap_or(self.fill)
    }

    /// Installs a clip region. The rects should be pairwise disjoint
    /// (coalesce through a [`crate::damage::DamageList`] first); an empty
    /// list means *unclipped*, mirroring X11's "no clip mask".
    pub fn set_clip(&mut self, rects: Vec<Rect>) {
        self.clip = if rects.is_empty() { None } else { Some(rects) };
    }

    /// Removes the clip region.
    pub fn clear_clip(&mut self) {
        self.clip = None;
    }

    /// The current clip region, if any.
    pub fn clip(&self) -> Option<&[Rect]> {
        self.clip.as_deref()
    }

    /// Takes and resets the rasterized-pixel counter.
    pub fn take_pixels_drawn(&mut self) -> u64 {
        std::mem::take(&mut self.pixels_drawn)
    }

    /// Surface width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Surface height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The whole framebuffer as packed `0xRRGGBB` words, row-major.
    /// Equivalence suites hash and diff entire frames; going through
    /// [`Surface::pixel`] per pixel is far too slow for that. Screens
    /// from [`Surface::new`] always hold a framebuffer; an undrawn surface
    /// holds none and yields an empty slice, so the length is also the
    /// count of pixels the surface holds.
    pub fn raw_pixels(&self) -> &[u32] {
        &self.pixels
    }

    /// Reads one pixel (black if out of bounds).
    pub fn pixel(&self, x: i32, y: i32) -> Rgb {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return Rgb::new(0, 0, 0);
        }
        Rgb::from_packed(self.word(y as usize * self.width as usize + x as usize))
    }

    /// Writes one pixel, clipping silently (surface bounds and the clip
    /// region both apply).
    pub fn put_pixel(&mut self, x: i32, y: i32, color: Rgb) {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return;
        }
        if let Some(clip) = &self.clip {
            if !clip
                .iter()
                .any(|r| x >= r.x && x < r.right() && y >= r.y && y < r.bottom())
            {
                return;
            }
        }
        let i = y as usize * self.width as usize + x as usize;
        self.buffer()[i] = color.packed();
        self.pixels_drawn += 1;
    }

    /// Fills a rectangle, clipping to the surface and the clip region. A
    /// fill whose *requested* rect covers the whole surface also forgets
    /// recorded text (the client repainted everything — with a clip
    /// installed only part of it rasterizes, but the re-drawn text
    /// records arrive either way, so the list stays consistent).
    pub fn fill_rect(&mut self, x: i32, y: i32, w: u32, h: u32, color: Rgb) {
        let (x, y) = (x as i64, y as i64);
        let (right, bottom) = (x + w as i64, y + h as i64);
        if x <= 0 && y <= 0 && right >= self.width as i64 && bottom >= self.height as i64 {
            self.texts.clear();
        }
        self.fill_clipped(x, y, right, bottom, color);
    }

    /// Fills `[x0, x1) x [y0, y1)` where it meets the surface and the
    /// clip region.
    fn fill_clipped(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, color: Rgb) {
        let (x0, y0) = (x0.max(0), y0.max(0));
        let x1 = x1.min(self.width as i64);
        let y1 = y1.min(self.height as i64);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let bounded = Rect::new(x0 as i32, y0 as i32, (x1 - x0) as u32, (y1 - y0) as u32);
        match self.clip.take() {
            None => self.fill_span(&bounded, color),
            Some(clip) => {
                // The clip rects are disjoint, so each pixel is written
                // (and counted) at most once.
                for r in &clip {
                    if let Some(part) = bounded.intersect(r) {
                        self.fill_span(&part, color);
                    }
                }
                self.clip = Some(clip);
            }
        }
    }

    /// Fills an in-bounds rect unconditionally, a row at a time,
    /// counting its pixels. Filling the whole of an undrawn surface only
    /// recolours it.
    fn fill_span(&mut self, r: &Rect, color: Rgb) {
        self.pixels_drawn += r.area();
        if self.pixels.is_empty() && r.area() == self.area() as u64 {
            self.fill = color.packed();
            return;
        }
        let (stride, x) = (self.width as usize, r.x as usize);
        let rows = &mut self.buffer()[r.y as usize * stride..r.bottom() as usize * stride];
        for row in rows.chunks_exact_mut(stride) {
            row[x..x + r.w as usize].fill(color.packed());
        }
    }

    /// Draws a 1-pixel (or wider) rectangle outline.
    pub fn draw_rect(&mut self, x: i32, y: i32, w: u32, h: u32, lw: u32, color: Rgb) {
        let lw = lw.max(1);
        self.fill_rect(x, y, w, lw, color); // top
        self.fill_rect(x, y + h as i32 - lw as i32, w, lw, color); // bottom
        self.fill_rect(x, y, lw, h, color); // left
        self.fill_rect(x + w as i32 - lw as i32, y, lw, h, color); // right
    }

    /// Draws a line with a square pen of side `lw` (at least 1).
    ///
    /// A horizontal or vertical line with a one-pixel pen is a
    /// one-pixel-wide rect and fills as one. Any other line walks
    /// Bresenham's algorithm, stamping the pen at every step; a wide pen
    /// writes (and counts) the pixels its squares share once per square.
    /// The walk covers only the steps whose pen can reach the surface,
    /// so endpoints far outside it cost nothing extra.
    pub fn draw_line(&mut self, x0: i32, y0: i32, x1: i32, y1: i32, lw: u32, color: Rgb) {
        let (x0, y0, x1, y1) = (x0 as i64, y0 as i64, x1 as i64, y1 as i64);
        if lw <= 1 && (x0 == x1 || y0 == y1) {
            let (left, top) = (x0.min(x1), y0.min(y1));
            return self.fill_clipped(left, top, x0.max(x1) + 1, y0.max(y1) + 1, color);
        }
        let lw = lw.max(1) as i64;
        let (a, b) = ((x1 - x0).abs(), (y1 - y0).abs());
        let (sx, sy) = (if x0 < x1 { 1 } else { -1 }, if y0 < y1 { 1 } else { -1 });
        // Step k moves k pixels along the major axis; keep the steps whose
        // pen centre lies within `lw` of the surface on that axis.
        let (major, start, dir, extent) = if a >= b {
            (a, x0, sx, self.width as i64)
        } else {
            (b, y0, sy, self.height as i64)
        };
        let (near, far) = (-lw - start, extent + lw - start);
        let (k0, k1) = if dir > 0 { (near, far) } else { (-far, -near) };
        let (k0, k1) = (k0.max(0), k1.min(major));
        if k0 > k1 {
            return;
        }
        // After k steps the minor axis has moved round(k * minor / major),
        // ties rounding up. With i steps taken in x and j in y, the error
        // term is a(j+1) - b(i+1).
        let minor = |m: i64| {
            ((2 * m as i128 * k0 as i128 + major as i128) / (2 * major.max(1) as i128)) as i64
        };
        let (i, j) = if a >= b {
            (k0, minor(b))
        } else {
            (minor(a), k0)
        };
        let mut err = (a as i128 * (j + 1) as i128 - b as i128 * (i + 1) as i128) as i64;
        let (mut x, mut y) = (x0 + sx * i, y0 + sy * j);
        let (w, h, half) = (self.width as i64, self.height as i64, lw / 2);
        for _ in k0..=k1 {
            for oy in (half - y).max(0)..(h + half - y).min(lw) {
                for ox in (half - x).max(0)..(w + half - x).min(lw) {
                    self.put_pixel((x + ox - half) as i32, (y + oy - half) as i32, color);
                }
            }
            let e2 = 2 * err;
            if e2 >= -b {
                err -= b;
                x += sx;
            }
            if e2 <= a {
                err += a;
                y += sy;
            }
        }
    }

    /// Draws text with its baseline at `(x, y)` using the built-in 5x7
    /// face scaled into the font's cell, and records it for ASCII dumps.
    pub fn draw_text(&mut self, x: i32, y: i32, text: &str, metrics: FontMetrics, color: Rgb) {
        let mut cx = x;
        let top = y - metrics.ascent as i32;
        for c in text.chars() {
            let bits = glyph(c);
            // Center the 5x7 glyph horizontally in the advance cell and
            // sit it on the baseline.
            let gx = cx + (metrics.char_width as i32 - 5) / 2;
            let gy = top + metrics.ascent as i32 - 7;
            for (row, rowbits) in bits.iter().enumerate() {
                for col in 0..5 {
                    if rowbits & (0x10 >> col) != 0 {
                        self.put_pixel(gx + col, gy + row as i32, color);
                    }
                }
            }
            cx += metrics.char_width as i32;
        }
        self.texts.push((x, y, text.to_string()));
    }

    /// Copies `src` into this surface at `(x, y)`, clipping, a row at a
    /// time. An undrawn `src` fills the rows with its colour.
    pub fn blit(&mut self, src: &Surface, x: i32, y: i32) {
        let cols = offsets(src.width, 0, src.width, x, self.width);
        let rows = offsets(src.height, 0, src.height, y, self.height);
        if cols.is_empty() || rows.is_empty() {
            return;
        }
        let (len, stride) = ((cols.end - cols.start) as usize, self.width as i64);
        let dst = self.buffer();
        for sy in rows {
            let from = (sy * src.width as i64 + cols.start) as usize;
            let to = ((y as i64 + sy) * stride + x as i64 + cols.start) as usize;
            match src.pixels.get(from..from + len) {
                Some(words) => dst[to..to + len].copy_from_slice(words),
                None => dst[to..to + len].fill(src.fill),
            }
        }
    }

    /// Copies a rectangle of this surface onto itself (X11's `CopyArea`
    /// within one drawable — the scrolling primitive). Overlap-safe; out
    /// of bounds source or destination pixels are skipped. Moving pixels
    /// is not rasterization: the clip region and `pixels_drawn` are
    /// untouched, and an undrawn surface has no pixels to move.
    pub fn copy_within(&mut self, src_x: i32, src_y: i32, w: u32, h: u32, dst_x: i32, dst_y: i32) {
        let cols = offsets(w, src_x, self.width, dst_x, self.width);
        let rows = offsets(h, src_y, self.height, dst_y, self.height);
        if cols.is_empty() || rows.is_empty() || self.pixels.is_empty() {
            return;
        }
        let stride = self.width as i64;
        let at =
            |x: i32, y: i32, oy: i64| ((y as i64 + oy) * stride + x as i64 + cols.start) as usize;
        let len = (cols.end - cols.start) as usize;
        let copy_row = |oy: i64| {
            let from = at(src_x, src_y, oy);
            self.pixels
                .copy_within(from..from + len, at(dst_x, dst_y, oy));
        };
        // Moving down, copy the bottom row first so every source row is
        // read before a destination row overwrites it.
        if dst_y > src_y {
            rows.rev().for_each(copy_row);
        } else {
            rows.for_each(copy_row);
        }
    }

    /// Serializes as a binary PPM (P6) image.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for i in 0..self.area() {
            let c = Rgb::from_packed(self.word(i));
            out.extend_from_slice(&[c.r, c.g, c.b]);
        }
        out
    }

    /// Count of pixels exactly matching `color` (for tests).
    pub fn count_pixels(&self, color: Rgb) -> usize {
        let packed = color.packed();
        (0..self.area()).filter(|&i| self.word(i) == packed).count()
    }
}

/// The offsets `o` in `0..n` that keep both `a + o` in `0..a_len` and
/// `b + o` in `0..b_len`: one row or column range of a clipped copy.
fn offsets(n: u32, a: i32, a_len: u32, b: i32, b_len: u32) -> std::ops::Range<i64> {
    let (a, b) = (a as i64, b as i64);
    0.max(-a).max(-b)..(n as i64).min(a_len as i64 - a).min(b_len as i64 - b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift;

    const RED: Rgb = Rgb::new(255, 0, 0);
    const WHITE: Rgb = Rgb::new(255, 255, 255);

    #[test]
    fn fill_rect_clips() {
        let mut s = Surface::new(10, 10, WHITE);
        s.fill_rect(-5, -5, 8, 8, RED);
        assert_eq!(s.pixel(0, 0), RED);
        assert_eq!(s.pixel(2, 2), RED);
        assert_eq!(s.pixel(3, 3), WHITE);
        assert_eq!(s.count_pixels(RED), 9);
    }

    #[test]
    fn draw_rect_outline_only() {
        let mut s = Surface::new(10, 10, WHITE);
        s.draw_rect(1, 1, 8, 8, 1, RED);
        assert_eq!(s.pixel(1, 1), RED);
        assert_eq!(s.pixel(8, 8), RED);
        assert_eq!(s.pixel(4, 4), WHITE);
    }

    #[test]
    fn draw_line_endpoints() {
        let mut s = Surface::new(10, 10, WHITE);
        s.draw_line(0, 0, 9, 9, 1, RED);
        assert_eq!(s.pixel(0, 0), RED);
        assert_eq!(s.pixel(9, 9), RED);
        assert_eq!(s.pixel(5, 5), RED);
        assert_eq!(s.pixel(0, 9), WHITE);
    }

    #[test]
    fn text_marks_pixels_and_records() {
        let mut s = Surface::new(60, 20, WHITE);
        let m = FontMetrics {
            char_width: 6,
            ascent: 10,
            descent: 3,
        };
        s.draw_text(2, 12, "Hi", m, RED);
        assert!(s.count_pixels(RED) > 5);
        assert_eq!(s.texts.len(), 1);
        assert_eq!(s.texts[0].2, "Hi");
    }

    #[test]
    fn blit_clips() {
        let mut dst = Surface::new(10, 10, WHITE);
        let src = Surface::new(4, 4, RED);
        dst.blit(&src, 8, 8); // clipped to 2x2
        assert_eq!(dst.count_pixels(RED), 4);
    }

    #[test]
    fn ppm_header() {
        let s = Surface::new(2, 3, WHITE);
        let ppm = s.to_ppm();
        assert!(ppm.starts_with(b"P6\n2 3\n255\n"));
        assert_eq!(ppm.len(), 11 + 2 * 3 * 3);
    }

    #[test]
    fn fill_counts_pixels_drawn() {
        let mut s = Surface::new(10, 10, WHITE);
        s.fill_rect(0, 0, 4, 4, RED);
        assert_eq!(s.take_pixels_drawn(), 16);
        // Surface clipping bounds the count too.
        s.fill_rect(-5, -5, 8, 8, RED);
        assert_eq!(s.take_pixels_drawn(), 9);
        assert_eq!(s.take_pixels_drawn(), 0, "take resets");
    }

    #[test]
    fn clip_limits_writes_and_counts() {
        let mut s = Surface::new(20, 20, WHITE);
        s.set_clip(vec![Rect::new(0, 0, 5, 5), Rect::new(10, 10, 5, 5)]);
        s.fill_rect(0, 0, 20, 20, RED);
        assert_eq!(s.take_pixels_drawn(), 50);
        assert_eq!(s.count_pixels(RED), 50);
        assert_eq!(s.pixel(2, 2), RED);
        assert_eq!(s.pixel(7, 7), WHITE, "outside the clip is untouched");
        assert_eq!(s.pixel(12, 12), RED);
        // put_pixel honors the clip as well (lines, glyphs).
        s.put_pixel(7, 7, RED);
        assert_eq!(s.pixel(7, 7), WHITE);
        assert_eq!(s.take_pixels_drawn(), 0);
        s.clear_clip();
        s.put_pixel(7, 7, RED);
        assert_eq!(s.pixel(7, 7), RED);
        assert_eq!(s.take_pixels_drawn(), 1);
    }

    #[test]
    fn empty_clip_list_means_unclipped() {
        let mut s = Surface::new(10, 10, WHITE);
        s.set_clip(Vec::new());
        assert!(s.clip().is_none());
        s.fill_rect(0, 0, 10, 10, RED);
        assert_eq!(s.count_pixels(RED), 100);
    }

    #[test]
    fn full_requested_fill_clears_texts_even_clipped() {
        let m = FontMetrics {
            char_width: 6,
            ascent: 10,
            descent: 3,
        };
        let mut s = Surface::new(30, 20, WHITE);
        s.draw_text(2, 12, "Hi", m, RED);
        assert_eq!(s.texts.len(), 1);
        s.set_clip(vec![Rect::new(0, 0, 3, 3)]);
        s.fill_rect(0, 0, 30, 20, WHITE);
        assert!(s.texts.is_empty(), "requested-full fill forgets text");
        s.draw_text(2, 12, "Hi", m, RED);
        assert_eq!(s.texts.len(), 1, "re-drawn text records under clip");
    }

    /// The per-pixel rasterizer the row kernels replaced, kept as the
    /// oracle they must match pixel for pixel and count for count.
    mod reference {
        use super::*;

        pub fn fill_rect(s: &mut Surface, x: i32, y: i32, w: u32, h: u32, color: Rgb) {
            if x <= 0 && y <= 0 && x + w as i32 >= s.width as i32 && y + h as i32 >= s.height as i32
            {
                s.texts.clear();
            }
            let x0 = x.max(0);
            let y0 = y.max(0);
            let x1 = (x + w as i32).min(s.width as i32);
            let y1 = (y + h as i32).min(s.height as i32);
            if x0 >= x1 || y0 >= y1 {
                return;
            }
            let bounded = Rect::new(x0, y0, (x1 - x0) as u32, (y1 - y0) as u32);
            match s.clip.clone() {
                None => fill_span(s, &bounded, color),
                Some(clip) => {
                    for r in &clip {
                        if let Some(part) = bounded.intersect(r) {
                            fill_span(s, &part, color);
                        }
                    }
                }
            }
        }

        fn fill_span(s: &mut Surface, r: &Rect, color: Rgb) {
            let packed = color.packed();
            for yy in r.y..r.bottom() {
                let row = yy as u32 * s.width;
                for xx in r.x..r.right() {
                    s.pixels[(row + xx as u32) as usize] = packed;
                }
            }
            s.pixels_drawn += r.area();
        }

        pub fn draw_rect(s: &mut Surface, x: i32, y: i32, w: u32, h: u32, lw: u32, color: Rgb) {
            let lw = lw.max(1);
            fill_rect(s, x, y, w, lw, color);
            fill_rect(s, x, y + h as i32 - lw as i32, w, lw, color);
            fill_rect(s, x, y, lw, h, color);
            fill_rect(s, x + w as i32 - lw as i32, y, lw, h, color);
        }

        #[allow(clippy::too_many_arguments)]
        pub fn draw_line(s: &mut Surface, x0: i32, y0: i32, x1: i32, y1: i32, lw: u32, color: Rgb) {
            let lw = lw.max(1) as i32;
            let (mut x, mut y) = (x0, y0);
            let dx = (x1 - x0).abs();
            let dy = -(y1 - y0).abs();
            let sx = if x0 < x1 { 1 } else { -1 };
            let sy = if y0 < y1 { 1 } else { -1 };
            let mut err = dx + dy;
            loop {
                for oy in 0..lw {
                    for ox in 0..lw {
                        s.put_pixel(x + ox - lw / 2, y + oy - lw / 2, color);
                    }
                }
                if x == x1 && y == y1 {
                    break;
                }
                let e2 = 2 * err;
                if e2 >= dy {
                    err += dy;
                    x += sx;
                }
                if e2 <= dx {
                    err += dx;
                    y += sy;
                }
            }
        }

        pub fn blit(s: &mut Surface, src: &Surface, x: i32, y: i32) {
            for sy in 0..src.height as i32 {
                let dy = y + sy;
                if dy < 0 || dy >= s.height as i32 {
                    continue;
                }
                for sx in 0..src.width as i32 {
                    let dx = x + sx;
                    if dx < 0 || dx >= s.width as i32 {
                        continue;
                    }
                    s.pixels[(dy as u32 * s.width + dx as u32) as usize] =
                        src.pixels[(sy as u32 * src.width + sx as u32) as usize];
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn copy_within(
            s: &mut Surface,
            src_x: i32,
            src_y: i32,
            w: u32,
            h: u32,
            dst_x: i32,
            dst_y: i32,
        ) {
            if w == 0 || h == 0 || (src_x == dst_x && src_y == dst_y) {
                return;
            }
            let mut saved = vec![None; (w * h) as usize];
            for sy in 0..h as i32 {
                for sx in 0..w as i32 {
                    let (x, y) = (src_x + sx, src_y + sy);
                    if x >= 0 && y >= 0 && (x as u32) < s.width && (y as u32) < s.height {
                        saved[(sy as u32 * w + sx as u32) as usize] =
                            Some(s.pixels[(y as u32 * s.width + x as u32) as usize]);
                    }
                }
            }
            for sy in 0..h as i32 {
                for sx in 0..w as i32 {
                    let Some(p) = saved[(sy as u32 * w + sx as u32) as usize] else {
                        continue;
                    };
                    let (x, y) = (dst_x + sx, dst_y + sy);
                    if x >= 0 && y >= 0 && (x as u32) < s.width && (y as u32) < s.height {
                        s.pixels[(y as u32 * s.width + x as u32) as usize] = p;
                    }
                }
            }
        }
    }

    /// A surface of seeded random pixels, so a misplaced row shows.
    fn noise(rng: &mut XorShift, w: u32, h: u32) -> Surface {
        let mut s = Surface::new(w, h, WHITE);
        for p in &mut s.pixels {
            *p = rng.below(1 << 24) as u32;
        }
        s
    }

    /// Asserts both surfaces agree on pixels, drawn-pixel count and text
    /// records, naming the first differing pixel.
    fn assert_same(fast: &mut Surface, slow: &mut Surface, what: &str) {
        if let Some(i) = (0..fast.pixels.len()).find(|&i| fast.pixels[i] != slow.pixels[i]) {
            let w = fast.width as usize;
            panic!(
                "{what}: pixel ({}, {}) is {:06x}, reference {:06x}",
                i % w,
                i / w,
                fast.pixels[i],
                slow.pixels[i]
            );
        }
        assert_eq!(
            fast.take_pixels_drawn(),
            slow.take_pixels_drawn(),
            "{what}: pixels_drawn"
        );
        assert_eq!(fast.texts, slow.texts, "{what}: texts");
    }

    /// A coordinate from a few pixels before the surface to a few past it.
    fn coord(rng: &mut XorShift, extent: u32) -> i32 {
        rng.range(0, extent as u64 + 16) as i32 - 8
    }

    /// Seeded random drawing on surfaces from 1x1 upward, with and
    /// without disjoint clips coalesced through a `DamageList`, against
    /// the per-pixel reference.
    #[test]
    fn row_kernels_match_per_pixel_reference() {
        let m = FontMetrics {
            char_width: 6,
            ascent: 10,
            descent: 3,
        };
        let mut rng = XorShift::new(0x5eed);
        for case in 0..400 {
            let (w, h) = if case < 16 {
                (case % 4 + 1, case / 4 + 1)
            } else {
                (rng.range(1, 40) as u32, rng.range(1, 40) as u32)
            };
            let mut fast = noise(&mut rng, w, h);
            let mut slow = fast.clone();
            for op in 0..24 {
                let what = format!("case {case} ({w}x{h}) op {op}");
                let color = Rgb::from_packed(rng.below(1 << 24) as u32);
                let (x, y) = (coord(&mut rng, w), coord(&mut rng, h));
                let (rw, rh) = (
                    rng.below(w as u64 + 12) as u32,
                    rng.below(h as u64 + 12) as u32,
                );
                match rng.below(8) {
                    0 => {
                        let mut damage = crate::damage::DamageList::new();
                        for _ in 0..rng.range(1, 5) {
                            let (cx, cy) = (coord(&mut rng, w), coord(&mut rng, h));
                            let (cw, ch) = (rng.below(w as u64 + 4), rng.below(h as u64 + 4));
                            damage.add(Rect::new(cx, cy, cw as u32, ch as u32));
                        }
                        let rects = damage.take();
                        fast.set_clip(rects.clone());
                        slow.set_clip(rects);
                    }
                    1 => {
                        fast.clear_clip();
                        slow.clear_clip();
                    }
                    2 => {
                        fast.fill_rect(x, y, rw, rh, color);
                        reference::fill_rect(&mut slow, x, y, rw, rh, color);
                    }
                    3 => {
                        let lw = rng.below(4) as u32;
                        fast.draw_rect(x, y, rw, rh, lw, color);
                        reference::draw_rect(&mut slow, x, y, rw, rh, lw, color);
                    }
                    4 | 5 => {
                        let lw = rng.below(4) as u32;
                        let (mut x1, mut y1) = (coord(&mut rng, w), coord(&mut rng, h));
                        match rng.below(4) {
                            0 => y1 = y,
                            1 => x1 = x,
                            _ => {}
                        }
                        fast.draw_line(x, y, x1, y1, lw, color);
                        reference::draw_line(&mut slow, x, y, x1, y1, lw, color);
                    }
                    6 => {
                        let (dx, dy) = (coord(&mut rng, w), coord(&mut rng, h));
                        fast.copy_within(x, y, rw, rh, dx, dy);
                        reference::copy_within(&mut slow, x, y, rw, rh, dx, dy);
                    }
                    _ => {
                        if rng.below(4) == 0 {
                            fast.draw_text(x, y, "Ab", m, color);
                            slow.draw_text(x, y, "Ab", m, color);
                        } else {
                            let src = noise(&mut rng, rw.max(1), rh.max(1));
                            fast.blit(&src, x, y);
                            reference::blit(&mut slow, &src, x, y);
                        }
                    }
                }
                assert_same(&mut fast, &mut slow, &what);
            }
        }
    }

    /// Lines of pen width 0-3 from one point to every point of a square
    /// around it: all eight octants, the axes and the zero-length line,
    /// unclipped and clipped, on and off the surface.
    #[test]
    fn lines_match_reference_in_every_octant() {
        let mut rng = XorShift::new(8);
        for (cx, cy) in [(6, 5), (0, 0), (-3, 4), (13, -2)] {
            for lw in 0..4 {
                for dy in -9..=9 {
                    for dx in -9..=9 {
                        let mut fast = noise(&mut rng, 12, 10);
                        if (dx + dy + lw) % 2 == 0 {
                            fast.set_clip(vec![Rect::new(0, 0, 5, 4), Rect::new(3, 6, 7, 3)]);
                        }
                        let mut slow = fast.clone();
                        let lw = lw as u32;
                        fast.draw_line(cx, cy, cx + dx, cy + dy, lw, RED);
                        reference::draw_line(&mut slow, cx, cy, cx + dx, cy + dy, lw, RED);
                        let what = format!("({cx},{cy})->({},{}) pen {lw}", cx + dx, cy + dy);
                        assert_same(&mut fast, &mut slow, &what);
                    }
                }
            }
        }
    }

    /// Long lines that cross a small surface from far outside it: the
    /// walk starts at the first step whose pen can reach the surface, in
    /// the state the reference reaches by walking there.
    #[test]
    fn long_lines_match_reference() {
        let mut rng = XorShift::new(10);
        for case in 0..3000 {
            let mut fast = noise(&mut rng, 16, 12);
            if case % 3 == 0 {
                fast.set_clip(vec![Rect::new(2, 1, 9, 5), Rect::new(0, 8, 16, 2)]);
            }
            let mut slow = fast.clone();
            let mut end = || rng.range(0, 6000) as i32 - 3000;
            let (x0, y0, x1, y1) = (end(), end(), end(), end());
            let lw = rng.below(4) as u32;
            fast.draw_line(x0, y0, x1, y1, lw, RED);
            reference::draw_line(&mut slow, x0, y0, x1, y1, lw, RED);
            let what = format!("({x0},{y0})->({x1},{y1}) pen {lw}");
            assert_same(&mut fast, &mut slow, &what);
        }
    }

    /// Endpoints near the ends of `i32` neither overflow nor walk the
    /// whole line: each case draws what a short line along the same
    /// pixels draws.
    #[test]
    fn far_endpoints_draw_only_what_shows() {
        let (min, max) = (i32::MIN, i32::MAX);
        for (far, near, lw) in [
            ((-2_000_000_000, 4, 2_000_000_000, 4), (-5, 4, 30, 4), 1),
            ((min, min, max, max), (-20, -20, 40, 40), 3),
            ((max, max, min, min), (40, 40, -20, -20), 2),
            ((3, min, 3, max), (3, -10, 3, 30), 2),
            ((max, 7, min, 7), (30, 7, -5, 7), 0),
        ] {
            let mut fast = Surface::new(20, 10, WHITE);
            let mut slow = fast.clone();
            fast.draw_line(far.0, far.1, far.2, far.3, lw, RED);
            reference::draw_line(&mut slow, near.0, near.1, near.2, near.3, lw, RED);
            assert_same(&mut fast, &mut slow, &format!("{far:?} pen {lw}"));
        }
        // The slope stays exact across the whole span: one row shows.
        let mut s = Surface::new(20, 10, WHITE);
        s.draw_line(-2_000_000_000, 0, 2_000_000_000, 5, 1, RED);
        assert_eq!(s.take_pixels_drawn(), 20);
        assert!((0..20).all(|x| s.pixel(x, 3) == RED));
    }

    /// Overlapping copies shifted in each of the eight directions, by
    /// less than and more than the copied extent, some hanging off the
    /// surface.
    #[test]
    fn copies_match_reference_in_every_direction() {
        let mut rng = XorShift::new(9);
        for (ux, uy) in [
            (1, 0),
            (1, 1),
            (0, 1),
            (-1, 1),
            (-1, 0),
            (-1, -1),
            (0, -1),
            (1, -1),
        ] {
            for step in [1, 2, 5, 11] {
                for _ in 0..6 {
                    let (w, h) = (rng.range(1, 24) as u32, rng.range(1, 24) as u32);
                    let mut fast = noise(&mut rng, w, h);
                    let mut slow = fast.clone();
                    let (sx, sy) = (coord(&mut rng, w), coord(&mut rng, h));
                    let (cw, ch) = (
                        rng.range(1, w as u64 + 8) as u32,
                        rng.range(1, h as u64 + 8) as u32,
                    );
                    let (dx, dy) = (sx + ux * step, sy + uy * step);
                    fast.copy_within(sx, sy, cw, ch, dx, dy);
                    reference::copy_within(&mut slow, sx, sy, cw, ch, dx, dy);
                    let what = format!("{w}x{h}: {cw}x{ch} ({sx},{sy})->({dx},{dy})");
                    assert_same(&mut fast, &mut slow, &what);
                }
            }
        }
    }

    /// Asserts an undrawn-born surface reads exactly like an eager one,
    /// through every reader, and that its buffer is absent or whole.
    fn assert_same_reads(lazy: &mut Surface, eager: &mut Surface, what: &str) {
        let (w, h) = (eager.width as i32, eager.height as i32);
        for y in -1..=h {
            for x in -1..=w {
                assert_eq!(lazy.pixel(x, y), eager.pixel(x, y), "{what}: ({x}, {y})");
            }
        }
        for c in PALETTE {
            assert_eq!(lazy.count_pixels(c), eager.count_pixels(c), "{what}: count");
        }
        assert!(lazy.to_ppm() == eager.to_ppm(), "{what}: ppm");
        let held = lazy.raw_pixels().len();
        assert!([0, lazy.area()].contains(&held), "{what}: holds {held}");
        assert_eq!(
            lazy.take_pixels_drawn(),
            eager.take_pixels_drawn(),
            "{what}"
        );
        assert_eq!(lazy.texts, eager.texts, "{what}: texts");
    }

    const PALETTE: [Rgb; 3] = [WHITE, RED, Rgb::new(0, 0, 255)];

    /// Seeded random drawing on a surface born undrawn and on its eager
    /// twin, including resizes that return the first to undrawn: every
    /// read agrees after every op.
    #[test]
    fn undrawn_surfaces_read_like_eager_ones() {
        let m = FontMetrics {
            char_width: 6,
            ascent: 10,
            descent: 3,
        };
        let mut rng = XorShift::new(0x1a2e);
        for case in 0..300 {
            let (mut w, mut h) = (rng.range(1, 24) as u32, rng.range(1, 24) as u32);
            let mut lazy = Surface::undrawn(w, h, WHITE);
            let mut eager = Surface::new(w, h, WHITE);
            for op in 0..16 {
                let what = format!("case {case} ({w}x{h}) op {op}");
                let color = PALETTE[rng.below(3) as usize];
                let (x, y) = (coord(&mut rng, w), coord(&mut rng, h));
                let (rw, rh) = (
                    rng.below(w as u64 + 8) as u32,
                    rng.below(h as u64 + 8) as u32,
                );
                match rng.below(9) {
                    0 => {
                        let (nx, ny) = (-(rng.below(2) as i32), -(rng.below(2) as i32));
                        lazy.fill_rect(nx, ny, w + 2, h + 2, color);
                        eager.fill_rect(nx, ny, w + 2, h + 2, color);
                    }
                    1 => {
                        let clip = vec![Rect::new(x, y, rw, rh)];
                        lazy.set_clip(clip.clone());
                        eager.set_clip(clip);
                    }
                    2 => {
                        lazy.clear_clip();
                        eager.clear_clip();
                    }
                    3 => {
                        lazy.fill_rect(x, y, rw, rh, color);
                        eager.fill_rect(x, y, rw, rh, color);
                    }
                    4 => {
                        let (dx, dy) = (coord(&mut rng, w), coord(&mut rng, h));
                        lazy.copy_within(x, y, rw, rh, dx, dy);
                        eager.copy_within(x, y, rw, rh, dx, dy);
                    }
                    5 => {
                        let (sw, sh) = (rw.max(1), rh.max(1));
                        let mut src = Surface::undrawn(sw, sh, color);
                        let mut twin = Surface::new(sw, sh, color);
                        if rng.below(2) == 0 {
                            src = noise(&mut rng, sw, sh);
                            twin = src.clone();
                        }
                        lazy.blit(&src, x, y);
                        eager.blit(&twin, x, y);
                    }
                    6 => {
                        lazy.draw_text(x, y, "Ab", m, color);
                        eager.draw_text(x, y, "Ab", m, color);
                    }
                    7 => {
                        let (x1, y1) = (coord(&mut rng, w), coord(&mut rng, h));
                        let lw = rng.below(3) as u32;
                        lazy.draw_line(x, y, x1, y1, lw, color);
                        eager.draw_line(x, y, x1, y1, lw, color);
                    }
                    _ => {
                        // A resize: the surface starts over in its colour.
                        (w, h) = (rng.range(1, 24) as u32, rng.range(1, 24) as u32);
                        lazy = Surface::undrawn(w, h, color);
                        eager = Surface::new(w, h, color);
                    }
                }
                assert_same_reads(&mut lazy, &mut eager, &what);
            }
        }
    }

    /// Whole-surface fills, copies and writes that miss the surface leave
    /// it undrawn; the first write that lands allocates all of it.
    #[test]
    fn only_a_landing_write_allocates() {
        let m = FontMetrics {
            char_width: 6,
            ascent: 10,
            descent: 3,
        };
        let mut s = Surface::undrawn(8, 6, WHITE);
        s.fill_rect(-2, -2, 20, 20, RED);
        s.copy_within(0, 0, 4, 4, 2, 2);
        s.set_clip(vec![Rect::new(0, 0, 2, 2)]);
        s.draw_text(20, 20, "x", m, WHITE);
        s.put_pixel(5, 5, WHITE);
        Surface::new(3, 3, WHITE).blit(&s, 0, 0);
        s.blit(&Surface::new(3, 3, WHITE), 10, 0);
        assert_eq!((s.raw_pixels().len(), s.take_pixels_drawn()), (0, 48));
        assert_eq!(s.pixel(7, 5), RED);
        s.put_pixel(1, 1, WHITE);
        assert_eq!(s.raw_pixels().len(), 48);
        assert_eq!(s.count_pixels(RED), 47);
    }

    /// A 70000x70000 surface (4.9 G pixels) counts in `usize` and, while
    /// undrawn, holds nothing.
    #[test]
    fn huge_undrawn_surface_holds_nothing() {
        let mut s = Surface::undrawn(70_000, 70_000, WHITE);
        s.fill_rect(0, 0, 70_000, 70_000, RED);
        s.copy_within(0, 0, 100, 100, 5, 5);
        assert_eq!(s.take_pixels_drawn(), 4_900_000_000);
        assert_eq!(s.pixel(69_999, 69_999), RED);
        assert!(s.raw_pixels().is_empty());
        let mut small = Surface::new(4, 4, WHITE);
        small.blit(&s, -69_998, -69_998);
        assert_eq!(small.count_pixels(RED), 4);
    }

    #[test]
    fn copy_within_scrolls_and_counts_nothing() {
        let mut s = Surface::new(4, 6, WHITE);
        s.fill_rect(0, 0, 4, 2, RED);
        s.take_pixels_drawn();
        // Scroll the top band down two rows (overlapping copy).
        s.copy_within(0, 0, 4, 4, 0, 2);
        assert_eq!(s.pixel(0, 2), RED);
        assert_eq!(s.pixel(3, 3), RED);
        assert_eq!(s.pixel(0, 0), RED, "source rows left in place");
        assert_eq!(s.take_pixels_drawn(), 0, "a blit is not rasterization");
        // Out-of-bounds parts are skipped, not wrapped.
        s.copy_within(0, 0, 4, 6, 2, -1);
        assert_eq!(s.pixel(2, 0), RED);
    }
}
