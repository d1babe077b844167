//! Bitmaps: two-color images in the X11 XBM format.
//!
//! Tk's resource cache names bitmaps textually — `@star` for a bitmap
//! stored in a file named `star` (Section 3.3) — and widgets display them
//! with the foreground/background pixels of a GC.

use std::collections::HashMap;

use crate::ids::{IdAllocator, Xid};

/// A bitmap id.
pub type BitmapId = Xid;

/// A parsed bitmap: `width * height` bits, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    bits: Vec<bool>,
}

impl Bitmap {
    /// Builds a bitmap from a bit vector (must be `width * height` long).
    pub fn new(width: u32, height: u32, bits: Vec<bool>) -> Option<Bitmap> {
        if bits.len() != (width * height) as usize {
            return None;
        }
        Some(Bitmap {
            width,
            height,
            bits,
        })
    }

    /// Is the bit at `(x, y)` set?
    pub fn get(&self, x: u32, y: u32) -> bool {
        if x >= self.width || y >= self.height {
            return false;
        }
        self.bits[(y * self.width + x) as usize]
    }

    /// Parses X11 XBM source text:
    ///
    /// ```text
    /// #define star_width 8
    /// #define star_height 8
    /// static char star_bits[] = { 0x18, 0x18, 0xff, ... };
    /// ```
    ///
    /// Bits are LSB-first within each byte; rows are padded to whole bytes.
    pub fn parse_xbm(text: &str) -> Option<Bitmap> {
        let mut width: Option<u32> = None;
        let mut height: Option<u32> = None;
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("#define") {
                let mut parts = rest.split_whitespace();
                let name = parts.next()?;
                let value = parts.next()?;
                if name.ends_with("_width") {
                    width = value.parse().ok();
                } else if name.ends_with("_height") {
                    height = value.parse().ok();
                }
            }
        }
        let (width, height) = (width?, height?);
        // Collect every 0x.. byte in the bits array.
        let body = text.split('{').nth(1)?.split('}').next()?;
        let mut bytes = Vec::new();
        for tok in body.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let v = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
                u8::from_str_radix(hex, 16).ok()?
            } else {
                tok.parse::<u8>().ok()?
            };
            bytes.push(v);
        }
        let row_bytes = width.div_ceil(8) as usize;
        if bytes.len() < row_bytes * height as usize {
            return None;
        }
        let mut bits = Vec::with_capacity((width * height) as usize);
        for y in 0..height as usize {
            for x in 0..width as usize {
                let byte = bytes[y * row_bytes + x / 8];
                bits.push(byte & (1 << (x % 8)) != 0);
            }
        }
        Bitmap::new(width, height, bits)
    }
}

/// Built-in bitmaps, named like Tk's (`gray50`, `gray25`, ...).
pub fn builtin(name: &str) -> Option<Bitmap> {
    let checker = |mod2: u32| -> Bitmap {
        let bits = (0..16 * 16)
            .map(|i| {
                let (x, y) = (i % 16, i / 16);
                (x + y) % mod2 == 0
            })
            .collect();
        Bitmap::new(16, 16, bits).unwrap()
    };
    match name {
        "gray50" => Some(checker(2)),
        "gray25" => {
            let bits = (0..16 * 16)
                .map(|i| {
                    let (x, y) = (i % 16, i / 16);
                    x % 2 == 0 && y % 2 == 0
                })
                .collect();
            Bitmap::new(16, 16, bits)
        }
        "black" => Bitmap::new(16, 16, vec![true; 256]),
        "white" => Bitmap::new(16, 16, vec![false; 256]),
        _ => None,
    }
}

/// The server-side bitmap table.
#[derive(Debug, Default)]
pub struct BitmapTable {
    ids: IdAllocator,
    bitmaps: HashMap<BitmapId, Bitmap>,
}

impl BitmapTable {
    /// Stores a bitmap and returns its id.
    pub fn create(&mut self, bitmap: Bitmap) -> BitmapId {
        let id = self.ids.alloc();
        self.bitmaps.insert(id, bitmap);
        id
    }

    /// Hands out an id for a CreateBitmap still sitting in an output
    /// buffer (client-side XID allocation).
    pub fn reserve(&mut self) -> BitmapId {
        self.ids.alloc()
    }

    /// Stores a bitmap under a pre-reserved id (the buffered-transport path).
    pub fn create_with_id(&mut self, id: BitmapId, bitmap: Bitmap) {
        self.bitmaps.insert(id, bitmap);
    }

    /// Looks a bitmap up.
    pub fn get(&self, id: BitmapId) -> Option<&Bitmap> {
        self.bitmaps.get(&id)
    }

    /// Frees a bitmap.
    pub fn free(&mut self, id: BitmapId) {
        self.bitmaps.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of set bits, read through `get`.
    fn set_bits(b: &Bitmap) -> usize {
        (0..b.height)
            .flat_map(|y| (0..b.width).filter(move |&x| b.get(x, y)))
            .count()
    }

    const STAR_XBM: &str = "
#define star_width 8
#define star_height 5
static char star_bits[] = {
   0x18, 0x18, 0xff, 0x3c, 0x24};
";

    #[test]
    fn parses_xbm() {
        let b = Bitmap::parse_xbm(STAR_XBM).unwrap();
        assert_eq!((b.width, b.height), (8, 5));
        // 0x18 = 00011000: bits 3 and 4 set (LSB first).
        assert!(b.get(3, 0));
        assert!(b.get(4, 0));
        assert!(!b.get(0, 0));
        // 0xff: the whole third row.
        assert!((0..8).all(|x| b.get(x, 2)));
    }

    #[test]
    fn xbm_rejects_garbage() {
        assert!(Bitmap::parse_xbm("not a bitmap").is_none());
        assert!(Bitmap::parse_xbm("#define x_width 8\n#define x_height 8\n{0x01}").is_none());
    }

    #[test]
    fn builtin_bitmaps() {
        let g50 = builtin("gray50").unwrap();
        assert_eq!(set_bits(&g50), 128);
        let g25 = builtin("gray25").unwrap();
        assert_eq!(set_bits(&g25), 64);
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn table_stores_and_frees() {
        let mut t = BitmapTable::default();
        let id = t.create(builtin("black").unwrap());
        assert_eq!(set_bits(t.get(id).unwrap()), 256);
        t.free(id);
        assert!(t.get(id).is_none());
    }

    #[test]
    fn out_of_range_get_is_false() {
        let b = builtin("black").unwrap();
        assert!(!b.get(99, 0));
        assert!(!b.get(0, 99));
    }
}
