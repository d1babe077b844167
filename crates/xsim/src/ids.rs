//! X resource identifiers.
//!
//! Every server-side resource (window, graphics context, font, cursor) is
//! named by a 32-bit XID, exactly as in the X11 protocol. A single
//! allocator hands out unique ids; unlike real X we do not partition the id
//! space per client because all clients are in-process.

/// A generic X resource identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Xid(pub u32);

impl Xid {
    /// The reserved "none" id.
    pub const NONE: Xid = Xid(0);

    /// Is this the none id?
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Xid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A window id (alias of [`Xid`] for readability in signatures).
pub type WindowId = Xid;

/// A graphics-context id.
pub type GcId = Xid;

/// A font id.
pub type FontId = Xid;

/// A cursor id.
pub type CursorId = Xid;

/// A pixel value in the (pseudo-color) colormap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pixel(pub u32);

/// A connected client's identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

/// Monotonic id allocator.
#[derive(Debug, Default)]
pub struct IdAllocator {
    next: u32,
}

impl IdAllocator {
    /// Returns a fresh id.
    pub fn alloc(&mut self) -> Xid {
        self.next += 1;
        Xid(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut a = IdAllocator::default();
        let x = a.alloc();
        let y = a.alloc();
        assert_ne!(x, y);
        assert!(y > x);
    }

    #[test]
    fn none_is_zero() {
        assert!(Xid::NONE.is_none());
        let mut a = IdAllocator::default();
        assert!(!a.alloc().is_none());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Xid(255).to_string(), "0xff");
    }
}
