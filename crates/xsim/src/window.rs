//! Window records and tree operations.
//!
//! Windows form a tree rooted at the screen's root window. Each window has
//! a position relative to its parent, a size, a border, a background, a
//! per-client event mask, properties, and (when viewable) a backing
//! surface that clients draw into.

use std::collections::HashMap;

use crate::atom::Atom;
use crate::color::Rgb;
use crate::damage::DamageList;
use crate::ids::{ClientId, CursorId, Pixel, WindowId, Xid};
use crate::render::Surface;

/// One window's server-side state.
#[derive(Debug)]
pub struct Window {
    /// This window's id.
    pub id: WindowId,
    /// Parent window (`NONE` for the root).
    pub parent: WindowId,
    /// Children in stacking order, bottom to top.
    pub children: Vec<WindowId>,
    /// Position relative to the parent's origin.
    pub x: i32,
    /// Position relative to the parent's origin.
    pub y: i32,
    /// Interior width (excludes border).
    pub width: u32,
    /// Interior height (excludes border).
    pub height: u32,
    /// Border width.
    pub border_width: u32,
    /// Background pixel, painted on clear/expose.
    pub background: Pixel,
    /// Border pixel.
    pub border_pixel: Pixel,
    /// Is this window mapped?
    pub mapped: bool,
    /// Bypass the window manager (menus, override-redirect popups).
    pub override_redirect: bool,
    /// Cursor displayed over this window (`NONE` inherits the parent's).
    pub cursor: CursorId,
    /// Event selections, per client.
    pub event_masks: HashMap<ClientId, u32>,
    /// Properties attached to this window.
    pub properties: HashMap<Atom, String>,
    /// Backing pixels, undrawn until a client draws on them.
    pub surface: Surface,
    /// Pending damage: areas awaiting Expose delivery, coalesced.
    pub damage: DamageList,
    /// The client that created the window.
    pub owner: ClientId,
}

impl Window {
    /// The background pixel `CreateWindow` gives a window (white).
    pub const BACKGROUND: Pixel = Pixel(1);

    /// Creates a window record with defaults matching `CreateWindow`,
    /// its surface undrawn in `background`, the colour of
    /// [`Window::BACKGROUND`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: WindowId,
        parent: WindowId,
        owner: ClientId,
        x: i32,
        y: i32,
        width: u32,
        height: u32,
        border_width: u32,
        background: Rgb,
    ) -> Window {
        Window {
            id,
            parent,
            children: Vec::new(),
            x,
            y,
            width: width.max(1),
            height: height.max(1),
            border_width,
            background: Window::BACKGROUND,
            border_pixel: Pixel(0),
            mapped: false,
            override_redirect: false,
            cursor: Xid::NONE,
            event_masks: HashMap::new(),
            properties: HashMap::new(),
            surface: Surface::undrawn(width.max(1), height.max(1), background),
            damage: DamageList::new(),
            owner,
        }
    }

    /// The union of all clients' event masks on this window.
    pub fn any_mask(&self) -> u32 {
        self.event_masks.values().fold(0, |a, m| a | m)
    }
}

/// The window tree: storage plus pure tree queries. The server wraps this
/// with event generation and rendering.
#[derive(Debug, Default)]
pub struct WindowTree {
    windows: HashMap<WindowId, Window>,
    root: WindowId,
}

impl WindowTree {
    /// Creates a tree whose root is `root` (already constructed).
    pub fn with_root(root: Window) -> WindowTree {
        let id = root.id;
        let mut windows = HashMap::new();
        windows.insert(id, root);
        WindowTree { windows, root: id }
    }

    /// The root window id.
    pub fn root(&self) -> WindowId {
        self.root
    }

    /// Immutable access to a window.
    pub fn get(&self, id: WindowId) -> Option<&Window> {
        self.windows.get(&id)
    }

    /// Mutable access to a window.
    pub fn get_mut(&mut self, id: WindowId) -> Option<&mut Window> {
        self.windows.get_mut(&id)
    }

    /// Inserts a new window and links it as the topmost child of its parent.
    pub fn insert(&mut self, window: Window) {
        let id = window.id;
        let parent = window.parent;
        self.windows.insert(id, window);
        if let Some(p) = self.windows.get_mut(&parent) {
            p.children.push(id);
        }
    }

    /// Removes `id` and its whole subtree; returns the removed ids
    /// (depth-first, children before parents).
    pub fn remove_subtree(&mut self, id: WindowId) -> Vec<WindowId> {
        let mut removed = Vec::new();
        self.collect_subtree(id, &mut removed);
        // Children first so DestroyNotify order matches X.
        removed.reverse();
        for w in &removed {
            self.windows.remove(w);
        }
        // Unlink from the parent.
        for w in self.windows.values_mut() {
            w.children.retain(|c| c != &id);
        }
        removed
    }

    /// The ids [`WindowTree::remove_subtree`] would remove, in the same
    /// order (children before parents), without removing anything — for
    /// callers that must capture per-window state (saved event masks)
    /// before the windows are gone.
    pub fn subtree(&self, id: WindowId) -> Vec<WindowId> {
        let mut ids = Vec::new();
        self.collect_subtree(id, &mut ids);
        ids.reverse();
        ids
    }

    fn collect_subtree(&self, id: WindowId, out: &mut Vec<WindowId>) {
        out.push(id);
        if let Some(w) = self.windows.get(&id) {
            for &c in &w.children {
                self.collect_subtree(c, out);
            }
        }
    }

    /// Absolute (root-relative) coordinates of a window's interior origin;
    /// the root's own offset counts as zero.
    pub fn abs_pos(&self, id: WindowId) -> (i32, i32) {
        let (mut x, mut y, mut cur) = (0, 0, id);
        while let Some(w) = self.windows.get(&cur).filter(|w| !w.parent.is_none()) {
            x += w.x + w.border_width as i32;
            y += w.y + w.border_width as i32;
            cur = w.parent;
        }
        (x, y)
    }

    /// Is the window and all of its ancestors mapped?
    pub fn viewable(&self, id: WindowId) -> bool {
        let mut cur = id;
        while let Some(w) = self.windows.get(&cur).filter(|w| w.mapped) {
            if w.parent.is_none() {
                return true;
            }
            cur = w.parent;
        }
        false
    }

    /// The deepest viewable window containing the root-relative point.
    pub fn window_at(&self, x: i32, y: i32) -> WindowId {
        let mut cur = self.root;
        'descend: loop {
            let w = &self.windows[&cur];
            let (ax, ay) = self.abs_pos(cur);
            // Children are bottom-to-top; topmost match wins.
            for &child in w.children.iter().rev() {
                let c = &self.windows[&child];
                if !c.mapped {
                    continue;
                }
                let cx = ax + c.x;
                let cy = ay + c.y;
                let cw = (c.width + 2 * c.border_width) as i32;
                let ch = (c.height + 2 * c.border_width) as i32;
                if x >= cx && x < cx + cw && y >= cy && y < cy + ch {
                    cur = child;
                    continue 'descend;
                }
            }
            return cur;
        }
    }

    /// The chain of ancestors from `id` up to and including the root.
    pub fn ancestors(&self, id: WindowId) -> Vec<WindowId> {
        let mut out = Vec::new();
        let mut cur = id;
        while let Some(w) = self.windows.get(&cur) {
            out.push(cur);
            if w.parent.is_none() {
                break;
            }
            cur = w.parent;
        }
        out
    }

    /// Iterates over all windows (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Window> {
        self.windows.values()
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Window> {
        self.windows.values_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Xid;

    const WHITE: Rgb = Rgb::new(255, 255, 255);

    fn tree() -> WindowTree {
        let root = Window::new(Xid(1), Xid::NONE, ClientId(0), 0, 0, 800, 600, 0, WHITE);
        let mut t = WindowTree::with_root(root);
        let mut a = Window::new(Xid(2), Xid(1), ClientId(1), 10, 20, 100, 50, 1, WHITE);
        a.mapped = true;
        t.insert(a);
        let mut b = Window::new(Xid(3), Xid(2), ClientId(1), 5, 5, 20, 20, 0, WHITE);
        b.mapped = true;
        t.insert(b);
        t.get_mut(Xid(1)).unwrap().mapped = true;
        t
    }

    #[test]
    fn insert_links_children() {
        let t = tree();
        assert_eq!(t.get(Xid(1)).unwrap().children, vec![Xid(2)]);
        assert_eq!(t.get(Xid(2)).unwrap().children, vec![Xid(3)]);
    }

    #[test]
    fn abs_pos_accumulates_borders() {
        let t = tree();
        // Window 2 at (10,20) with border 1: interior at (11,21).
        assert_eq!(t.abs_pos(Xid(2)), (11, 21));
        // Window 3 at (5,5) inside that: (16,26).
        assert_eq!(t.abs_pos(Xid(3)), (16, 26));
    }

    #[test]
    fn viewable_requires_mapped_chain() {
        let mut t = tree();
        assert!(t.viewable(Xid(3)));
        t.get_mut(Xid(2)).unwrap().mapped = false;
        assert!(!t.viewable(Xid(3)));
        assert!(!t.viewable(Xid(99)));
    }

    #[test]
    fn window_at_finds_deepest() {
        let t = tree();
        assert_eq!(t.window_at(17, 27), Xid(3));
        assert_eq!(t.window_at(12, 22), Xid(2));
        assert_eq!(t.window_at(500, 500), Xid(1));
    }

    #[test]
    fn window_at_honors_stacking() {
        let mut t = tree();
        // A sibling of window 2 covering the same area, added later (on top).
        let mut c = Window::new(Xid(4), Xid(1), ClientId(1), 10, 20, 100, 50, 1, WHITE);
        c.mapped = true;
        t.insert(c);
        assert_eq!(t.window_at(17, 27), Xid(4));
    }

    #[test]
    fn remove_subtree_removes_descendants() {
        let mut t = tree();
        let removed = t.remove_subtree(Xid(2));
        assert_eq!(removed, vec![Xid(3), Xid(2)]);
        assert!(t.get(Xid(2)).is_none());
        assert!(t.get(Xid(3)).is_none());
        assert!(t.get(Xid(1)).unwrap().children.is_empty());
    }

    #[test]
    fn ancestors_chain() {
        let t = tree();
        assert_eq!(t.ancestors(Xid(3)), vec![Xid(3), Xid(2), Xid(1)]);
    }
}
