//! X events and event masks.
//!
//! Clients select interest in events per window with a mask (`SelectInput`);
//! the server delivers an event to every client whose mask matches. Device
//! events (keys, buttons, motion) propagate from the deepest window under
//! the pointer up through its ancestors until some window/client pair has
//! selected them, as in real X.

use crate::atom::Atom;
use crate::ids::WindowId;

/// Event-mask bits (a subset of X11's, same names).
pub mod mask {
    /// Exposure events.
    pub const EXPOSURE: u32 = 1 << 0;
    /// Button press events.
    pub const BUTTON_PRESS: u32 = 1 << 1;
    /// Button release events.
    pub const BUTTON_RELEASE: u32 = 1 << 2;
    /// Key press events.
    pub const KEY_PRESS: u32 = 1 << 3;
    /// Key release events.
    pub const KEY_RELEASE: u32 = 1 << 4;
    /// Pointer motion events.
    pub const POINTER_MOTION: u32 = 1 << 5;
    /// Pointer entering the window.
    pub const ENTER_WINDOW: u32 = 1 << 6;
    /// Pointer leaving the window.
    pub const LEAVE_WINDOW: u32 = 1 << 7;
    /// Changes to this window's structure (map/unmap/configure/destroy).
    pub const STRUCTURE_NOTIFY: u32 = 1 << 8;
    /// Changes to children's structure.
    pub const SUBSTRUCTURE_NOTIFY: u32 = 1 << 9;
    /// Property changes.
    pub const PROPERTY_CHANGE: u32 = 1 << 10;
    /// Focus changes.
    pub const FOCUS_CHANGE: u32 = 1 << 11;
}

/// Modifier-state bits carried in device events (X11 names).
pub mod state {
    /// Shift key.
    pub const SHIFT: u32 = 1 << 0;
    /// Caps lock.
    pub const LOCK: u32 = 1 << 1;
    /// Control key.
    pub const CONTROL: u32 = 1 << 2;
    /// Mod1 (usually Meta/Alt).
    pub const MOD1: u32 = 1 << 3;
    /// Mod2.
    pub const MOD2: u32 = 1 << 4;
    /// Button 1 held.
    pub const BUTTON1: u32 = 1 << 8;
    /// Button 2 held.
    pub const BUTTON2: u32 = 1 << 9;
    /// Button 3 held.
    pub const BUTTON3: u32 = 1 << 10;
}

/// A key symbol: a named key plus the character it generates, if any.
///
/// Real X maps hardware keycodes through a keyboard map to keysyms; the
/// simulation starts at the keysym level, which is also the level Tk's
/// `bind` command works at (`<Escape>`, `a`, `<space>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keysym {
    /// The keysym name (`"a"`, `"space"`, `"Escape"`, `"Return"`, ...).
    pub name: String,
    /// The character generated, if the key is a text key.
    pub ch: Option<char>,
}

impl Keysym {
    /// Builds the keysym for a character key, naming it per X conventions
    /// (letters and digits name themselves; some punctuation has names).
    pub fn from_char(c: char) -> Keysym {
        let name = match c {
            ' ' => "space".to_string(),
            '\n' | '\r' => {
                return Keysym {
                    name: "Return".into(),
                    ch: Some('\r'),
                }
            }
            '\t' => {
                return Keysym {
                    name: "Tab".into(),
                    ch: Some('\t'),
                }
            }
            '.' => "period".to_string(),
            ',' => "comma".to_string(),
            ';' => "semicolon".to_string(),
            ':' => "colon".to_string(),
            '!' => "exclam".to_string(),
            '?' => "question".to_string(),
            '/' => "slash".to_string(),
            '\\' => "backslash".to_string(),
            '-' => "minus".to_string(),
            '+' => "plus".to_string(),
            '=' => "equal".to_string(),
            '_' => "underscore".to_string(),
            '<' => "less".to_string(),
            '>' => "greater".to_string(),
            '#' => "numbersign".to_string(),
            '$' => "dollar".to_string(),
            '%' => "percent".to_string(),
            '&' => "ampersand".to_string(),
            '*' => "asterisk".to_string(),
            '(' => "parenleft".to_string(),
            ')' => "parenright".to_string(),
            '[' => "bracketleft".to_string(),
            ']' => "bracketright".to_string(),
            '\'' => "apostrophe".to_string(),
            '"' => "quotedbl".to_string(),
            '@' => "at".to_string(),
            other => other.to_string(),
        };
        Keysym { name, ch: Some(c) }
    }

    /// Builds the keysym for a named function key (no character).
    pub fn named(name: &str) -> Keysym {
        let ch = match name {
            "space" => Some(' '),
            "Return" => Some('\r'),
            "Tab" => Some('\t'),
            "BackSpace" => Some('\u{8}'),
            "Delete" => Some('\u{7f}'),
            "Escape" => Some('\u{1b}'),
            n if n.chars().count() == 1 => n.chars().next(),
            _ => None,
        };
        Keysym {
            name: name.to_string(),
            ch,
        }
    }
}

/// An X event as delivered to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Part of a window needs repainting.
    Expose {
        window: WindowId,
        x: i32,
        y: i32,
        width: u32,
        height: u32,
        /// Number of Expose events still to come for this window (0 = last).
        count: u32,
    },
    /// The window's geometry changed.
    ConfigureNotify {
        window: WindowId,
        x: i32,
        y: i32,
        width: u32,
        height: u32,
        border_width: u32,
    },
    /// The window became viewable.
    MapNotify { window: WindowId },
    /// The window was unmapped.
    UnmapNotify { window: WindowId },
    /// The window was destroyed.
    DestroyNotify { window: WindowId },
    /// The pointer entered the window.
    EnterNotify {
        window: WindowId,
        x: i32,
        y: i32,
        state: u32,
        time: u64,
    },
    /// The pointer left the window.
    LeaveNotify {
        window: WindowId,
        x: i32,
        y: i32,
        state: u32,
        time: u64,
    },
    /// The pointer moved inside the window.
    MotionNotify {
        window: WindowId,
        x: i32,
        y: i32,
        x_root: i32,
        y_root: i32,
        state: u32,
        time: u64,
    },
    /// A mouse button was pressed.
    ButtonPress {
        window: WindowId,
        button: u8,
        x: i32,
        y: i32,
        x_root: i32,
        y_root: i32,
        state: u32,
        time: u64,
    },
    /// A mouse button was released.
    ButtonRelease {
        window: WindowId,
        button: u8,
        x: i32,
        y: i32,
        x_root: i32,
        y_root: i32,
        state: u32,
        time: u64,
    },
    /// A key was pressed.
    KeyPress {
        window: WindowId,
        keysym: Keysym,
        x: i32,
        y: i32,
        state: u32,
        time: u64,
    },
    /// A key was released.
    KeyRelease {
        window: WindowId,
        keysym: Keysym,
        x: i32,
        y: i32,
        state: u32,
        time: u64,
    },
    /// A property on the window changed or was deleted.
    PropertyNotify {
        window: WindowId,
        atom: Atom,
        deleted: bool,
        time: u64,
    },
    /// This window lost the selection.
    SelectionClear {
        window: WindowId,
        selection: Atom,
        time: u64,
    },
    /// Another client asks the selection owner to convert the selection.
    SelectionRequest {
        owner: WindowId,
        requestor: WindowId,
        selection: Atom,
        target: Atom,
        property: Atom,
        time: u64,
    },
    /// The selection conversion completed (or failed, `property == NONE`).
    SelectionNotify {
        requestor: WindowId,
        selection: Atom,
        target: Atom,
        property: Atom,
        time: u64,
    },
    /// The window gained the input focus.
    FocusIn { window: WindowId },
    /// The window lost the input focus.
    FocusOut { window: WindowId },
}

// `Event::name()` and the event opcodes come from the event table in
// `wire.rs`.
impl Event {
    /// The window this event is reported relative to.
    pub fn window(&self) -> WindowId {
        match self {
            Event::Expose { window, .. }
            | Event::ConfigureNotify { window, .. }
            | Event::MapNotify { window }
            | Event::UnmapNotify { window }
            | Event::DestroyNotify { window }
            | Event::EnterNotify { window, .. }
            | Event::LeaveNotify { window, .. }
            | Event::MotionNotify { window, .. }
            | Event::ButtonPress { window, .. }
            | Event::ButtonRelease { window, .. }
            | Event::KeyPress { window, .. }
            | Event::KeyRelease { window, .. }
            | Event::PropertyNotify { window, .. }
            | Event::SelectionClear { window, .. }
            | Event::FocusIn { window }
            | Event::FocusOut { window } => *window,
            Event::SelectionRequest { owner, .. } => *owner,
            Event::SelectionNotify { requestor, .. } => *requestor,
        }
    }

    /// The mask bit that must be selected for this event to be delivered,
    /// or `None` for events that are always delivered (selection traffic).
    pub fn mask_bit(&self) -> Option<u32> {
        use mask::*;
        Some(match self {
            Event::Expose { .. } => EXPOSURE,
            Event::ConfigureNotify { .. }
            | Event::MapNotify { .. }
            | Event::UnmapNotify { .. }
            | Event::DestroyNotify { .. } => STRUCTURE_NOTIFY,
            Event::EnterNotify { .. } => ENTER_WINDOW,
            Event::LeaveNotify { .. } => LEAVE_WINDOW,
            Event::MotionNotify { .. } => POINTER_MOTION,
            Event::ButtonPress { .. } => BUTTON_PRESS,
            Event::ButtonRelease { .. } => BUTTON_RELEASE,
            Event::KeyPress { .. } => KEY_PRESS,
            Event::KeyRelease { .. } => KEY_RELEASE,
            Event::PropertyNotify { .. } => PROPERTY_CHANGE,
            Event::FocusIn { .. } | Event::FocusOut { .. } => FOCUS_CHANGE,
            Event::SelectionClear { .. }
            | Event::SelectionRequest { .. }
            | Event::SelectionNotify { .. } => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Xid;

    #[test]
    fn keysym_from_char_names() {
        assert_eq!(Keysym::from_char('a').name, "a");
        assert_eq!(Keysym::from_char(' ').name, "space");
        assert_eq!(Keysym::from_char('.').name, "period");
        assert_eq!(Keysym::from_char('a').ch, Some('a'));
    }

    #[test]
    fn keysym_named_sets_char_when_known() {
        assert_eq!(Keysym::named("Escape").ch, Some('\u{1b}'));
        assert_eq!(Keysym::named("F1").ch, None);
        assert_eq!(Keysym::named("q").ch, Some('q'));
    }

    #[test]
    fn mask_bits_match_event_kinds() {
        let e = Event::MapNotify { window: Xid(1) };
        assert_eq!(e.mask_bit(), Some(mask::STRUCTURE_NOTIFY));
        let e = Event::SelectionClear {
            window: Xid(1),
            selection: Atom(1),
            time: 0,
        };
        assert_eq!(e.mask_bit(), None);
    }

    #[test]
    fn event_window_accessor() {
        let e = Event::Expose {
            window: Xid(7),
            x: 0,
            y: 0,
            width: 1,
            height: 1,
            count: 0,
        };
        assert_eq!(e.window(), Xid(7));
    }
}
