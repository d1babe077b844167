//! # xsim — a simulated X11 server
//!
//! The substrate beneath the `tk` crate: an in-process X11 server faithful
//! to the protocol concepts Tk depends on — the window tree, atoms and
//! properties, event masks and propagation, graphics contexts, named
//! colors with a shared colormap, server-side fonts, the cursor font,
//! ICCCM selection ownership and conversion, input focus, and a pixel
//! framebuffer.
//!
//! This crate substitutes for the real X display the paper ran against
//! (see DESIGN.md): every request goes through a protocol-shaped
//! [`Connection`] which counts requests and round trips per client, so the
//! experiments about server traffic (resource caches, the client/server
//! time split of Table II) remain meaningful.
//!
//! # Examples
//!
//! ```
//! use xsim::{Display, event::mask};
//!
//! let display = Display::new();
//! let conn = display.connect();
//! let win = conn.create_window(conn.root(), 10, 10, 100, 50, 1).unwrap();
//! conn.select_input(win, mask::EXPOSURE | mask::BUTTON_PRESS);
//! conn.map_window(win);
//!
//! // The "user" clicks inside the window:
//! display.move_pointer(40, 30);
//! display.click(1);
//! let events: Vec<_> = std::iter::from_fn(|| conn.poll_event()).collect();
//! assert!(events.iter().any(|e| matches!(e, xsim::Event::ButtonPress { .. })));
//! ```

pub mod atom;
pub mod bitmap;
pub mod color;
pub mod connection;
pub mod cursor;
pub mod damage;
pub mod event;
pub mod fault;
pub mod font;
pub mod gc;
pub mod ids;
pub mod obs;
pub mod render;
pub mod rng;
pub mod server;
pub mod window;
pub mod wire;

pub use atom::Atom;
pub use bitmap::{Bitmap, BitmapId};
pub use color::{lookup_color, Rgb};
pub use connection::{Connection, Cookie, Display, FromReply, Geometry};
pub use damage::{DamageList, Rect};
pub use event::{Event, Keysym};
pub use fault::{FaultAction, FaultPlan, FaultSpec, FiredFault, XError, XErrorCode};
pub use font::FontMetrics;
pub use gc::GcValues;
pub use ids::{ClientId, CursorId, FontId, GcId, Pixel, WindowId, Xid};
pub use obs::{ClientObs, ClientStats, ProtocolCounters, RequestKind, WireStats};
pub use render::Surface;
pub use rng::XorShift;
pub use server::{Server, OUT_BUF_CAPACITY, SCREEN_HEIGHT, SCREEN_WIDTH};
