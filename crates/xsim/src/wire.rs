//! The framed wire protocol and the client-server transport.
//!
//! Every request, reply, event, and error has a defined byte encoding so
//! the protocol can cross a real transport boundary instead of a Rust
//! function call. A frame is
//!
//! ```text
//! [u32 len LE][u8 version][u8 frame_type][u16 opcode LE][u64 seq LE][u32 crc LE][payload]
//! ```
//!
//! where `len` counts everything after itself (header + payload). The
//! header is versioned ([`WIRE_VERSION`]) so a peer speaking a different
//! revision is rejected with [`WireError::BadVersion`] instead of
//! misparsing, and carries a CRC32 of the header fields plus the payload
//! so a flipped byte anywhere in the frame surfaces as
//! [`WireError::Checksum`] instead of a misparse. [`FrameReader`]
//! reassembles frames from arbitrary read chunks, so the decoder never
//! assumes a write boundary survived the transport, and bounds its
//! reassembly buffer at [`MAX_FRAME_LEN`] + header so a hostile length
//! prefix or garbage flood cannot grow memory without limit.
//!
//! The transport half is the one path between the client library and
//! the server: the [`Server`] behind one mutex shared by every client
//! thread, with the codec on or off. Only data crosses, as in Xlib: with
//! the codec on, requests are encoded into frames in the client's output
//! buffer, and replies and events come back as frames, each encoded and
//! decoded inline by the thread that reads it, under the lock it already
//! holds. A flush applies what the client wrote. A reply-bearing request
//! has one path: it is buffered like any other request, and its reply is
//! filed under its sequence number until the client reads it; a blocking
//! call is the request and that read under one lock, and a read that
//! finds its reply unfiled flushes first. Reading events is the same: a
//! read that finds the client's read-ahead empty flushes the output
//! buffers and takes every queued event, up to [`EVENT_BATCH`], as one
//! `FT_EVENT` frame each. The sequence number in the frame header, not a
//! thread, is the boundary between client and server (the x11rb cookie
//! model).
//! With the codec off (`RTK_NO_WIRE=1`), the same calls carry typed
//! values instead of bytes: that is the oracle `wire_equivalence`
//! compares against. Everything else is shared — issue-time accounting,
//! the per-client output buffer in the server, and the batch apply
//! through [`Server::flush_client`] — so counters, fault firings, and
//! span shapes are byte-identical either way. See docs/PROTOCOL.md.
//!
//! The message tables declare each request once, for both ends: besides
//! the codec they generate the request types, the `Connection` request
//! methods, and the dispatch that runs each request's [`Server`] method.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::atom::Atom;
use crate::bitmap::{Bitmap, BitmapId};
use crate::color::Rgb;
use crate::connection::{Connection, Cookie, FromReply, Geometry};
use crate::damage::Rect;
use crate::event::{Event, Keysym};
use crate::fault::{FaultAction, XError, XErrorCode};
use crate::font::FontMetrics;
use crate::gc::GcValues;
use crate::ids::{ClientId, CursorId, FontId, GcId, Pixel, WindowId, Xid};
use crate::obs::RequestKind;
use crate::server::Server;

/// Protocol revision carried in every frame header. Version 2 added the
/// CRC32 trailer field to the header; a version-1 peer is rejected with
/// [`WireError::BadVersion`] (there is no negotiation — both ends of the
/// simulated transport always speak the current revision).
pub const WIRE_VERSION: u8 = 2;
/// Bytes between the length prefix and the payload: version, frame type,
/// opcode, sequence number, CRC32.
pub const HEADER_LEN: usize = 16;
/// Offset of the CRC field within the header (after `seq`).
const CRC_OFFSET: usize = 12;
/// Upper bound on `len`; anything larger is rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;
/// Upper bound on unconsumed bytes a [`FrameReader`] will buffer: one
/// maximal frame plus its length prefix. Growth past this is rejected by
/// [`FrameReader::push`] before any allocation happens.
pub const MAX_BUFFERED: usize = 4 + MAX_FRAME_LEN as usize;

/// CRC32 (IEEE, reflected, polynomial 0xEDB88320) lookup tables for
/// slicing-by-8, built at compile time — the same function zlib and PNG
/// use, hand-rolled so the wire layer stays zero-dependency. Table 0 is
/// the classic bytewise table; table `k` advances a byte through `k`
/// more zero bytes, so eight lookups fold in eight bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, n) = (i / 256, i % 256);
        t[k][n] = if k == 0 {
            let mut c = n as u32;
            let mut bit = 0;
            while bit < 8 {
                // Shift out one bit, folding in the polynomial if it was set.
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                bit += 1;
            }
            c
        } else {
            (t[k - 1][n] >> 8) ^ t[0][(t[k - 1][n] & 0xFF) as usize]
        };
        i += 1;
    }
    t
};

/// Feeds `bytes` into a running CRC32 state (init [`CRC32_INIT`],
/// finalize by XOR with `0xFFFF_FFFF`), eight bytes per step.
fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let x = u64::from_le_bytes(c.try_into().expect("chunks of 8")) ^ u64::from(state);
        state = (0..8).fold(0, |acc, i| acc ^ t[7 - i][(x >> (8 * i) & 0xFF) as usize]);
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// CRC32 of a v2 frame: the 12 header bytes before the CRC field
/// (version, frame type, opcode, seq) followed by the payload. The
/// length prefix is excluded — it is validated structurally — and the
/// CRC field itself is obviously excluded.
fn frame_crc(header_pre_crc: &[u8], payload: &[u8]) -> u32 {
    let state = crc32_update(CRC32_INIT, header_pre_crc);
    crc32_update(state, payload) ^ 0xFFFF_FFFF
}

// Frame types. Requests flow client -> server; replies (an X error
// travels as one) and events flow back. The numbers are part of the
// format, so retired types leave gaps (2, 3, 5, 7-14).
pub const FT_REQUEST: u8 = 1;
pub const FT_REPLY: u8 = 4;
pub const FT_EVENT: u8 = 6;

/// A decode failure. Every malformed input maps to a structured error —
/// the decoder never panics and never reads out of bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame header carries an unknown protocol version.
    BadVersion(u8),
    /// The frame type byte is outside the defined range.
    BadFrameType(u8),
    /// The opcode is not defined for this frame type.
    BadOpcode(u16),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The frame's CRC32 does not match its contents: the bytes were
    /// corrupted somewhere between encode and decode.
    Checksum,
    /// The payload does not parse as the opcode's layout.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o}"),
            WireError::Oversized(n) => write!(f, "frame length {n} exceeds limit"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ----- field encodings (little-endian throughout) -----

/// A field type with one wire encoding, shared by every message that
/// carries it: little-endian integers, `u32`-length-prefixed strings and
/// lists, and a 0/1 tag in front of an optional value. `get` reads from
/// the front of the remaining payload and maps malformed input to a
/// [`WireError`]; it never panics and never reads out of bounds.
pub(crate) trait Wire: Sized {
    fn put(&self, b: &mut Vec<u8>);
    fn get(r: &mut &[u8]) -> Result<Self, WireError>;
}

/// Splits the next `n` bytes off the front of the payload.
fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if r.len() < n {
        return Err(WireError::Malformed("short payload"));
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

/// Asserts the payload was consumed exactly.
fn done(r: &[u8]) -> Result<(), WireError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(WireError::Malformed("trailing bytes"))
    }
}

/// Integers: their little-endian bytes.
macro_rules! wire_int {
    ($($t:ty)*) => {$(
        impl Wire for $t {
            fn put(&self, b: &mut Vec<u8>) {
                b.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(r, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns exactly the size asked")))
            }
        }
    )*};
}
wire_int!(u8 u16 u32 u64 i32);

/// Records and newtypes: the listed fields, in order.
macro_rules! wire_struct {
    ($($T:ident { $($f:tt),* })*) => {$(
        impl Wire for $T {
            fn put(&self, b: &mut Vec<u8>) {
                $(self.$f.put(b);)*
            }
            fn get(r: &mut &[u8]) -> Result<Self, WireError> {
                Ok($T { $($f: Wire::get(r)?),* })
            }
        }
    )*};
}
wire_struct! {
    Xid { 0 }
    Atom { 0 }
    Pixel { 0 }
    Rgb { r, g, b }
    GcValues { foreground, background, line_width, font }
    Rect { x, y, w, h }
    Keysym { name, ch }
    FontMetrics { char_width, ascent, descent }
    XError { code, seq, kind }
}

/// Tuples: their elements, in order.
macro_rules! wire_tuple {
    ($($T:ident $i:tt)*) => {
        impl<$($T: Wire),*> Wire for ($($T,)*) {
            fn put(&self, b: &mut Vec<u8>) {
                $(self.$i.put(b);)*
            }
            fn get(r: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($T::get(r)?,)*))
            }
        }
    };
}
wire_tuple!(A 0 B 1);
wire_tuple!(A 0 B 1 C 2 D 3 E 4);

impl Wire for bool {
    fn put(&self, b: &mut Vec<u8>) {
        b.push(*self as u8);
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bad bool")),
        }
    }
}

impl Wire for char {
    fn put(&self, b: &mut Vec<u8>) {
        (*self as u32).put(b);
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        char::from_u32(u32::get(r)?).ok_or(WireError::Malformed("bad char"))
    }
}

impl Wire for String {
    fn put(&self, b: &mut Vec<u8>) {
        (self.len() as u32).put(b);
        b.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        String::from_utf8(take(r, n)?.to_vec()).map_err(|_| WireError::Malformed("invalid utf-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, b: &mut Vec<u8>) {
        self.is_some().put(b);
        if let Some(v) = self {
            v.put(b);
        }
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, b: &mut Vec<u8>) {
        (self.len() as u32).put(b);
        for v in self {
            v.put(b);
        }
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        // Every element takes at least one byte, so a count the rest of
        // the payload cannot hold is rejected before anything is decoded.
        let n = u32::get(r)? as usize;
        if n > r.len() {
            return Err(WireError::Malformed("count exceeds payload"));
        }
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// Width, height, then one 0/1 byte per pixel in row-major order.
impl Wire for Bitmap {
    fn put(&self, b: &mut Vec<u8>) {
        self.width.put(b);
        self.height.put(b);
        for y in 0..self.height {
            for x in 0..self.width {
                b.push(self.get(x, y) as u8);
            }
        }
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        let (w, h) = (u32::get(r)?, u32::get(r)?);
        if u64::from(w) * u64::from(h) > r.len() as u64 {
            return Err(WireError::Malformed("bitmap exceeds payload"));
        }
        let bits = (0..w * h).map(|_| bool::get(r)).collect::<Result<_, _>>()?;
        Bitmap::new(w, h, bits).ok_or(WireError::Malformed("bitmap size mismatch"))
    }
}

/// One byte, 1-based in declaration order.
impl Wire for XErrorCode {
    fn put(&self, b: &mut Vec<u8>) {
        (*self as u8 + 1).put(b);
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        use XErrorCode::*;
        [BadWindow, BadAtom, BadValue, BadAlloc, ConnectionDead]
            .get(usize::from(u8::get(r)?).wrapping_sub(1))
            .copied()
            .ok_or(WireError::Malformed("bad error code"))
    }
}

/// A `u16` index into [`RequestKind::ALL`], so the kind list's order is
/// part of the error-frame format.
impl Wire for RequestKind {
    fn put(&self, b: &mut Vec<u8>) {
        (*self as u16).put(b);
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        RequestKind::ALL
            .get(usize::from(u16::get(r)?))
            .copied()
            .ok_or(WireError::Malformed("bad request kind"))
    }
}

// ----- frames -----

/// One decoded frame: header fields plus the payload, borrowed from the
/// [`FrameReader`]'s buffer (the x11rb model: bytes stay where they were
/// read until a message is decoded from them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    pub frame_type: u8,
    pub opcode: u16,
    pub seq: u64,
    pub payload: &'a [u8],
}

impl RawFrame<'_> {
    /// Total encoded size including the length prefix.
    pub fn wire_len(&self) -> usize {
        4 + HEADER_LEN + self.payload.len()
    }
}

/// Appends one frame to `out` in place: `put` writes the payload straight
/// after a reserved header and returns the opcode, then the length, the
/// header and its CRC32 are filled in. Returns the frame's encoded size.
pub(crate) fn frame_into(
    out: &mut Vec<u8>,
    frame_type: u8,
    seq: u64,
    put: impl FnOnce(&mut Vec<u8>) -> u16,
) -> usize {
    let start = out.len();
    out.resize(start + 4 + HEADER_LEN, 0);
    let opcode = put(out);
    let len = out.len() - start - 4;
    debug_assert!(len <= MAX_FRAME_LEN as usize, "frame exceeds MAX_FRAME_LEN");
    let (head, payload) = out[start..].split_at_mut(4 + HEADER_LEN);
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4] = WIRE_VERSION;
    head[5] = frame_type;
    head[6..8].copy_from_slice(&opcode.to_le_bytes());
    head[8..16].copy_from_slice(&seq.to_le_bytes());
    let crc = frame_crc(&head[4..4 + CRC_OFFSET], payload);
    head[4 + CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
    4 + len
}

/// Incremental frame reassembly over arbitrary read chunks. Feed bytes
/// with [`push`](FrameReader::push); [`next_frame`](FrameReader::next_frame)
/// yields a frame once one is complete, `Ok(None)` while data is partial,
/// and a [`WireError`] for malformed input.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// Buffers a read chunk for reassembly. Rejects growth past
    /// [`MAX_BUFFERED`] unconsumed bytes *before* copying anything: a
    /// hostile length prefix that never completes, or a flood of garbage
    /// that never parses, cannot grow memory past one maximal frame.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), WireError> {
        self.compact_now();
        let unconsumed = self.buf.len() - self.pos;
        if unconsumed + chunk.len() > MAX_BUFFERED {
            return Err(WireError::Oversized(
                (unconsumed + chunk.len()).min(u32::MAX as usize) as u32,
            ));
        }
        self.buf.extend_from_slice(chunk);
        Ok(())
    }

    /// A reader over a whole buffer it takes ownership of (a flushed
    /// batch, a reply, a refill of events) instead of copying
    /// it in through [`push`](FrameReader::push). The same
    /// [`MAX_BUFFERED`] bound applies: an oversized buffer yields
    /// `Oversized` from [`next_frame`](FrameReader::next_frame), not a
    /// frame.
    pub fn from_buffer(buf: Vec<u8>) -> FrameReader {
        FrameReader { buf, pos: 0 }
    }

    /// Hands the buffer back, emptied, for reuse.
    pub(crate) fn into_buffer(mut self) -> Vec<u8> {
        self.buf.clear();
        self.buf
    }

    /// Unconsumed bytes sitting in the reassembly buffer — nonzero after
    /// a drain means a partial (or corrupt) frame is still pending.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame, its payload borrowed from the buffer.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame<'_>>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail > MAX_BUFFERED {
            return Err(WireError::Oversized(avail.min(u32::MAX as usize) as u32));
        }
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let at = self.pos;
        let len = u32::from_le_bytes(self.buf[at..at + 4].try_into().unwrap());
        if (len as usize) < HEADER_LEN {
            // A length too short for its own header is byte damage, not a
            // protocol disagreement: no valid encoder emits it.
            return Err(WireError::Checksum);
        }
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized(len));
        }
        if avail < 4 + len as usize {
            self.compact();
            return Ok(None);
        }
        let start = at + 4;
        let version = self.buf[start];
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let stored = u32::from_le_bytes(
            self.buf[start + CRC_OFFSET..start + CRC_OFFSET + 4]
                .try_into()
                .unwrap(),
        );
        let computed = frame_crc(
            &self.buf[start..start + CRC_OFFSET],
            &self.buf[start + HEADER_LEN..start + len as usize],
        );
        if stored != computed {
            return Err(WireError::Checksum);
        }
        // Past the CRC the bytes are authentic, so an out-of-range frame
        // type is a genuine protocol disagreement, not corruption.
        let frame_type = self.buf[start + 1];
        if !matches!(frame_type, FT_REQUEST | FT_REPLY | FT_EVENT) {
            return Err(WireError::BadFrameType(frame_type));
        }
        let opcode = u16::from_le_bytes(self.buf[start + 2..start + 4].try_into().unwrap());
        let seq = u64::from_le_bytes(self.buf[start + 4..start + 12].try_into().unwrap());
        self.pos = start + len as usize;
        Ok(Some(RawFrame {
            frame_type,
            opcode,
            seq,
            payload: &self.buf[start + HEADER_LEN..self.pos],
        }))
    }

    /// Reads a buffer that was shipped whole, handing each frame to
    /// `each` until it refuses one. Returns whether the buffer was
    /// damaged: a frame that does not read, one `each` refused, or a
    /// partial frame left at the end (frames are written whole, so
    /// leftover bytes can only mean the stream is broken).
    pub(crate) fn read_all(&mut self, mut each: impl FnMut(RawFrame<'_>) -> bool) -> bool {
        loop {
            let accepted = match self.next_frame() {
                Ok(Some(f)) => each(f),
                Ok(None) => return self.pending() > 0,
                Err(_) => false,
            };
            if !accepted {
                return true;
            }
        }
    }

    fn compact(&mut self) {
        if self.pos > 4096 {
            self.compact_now();
        }
    }

    fn compact_now(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

// ----- message tables -----

/// A message type whose variants each have one opcode: the codec that
/// [`message_table!`] generates from the type's table.
pub(crate) trait Message: Sized {
    /// Every opcode of the type, in table order (read by the tests).
    #[cfg_attr(not(test), allow(dead_code))]
    const OPCODES: &'static [u16];
    /// Appends the payload to `b` and returns the opcode.
    fn encode_into(&self, b: &mut Vec<u8>) -> u16;
    /// Decodes a frame's opcode and payload.
    fn decode(f: &RawFrame<'_>) -> Result<Self, WireError>;
}

/// Generates a message type from its table: the [`Message`] codec for
/// every table, and for the request and reply tables the type itself.
///
/// Fields travel in row order, each in its [`Wire`] encoding, except a
/// leading `[seq]`: that field is the frame header's sequence number.
/// Encode binds every field and decode builds a complete literal, so a
/// row that misses a field does not compile.
///
/// * `requests` takes the request type. A row also names the
///   [`RequestKind`] it is counted as, with the field it is traced on,
///   and its [`Connection`] method. It generates the enum, `kind()`,
///   `expects_reply()`, `dispatch()` into the [`Server`] method the row
///   names, and the `Connection` methods: a one-way row's, or a reply
///   row's blocking method and its `send_*` twin, which returns a cookie.
/// * `replies` takes the reply type, whose rows are one-field variants.
///   Each variant but the error converts from its field type and back
///   ([`FromReply`]), so a type that backs several rows converts once.
/// * `events` generates `name()`, the variant's name.
macro_rules! message_table {
    (requests $(#[$qa:meta])* $qvis:vis enum $Q:ident { $(
        $(#[$qdoc:meta])*
        $qop:literal $QV:ident { $([$seq:ident])? $($qf:ident: $qt:ty $(as $qp:ty)?),* }
            => $qk:ident($($qw:ident)?) $how:tt $qm:ident $(/ $send:ident -> $QT:ty)?;
    )* }) => {
        $(#[$qa])* $qvis enum $Q { $($(#[$qdoc])* $QV { $($seq: u64,)? $($qf: $qt),* },)* }
        message_table!($Q { $($qop $QV { $([$seq])? $($qf),* },)* });

        impl $Q {
            /// The [`RequestKind`] the request is counted and traced as,
            /// and labelled with in injected faults and error values.
            pub(crate) fn kind(&self) -> RequestKind {
                match self {
                    $($Q::$QV { .. } => RequestKind::$qk,)*
                }
            }

            /// Does the request file a reply under its sequence number?
            pub(crate) fn expects_reply(&self) -> bool {
                match self {
                    $($Q::$QV { .. } => message_table!(@reply $($seq)?),)*
                }
            }

            /// Runs the request's `Server` method, passed the issuing
            /// client and the request's fields. A reply-bearing request
            /// hands back its reply and the sequence number to file it
            /// under.
            pub(crate) fn dispatch(
                self,
                s: &mut Server,
                client: ClientId,
            ) -> Option<(u64, ReplyValue)> {
                match self {
                    $($Q::$QV { $($seq,)? $($qf),* } => {
                        message_table!(@apply s client $qm ($($qf),*) $($seq)?)
                    })*
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        impl Connection {
            $(message_table!(
                @method [$(#[$qdoc])*] $how $qm $Q $QV ($($qw)?) ($($qf: $qt $(as $qp)?),*) $($seq $send $QT)?
            );)*
        }
    };
    (replies $(#[$a:meta])* $vis:vis enum $E:ident {
        $($(#[$doc:meta])* $op:literal $v:ident($t:ty) $($error:ident)?,)*
    }) => {
        $(#[$a])* $vis enum $E { $($(#[$doc])* $v($t),)* }
        message_table!($E { $($op $v(v),)* });
        $(message_table!(@reply_type $E $v($t) $($error)?);)*
    };
    (events $E:ident { $($op:literal $v:ident $fields:tt,)* }) => {
        message_table!($E { $($op $v $fields,)* });
        impl $E {
            /// The X protocol name of this event type (the string Tk
            /// bindings use, and the detail the span tracer records on
            /// event instants).
            pub fn name(&self) -> &'static str {
                match self {
                    $($E::$v { .. } => stringify!($v),)*
                }
            }
        }
    };
    ($E:ident { $($op:literal $v:ident $fields:tt,)* }) => {
        impl Message for $E {
            const OPCODES: &'static [u16] = &[$($op),*];
            fn encode_into(&self, b: &mut Vec<u8>) -> u16 {
                match self {
                    $(message_table!(@bind $E $v $fields) => {
                        message_table!(@put b $fields);
                        $op
                    })*
                }
            }
            fn decode(f: &RawFrame<'_>) -> Result<Self, WireError> {
                let mut rest = f.payload;
                let r = &mut rest;
                let m = match f.opcode {
                    $($op => message_table!(@build r f $E $v $fields),)*
                    other => return Err(WireError::BadOpcode(other)),
                };
                done(r)?;
                Ok(m)
            }
        }
    };
    (@bind $E:ident $v:ident { $([$s:ident])? $($f:ident),* }) => {
        $E::$v { $($s: _,)? $($f),* }
    };
    (@bind $E:ident $v:ident ($f:ident)) => { $E::$v($f) };
    (@put $b:ident { $([$s:ident])? $($f:ident),* }) => { $($f.put($b);)* };
    (@put $b:ident ($f:ident)) => { $f.put($b) };
    (@build $r:ident $h:ident $E:ident $v:ident { $([$s:ident])? $($f:ident),* }) => {
        $E::$v { $($s: $h.seq,)? $($f: Wire::get($r)?),* }
    };
    (@build $r:ident $h:ident $E:ident $v:ident ($f:ident)) => { $E::$v(Wire::get($r)?) };
    (@reply) => { false };
    (@reply $seq:ident) => { true };
    (@window) => { Xid::NONE };
    (@window $w:expr) => { $w };
    (@param $t:ty) => { $t };
    (@param $t:ty, $p:ty) => { $p };
    (@own $f:ident) => { $f };
    (@own $f:ident $p:ty) => { $f.into() };
    (@apply $s:ident $c:ident $m:ident ($($f:ident),*)) => {{
        let () = $s.$m($c, $($f),*);
        None
    }};
    (@apply $s:ident $c:ident $m:ident ($($f:ident),*) $seq:ident) => {
        Some(($seq, ReplyValue::from($s.$m($c, $($f),*))))
    };
    (@method $docs:tt by_hand $($rest:tt)*) => {};
    (@method [$($doc:tt)*] fn $m:ident $Q:ident $V:ident ($($w:ident)?) ($($f:ident: $t:ty $(as $p:ty)?),*)) => {
        $($doc)*
        pub fn $m(&self, $($f: message_table!(@param $t $(, $p)?)),*) {
            let q = $Q::$V { $($f: message_table!(@own $f $($p)?)),* };
            self.queue(&mut self.transport.lock(), message_table!(@window $($w)?), |_| q);
        }
    };
    (@method [$($doc:tt)*] fn $m:ident $Q:ident $V:ident ($($w:ident)?) ($($f:ident: $t:ty $(as $p:ty)?),*) $seq:ident $send:ident $T:ty) => {
        $($doc)*
        ///
        /// Blocks for the reply: the request and its wait, under one lock.
        pub fn $m(&self, $($f: message_table!(@param $t $(, $p)?)),*) -> Result<$T, XError> {
            let mut st = self.transport.lock();
            let window = message_table!(@window $($w)?);
            let seq = self.queue(&mut st, window, |$seq| $Q::$V {
                $seq,
                $($f: message_table!(@own $f $($p)?)),*
            });
            self.wait_in(&mut st, Cookie::new(seq))
        }

        $($doc)*
        ///
        /// Pipelined: returns at once with a cookie for [`Connection::wait`].
        pub fn $send(&self, $($f: message_table!(@param $t $(, $p)?)),*) -> Cookie<$T> {
            let window = message_table!(@window $($w)?);
            Cookie::new(self.queue(&mut self.transport.lock(), window, |$seq| $Q::$V {
                $seq,
                $($f: message_table!(@own $f $($p)?)),*
            }))
        }
    };
    (@reply_type $E:ident $v:ident($t:ty) error) => {};
    (@reply_type $E:ident $v:ident($t:ty)) => {
        impl FromReply for $t {
            fn from_reply(v: $E) -> Option<Self> {
                match v {
                    $E::$v(r) => Some(r),
                    _ => None,
                }
            }
        }

        impl From<$t> for $E {
            fn from(r: $t) -> $E {
                $E::$v(r)
            }
        }
    };
}

// The request protocol, each request declared once. A row gives the
// opcode, the variant and its fields in wire order with their types (a
// `String` field its method takes `as &str`), then the `RequestKind` it
// is counted as with the field it is traced on (empty: `Xid::NONE`),
// then its `Connection` method, whose name is also the `Server` method
// that runs it. `by_hand` marks the three methods written by hand because
// they reserve the new resource's id on the client side. A reply-bearing
// row (`[seq]`, filed under the frame's sequence number) also names its
// pipelined `send_*` method and the reply type, a `ReplyValue` variant's
// field: the blocking method returns it, the `send_*` method a cookie
// for it.
message_table! { requests
    /// A request, held in the per-client output buffer until a flush
    /// point.
    #[derive(Debug, Clone)]
    #[allow(clippy::enum_variant_names)]
    pub(crate) enum QueuedRequest {
        /// Creates an (unmapped) window.
        1 CreateWindow { id: WindowId, parent: WindowId, x: i32, y: i32, width: u32, height: u32, border_width: u32 } => CreateWindow(parent) by_hand create_window;
        /// Destroys a window and its descendants.
        2 DestroyWindow { id: WindowId } => DestroyWindow(id) fn destroy_window;
        /// Maps a window.
        3 MapWindow { id: WindowId } => MapWindow(id) fn map_window;
        /// Unmaps a window.
        4 UnmapWindow { id: WindowId } => UnmapWindow(id) fn unmap_window;
        /// Moves/resizes a window.
        5 ConfigureWindow { id: WindowId, x: Option<i32>, y: Option<i32>, width: Option<u32>, height: Option<u32>, border_width: Option<u32> } => ConfigureWindow(id) fn configure_window;
        /// Raises a window above its siblings.
        6 RaiseWindow { id: WindowId } => RaiseWindow(id) fn raise_window;
        /// Reparents a window to a new parent at the given position.
        7 ReparentWindow { id: WindowId, new_parent: WindowId, x: i32, y: i32 } => ReparentWindow(id) fn reparent_window;
        /// Selects the events this client wants from a window.
        8 SelectInput { id: WindowId, event_mask: u32 } => SelectInput(id) fn select_input;
        /// Sets the window background pixel.
        9 SetWindowBackground { id: WindowId, pixel: Pixel } => ChangeWindowAttributes(id) fn set_window_background;
        /// Sets the window border pixel.
        10 SetWindowBorder { id: WindowId, pixel: Pixel } => ChangeWindowAttributes(id) fn set_window_border;
        /// Marks a window override-redirect (popup menus).
        11 SetOverrideRedirect { id: WindowId, on: bool } => ChangeWindowAttributes(id) fn set_override_redirect;
        /// Attaches a cursor to a window.
        12 DefineCursor { id: WindowId, cursor: CursorId } => ChangeWindowAttributes(id) fn define_cursor;
        /// Sets a property.
        13 ChangeProperty { id: WindowId, atom: Atom, value: String as &str } => ChangeProperty(id) fn change_property;
        /// Appends one line to a property atomically (`PropModeAppend`): the
        /// server does the concatenation, so the append is a single one-way
        /// request — no read-modify-write round trip, and no lost update when
        /// several clients append to the same property.
        14 AppendProperty { id: WindowId, atom: Atom, value: String as &str } => ChangeProperty(id) fn append_property;
        /// Deletes a property.
        15 DeleteProperty { id: WindowId, atom: Atom } => DeleteProperty(id) fn delete_property;
        /// Frees one reference to a pixel.
        16 FreeColor { pixel: Pixel } => FreeColor() fn free_color;
        /// Uploads a bitmap to the server.
        17 CreateBitmap { id: BitmapId, bitmap: Bitmap } => CreateBitmap() by_hand create_bitmap;
        /// Frees a bitmap.
        18 FreeBitmap { id: BitmapId } => FreeBitmap() fn free_bitmap;
        /// Draws a bitmap's set bits in the GC foreground at `(x, y)`.
        19 CopyBitmap { id: WindowId, gc: GcId, x: i32, y: i32, bitmap: BitmapId } => CopyBitmap(id) fn copy_bitmap;
        /// Creates a GC.
        20 CreateGc { id: GcId, values: GcValues } => CreateGc() by_hand create_gc;
        /// Changes a GC.
        21 ChangeGc { gc: GcId, values: GcValues } => ChangeGc() fn change_gc;
        /// Frees a GC.
        22 FreeGc { gc: GcId } => FreeGc() fn free_gc;
        /// Fills a rectangle in window coordinates.
        23 FillRectangle { id: WindowId, gc: GcId, x: i32, y: i32, w: u32, h: u32 } => FillRectangle(id) fn fill_rectangle;
        /// Draws a rectangle outline.
        24 DrawRectangle { id: WindowId, gc: GcId, x: i32, y: i32, w: u32, h: u32 } => DrawRectangle(id) fn draw_rectangle;
        /// Draws a line.
        25 DrawLine { id: WindowId, gc: GcId, x0: i32, y0: i32, x1: i32, y1: i32 } => DrawLine(id) fn draw_line;
        /// Draws a string, baseline at `(x, y)`.
        26 DrawString { id: WindowId, gc: GcId, x: i32, y: i32, text: String as &str } => DrawString(id) fn draw_string;
        /// Clears an area to the window background (0 size = whole window).
        27 ClearArea { id: WindowId, x: i32, y: i32, w: u32, h: u32 } => ClearArea(id) fn clear_area;
        /// Installs a clip-rectangle list on a window: subsequent drawing
        /// rasterizes only inside the union of the rects. An empty list means
        /// unclipped (X's "no clip mask"), so redraw code can send the same
        /// request stream whether or not it has damage to narrow to.
        28 SetClip { id: WindowId, rects: Vec<Rect> } => SetClip(id) fn set_clip;
        /// Removes the clip installed by [`Connection::set_clip`].
        29 ClearClip { id: WindowId } => ClearClip(id) fn clear_clip;
        /// Copies a region within one window (XCopyArea, same drawable as
        /// source and destination) — the scroll blit. Moved pixels are not
        /// re-rasterized and do not count toward `pixels_drawn`.
        30 CopyArea { id: WindowId, src_x: i32, src_y: i32, w: u32, h: u32, dst_x: i32, dst_y: i32 } => CopyArea(id) fn copy_area;
        /// Claims selection ownership.
        31 SetSelectionOwner { selection: Atom, owner: WindowId } => SetSelectionOwner(owner) fn set_selection_owner;
        /// Requests conversion of a selection into a property on `requestor`.
        32 ConvertSelection { requestor: WindowId, selection: Atom, target: Atom, property: Atom } => ConvertSelection(requestor) fn convert_selection;
        /// Replies to a SelectionRequest after storing the converted value.
        33 SendSelectionNotify { requestor: WindowId, selection: Atom, target: Atom, property: Atom } => SendEvent(requestor) fn send_selection_notify;
        /// Assigns the input focus.
        34 SetInputFocus { id: WindowId } => SetInputFocus(id) fn set_input_focus;
        /// Interns an atom.
        35 InternAtom { [seq] name: String as &str } => InternAtom() fn intern_atom / send_intern_atom -> Atom;
        /// Allocates an RGB color.
        36 AllocColor { [seq] rgb: Rgb } => AllocColor() fn alloc_color / send_alloc_color -> Pixel;
        /// Allocates a named color, returning pixel and RGB.
        37 AllocNamedColor { [seq] name: String as &str } => AllocColor() fn alloc_named_color / send_alloc_named_color -> Option<(Pixel, Rgb)>;
        /// Reads a property.
        38 GetProperty { [seq] id: WindowId, atom: Atom } => GetProperty(id) fn get_property / send_get_property -> Option<String>;
        /// Queries geometry.
        39 GetGeometry { [seq] id: WindowId } => GetGeometry(id) fn get_geometry / send_get_geometry -> Option<Geometry>;
        /// Gets an atom's name.
        40 GetAtomName { [seq] atom: Atom } => GetAtomName() fn atom_name / send_atom_name -> Option<String>;
        /// Queries parent and children.
        41 QueryTree { [seq] id: WindowId } => QueryTree(id) fn query_tree / send_query_tree -> Option<(WindowId, Vec<WindowId>)>;
        /// Is the window viewable?
        42 IsViewable { [seq] id: WindowId } => GetWindowAttributes(id) fn is_viewable / send_is_viewable -> bool;
        /// Looks up the RGB stored in a pixel.
        43 QueryColor { [seq] pixel: Pixel } => QueryColor() fn query_color / send_query_color -> Rgb;
        /// Opens a font.
        44 OpenFont { [seq] name: String as &str } => OpenFont() fn open_font / send_open_font -> Option<FontId>;
        /// Queries font metrics.
        45 QueryFont { [seq] font: FontId } => QueryFont() fn font_metrics / send_font_metrics -> Option<FontMetrics>;
        /// Creates a cursor from the cursor font.
        46 CreateCursor { [seq] name: String as &str } => CreateCursor() fn create_cursor / send_create_cursor -> Option<CursorId>;
        /// Dimensions of an uploaded bitmap.
        47 QueryBitmap { [seq] id: BitmapId } => QueryBitmap() fn bitmap_size / send_bitmap_size -> Option<(u32, u32)>;
        /// Queries the selection owner.
        48 GetSelectionOwner { [seq] selection: Atom } => GetSelectionOwner() fn get_selection_owner / send_get_selection_owner -> WindowId;
        /// Queries the input focus.
        49 GetInputFocus { [seq] } => GetInputFocus() fn get_input_focus / send_get_input_focus -> WindowId;
        /// Reads AND deletes a property in one request — X's
        /// `XGetWindowProperty` with `delete=True`. Atomic at the server, so
        /// a concurrent append from another client can never land between
        /// the read and the delete and be destroyed unread.
        50 TakeProperty { [seq] id: WindowId, atom: Atom } => GetProperty(id) fn take_property / send_take_property -> Option<String>;
    }
}

message_table! { replies
    /// Server -> client: the reply to a reply-bearing request, filed
    /// under its sequence number until the client takes it. Public only
    /// because the [`FromReply`] conversion trait needs it in its
    /// signature; not part of the supported API surface.
    #[doc(hidden)]
    #[derive(Debug, Clone)]
    pub enum ReplyValue {
        1 Atom(Atom),
        2 Pixel(Pixel),
        3 NamedColor(Option<(Pixel, Rgb)>),
        4 OptString(Option<String>),
        5 Geometry(Option<Geometry>),
        /// An injected X error traveled back instead of a reply: a wait
        /// returns it as its `Err`, so no cookie type converts from it.
        6 Error(XError) error,
        7 Tree(Option<(WindowId, Vec<WindowId>)>),
        8 Bool(bool),
        9 Rgb(Rgb),
        10 OptXid(Option<Xid>),
        11 Metrics(Option<FontMetrics>),
        12 Size(Option<(u32, u32)>),
        13 Window(WindowId),
    }
}

// Server -> client.
message_table! { events Event {
    1 Expose { window, x, y, width, height, count },
    2 ConfigureNotify { window, x, y, width, height, border_width },
    3 MapNotify { window },
    4 UnmapNotify { window },
    5 DestroyNotify { window },
    6 EnterNotify { window, x, y, state, time },
    7 LeaveNotify { window, x, y, state, time },
    8 MotionNotify { window, x, y, x_root, y_root, state, time },
    9 ButtonPress { window, button, x, y, x_root, y_root, state, time },
    10 ButtonRelease { window, button, x, y, x_root, y_root, state, time },
    11 KeyPress { window, keysym, x, y, state, time },
    12 KeyRelease { window, keysym, x, y, state, time },
    13 PropertyNotify { window, atom, deleted, time },
    14 SelectionClear { window, selection, time },
    15 SelectionRequest { owner, requestor, selection, target, property, time },
    16 SelectionNotify { requestor, selection, target, property, time },
    17 FocusIn { window },
    18 FocusOut { window },
}}

// ----- the transport -----

/// Virtual duration of one `StallDispatch` tick, in milliseconds.
const STALL_TICK_MS: u64 = 10;

/// Default watchdog deadline (`Display::set_wire_deadline` changes it).
pub const DEFAULT_WIRE_DEADLINE_MS: u64 = 5000;

/// Most events one read-ahead refill takes from the server queue, so
/// draining a burst costs one refill per batch (Xlib's `XPending` /
/// `XNextEvent` read-ahead) and no batch outgrows [`MAX_BUFFERED`].
pub const EVENT_BATCH: usize = 256;

/// The flush a read of events that finds the read-ahead empty, or an
/// observation of the display, starts with: every client's buffer
/// applies, in client-id order, then each quota-deferred remainder gets
/// one more chunk. That drain rate is what the fleet budgets
/// (`backpressure_stalls`, send-latency percentiles) pin.
fn flush_buffers(s: &mut Server) {
    s.flush_all();
    s.flush_all();
}

/// One client's byte stream as the transport tracks it, kept in the
/// connection's server-side client state.
#[derive(Debug, Default)]
pub(crate) struct Stream {
    /// Frames encoded so far: the timeline byte faults key on
    /// (`FaultSpec::at` for a byte action is a 1-based index into it).
    /// Counted identically whether or not a plan is installed.
    pub(crate) frames: u64,
    /// Dispatch stall, in [`STALL_TICK_MS`] ticks of virtual time, armed
    /// by `StallDispatch` faults and charged to the next flush the client
    /// starts.
    pub(crate) stalls: u32,
}

/// Everything behind the transport mutex: the server (which holds every
/// client's output buffer and byte stream) and the transport's buffers.
pub(crate) struct State {
    pub(crate) server: Server,
    /// Codec on (the default): requests, replies and events cross as
    /// frame bytes. Off (`RTK_NO_WIRE=1`): they cross as typed values,
    /// the oracle the wire-equivalence suite compares against.
    pub(crate) codec: bool,
    /// Watchdog deadline in ms: a flush whose virtual stall reaches it
    /// never applies, and the client gets a clean dead connection
    /// instead.
    pub(crate) deadline_ms: u64,
    /// The reused outgoing buffer each request frame is encoded into,
    /// and byte faults damage, before it is buffered.
    tx: Vec<u8>,
    /// The reused inbound buffer: each reply and event the server sends
    /// a client is encoded into it and decoded from it.
    rx: Vec<u8>,
}

/// The one transport between the Xlib-shaped calling surface and the
/// server: the server behind a mutex that every client thread shares,
/// with the codec on or off. A [`Display`](crate::Display) is a handle
/// to one, so cloning the `Display` into other threads is how several
/// `TkApp`s, each on its own thread, share one server.
#[derive(Clone)]
pub(crate) struct Transport {
    state: Arc<Mutex<State>>,
}

impl Transport {
    /// Starts a fresh server, the codec on or off.
    pub(crate) fn new(codec: bool) -> Transport {
        Transport {
            state: Arc::new(Mutex::new(State {
                server: Server::new(),
                codec,
                deadline_ms: DEFAULT_WIRE_DEADLINE_MS,
                tx: Vec::new(),
                rx: Vec::new(),
            })),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("transport lock poisoned by a panic on another thread")
    }

    /// Flushes every client's buffer and drains deferred work — the
    /// "user observes the display" path — then runs `f`.
    pub(crate) fn observe<R>(&self, f: impl FnOnce(&mut Server) -> R) -> R {
        let mut st = self.lock();
        flush_buffers(&mut st.server);
        st.server.drain_all();
        f(&mut st.server)
    }
}

impl State {
    /// Issues one buffered request, one-way or pipelined: buffers it —
    /// encoded, and exposed to byte faults, with the codec on — records
    /// the issue-time accounting, and flushes at a flush point.
    pub(crate) fn issue(&mut self, client: ClientId, window: WindowId, seq: u64, q: QueuedRequest) {
        let start = self.server.trace_start(client);
        if self.codec {
            self.tx.clear();
            frame_into(&mut self.tx, FT_REQUEST, seq, |b| q.encode_into(b));
            self.send_tx(client);
        }
        let (kind, reply) = (q.kind(), q.expects_reply());
        let frame = self.codec.then_some(&self.tx[..]);
        let full = self.server.buffer(client, seq, q, frame);
        self.server
            .note_issue(client, kind, reply, window, seq, start);
        if full {
            self.flush(client);
        }
    }

    /// `Connection::flush`: applies `client`'s output buffer (Xlib's
    /// `XFlush`), unless an armed stall trips the watchdog first.
    pub(crate) fn flush(&mut self, client: ClientId) {
        if !self.stall_trips(client) {
            self.server.flush_client(client);
        }
    }

    /// `Connection::wait`: reads the reply filed under `seq`, as x11rb's
    /// `reply()` does. One filed by an earlier flush is read at once;
    /// otherwise the wait flushes first ([`Server::flush_for_reply`],
    /// after the stall check every flush makes). With the codec on the
    /// reply crosses as an `FT_REPLY` frame, encoded into the inbound
    /// buffer and decoded from it. `None` means the connection is dead:
    /// it died before the wait or during its flush.
    pub(crate) fn read_reply(&mut self, client: ClientId, seq: u64) -> Option<ReplyValue> {
        let reply = match self.server.take_reply(client, seq) {
            Some(reply) => reply,
            None => {
                if self.stall_trips(client) {
                    return None;
                }
                self.server.flush_for_reply(client);
                self.server.take_reply(client, seq)?
            }
        };
        if !self.codec {
            return Some(reply);
        }
        self.rx.clear();
        let n = frame_into(&mut self.rx, FT_REPLY, seq, |b| reply.encode_into(b));
        self.server.note_wire_encode(client, n);
        let mut fr = FrameReader::from_buffer(std::mem::take(&mut self.rx));
        let mut read = None;
        if let Ok(Some(f)) = fr.next_frame() {
            self.server.note_wire_decode(client, f.wire_len());
            read = ReplyValue::decode(&f).ok();
        }
        self.rx = fr.into_buffer();
        read
    }

    /// `Connection::poll_event`: the next event from `client`'s
    /// read-ahead. An empty read-ahead is refilled as Xlib's is, with no
    /// request to the server: the output buffers flush, then up to
    /// [`EVENT_BATCH`] queued events move across. With the codec on each
    /// crosses as an `FT_EVENT` frame, encoded into the inbound buffer
    /// and decoded from it; an empty queue ships nothing.
    pub(crate) fn poll_event(&mut self, client: ClientId) -> Option<Event> {
        if let Some(ev) = self.server.read_ahead(client)?.pop_front() {
            return Some(ev);
        }
        flush_buffers(&mut self.server);
        self.rx.clear();
        for _ in 0..EVENT_BATCH {
            let Some(ev) = self.server.poll_event(client) else {
                break;
            };
            if self.codec {
                let n = frame_into(&mut self.rx, FT_EVENT, 0, |b| ev.encode_into(b));
                self.server.note_wire_encode(client, n);
            } else {
                self.server.read_ahead(client)?.push_back(ev);
            }
        }
        let mut fr = FrameReader::from_buffer(std::mem::take(&mut self.rx));
        while let Ok(Some(f)) = fr.next_frame() {
            self.server.note_wire_decode(client, f.wire_len());
            if let (Ok(ev), Some(q)) = (Event::decode(&f), self.server.read_ahead(client)) {
                q.push_back(ev);
            }
        }
        self.rx = fr.into_buffer();
        self.server.read_ahead(client)?.pop_front()
    }

    /// `Connection::pending`: the events not yet taken, counted after
    /// the same flush as [`State::poll_event`] when the read-ahead is
    /// empty. Nothing crosses the wire.
    pub(crate) fn pending(&mut self, client: ClientId) -> usize {
        if self.server.read_ahead(client).map_or(0, |q| q.len()) == 0 {
            flush_buffers(&mut self.server);
        }
        self.server.pending(client)
    }

    /// Charges the stall `StallDispatch` faults armed on `client`'s
    /// stream to the flush it starts (an explicit or buffer-full flush,
    /// or the one a wait for an unfiled reply starts). The stall runs on
    /// a virtual clock: one that reaches the deadline trips the watchdog
    /// — the connection is torn down, the flush never applies, and the
    /// client sees `ConnectionDead`, never a hang. A shorter stall costs
    /// nothing. Returns whether the watchdog tripped.
    fn stall_trips(&mut self, client: ClientId) -> bool {
        let Some(stream) = self.server.stream(client) else {
            return false;
        };
        let stall = std::mem::take(&mut stream.stalls);
        let trips = u64::from(stall) * STALL_TICK_MS >= self.deadline_ms;
        if trips {
            self.server
                .kill_broken_stream(client, |w| &mut w.watchdog_fires);
        }
        trips
    }

    /// Sends the request frame just encoded into `tx` onto `client`'s
    /// byte stream: fires any byte fault scheduled for the client's next
    /// encoded frame and applies it to `tx` in place (a `StallDispatch`
    /// is armed for the client's next flush), then counts the frame. The
    /// frame counter advances on every encoded frame, plan or no plan, so
    /// a fault's timeline index is independent of the plan's own
    /// contents.
    fn send_tx(&mut self, client: ClientId) {
        let Some(stream) = self.server.stream(client) else {
            return;
        };
        stream.frames += 1;
        let idx = stream.frames;
        let bytes = &mut self.tx;
        match self.server.fire_byte_fault(client, idx) {
            Some(FaultAction::CorruptByte { offset, xor }) if !bytes.is_empty() => {
                let off = offset as usize % bytes.len();
                bytes[off] ^= xor;
            }
            Some(FaultAction::TruncateFrame { keep }) => {
                bytes.truncate(keep as usize % bytes.len().max(1));
            }
            Some(FaultAction::InjectGarbage { bytes: n }) => {
                // Seed-derived line noise, deterministic per (client, idx).
                let mut r = crate::rng::XorShift::new(
                    (u64::from(client.0) << 32 | idx) ^ 0x6A_5B_4C_3D_2E_1F,
                );
                bytes.extend((0..n).map(|_| r.below(256) as u8));
            }
            Some(FaultAction::StallDispatch { ticks }) => {
                if let Some(stream) = self.server.stream(client) {
                    stream.stalls += ticks;
                }
            }
            // A SplitWrite lands as two writes to the same stream, which
            // are byte-identical once buffered: the invariant it exists
            // to witness.
            _ => {}
        }
        self.server.note_wire_encode(client, self.tx.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::rng::XorShift;
    use crate::Display;

    fn rxid(r: &mut XorShift) -> Xid {
        Xid(r.below(1 << 20) as u32)
    }
    fn ratom(r: &mut XorShift) -> Atom {
        Atom(r.below(1 << 16) as u32)
    }
    fn rpixel(r: &mut XorShift) -> Pixel {
        Pixel(r.below(1 << 24) as u32)
    }
    fn ri32(r: &mut XorShift) -> i32 {
        r.next_u64() as i32
    }
    fn ru32(r: &mut XorShift) -> u32 {
        r.below(1 << 30) as u32
    }
    fn rstr(r: &mut XorShift) -> String {
        let n = r.below(24) as usize;
        (0..n)
            .map(|_| char::from_u32(r.range(0x20, 0x24FF) as u32).unwrap_or('x'))
            .collect()
    }
    fn rrgb(r: &mut XorShift) -> Rgb {
        Rgb::new(r.below(256) as u8, r.below(256) as u8, r.below(256) as u8)
    }
    fn rgcv(r: &mut XorShift) -> GcValues {
        GcValues {
            foreground: rpixel(r),
            background: rpixel(r),
            line_width: r.below(8) as u32,
            font: rxid(r),
        }
    }
    fn rbitmap(r: &mut XorShift) -> Bitmap {
        let w = r.range(1, 9) as u32;
        let h = r.range(1, 9) as u32;
        let bits = (0..(w * h) as usize).map(|_| r.below(2) == 1).collect();
        Bitmap::new(w, h, bits).unwrap()
    }
    fn rkeysym(r: &mut XorShift) -> Keysym {
        if r.below(2) == 0 {
            Keysym::from_char(char::from_u32(r.range(0x21, 0x7E) as u32).unwrap())
        } else {
            Keysym::named("Escape")
        }
    }
    fn ropt_i32(r: &mut XorShift) -> Option<i32> {
        (r.below(2) == 1).then(|| ri32(r))
    }
    fn ropt_u32(r: &mut XorShift) -> Option<u32> {
        (r.below(2) == 1).then(|| ru32(r))
    }

    /// A random request of the given opcode (1..=50).
    fn rand_request(op: u16, r: &mut XorShift, seq: u64) -> QueuedRequest {
        use QueuedRequest as Q;
        match op {
            1 => Q::CreateWindow {
                id: rxid(r),
                parent: rxid(r),
                x: ri32(r),
                y: ri32(r),
                width: ru32(r),
                height: ru32(r),
                border_width: ru32(r),
            },
            2 => Q::DestroyWindow { id: rxid(r) },
            3 => Q::MapWindow { id: rxid(r) },
            4 => Q::UnmapWindow { id: rxid(r) },
            5 => Q::ConfigureWindow {
                id: rxid(r),
                x: ropt_i32(r),
                y: ropt_i32(r),
                width: ropt_u32(r),
                height: ropt_u32(r),
                border_width: ropt_u32(r),
            },
            6 => Q::RaiseWindow { id: rxid(r) },
            7 => Q::ReparentWindow {
                id: rxid(r),
                new_parent: rxid(r),
                x: ri32(r),
                y: ri32(r),
            },
            8 => Q::SelectInput {
                id: rxid(r),
                event_mask: ru32(r),
            },
            9 => Q::SetWindowBackground {
                id: rxid(r),
                pixel: rpixel(r),
            },
            10 => Q::SetWindowBorder {
                id: rxid(r),
                pixel: rpixel(r),
            },
            11 => Q::SetOverrideRedirect {
                id: rxid(r),
                on: r.below(2) == 1,
            },
            12 => Q::DefineCursor {
                id: rxid(r),
                cursor: rxid(r),
            },
            13 => Q::ChangeProperty {
                id: rxid(r),
                atom: ratom(r),
                value: rstr(r),
            },
            14 => Q::AppendProperty {
                id: rxid(r),
                atom: ratom(r),
                value: rstr(r),
            },
            15 => Q::DeleteProperty {
                id: rxid(r),
                atom: ratom(r),
            },
            16 => Q::FreeColor { pixel: rpixel(r) },
            17 => Q::CreateBitmap {
                id: rxid(r),
                bitmap: rbitmap(r),
            },
            18 => Q::FreeBitmap { id: rxid(r) },
            19 => Q::CopyBitmap {
                id: rxid(r),
                gc: rxid(r),
                x: ri32(r),
                y: ri32(r),
                bitmap: rxid(r),
            },
            20 => Q::CreateGc {
                id: rxid(r),
                values: rgcv(r),
            },
            21 => Q::ChangeGc {
                gc: rxid(r),
                values: rgcv(r),
            },
            22 => Q::FreeGc { gc: rxid(r) },
            23 => Q::FillRectangle {
                id: rxid(r),
                gc: rxid(r),
                x: ri32(r),
                y: ri32(r),
                w: ru32(r),
                h: ru32(r),
            },
            24 => Q::DrawRectangle {
                id: rxid(r),
                gc: rxid(r),
                x: ri32(r),
                y: ri32(r),
                w: ru32(r),
                h: ru32(r),
            },
            25 => Q::DrawLine {
                id: rxid(r),
                gc: rxid(r),
                x0: ri32(r),
                y0: ri32(r),
                x1: ri32(r),
                y1: ri32(r),
            },
            26 => Q::DrawString {
                id: rxid(r),
                gc: rxid(r),
                x: ri32(r),
                y: ri32(r),
                text: rstr(r),
            },
            27 => Q::ClearArea {
                id: rxid(r),
                x: ri32(r),
                y: ri32(r),
                w: ru32(r),
                h: ru32(r),
            },
            28 => Q::SetClip {
                id: rxid(r),
                rects: (0..r.below(5) as usize)
                    .map(|_| Rect::new(ri32(r), ri32(r), ru32(r), ru32(r)))
                    .collect(),
            },
            29 => Q::ClearClip { id: rxid(r) },
            30 => Q::CopyArea {
                id: rxid(r),
                src_x: ri32(r),
                src_y: ri32(r),
                w: ru32(r),
                h: ru32(r),
                dst_x: ri32(r),
                dst_y: ri32(r),
            },
            31 => Q::SetSelectionOwner {
                selection: ratom(r),
                owner: rxid(r),
            },
            32 => Q::ConvertSelection {
                requestor: rxid(r),
                selection: ratom(r),
                target: ratom(r),
                property: ratom(r),
            },
            33 => Q::SendSelectionNotify {
                requestor: rxid(r),
                selection: ratom(r),
                target: ratom(r),
                property: ratom(r),
            },
            34 => Q::SetInputFocus { id: rxid(r) },
            35 => Q::InternAtom { seq, name: rstr(r) },
            36 => Q::AllocColor { seq, rgb: rrgb(r) },
            37 => Q::AllocNamedColor { seq, name: rstr(r) },
            38 => Q::GetProperty {
                seq,
                id: rxid(r),
                atom: ratom(r),
            },
            39 => Q::GetGeometry { seq, id: rxid(r) },
            40 => Q::GetAtomName {
                seq,
                atom: ratom(r),
            },
            41 => Q::QueryTree { seq, id: rxid(r) },
            42 => Q::IsViewable { seq, id: rxid(r) },
            43 => Q::QueryColor {
                seq,
                pixel: rpixel(r),
            },
            44 => Q::OpenFont { seq, name: rstr(r) },
            45 => Q::QueryFont { seq, font: rxid(r) },
            46 => Q::CreateCursor { seq, name: rstr(r) },
            47 => Q::QueryBitmap { seq, id: rxid(r) },
            48 => Q::GetSelectionOwner {
                seq,
                selection: ratom(r),
            },
            49 => Q::GetInputFocus { seq },
            50 => Q::TakeProperty {
                seq,
                id: rxid(r),
                atom: ratom(r),
            },
            _ => unreachable!(),
        }
    }

    fn rand_error(r: &mut XorShift) -> XError {
        let code = match r.below(5) {
            0 => XErrorCode::BadWindow,
            1 => XErrorCode::BadAtom,
            2 => XErrorCode::BadValue,
            3 => XErrorCode::BadAlloc,
            _ => XErrorCode::ConnectionDead,
        };
        let kind = (r.below(2) == 1)
            .then(|| RequestKind::ALL[r.below(RequestKind::ALL.len() as u64) as usize]);
        XError {
            code,
            seq: r.next_u64(),
            kind,
        }
    }

    fn rand_reply_value(op: u16, r: &mut XorShift) -> ReplyValue {
        use ReplyValue as V;
        let some = r.below(2) == 1;
        match op {
            1 => V::Atom(ratom(r)),
            2 => V::Pixel(rpixel(r)),
            3 => V::NamedColor(some.then(|| (rpixel(r), rrgb(r)))),
            4 => V::OptString(some.then(|| rstr(r))),
            5 => V::Geometry(some.then(|| (ri32(r), ri32(r), ru32(r), ru32(r), ru32(r)))),
            6 => V::Error(rand_error(r)),
            7 => V::Tree(
                some.then(|| (rxid(r), (0..r.below(6) as usize).map(|_| rxid(r)).collect())),
            ),
            8 => V::Bool(some),
            9 => V::Rgb(rrgb(r)),
            10 => V::OptXid(some.then(|| rxid(r))),
            11 => V::Metrics(some.then(|| FontMetrics {
                char_width: ru32(r),
                ascent: ru32(r),
                descent: ru32(r),
            })),
            12 => V::Size(some.then(|| (ru32(r), ru32(r)))),
            13 => V::Window(rxid(r)),
            _ => unreachable!(),
        }
    }

    fn rand_event(op: u16, r: &mut XorShift) -> Event {
        use Event as E;
        match op {
            1 => E::Expose {
                window: rxid(r),
                x: ri32(r),
                y: ri32(r),
                width: ru32(r),
                height: ru32(r),
                count: r.below(8) as u32,
            },
            2 => E::ConfigureNotify {
                window: rxid(r),
                x: ri32(r),
                y: ri32(r),
                width: ru32(r),
                height: ru32(r),
                border_width: ru32(r),
            },
            3 => E::MapNotify { window: rxid(r) },
            4 => E::UnmapNotify { window: rxid(r) },
            5 => E::DestroyNotify { window: rxid(r) },
            6 => E::EnterNotify {
                window: rxid(r),
                x: ri32(r),
                y: ri32(r),
                state: ru32(r),
                time: r.next_u64(),
            },
            7 => E::LeaveNotify {
                window: rxid(r),
                x: ri32(r),
                y: ri32(r),
                state: ru32(r),
                time: r.next_u64(),
            },
            8 => E::MotionNotify {
                window: rxid(r),
                x: ri32(r),
                y: ri32(r),
                x_root: ri32(r),
                y_root: ri32(r),
                state: ru32(r),
                time: r.next_u64(),
            },
            9 => E::ButtonPress {
                window: rxid(r),
                button: r.below(5) as u8,
                x: ri32(r),
                y: ri32(r),
                x_root: ri32(r),
                y_root: ri32(r),
                state: ru32(r),
                time: r.next_u64(),
            },
            10 => E::ButtonRelease {
                window: rxid(r),
                button: r.below(5) as u8,
                x: ri32(r),
                y: ri32(r),
                x_root: ri32(r),
                y_root: ri32(r),
                state: ru32(r),
                time: r.next_u64(),
            },
            11 => E::KeyPress {
                window: rxid(r),
                keysym: rkeysym(r),
                x: ri32(r),
                y: ri32(r),
                state: ru32(r),
                time: r.next_u64(),
            },
            12 => E::KeyRelease {
                window: rxid(r),
                keysym: rkeysym(r),
                x: ri32(r),
                y: ri32(r),
                state: ru32(r),
                time: r.next_u64(),
            },
            13 => E::PropertyNotify {
                window: rxid(r),
                atom: ratom(r),
                deleted: r.below(2) == 1,
                time: r.next_u64(),
            },
            14 => E::SelectionClear {
                window: rxid(r),
                selection: ratom(r),
                time: r.next_u64(),
            },
            15 => E::SelectionRequest {
                owner: rxid(r),
                requestor: rxid(r),
                selection: ratom(r),
                target: ratom(r),
                property: ratom(r),
                time: r.next_u64(),
            },
            16 => E::SelectionNotify {
                requestor: rxid(r),
                selection: ratom(r),
                target: ratom(r),
                property: ratom(r),
                time: r.next_u64(),
            },
            17 => E::FocusIn { window: rxid(r) },
            18 => E::FocusOut { window: rxid(r) },
            _ => unreachable!(),
        }
    }

    /// Encodes one frame: length prefix, versioned header with CRC32 of
    /// header fields + payload, payload.
    fn frame(frame_type: u8, opcode: u16, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        frame_into(&mut b, frame_type, seq, |b| {
            b.extend_from_slice(payload);
            opcode
        });
        b
    }

    /// A message encoded on its own, into `(opcode, payload)`.
    trait Encode {
        fn encode(&self) -> (u16, Vec<u8>);
    }

    impl<M: Message> Encode for M {
        fn encode(&self) -> (u16, Vec<u8>) {
            let mut b = Vec::new();
            let op = self.encode_into(&mut b);
            (op, b)
        }
    }

    /// Encodes through a frame, reads it back via a FrameReader, and
    /// hands the frame to `check`.
    fn frame_round_trip<R>(
        ft: u8,
        op: u16,
        seq: u64,
        payload: &[u8],
        check: impl FnOnce(RawFrame<'_>) -> R,
    ) -> R {
        let bytes = frame(ft, op, seq, payload);
        let mut fr = FrameReader::default();
        fr.push(&bytes).unwrap();
        let f = fr.next_frame().unwrap().unwrap();
        assert_eq!(f.wire_len(), bytes.len());
        let r = check(f);
        assert!(fr.next_frame().unwrap().is_none(), "exactly one frame");
        r
    }

    /// Frames `m` under `seq`, reads it back, and checks both the opcode
    /// the table assigned and the decoded value.
    fn assert_round_trips<M: Message + std::fmt::Debug>(ft: u8, op: u16, seq: u64, m: &M) {
        let (enc_op, payload) = m.encode();
        assert_eq!(enc_op, op, "opcode table mismatch for {m:?}");
        let back = frame_round_trip(ft, enc_op, seq, &payload, |f| M::decode(&f).unwrap());
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
    }

    /// A request of a random opcode from the table, and its frame.
    fn rand_request_frame(r: &mut XorShift, seq: u64) -> (QueuedRequest, Vec<u8>) {
        let ops = QueuedRequest::OPCODES;
        let q = rand_request(ops[r.below(ops.len() as u64) as usize], r, seq);
        let (op, payload) = q.encode();
        let bytes = frame(FT_REQUEST, op, seq, &payload);
        (q, bytes)
    }

    /// A request frame as the reader hands it over.
    fn raw(opcode: u16, payload: &[u8]) -> RawFrame<'_> {
        RawFrame {
            frame_type: FT_REQUEST,
            opcode,
            seq: 1,
            payload,
        }
    }

    #[test]
    fn every_request_kind_round_trips() {
        let mut r = XorShift::new(0x517e_5eed);
        for &op in QueuedRequest::OPCODES {
            for _ in 0..25 {
                let seq = r.next_u64();
                let q = rand_request(op, &mut r, seq);
                assert_round_trips(FT_REQUEST, op, seq, &q);
            }
        }
    }

    #[test]
    fn every_reply_value_event_and_error_round_trips() {
        let mut r = XorShift::new(0xeeee);
        for &op in ReplyValue::OPCODES {
            for _ in 0..25 {
                assert_round_trips(FT_REPLY, op, 7, &rand_reply_value(op, &mut r));
            }
        }
        for &op in Event::OPCODES {
            for _ in 0..25 {
                assert_round_trips(FT_EVENT, op, 0, &rand_event(op, &mut r));
            }
        }
    }

    /// The wire format, frozen: one CRC32 over the frames of seeded random
    /// messages covering every opcode of every message type. Any change to an opcode, a field order or a field encoding
    /// moves the digest. The hand-written generators above are the
    /// independent statement of which variant each opcode carries.
    #[test]
    fn wire_format_digest_is_frozen() {
        let mut r = XorShift::new(0xD16E_5700);
        let mut crc = CRC32_INIT;
        let mut feed = |ft: u8, (op, payload): (u16, Vec<u8>), seq: u64| {
            crc = crc32_update(crc, &frame(ft, op, seq, &payload));
        };
        for &op in QueuedRequest::OPCODES {
            for seq in 0..8 {
                feed(FT_REQUEST, rand_request(op, &mut r, seq).encode(), seq);
            }
        }
        for &op in ReplyValue::OPCODES {
            for seq in 0..8 {
                feed(FT_REPLY, rand_reply_value(op, &mut r).encode(), seq);
            }
        }
        for &op in Event::OPCODES {
            for _ in 0..8 {
                feed(FT_EVENT, rand_event(op, &mut r).encode(), 0);
            }
        }
        assert_eq!(crc ^ 0xFFFF_FFFF, 0x84E2_F8F6, "wire format changed");
    }

    #[test]
    fn truncated_frames_wait_instead_of_erroring() {
        let q = QueuedRequest::DrawString {
            id: Xid(3),
            gc: Xid(4),
            x: -2,
            y: 9,
            text: "variable length".into(),
        };
        let (op, payload) = q.encode();
        let bytes = frame(FT_REQUEST, op, 9, &payload);
        for cut in 0..bytes.len() {
            let mut fr = FrameReader::default();
            fr.push(&bytes[..cut]).unwrap();
            assert_eq!(fr.next_frame().unwrap(), None, "cut at {cut}");
            // Feeding the remainder completes the frame.
            fr.push(&bytes[cut..]).unwrap();
            let f = fr.next_frame().unwrap().unwrap();
            assert_eq!(
                format!("{:?}", QueuedRequest::decode(&f).unwrap()),
                format!("{q:?}")
            );
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_with_clean_errors() {
        // Bad version (checked before the CRC so a version-negotiation
        // mismatch is reported as such, not as corruption).
        let mut bytes = frame(FT_REQUEST, 3, 1, &[7, 0, 0, 0]);
        bytes[4] = 99;
        let mut fr = FrameReader::default();
        fr.push(&bytes).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::BadVersion(99)));

        // A flipped frame-type byte is caught by the CRC, which covers
        // the whole header: checksum, not a misparse.
        let mut bytes = frame(FT_REQUEST, 3, 1, &[7, 0, 0, 0]);
        bytes[5] = 200;
        let mut fr = FrameReader::default();
        fr.push(&bytes).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::Checksum));

        // A genuinely bad frame type behind a valid CRC (a buggy or
        // hostile encoder, not line noise).
        let mut bytes = frame(FT_REQUEST, 3, 1, &[7, 0, 0, 0]);
        bytes[5] = 200;
        let crc = frame_crc(&bytes[4..4 + CRC_OFFSET], &bytes[4 + HEADER_LEN..]);
        bytes[4 + CRC_OFFSET..4 + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        let mut fr = FrameReader::default();
        fr.push(&bytes).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::BadFrameType(200)));

        // Length shorter than the header: no valid encoder emits it, so
        // it is byte damage by definition.
        let mut fr = FrameReader::default();
        fr.push(&3u32.to_le_bytes()).unwrap();
        fr.push(&[0; 16]).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::Checksum));

        // Oversized length prefix: rejected before any allocation.
        let mut fr = FrameReader::default();
        fr.push(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        assert_eq!(
            fr.next_frame(),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );

        // Unknown opcode inside a well-formed frame.
        assert_eq!(
            QueuedRequest::decode(&raw(999, &[])).err(),
            Some(WireError::BadOpcode(999))
        );
        assert!(matches!(
            ReplyValue::decode(&raw(99, &[])),
            Err(WireError::BadOpcode(99))
        ));
        assert!(matches!(
            Event::decode(&raw(99, &[])),
            Err(WireError::BadOpcode(99))
        ));

        // Short payload, trailing bytes, and bad tags all map to Malformed.
        let (op, payload) = QueuedRequest::MapWindow { id: Xid(5) }.encode();
        assert!(matches!(
            QueuedRequest::decode(&raw(op, &payload[..2])),
            Err(WireError::Malformed(_))
        ));
        let mut trailing = payload;
        trailing.push(0);
        assert_eq!(
            QueuedRequest::decode(&raw(op, &trailing)).err(),
            Some(WireError::Malformed("trailing bytes"))
        );
        assert!(matches!(
            ReplyValue::decode(&raw(6, &[77, 0, 0, 0, 0, 0, 0, 0, 0, 0])),
            Err(WireError::Malformed(_))
        ));
        // A corrupt bool/Option tag.
        let (op, mut payload) = QueuedRequest::SetOverrideRedirect {
            id: Xid(5),
            on: true,
        }
        .encode();
        *payload.last_mut().unwrap() = 9;
        assert!(matches!(
            QueuedRequest::decode(&raw(op, &payload)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn split_read_reassembly_across_arbitrary_chunks() {
        let mut r = XorShift::new(0x4242);
        // Build a stream of random frames of every opcode.
        let mut stream = Vec::new();
        let mut originals = Vec::new();
        for i in 0..200u64 {
            let (q, bytes) = rand_request_frame(&mut r, i);
            stream.extend_from_slice(&bytes);
            originals.push(q);
        }
        // Feed it in random-size chunks; every frame must come back, in
        // order, regardless of where the chunk boundaries fall.
        let mut fr = FrameReader::default();
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let n = (r.range(1, 37) as usize).min(stream.len() - pos);
            fr.push(&stream[pos..pos + n]).unwrap();
            pos += n;
            while let Some(f) = fr.next_frame().unwrap() {
                decoded.push(QueuedRequest::decode(&f).unwrap());
            }
        }
        assert_eq!(decoded.len(), originals.len());
        for (a, b) in originals.iter().zip(decoded.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn oversized_bitmap_is_rejected_not_allocated() {
        // Claim a gigantic bitmap inside a tiny payload: the decoder must
        // bail out on the dimension check, not try to allocate.
        let bitmap = Bitmap::new(1, 1, vec![true]).unwrap();
        let (op, mut payload) = QueuedRequest::CreateBitmap { id: Xid(5), bitmap }.encode();
        payload.truncate(4); // id
        (1u32 << 16).put(&mut payload); // width
        (1u32 << 16).put(&mut payload); // height
        assert!(matches!(
            QueuedRequest::decode(&raw(op, &payload)),
            Err(WireError::Malformed(_))
        ));
    }

    /// Property: flipping ANY single byte of a v2 frame is detected.
    /// The decode either fails structurally (`BadVersion` on the version
    /// byte, `Oversized`/`Checksum` on the length prefix) or fails the
    /// CRC — it must never hand back a frame. The only non-error outcome
    /// allowed is a length prefix corrupted *upward*, which reads as an
    /// incomplete frame (`Ok(None)`) and starves rather than misparses.
    #[test]
    fn any_single_byte_corruption_is_detected() {
        let mut r = XorShift::new(0xC4C_5EED);
        let mut cases = 0usize;
        for i in 0..60u64 {
            let (_, clean) = rand_request_frame(&mut r, i);
            for offset in 0..clean.len() {
                let xor = 1 + r.below(255) as u8;
                let mut bytes = clean.clone();
                bytes[offset] ^= xor;
                let mut fr = FrameReader::default();
                fr.push(&bytes).unwrap();
                match fr.next_frame() {
                    Err(WireError::Checksum)
                    | Err(WireError::BadVersion(_))
                    | Err(WireError::Oversized(_))
                    | Err(WireError::BadFrameType(_)) => {}
                    Ok(None) => assert!(
                        offset < 4,
                        "only an inflated length prefix may starve \
                         (offset {offset}, xor {xor:#04x})"
                    ),
                    other => panic!(
                        "corruption at offset {offset} xor {xor:#04x} \
                         survived decode: {other:?}"
                    ),
                }
                cases += 1;
            }
        }
        assert!(cases >= 500, "property must cover >=500 cases, ran {cases}");
    }

    /// Property: splitting the byte stream at EVERY boundary yields the
    /// same frames as a whole-buffer decode — write boundaries are
    /// invisible to the reader (the invariant `SplitWrite` leans on).
    #[test]
    fn split_at_every_boundary_matches_whole_buffer_decode() {
        let mut r = XorShift::new(0x5117);
        let mut stream = Vec::new();
        for i in 0..5u64 {
            stream.extend_from_slice(&rand_request_frame(&mut r, i).1);
        }
        let decode_all = |chunks: &[&[u8]]| -> Vec<(u16, u64, Vec<u8>)> {
            let mut fr = FrameReader::default();
            let mut out = Vec::new();
            for c in chunks {
                fr.push(c).unwrap();
                while let Some(f) = fr.next_frame().unwrap() {
                    out.push((f.opcode, f.seq, f.payload.to_vec()));
                }
            }
            out
        };
        let whole = decode_all(&[&stream]);
        assert!(whole.len() == 5);
        for cut in 0..=stream.len() {
            let split = decode_all(&[&stream[..cut], &stream[cut..]]);
            assert_eq!(split, whole, "split at {cut} diverged");
        }
    }

    /// The reassembly buffer is bounded: a 1 GiB-claiming length prefix
    /// is rejected structurally before any allocation, and a garbage
    /// flood that never completes a frame is refused once it would grow
    /// the buffer past `MAX_BUFFERED`.
    #[test]
    fn push_is_bounded_against_hostile_prefixes_and_floods() {
        // 1 GiB length claim: Oversized, no buffering of the payload.
        let mut fr = FrameReader::default();
        fr.push(&(1u32 << 30).to_le_bytes()).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::Oversized(1 << 30)));

        // Garbage flood under a maximal (but legal) length prefix: the
        // reader buffers up to the bound, then refuses further growth.
        let mut fr = FrameReader::default();
        fr.push(&MAX_FRAME_LEN.to_le_bytes()).unwrap();
        let chunk = vec![0xAB_u8; 64 * 1024];
        let mut rejected = false;
        for _ in 0..((MAX_BUFFERED / chunk.len()) + 2) {
            match fr.push(&chunk) {
                Ok(()) => assert!(fr.pending() <= MAX_BUFFERED),
                Err(WireError::Oversized(claim)) => {
                    assert!(claim as usize > MAX_BUFFERED);
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected push error: {e:?}"),
            }
        }
        assert!(rejected, "flood was never refused");
        assert!(fr.pending() <= MAX_BUFFERED);
    }

    /// The CRC table and update function match the reference IEEE 802.3
    /// CRC-32 check value ("123456789" -> 0xCBF43926).
    #[test]
    fn crc32_matches_reference_check_value() {
        let crc = crc32_update(CRC32_INIT, b"123456789") ^ 0xFFFF_FFFF;
        assert_eq!(crc, 0xCBF4_3926);
    }

    /// The bytewise reference the slicing-by-8 update must match.
    fn crc32_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = CRC32_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_crc() {
        let mut r = XorShift::new(0x51_1CE8);
        let bytes: Vec<u8> = (0..72).map(|_| r.below(256) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let chunk = &bytes[start..start + len];
                for init in [CRC32_INIT, r.next_u64() as u32] {
                    assert_eq!(
                        crc32_update(init, chunk),
                        crc32_bytewise(init, chunk),
                        "start {start}, len {len}, init {init:#x}"
                    );
                }
            }
        }
    }

    /// Every frame is counted once on each side: a drain of 40 queued
    /// events (one refill of 40 frames, then an empty read that ships
    /// nothing) leaves the client's encoded and decoded tallies equal.
    #[test]
    fn every_response_frame_is_counted_on_both_sides() {
        let d = Display::new();
        d.set_wire(true);
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 100, 40, 0).unwrap();
        c.select_input(w, crate::event::mask::POINTER_MOTION);
        c.map_window(w);
        d.with_server(|s| (0..40).for_each(|x| s.warp_pointer(x, 20)));
        assert_eq!(std::iter::from_fn(|| c.poll_event()).count(), 40);
        let wire = c.wire_stats();
        // 3 requests and 40 events.
        assert_eq!(wire.frames_encoded, 3 + 40);
        assert_eq!(wire.frames_encoded, wire.frames_decoded);
        assert_eq!(wire.bytes_encoded, wire.bytes_decoded);
    }

    /// Reading is no message to the server, as in Xlib: events with none
    /// queued are a flush and a look at the client's own queue, and a
    /// reply already filed is read with no flush at all. Only a request
    /// moves the client's frame timeline, so a blocking call ships one
    /// frame.
    #[test]
    fn an_empty_read_ships_no_frame() {
        let d = Display::new();
        d.set_wire(true);
        let c = d.connect();
        let w = c.create_window(c.root(), 0, 0, 100, 40, 0).unwrap();
        c.map_window(w);
        c.flush();
        let (frames, timeline) = (c.wire_stats().frames_encoded, c.wire_frame_timeline());
        assert_eq!(c.poll_event(), None);
        assert_eq!(c.pending(), 0);
        assert_eq!(c.wire_stats().frames_encoded, frames);
        assert_eq!(c.wire_frame_timeline(), timeline);
        c.intern_atom("ONE").unwrap();
        assert_eq!(c.wire_frame_timeline(), timeline + 1);
        let (first, second) = (c.send_intern_atom("TWO"), c.send_intern_atom("THREE"));
        c.wait(second).unwrap();
        let (flushes, timeline) = (c.stats().flushes, c.wire_frame_timeline());
        c.wait(first).unwrap();
        assert_eq!(c.stats().flushes, flushes);
        assert_eq!(c.wire_frame_timeline(), timeline);
    }

    /// Deadline the stall tests run under: 10 ticks of virtual time.
    const STALL_DEADLINE_MS: u64 = 100;

    /// A fixed client script with the codec on: three one-way request
    /// frames (create, select input, map; frame indices 1-3), four
    /// reply-bearing ones (indices 4-7), then a read of each reply; the
    /// first read finds its reply unfiled and flushes. Returns each
    /// reply's frame bytes, empty where no reply came.
    fn stall_script(plan: FaultPlan) -> (Display, Connection, Vec<Vec<u8>>) {
        let d = Display::new();
        d.set_wire(true);
        d.set_wire_deadline(STALL_DEADLINE_MS);
        let c = d.connect();
        d.peek_server(|s| s.install_fault_plan(plan));
        let win = c.create_window(c.root(), 0, 0, 40, 20, 0).unwrap();
        c.select_input(win, crate::event::mask::EXPOSURE);
        c.map_window(win);
        let seqs = [
            c.send_intern_atom("WM_NAME").sequence(),
            c.send_query_tree(win).sequence(),
            c.send_get_input_focus().sequence(),
            c.send_get_geometry(win).sequence(),
        ];
        let resps = seqs
            .iter()
            .map(|&seq| {
                let mut bytes = Vec::new();
                if let Some(v) = d.transport.lock().read_reply(c.client_id(), seq) {
                    frame_into(&mut bytes, FT_REPLY, seq, |b| v.encode_into(b));
                }
                bytes
            })
            .collect();
        (d, c, resps)
    }

    /// A plan that stalls dispatch by `ticks` from the map frame (index
    /// 3); the stall is charged to the flush the first read starts.
    fn stall_plan(client: ClientId, ticks: u32) -> FaultPlan {
        FaultPlan::new(vec![FaultSpec {
            client: client.0,
            at: 3,
            action: FaultAction::StallDispatch { ticks },
        }])
    }

    fn watchdog_fires(d: &Display, c: ClientId) -> u64 {
        d.peek_server(|s| s.client_obs(c).map_or(0, |o| o.wire.watchdog_fires))
    }

    #[test]
    fn stall_below_the_deadline_costs_nothing() {
        let (_, c, clean) = stall_script(FaultPlan::default());
        let c = c.client_id();
        let ticks = (STALL_DEADLINE_MS / STALL_TICK_MS) as u32 - 1;
        let (d, c2, stalled) = stall_script(stall_plan(c, ticks));
        assert_eq!(c, c2.client_id());
        assert!(clean.iter().all(|r| !r.is_empty()), "{clean:?}");
        assert_eq!(stalled, clean, "a short stall must not change a reply byte");
        assert_eq!(watchdog_fires(&d, c), 0);
        let fired = d.peek_server(|s| s.fault_plan().unwrap().fired_log().len());
        assert_eq!(fired, 1, "the stall fault itself fired");
        assert!(d.peek_server(|s| s.is_alive(c)));
    }

    #[test]
    fn stall_at_the_deadline_trips_the_watchdog() {
        let (_, conn, _) = stall_script(FaultPlan::default());
        let c = conn.client_id();
        let ticks = (STALL_DEADLINE_MS / STALL_TICK_MS) as u32;
        let (d, conn, resps) = stall_script(stall_plan(c, ticks));
        assert_eq!(c, conn.client_id());
        assert!(resps[0].is_empty(), "the stalled wait is never answered");
        assert_eq!(watchdog_fires(&d, c), 1);
        assert!(!d.peek_server(|s| s.is_alive(c)));
        let err = conn.intern_atom("WM_NAME").unwrap_err();
        assert_eq!(err.code, XErrorCode::ConnectionDead);
        assert_eq!(watchdog_fires(&d, c), 1, "only the stalled wait trips it");
    }

    /// A request frame a byte fault truncates to nothing leaves no trace
    /// a frame check can see, but the flush that should carry it decodes
    /// one frame fewer than the client buffered requests: the connection
    /// dies there and `wire.lost_frames` ticks, for a one-way request
    /// (which would otherwise vanish on a live connection) and for a
    /// reply-bearing one (whose wait would otherwise find no reply on a
    /// live connection).
    #[test]
    fn a_frame_lost_whole_kills_the_connection_at_its_flush() {
        for reply in [false, true] {
            let d = Display::new();
            d.set_wire(true);
            let c = d.connect();
            let action = FaultAction::TruncateFrame { keep: 0 };
            let client = c.client_id().0;
            let plan = FaultPlan::new(vec![FaultSpec {
                client,
                at: 1,
                action,
            }]);
            d.peek_server(|s| s.install_fault_plan(plan));
            if reply {
                assert_eq!(c.intern_atom("LOST"), Err(XError::dead(1)));
            } else {
                let w = c.create_window(c.root(), 0, 0, 10, 10, 0).unwrap();
                c.map_window(w);
                assert!(c.alive(), "nothing is checked before the flush");
                c.flush();
            }
            let wire = d.peek_server(|s| s.client_obs(c.client_id()).unwrap().wire);
            assert_eq!(wire.lost_frames, 1, "reply {reply}");
            assert_eq!(
                wire.checksum_errors + wire.watchdog_fires,
                0,
                "reply {reply}"
            );
            assert!(!c.alive(), "reply {reply}");
            assert_eq!(d.with_server(|s| s.audit()), Vec::<String>::new());
        }
    }

    #[test]
    fn a_watchdog_kill_leaves_a_clean_audit() {
        for ticks in [1, 10, 40] {
            let (_, c, _) = stall_script(FaultPlan::default());
            let (d, _, _) = stall_script(stall_plan(c.client_id(), ticks));
            let violations = d.with_server(|s| s.audit());
            assert!(violations.is_empty(), "ticks {ticks}: {violations:?}");
        }
    }
}
