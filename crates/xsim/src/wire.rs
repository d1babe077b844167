//! The framed wire protocol and the wire transport.
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
//! The transport half keeps the [`Server`] behind one mutex shared by
//! every client thread: clients encode request frames into per-client
//! byte buffers, and each small control frame (flush, sync, reply take,
//! event poll) is encoded, decoded and dispatched inline by the thread
//! that ships it, under the lock it already holds. The sequence number
//! in the frame header, not a thread, is the boundary between client and
//! server (the x11rb cookie model). Dispatch is synchronous, which is
//! what keeps counters, fault firings, and span shapes byte-identical to
//! the in-process transport: both transports bump the same issue-time
//! accounting under the same lock, and a flush applies the same decoded
//! batch through [`Server::apply_batch`]. See docs/PROTOCOL.md.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::atom::Atom;
use crate::bitmap::{Bitmap, BitmapId};
use crate::color::Rgb;
use crate::connection::{Transport, WaitReply};
use crate::damage::Rect;
use crate::event::{Event, Keysym};
use crate::fault::{FaultAction, XError, XErrorCode};
use crate::font::FontMetrics;
use crate::gc::GcValues;
use crate::ids::{ClientId, Pixel, WindowId, Xid};
use crate::obs::RequestKind;
use crate::server::{QueuedRequest, ReplyValue, Server, SyncReply, SyncRequest, OUT_BUF_CAPACITY};

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

/// CRC32 (IEEE, reflected, polynomial 0xEDB88320) lookup table, built at
/// compile time — the same function zlib and PNG use, hand-rolled so the
/// wire layer stays zero-dependency.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Feeds `bytes` into a running CRC32 state (init [`CRC32_INIT`],
/// finalize by XOR with `0xFFFF_FFFF`).
fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC32_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
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

// Frame types. Requests flow client -> server; replies, events, and
// errors flow back; FLUSH/SYNC/TAKE/POLL/PENDING are transport control.
pub const FT_REQUEST: u8 = 1;
pub const FT_SYNC: u8 = 2;
pub const FT_SYNC_REPLY: u8 = 3;
pub const FT_COOKIE_REPLY: u8 = 4;
pub const FT_NO_REPLY: u8 = 5;
pub const FT_EVENT: u8 = 6;
pub const FT_NO_EVENT: u8 = 7;
pub const FT_ERROR: u8 = 8;
pub const FT_TAKE_REPLY: u8 = 9;
pub const FT_POLL_EVENT: u8 = 10;
pub const FT_PENDING: u8 = 11;
pub const FT_PENDING_COUNT: u8 = 12;
pub const FT_FLUSH_CLIENT: u8 = 13;
pub const FT_FLUSH_ALL: u8 = 14;

/// A decode failure. Every malformed input maps to a structured error —
/// the decoder never panics and never reads out of bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (only surfaced by explicit EOF
    /// checks; [`FrameReader::next_frame`] returns `Ok(None)` and waits).
    Truncated,
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
            WireError::Truncated => write!(f, "truncated frame"),
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

// ----- primitive writers (little-endian throughout) -----

fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_i32(b: &mut Vec<u8>, v: i32) {
    put_u32(b, v as u32);
}
fn put_bool(b: &mut Vec<u8>, v: bool) {
    b.push(v as u8);
}
fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}
fn put_opt_i32(b: &mut Vec<u8>, v: Option<i32>) {
    match v {
        None => b.push(0),
        Some(x) => {
            b.push(1);
            put_i32(b, x);
        }
    }
}
fn put_opt_u32(b: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => b.push(0),
        Some(x) => {
            b.push(1);
            put_u32(b, x);
        }
    }
}
fn put_gc(b: &mut Vec<u8>, g: &GcValues) {
    put_u32(b, g.foreground.0);
    put_u32(b, g.background.0);
    put_u32(b, g.line_width);
    put_u32(b, g.font.0);
}
fn put_rect(b: &mut Vec<u8>, r: &Rect) {
    put_i32(b, r.x);
    put_i32(b, r.y);
    put_u32(b, r.w);
    put_u32(b, r.h);
}
fn put_rects(b: &mut Vec<u8>, rects: &[Rect]) {
    put_u32(b, rects.len() as u32);
    for r in rects {
        put_rect(b, r);
    }
}
fn put_bitmap(b: &mut Vec<u8>, bm: &Bitmap) {
    put_u32(b, bm.width);
    put_u32(b, bm.height);
    for y in 0..bm.height {
        for x in 0..bm.width {
            b.push(bm.get(x, y) as u8);
        }
    }
}
fn put_keysym(b: &mut Vec<u8>, k: &Keysym) {
    put_str(b, &k.name);
    match k.ch {
        None => b.push(0),
        Some(c) => {
            b.push(1);
            put_u32(b, c as u32);
        }
    }
}
fn put_error(b: &mut Vec<u8>, e: &XError) {
    let code = match e.code {
        XErrorCode::BadWindow => 1u8,
        XErrorCode::BadAtom => 2,
        XErrorCode::BadValue => 3,
        XErrorCode::BadAlloc => 4,
        XErrorCode::ConnectionDead => 5,
    };
    b.push(code);
    put_u64(b, e.seq);
    match e.kind {
        None => b.push(0),
        Some(k) => {
            b.push(1);
            put_u16(b, k as u16);
        }
    }
}

// ----- bounds-checked payload reader -----

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.b.len() - self.pos < n {
            return Err(WireError::Malformed("short payload"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(self.u32()? as i32)
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bad bool")),
        }
    }
    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::Malformed("invalid utf-8"))
    }
    fn ch(&mut self) -> Result<char, WireError> {
        char::from_u32(self.u32()?).ok_or(WireError::Malformed("bad char"))
    }
    fn opt_i32(&mut self) -> Result<Option<i32>, WireError> {
        match self.bool()? {
            false => Ok(None),
            true => Ok(Some(self.i32()?)),
        }
    }
    fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        match self.bool()? {
            false => Ok(None),
            true => Ok(Some(self.u32()?)),
        }
    }
    fn xid(&mut self) -> Result<Xid, WireError> {
        Ok(Xid(self.u32()?))
    }
    fn atom(&mut self) -> Result<Atom, WireError> {
        Ok(Atom(self.u32()?))
    }
    fn pixel(&mut self) -> Result<Pixel, WireError> {
        Ok(Pixel(self.u32()?))
    }
    fn rgb(&mut self) -> Result<Rgb, WireError> {
        let s = self.take(3)?;
        Ok(Rgb::new(s[0], s[1], s[2]))
    }
    fn gc(&mut self) -> Result<GcValues, WireError> {
        Ok(GcValues {
            foreground: self.pixel()?,
            background: self.pixel()?,
            line_width: self.u32()?,
            font: self.xid()?,
        })
    }
    fn rect(&mut self) -> Result<Rect, WireError> {
        Ok(Rect::new(
            self.i32()?,
            self.i32()?,
            self.u32()?,
            self.u32()?,
        ))
    }
    fn rects(&mut self) -> Result<Vec<Rect>, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(16) > self.b.len() - self.pos {
            return Err(WireError::Malformed("rect count exceeds payload"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.rect()?);
        }
        Ok(v)
    }
    fn bitmap(&mut self) -> Result<Bitmap, WireError> {
        let w = self.u32()?;
        let h = self.u32()?;
        let n = (w as u64).saturating_mul(h as u64);
        if n > MAX_FRAME_LEN as u64 {
            return Err(WireError::Malformed("bitmap too large"));
        }
        let raw = self.take(n as usize)?;
        let mut bits = Vec::with_capacity(n as usize);
        for &byte in raw {
            match byte {
                0 => bits.push(false),
                1 => bits.push(true),
                _ => return Err(WireError::Malformed("bad bitmap bit")),
            }
        }
        Bitmap::new(w, h, bits).ok_or(WireError::Malformed("bitmap size mismatch"))
    }
    fn keysym(&mut self) -> Result<Keysym, WireError> {
        let name = self.string()?;
        let ch = match self.bool()? {
            false => None,
            true => Some(self.ch()?),
        };
        Ok(Keysym { name, ch })
    }
    fn error(&mut self) -> Result<XError, WireError> {
        let code = match self.u8()? {
            1 => XErrorCode::BadWindow,
            2 => XErrorCode::BadAtom,
            3 => XErrorCode::BadValue,
            4 => XErrorCode::BadAlloc,
            5 => XErrorCode::ConnectionDead,
            _ => return Err(WireError::Malformed("bad error code")),
        };
        let seq = self.u64()?;
        let kind = match self.bool()? {
            false => None,
            true => {
                let i = self.u16()? as usize;
                Some(
                    *RequestKind::ALL
                        .get(i)
                        .ok_or(WireError::Malformed("bad request kind"))?,
                )
            }
        };
        Ok(XError { code, seq, kind })
    }

    /// Asserts the payload was consumed exactly.
    fn done(self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

// ----- frames -----

/// One decoded frame: header fields plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    pub frame_type: u8,
    pub opcode: u16,
    pub seq: u64,
    pub payload: Vec<u8>,
}

impl RawFrame {
    /// Total encoded size including the length prefix.
    pub fn wire_len(&self) -> usize {
        4 + HEADER_LEN + self.payload.len()
    }
}

/// Encodes one frame: length prefix, versioned header with CRC32 of
/// header fields + payload, payload.
pub fn frame(frame_type: u8, opcode: u16, seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = (HEADER_LEN + payload.len()) as u32;
    debug_assert!(len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    let mut b = Vec::with_capacity(4 + len as usize);
    put_u32(&mut b, len);
    b.push(WIRE_VERSION);
    b.push(frame_type);
    put_u16(&mut b, opcode);
    put_u64(&mut b, seq);
    let crc = frame_crc(&b[4..4 + CRC_OFFSET], payload);
    put_u32(&mut b, crc);
    b.extend_from_slice(payload);
    b
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
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

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

    /// Unconsumed bytes sitting in the reassembly buffer — nonzero after
    /// a drain means a partial (or corrupt) frame is still pending.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, WireError> {
        let avail = self.buf.len() - self.pos;
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
        if !(FT_REQUEST..=FT_FLUSH_ALL).contains(&frame_type) {
            return Err(WireError::BadFrameType(frame_type));
        }
        let opcode = u16::from_le_bytes(self.buf[start + 2..start + 4].try_into().unwrap());
        let seq = u64::from_le_bytes(self.buf[start + 4..start + 12].try_into().unwrap());
        let payload = self.buf[start + HEADER_LEN..start + len as usize].to_vec();
        self.pos = start + len as usize;
        Ok(Some(RawFrame {
            frame_type,
            opcode,
            seq,
            payload,
        }))
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

// ----- request codec -----
//
// Opcodes follow `QueuedRequest` declaration order, 1-based. The
// reply-bearing variants (35..=39) do not serialize their embedded
// sequence number; it is reconstructed from the frame header.

/// Encodes a buffered request into `(opcode, payload)`.
pub(crate) fn encode_request(q: &QueuedRequest) -> (u16, Vec<u8>) {
    use QueuedRequest as Q;
    let mut b = Vec::new();
    let op = match q {
        Q::CreateWindow {
            id,
            parent,
            x,
            y,
            width,
            height,
            border_width,
        } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, parent.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *width);
            put_u32(&mut b, *height);
            put_u32(&mut b, *border_width);
            1
        }
        Q::DestroyWindow { id } => {
            put_u32(&mut b, id.0);
            2
        }
        Q::MapWindow { id } => {
            put_u32(&mut b, id.0);
            3
        }
        Q::UnmapWindow { id } => {
            put_u32(&mut b, id.0);
            4
        }
        Q::ConfigureWindow {
            id,
            x,
            y,
            width,
            height,
            border_width,
        } => {
            put_u32(&mut b, id.0);
            put_opt_i32(&mut b, *x);
            put_opt_i32(&mut b, *y);
            put_opt_u32(&mut b, *width);
            put_opt_u32(&mut b, *height);
            put_opt_u32(&mut b, *border_width);
            5
        }
        Q::RaiseWindow { id } => {
            put_u32(&mut b, id.0);
            6
        }
        Q::ReparentWindow {
            id,
            new_parent,
            x,
            y,
        } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, new_parent.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            7
        }
        Q::SelectInput { id, event_mask } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, *event_mask);
            8
        }
        Q::SetWindowBackground { id, pixel } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, pixel.0);
            9
        }
        Q::SetWindowBorder { id, pixel } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, pixel.0);
            10
        }
        Q::SetOverrideRedirect { id, on } => {
            put_u32(&mut b, id.0);
            put_bool(&mut b, *on);
            11
        }
        Q::DefineCursor { id, cursor } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, cursor.0);
            12
        }
        Q::ChangeProperty { id, atom, value } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, atom.0);
            put_str(&mut b, value);
            13
        }
        Q::AppendProperty { id, atom, value } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, atom.0);
            put_str(&mut b, value);
            14
        }
        Q::DeleteProperty { id, atom } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, atom.0);
            15
        }
        Q::FreeColor { pixel } => {
            put_u32(&mut b, pixel.0);
            16
        }
        Q::CreateBitmap { id, bitmap } => {
            put_u32(&mut b, id.0);
            put_bitmap(&mut b, bitmap);
            17
        }
        Q::FreeBitmap { id } => {
            put_u32(&mut b, id.0);
            18
        }
        Q::CopyBitmap {
            id,
            gc,
            x,
            y,
            bitmap,
        } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, gc.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, bitmap.0);
            19
        }
        Q::CreateGc { id, values } => {
            put_u32(&mut b, id.0);
            put_gc(&mut b, values);
            20
        }
        Q::ChangeGc { gc, values } => {
            put_u32(&mut b, gc.0);
            put_gc(&mut b, values);
            21
        }
        Q::FreeGc { gc } => {
            put_u32(&mut b, gc.0);
            22
        }
        Q::FillRectangle { id, gc, x, y, w, h } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, gc.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *w);
            put_u32(&mut b, *h);
            23
        }
        Q::DrawRectangle { id, gc, x, y, w, h } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, gc.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *w);
            put_u32(&mut b, *h);
            24
        }
        Q::DrawLine {
            id,
            gc,
            x0,
            y0,
            x1,
            y1,
        } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, gc.0);
            put_i32(&mut b, *x0);
            put_i32(&mut b, *y0);
            put_i32(&mut b, *x1);
            put_i32(&mut b, *y1);
            25
        }
        Q::DrawString { id, gc, x, y, text } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, gc.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_str(&mut b, text);
            26
        }
        Q::ClearArea { id, x, y, w, h } => {
            put_u32(&mut b, id.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *w);
            put_u32(&mut b, *h);
            27
        }
        Q::SetClip { id, rects } => {
            put_u32(&mut b, id.0);
            put_rects(&mut b, rects);
            28
        }
        Q::ClearClip { id } => {
            put_u32(&mut b, id.0);
            29
        }
        Q::CopyArea {
            id,
            src_x,
            src_y,
            w,
            h,
            dst_x,
            dst_y,
        } => {
            put_u32(&mut b, id.0);
            put_i32(&mut b, *src_x);
            put_i32(&mut b, *src_y);
            put_u32(&mut b, *w);
            put_u32(&mut b, *h);
            put_i32(&mut b, *dst_x);
            put_i32(&mut b, *dst_y);
            30
        }
        Q::SetSelectionOwner { selection, owner } => {
            put_u32(&mut b, selection.0);
            put_u32(&mut b, owner.0);
            31
        }
        Q::ConvertSelection {
            requestor,
            selection,
            target,
            property,
        } => {
            put_u32(&mut b, requestor.0);
            put_u32(&mut b, selection.0);
            put_u32(&mut b, target.0);
            put_u32(&mut b, property.0);
            32
        }
        Q::SendSelectionNotify {
            requestor,
            selection,
            target,
            property,
        } => {
            put_u32(&mut b, requestor.0);
            put_u32(&mut b, selection.0);
            put_u32(&mut b, target.0);
            put_u32(&mut b, property.0);
            33
        }
        Q::SetInputFocus { id } => {
            put_u32(&mut b, id.0);
            34
        }
        Q::InternAtom { seq: _, name } => {
            put_str(&mut b, name);
            35
        }
        Q::AllocColor { seq: _, rgb } => {
            b.push(rgb.r);
            b.push(rgb.g);
            b.push(rgb.b);
            36
        }
        Q::AllocNamedColor { seq: _, name } => {
            put_str(&mut b, name);
            37
        }
        Q::GetProperty { seq: _, id, atom } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, atom.0);
            38
        }
        Q::GetGeometry { seq: _, id } => {
            put_u32(&mut b, id.0);
            39
        }
    };
    (op, b)
}

/// Decodes a request frame payload; `seq` comes from the frame header.
pub(crate) fn decode_request(
    opcode: u16,
    seq: u64,
    payload: &[u8],
) -> Result<QueuedRequest, WireError> {
    use QueuedRequest as Q;
    let mut r = Rd::new(payload);
    let q = match opcode {
        1 => Q::CreateWindow {
            id: r.xid()?,
            parent: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            width: r.u32()?,
            height: r.u32()?,
            border_width: r.u32()?,
        },
        2 => Q::DestroyWindow { id: r.xid()? },
        3 => Q::MapWindow { id: r.xid()? },
        4 => Q::UnmapWindow { id: r.xid()? },
        5 => Q::ConfigureWindow {
            id: r.xid()?,
            x: r.opt_i32()?,
            y: r.opt_i32()?,
            width: r.opt_u32()?,
            height: r.opt_u32()?,
            border_width: r.opt_u32()?,
        },
        6 => Q::RaiseWindow { id: r.xid()? },
        7 => Q::ReparentWindow {
            id: r.xid()?,
            new_parent: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
        },
        8 => Q::SelectInput {
            id: r.xid()?,
            event_mask: r.u32()?,
        },
        9 => Q::SetWindowBackground {
            id: r.xid()?,
            pixel: r.pixel()?,
        },
        10 => Q::SetWindowBorder {
            id: r.xid()?,
            pixel: r.pixel()?,
        },
        11 => Q::SetOverrideRedirect {
            id: r.xid()?,
            on: r.bool()?,
        },
        12 => Q::DefineCursor {
            id: r.xid()?,
            cursor: r.xid()?,
        },
        13 => Q::ChangeProperty {
            id: r.xid()?,
            atom: r.atom()?,
            value: r.string()?,
        },
        14 => Q::AppendProperty {
            id: r.xid()?,
            atom: r.atom()?,
            value: r.string()?,
        },
        15 => Q::DeleteProperty {
            id: r.xid()?,
            atom: r.atom()?,
        },
        16 => Q::FreeColor { pixel: r.pixel()? },
        17 => Q::CreateBitmap {
            id: r.xid()?,
            bitmap: r.bitmap()?,
        },
        18 => Q::FreeBitmap { id: r.xid()? },
        19 => Q::CopyBitmap {
            id: r.xid()?,
            gc: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            bitmap: r.xid()?,
        },
        20 => Q::CreateGc {
            id: r.xid()?,
            values: r.gc()?,
        },
        21 => Q::ChangeGc {
            gc: r.xid()?,
            values: r.gc()?,
        },
        22 => Q::FreeGc { gc: r.xid()? },
        23 => Q::FillRectangle {
            id: r.xid()?,
            gc: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            w: r.u32()?,
            h: r.u32()?,
        },
        24 => Q::DrawRectangle {
            id: r.xid()?,
            gc: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            w: r.u32()?,
            h: r.u32()?,
        },
        25 => Q::DrawLine {
            id: r.xid()?,
            gc: r.xid()?,
            x0: r.i32()?,
            y0: r.i32()?,
            x1: r.i32()?,
            y1: r.i32()?,
        },
        26 => Q::DrawString {
            id: r.xid()?,
            gc: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            text: r.string()?,
        },
        27 => Q::ClearArea {
            id: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            w: r.u32()?,
            h: r.u32()?,
        },
        28 => Q::SetClip {
            id: r.xid()?,
            rects: r.rects()?,
        },
        29 => Q::ClearClip { id: r.xid()? },
        30 => Q::CopyArea {
            id: r.xid()?,
            src_x: r.i32()?,
            src_y: r.i32()?,
            w: r.u32()?,
            h: r.u32()?,
            dst_x: r.i32()?,
            dst_y: r.i32()?,
        },
        31 => Q::SetSelectionOwner {
            selection: r.atom()?,
            owner: r.xid()?,
        },
        32 => Q::ConvertSelection {
            requestor: r.xid()?,
            selection: r.atom()?,
            target: r.atom()?,
            property: r.atom()?,
        },
        33 => Q::SendSelectionNotify {
            requestor: r.xid()?,
            selection: r.atom()?,
            target: r.atom()?,
            property: r.atom()?,
        },
        34 => Q::SetInputFocus { id: r.xid()? },
        35 => Q::InternAtom {
            seq,
            name: r.string()?,
        },
        36 => Q::AllocColor { seq, rgb: r.rgb()? },
        37 => Q::AllocNamedColor {
            seq,
            name: r.string()?,
        },
        38 => Q::GetProperty {
            seq,
            id: r.xid()?,
            atom: r.atom()?,
        },
        39 => Q::GetGeometry { seq, id: r.xid()? },
        other => return Err(WireError::BadOpcode(other)),
    };
    r.done()?;
    Ok(q)
}

// ----- synchronous round-trip codec -----

/// Encodes a synchronous request into `(opcode, payload)`.
pub(crate) fn encode_sync_request(req: &SyncRequest) -> (u16, Vec<u8>) {
    use SyncRequest as S;
    let mut b = Vec::new();
    let op = match req {
        S::InternAtom { name } => {
            put_str(&mut b, name);
            1
        }
        S::GetAtomName { atom } => {
            put_u32(&mut b, atom.0);
            2
        }
        S::QueryTree { id } => {
            put_u32(&mut b, id.0);
            3
        }
        S::GetGeometry { id } => {
            put_u32(&mut b, id.0);
            4
        }
        S::IsViewable { id } => {
            put_u32(&mut b, id.0);
            5
        }
        S::GetProperty { id, atom } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, atom.0);
            6
        }
        S::AllocNamedColor { name } => {
            put_str(&mut b, name);
            7
        }
        S::AllocColor { rgb } => {
            b.push(rgb.r);
            b.push(rgb.g);
            b.push(rgb.b);
            8
        }
        S::QueryColor { pixel } => {
            put_u32(&mut b, pixel.0);
            9
        }
        S::OpenFont { name } => {
            put_str(&mut b, name);
            10
        }
        S::QueryFont { font } => {
            put_u32(&mut b, font.0);
            11
        }
        S::CreateCursor { name } => {
            put_str(&mut b, name);
            12
        }
        S::QueryBitmap { id } => {
            put_u32(&mut b, id.0);
            13
        }
        S::GetSelectionOwner { selection } => {
            put_u32(&mut b, selection.0);
            14
        }
        S::GetInputFocus => 15,
        S::TakeProperty { id, atom } => {
            put_u32(&mut b, id.0);
            put_u32(&mut b, atom.0);
            16
        }
    };
    (op, b)
}

pub(crate) fn decode_sync_request(opcode: u16, payload: &[u8]) -> Result<SyncRequest, WireError> {
    use SyncRequest as S;
    let mut r = Rd::new(payload);
    let req = match opcode {
        1 => S::InternAtom { name: r.string()? },
        2 => S::GetAtomName { atom: r.atom()? },
        3 => S::QueryTree { id: r.xid()? },
        4 => S::GetGeometry { id: r.xid()? },
        5 => S::IsViewable { id: r.xid()? },
        6 => S::GetProperty {
            id: r.xid()?,
            atom: r.atom()?,
        },
        7 => S::AllocNamedColor { name: r.string()? },
        8 => S::AllocColor { rgb: r.rgb()? },
        9 => S::QueryColor { pixel: r.pixel()? },
        10 => S::OpenFont { name: r.string()? },
        11 => S::QueryFont { font: r.xid()? },
        12 => S::CreateCursor { name: r.string()? },
        13 => S::QueryBitmap { id: r.xid()? },
        14 => S::GetSelectionOwner {
            selection: r.atom()?,
        },
        15 => S::GetInputFocus,
        16 => S::TakeProperty {
            id: r.xid()?,
            atom: r.atom()?,
        },
        other => return Err(WireError::BadOpcode(other)),
    };
    r.done()?;
    Ok(req)
}

/// Encodes a synchronous reply into `(opcode, payload)`.
pub(crate) fn encode_sync_reply(reply: &SyncReply) -> (u16, Vec<u8>) {
    use SyncReply as R;
    let mut b = Vec::new();
    let op = match reply {
        R::Atom(a) => {
            put_u32(&mut b, a.0);
            1
        }
        R::OptString(s) => {
            match s {
                None => b.push(0),
                Some(s) => {
                    b.push(1);
                    put_str(&mut b, s);
                }
            }
            2
        }
        R::Tree(t) => {
            match t {
                None => b.push(0),
                Some((parent, children)) => {
                    b.push(1);
                    put_u32(&mut b, parent.0);
                    put_u32(&mut b, children.len() as u32);
                    for c in children {
                        put_u32(&mut b, c.0);
                    }
                }
            }
            3
        }
        R::Geometry(g) => {
            match g {
                None => b.push(0),
                Some((x, y, w, h, bw)) => {
                    b.push(1);
                    put_i32(&mut b, *x);
                    put_i32(&mut b, *y);
                    put_u32(&mut b, *w);
                    put_u32(&mut b, *h);
                    put_u32(&mut b, *bw);
                }
            }
            4
        }
        R::Bool(v) => {
            put_bool(&mut b, *v);
            5
        }
        R::NamedColor(c) => {
            match c {
                None => b.push(0),
                Some((pixel, rgb)) => {
                    b.push(1);
                    put_u32(&mut b, pixel.0);
                    b.push(rgb.r);
                    b.push(rgb.g);
                    b.push(rgb.b);
                }
            }
            6
        }
        R::Pixel(p) => {
            put_u32(&mut b, p.0);
            7
        }
        R::Rgb(rgb) => {
            b.push(rgb.r);
            b.push(rgb.g);
            b.push(rgb.b);
            8
        }
        R::OptXid(x) => {
            match x {
                None => b.push(0),
                Some(x) => {
                    b.push(1);
                    put_u32(&mut b, x.0);
                }
            }
            9
        }
        R::Metrics(m) => {
            match m {
                None => b.push(0),
                Some(m) => {
                    b.push(1);
                    put_u32(&mut b, m.char_width);
                    put_u32(&mut b, m.ascent);
                    put_u32(&mut b, m.descent);
                }
            }
            10
        }
        R::Size(s) => {
            match s {
                None => b.push(0),
                Some((w, h)) => {
                    b.push(1);
                    put_u32(&mut b, *w);
                    put_u32(&mut b, *h);
                }
            }
            11
        }
        R::Window(w) => {
            put_u32(&mut b, w.0);
            12
        }
    };
    (op, b)
}

pub(crate) fn decode_sync_reply(opcode: u16, payload: &[u8]) -> Result<SyncReply, WireError> {
    use SyncReply as R;
    let mut r = Rd::new(payload);
    let reply = match opcode {
        1 => R::Atom(r.atom()?),
        2 => R::OptString(match r.bool()? {
            false => None,
            true => Some(r.string()?),
        }),
        3 => R::Tree(match r.bool()? {
            false => None,
            true => {
                let parent = r.xid()?;
                let n = r.u32()? as usize;
                if n.saturating_mul(4) > payload.len() {
                    return Err(WireError::Malformed("child count exceeds payload"));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(r.xid()?);
                }
                Some((parent, children))
            }
        }),
        4 => R::Geometry(match r.bool()? {
            false => None,
            true => Some((r.i32()?, r.i32()?, r.u32()?, r.u32()?, r.u32()?)),
        }),
        5 => R::Bool(r.bool()?),
        6 => R::NamedColor(match r.bool()? {
            false => None,
            true => Some((r.pixel()?, r.rgb()?)),
        }),
        7 => R::Pixel(r.pixel()?),
        8 => R::Rgb(r.rgb()?),
        9 => R::OptXid(match r.bool()? {
            false => None,
            true => Some(r.xid()?),
        }),
        10 => R::Metrics(match r.bool()? {
            false => None,
            true => Some(FontMetrics {
                char_width: r.u32()?,
                ascent: r.u32()?,
                descent: r.u32()?,
            }),
        }),
        11 => R::Size(match r.bool()? {
            false => None,
            true => Some((r.u32()?, r.u32()?)),
        }),
        12 => R::Window(r.xid()?),
        other => return Err(WireError::BadOpcode(other)),
    };
    r.done()?;
    Ok(reply)
}

// ----- pipelined reply codec -----

/// Encodes a collected pipelined reply into `(opcode, payload)`.
pub(crate) fn encode_reply_value(v: &ReplyValue) -> (u16, Vec<u8>) {
    use ReplyValue as V;
    let mut b = Vec::new();
    let op = match v {
        V::Atom(a) => {
            put_u32(&mut b, a.0);
            1
        }
        V::Pixel(p) => {
            put_u32(&mut b, p.0);
            2
        }
        V::NamedColor(c) => {
            match c {
                None => b.push(0),
                Some((pixel, rgb)) => {
                    b.push(1);
                    put_u32(&mut b, pixel.0);
                    b.push(rgb.r);
                    b.push(rgb.g);
                    b.push(rgb.b);
                }
            }
            3
        }
        V::Property(p) => {
            match p {
                None => b.push(0),
                Some(s) => {
                    b.push(1);
                    put_str(&mut b, s);
                }
            }
            4
        }
        V::Geometry(g) => {
            match g {
                None => b.push(0),
                Some((x, y, w, h, bw)) => {
                    b.push(1);
                    put_i32(&mut b, *x);
                    put_i32(&mut b, *y);
                    put_u32(&mut b, *w);
                    put_u32(&mut b, *h);
                    put_u32(&mut b, *bw);
                }
            }
            5
        }
        V::Error(e) => {
            put_error(&mut b, e);
            6
        }
    };
    (op, b)
}

pub(crate) fn decode_reply_value(opcode: u16, payload: &[u8]) -> Result<ReplyValue, WireError> {
    use ReplyValue as V;
    let mut r = Rd::new(payload);
    let v = match opcode {
        1 => V::Atom(r.atom()?),
        2 => V::Pixel(r.pixel()?),
        3 => V::NamedColor(match r.bool()? {
            false => None,
            true => Some((r.pixel()?, r.rgb()?)),
        }),
        4 => V::Property(match r.bool()? {
            false => None,
            true => Some(r.string()?),
        }),
        5 => V::Geometry(match r.bool()? {
            false => None,
            true => Some((r.i32()?, r.i32()?, r.u32()?, r.u32()?, r.u32()?)),
        }),
        6 => V::Error(r.error()?),
        other => return Err(WireError::BadOpcode(other)),
    };
    r.done()?;
    Ok(v)
}

// ----- event codec -----

/// Encodes an event into `(opcode, payload)`. Opcodes follow `Event`
/// declaration order, 1-based.
pub(crate) fn encode_event(ev: &Event) -> (u16, Vec<u8>) {
    use Event as E;
    let mut b = Vec::new();
    let op = match ev {
        E::Expose {
            window,
            x,
            y,
            width,
            height,
            count,
        } => {
            put_u32(&mut b, window.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *width);
            put_u32(&mut b, *height);
            put_u32(&mut b, *count);
            1
        }
        E::ConfigureNotify {
            window,
            x,
            y,
            width,
            height,
            border_width,
        } => {
            put_u32(&mut b, window.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *width);
            put_u32(&mut b, *height);
            put_u32(&mut b, *border_width);
            2
        }
        E::MapNotify { window } => {
            put_u32(&mut b, window.0);
            3
        }
        E::UnmapNotify { window } => {
            put_u32(&mut b, window.0);
            4
        }
        E::DestroyNotify { window } => {
            put_u32(&mut b, window.0);
            5
        }
        E::EnterNotify {
            window,
            x,
            y,
            state,
            time,
        } => {
            put_u32(&mut b, window.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *state);
            put_u64(&mut b, *time);
            6
        }
        E::LeaveNotify {
            window,
            x,
            y,
            state,
            time,
        } => {
            put_u32(&mut b, window.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *state);
            put_u64(&mut b, *time);
            7
        }
        E::MotionNotify {
            window,
            x,
            y,
            x_root,
            y_root,
            state,
            time,
        } => {
            put_u32(&mut b, window.0);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_i32(&mut b, *x_root);
            put_i32(&mut b, *y_root);
            put_u32(&mut b, *state);
            put_u64(&mut b, *time);
            8
        }
        E::ButtonPress {
            window,
            button,
            x,
            y,
            x_root,
            y_root,
            state,
            time,
        } => {
            put_u32(&mut b, window.0);
            b.push(*button);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_i32(&mut b, *x_root);
            put_i32(&mut b, *y_root);
            put_u32(&mut b, *state);
            put_u64(&mut b, *time);
            9
        }
        E::ButtonRelease {
            window,
            button,
            x,
            y,
            x_root,
            y_root,
            state,
            time,
        } => {
            put_u32(&mut b, window.0);
            b.push(*button);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_i32(&mut b, *x_root);
            put_i32(&mut b, *y_root);
            put_u32(&mut b, *state);
            put_u64(&mut b, *time);
            10
        }
        E::KeyPress {
            window,
            keysym,
            x,
            y,
            state,
            time,
        } => {
            put_u32(&mut b, window.0);
            put_keysym(&mut b, keysym);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *state);
            put_u64(&mut b, *time);
            11
        }
        E::KeyRelease {
            window,
            keysym,
            x,
            y,
            state,
            time,
        } => {
            put_u32(&mut b, window.0);
            put_keysym(&mut b, keysym);
            put_i32(&mut b, *x);
            put_i32(&mut b, *y);
            put_u32(&mut b, *state);
            put_u64(&mut b, *time);
            12
        }
        E::PropertyNotify {
            window,
            atom,
            deleted,
            time,
        } => {
            put_u32(&mut b, window.0);
            put_u32(&mut b, atom.0);
            put_bool(&mut b, *deleted);
            put_u64(&mut b, *time);
            13
        }
        E::SelectionClear {
            window,
            selection,
            time,
        } => {
            put_u32(&mut b, window.0);
            put_u32(&mut b, selection.0);
            put_u64(&mut b, *time);
            14
        }
        E::SelectionRequest {
            owner,
            requestor,
            selection,
            target,
            property,
            time,
        } => {
            put_u32(&mut b, owner.0);
            put_u32(&mut b, requestor.0);
            put_u32(&mut b, selection.0);
            put_u32(&mut b, target.0);
            put_u32(&mut b, property.0);
            put_u64(&mut b, *time);
            15
        }
        E::SelectionNotify {
            requestor,
            selection,
            target,
            property,
            time,
        } => {
            put_u32(&mut b, requestor.0);
            put_u32(&mut b, selection.0);
            put_u32(&mut b, target.0);
            put_u32(&mut b, property.0);
            put_u64(&mut b, *time);
            16
        }
        E::FocusIn { window } => {
            put_u32(&mut b, window.0);
            17
        }
        E::FocusOut { window } => {
            put_u32(&mut b, window.0);
            18
        }
    };
    (op, b)
}

pub(crate) fn decode_event(opcode: u16, payload: &[u8]) -> Result<Event, WireError> {
    use Event as E;
    let mut r = Rd::new(payload);
    let ev = match opcode {
        1 => E::Expose {
            window: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            width: r.u32()?,
            height: r.u32()?,
            count: r.u32()?,
        },
        2 => E::ConfigureNotify {
            window: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            width: r.u32()?,
            height: r.u32()?,
            border_width: r.u32()?,
        },
        3 => E::MapNotify { window: r.xid()? },
        4 => E::UnmapNotify { window: r.xid()? },
        5 => E::DestroyNotify { window: r.xid()? },
        6 => E::EnterNotify {
            window: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            state: r.u32()?,
            time: r.u64()?,
        },
        7 => E::LeaveNotify {
            window: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            state: r.u32()?,
            time: r.u64()?,
        },
        8 => E::MotionNotify {
            window: r.xid()?,
            x: r.i32()?,
            y: r.i32()?,
            x_root: r.i32()?,
            y_root: r.i32()?,
            state: r.u32()?,
            time: r.u64()?,
        },
        9 => E::ButtonPress {
            window: r.xid()?,
            button: r.u8()?,
            x: r.i32()?,
            y: r.i32()?,
            x_root: r.i32()?,
            y_root: r.i32()?,
            state: r.u32()?,
            time: r.u64()?,
        },
        10 => E::ButtonRelease {
            window: r.xid()?,
            button: r.u8()?,
            x: r.i32()?,
            y: r.i32()?,
            x_root: r.i32()?,
            y_root: r.i32()?,
            state: r.u32()?,
            time: r.u64()?,
        },
        11 => E::KeyPress {
            window: r.xid()?,
            keysym: r.keysym()?,
            x: r.i32()?,
            y: r.i32()?,
            state: r.u32()?,
            time: r.u64()?,
        },
        12 => E::KeyRelease {
            window: r.xid()?,
            keysym: r.keysym()?,
            x: r.i32()?,
            y: r.i32()?,
            state: r.u32()?,
            time: r.u64()?,
        },
        13 => E::PropertyNotify {
            window: r.xid()?,
            atom: r.atom()?,
            deleted: r.bool()?,
            time: r.u64()?,
        },
        14 => E::SelectionClear {
            window: r.xid()?,
            selection: r.atom()?,
            time: r.u64()?,
        },
        15 => E::SelectionRequest {
            owner: r.xid()?,
            requestor: r.xid()?,
            selection: r.atom()?,
            target: r.atom()?,
            property: r.atom()?,
            time: r.u64()?,
        },
        16 => E::SelectionNotify {
            requestor: r.xid()?,
            selection: r.atom()?,
            target: r.atom()?,
            property: r.atom()?,
            time: r.u64()?,
        },
        17 => E::FocusIn { window: r.xid()? },
        18 => E::FocusOut { window: r.xid()? },
        other => return Err(WireError::BadOpcode(other)),
    };
    r.done()?;
    Ok(ev)
}

/// Encodes an error frame body.
pub(crate) fn encode_error_payload(e: &XError) -> Vec<u8> {
    let mut b = Vec::new();
    put_error(&mut b, e);
    b
}

pub(crate) fn decode_error(payload: &[u8]) -> Result<XError, WireError> {
    let mut r = Rd::new(payload);
    let e = r.error()?;
    r.done()?;
    Ok(e)
}

// ----- the inline wire server -----

/// Virtual duration of one `StallDispatch` tick, in milliseconds.
const STALL_TICK_MS: u64 = 10;

/// Default sync-watchdog deadline (`Display::set_wire_deadline` changes it).
pub const DEFAULT_WIRE_DEADLINE_MS: u64 = 5000;

/// One client's encoded-but-unflushed request frames.
#[derive(Debug, Default)]
struct ClientBuf {
    bytes: Vec<u8>,
    frames: usize,
}

/// Everything behind the wire mutex: the server itself and the
/// per-client output buffers (BTreeMap so flush-all walks clients in id
/// order, the same order as [`Server::flush_all`]).
pub(crate) struct WireState {
    pub(crate) server: Server,
    bufs: BTreeMap<u32, ClientBuf>,
    /// Per-client count of encoded frames — the timeline byte faults key
    /// on (`FaultSpec::at` for a byte action is a 1-based index into this
    /// stream). Counted identically whether or not a plan is installed.
    frame_seq: HashMap<u32, u64>,
    /// Dispatch stalls, in [`STALL_TICK_MS`] ticks of virtual time, armed
    /// by `StallDispatch` faults and charged to the client's next control
    /// frame.
    pending_stalls: HashMap<u32, u32>,
    /// Sync-watchdog deadline in ms: a control frame whose virtual stall
    /// reaches it is never answered, and the client gets a clean dead
    /// connection instead.
    deadline_ms: u64,
}

/// The server's reaction to unrecoverable byte damage on `client`'s
/// stream: count it, kill the connection (X's response to a protocol
/// violation), and drop its wire-side buffer. Client id 0 is the
/// transport's own control channel, not a connection — never killed.
fn wire_corruption(st: &mut WireState, client: ClientId) {
    st.server.note_checksum_error(client);
    if client.0 != 0 {
        st.server.kill_client(client);
    }
    st.bufs.remove(&client.0);
}

/// Decodes and executes one shipped control message, returning the
/// response bytes for the client that sent it. Damage anywhere in the
/// message kills the connection and yields an empty response.
fn dispatch(st: &mut WireState, client: ClientId, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut fr = FrameReader::new();
    if fr.push(bytes).is_err() {
        wire_corruption(st, client);
        return Vec::new();
    }
    loop {
        let f = match fr.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(_) => {
                wire_corruption(st, client);
                return Vec::new();
            }
        };
        st.server.note_wire_decode(client, f.wire_len());
        let resp = match f.frame_type {
            FT_FLUSH_CLIENT => {
                flush_buffered(st, client.0);
                continue;
            }
            FT_FLUSH_ALL => {
                // The observation / batching-off path: decode everything
                // and drain quota-deferred remainders too, so the user
                // sees the effect of every request already issued.
                flush_all_buffered(st);
                st.server.drain_all();
                continue;
            }
            FT_SYNC => {
                flush_all_buffered(st);
                match decode_sync_request(f.opcode, &f.payload) {
                    Ok(req) => match st.server.execute_round_trip(client, &req) {
                        Ok(reply) => {
                            let (op, payload) = encode_sync_reply(&reply);
                            frame(FT_SYNC_REPLY, op, f.seq, &payload)
                        }
                        Err(e) => frame(FT_ERROR, 0, e.seq, &encode_error_payload(&e)),
                    },
                    Err(_) => {
                        let e = XError {
                            code: XErrorCode::BadValue,
                            seq: f.seq,
                            kind: None,
                        };
                        frame(FT_ERROR, 0, f.seq, &encode_error_payload(&e))
                    }
                }
            }
            FT_TAKE_REPLY => {
                if !st.server.has_reply(client, f.seq) {
                    flush_all_buffered(st);
                }
                match st.server.take_reply(client, f.seq) {
                    Some(v) => {
                        let (op, payload) = encode_reply_value(&v);
                        frame(FT_COOKIE_REPLY, op, f.seq, &payload)
                    }
                    None => {
                        let alive = st.server.is_alive(client);
                        frame(FT_NO_REPLY, 0, f.seq, &[alive as u8])
                    }
                }
            }
            FT_POLL_EVENT => {
                flush_all_buffered(st);
                match st.server.poll_event(client) {
                    Some(ev) => {
                        let (op, payload) = encode_event(&ev);
                        frame(FT_EVENT, op, 0, &payload)
                    }
                    None => frame(FT_NO_EVENT, 0, 0, &[]),
                }
            }
            FT_PENDING => {
                flush_all_buffered(st);
                let n = st.server.pending(client);
                frame(FT_PENDING_COUNT, 0, n as u64, &[])
            }
            _ => continue, // data frames never arrive as control messages
        };
        st.server.note_wire_encode(client, resp.len());
        out.extend_from_slice(&resp);
    }
    if fr.pending() > 0 {
        // A partial frame at the end of a control message is truncation
        // damage: control frames are shipped whole, so leftover bytes
        // can only mean the stream is broken.
        wire_corruption(st, client);
        return Vec::new();
    }
    out
}

/// Decodes one client's buffered request frames and applies them as a
/// single batch — the wire-side mirror of [`Server::flush_client`].
fn flush_buffered(st: &mut WireState, raw: u32) {
    let Some(buf) = st.bufs.get_mut(&raw) else {
        return;
    };
    if buf.frames == 0 {
        // No new frames, but a quota-deferred remainder may be waiting
        // server-side; a flush is its chance to apply one more chunk.
        st.server.flush_client(ClientId(raw));
        return;
    }
    let bytes = std::mem::take(&mut buf.bytes);
    buf.frames = 0;
    let client = ClientId(raw);
    let mut fr = FrameReader::new();
    let mut corrupt = fr.push(&bytes).is_err();
    let mut batch = Vec::new();
    while !corrupt {
        let f = match fr.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(_) => {
                corrupt = true;
                break;
            }
        };
        st.server.note_wire_decode(client, f.wire_len());
        match decode_request(f.opcode, f.seq, &f.payload) {
            Ok(q) => batch.push((f.seq, q)),
            Err(_) => {
                corrupt = true;
                break;
            }
        }
    }
    // A partial trailing frame means truncation damage: data frames are
    // buffered whole, so a flush must consume every byte.
    if !corrupt && fr.pending() > 0 {
        corrupt = true;
    }
    st.server.note_wire_flush(client);
    // Frames ahead of the damage still decoded cleanly and still apply —
    // the stream was good up to that point.
    st.server.apply_batch(client, batch);
    if corrupt {
        wire_corruption(st, client);
    }
}

/// Flushes every client's wire buffer in client-id order (the same order
/// [`Server::flush_all`] uses for in-process buffers).
fn flush_all_buffered(st: &mut WireState) {
    let ids: Vec<u32> = st.bufs.keys().copied().collect();
    for id in ids {
        flush_buffered(st, id);
    }
    // Clients with deferred-but-unbuffered work (quota backpressure) get
    // their next chunk applied here too, in sorted id order.
    st.server.flush_all();
}

/// A `Send + Sync` handle to a wire server. Clone it into other threads
/// and rebuild per-thread [`Display`](crate::Display)s with
/// [`Display::from_wire`](crate::Display::from_wire) — that is how
/// several `TkApp`s, each on its own thread, share one display.
#[derive(Clone)]
pub struct WireHandle {
    pub(crate) state: Arc<Mutex<WireState>>,
}

/// The wire transport: byte frames to a server behind a mutex, each
/// control frame dispatched inline by the thread that ships it.
pub(crate) struct WireTransport {
    state: Arc<Mutex<WireState>>,
}

impl WireTransport {
    /// Starts a fresh server.
    pub(crate) fn new() -> WireTransport {
        WireTransport {
            state: Arc::new(Mutex::new(WireState {
                server: Server::new(),
                bufs: BTreeMap::new(),
                frame_seq: HashMap::new(),
                pending_stalls: HashMap::new(),
                deadline_ms: DEFAULT_WIRE_DEADLINE_MS,
            })),
        }
    }

    /// Attaches to an existing wire server.
    pub(crate) fn from_handle(h: &WireHandle) -> WireTransport {
        WireTransport {
            state: h.state.clone(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WireState> {
        self.state
            .lock()
            .expect("wire server lock poisoned by a panic on another thread")
    }

    /// Fires any byte fault scheduled for `client`'s next encoded frame
    /// and applies it to `bytes` in place. Returns the split point for a
    /// `SplitWrite` (the frame goes out as two writes), arming any
    /// `StallDispatch` in `pending_stalls` for the next ship. The frame
    /// counter advances on every encoded frame, plan or no plan, so a
    /// fault's timeline index is independent of the plan's own contents.
    fn apply_byte_fault(
        st: &mut WireState,
        client: ClientId,
        bytes: &mut Vec<u8>,
    ) -> Option<usize> {
        let counter = st.frame_seq.entry(client.0).or_insert(0);
        *counter += 1;
        let idx = *counter;
        let action = st.server.fire_byte_fault(client, idx)?;
        match action {
            FaultAction::CorruptByte { offset, xor } => {
                if !bytes.is_empty() {
                    let off = offset as usize % bytes.len();
                    bytes[off] ^= xor;
                }
                None
            }
            FaultAction::TruncateFrame { keep } => {
                let keep = keep as usize % bytes.len().max(1);
                bytes.truncate(keep);
                None
            }
            FaultAction::InjectGarbage { bytes: n } => {
                // Seed-derived line noise, deterministic per (client, idx).
                let mut r = crate::rng::XorShift::new(
                    (u64::from(client.0) << 32 | idx) ^ 0x6A_5B_4C_3D_2E_1F,
                );
                for _ in 0..n {
                    bytes.push(r.below(256) as u8);
                }
                None
            }
            FaultAction::SplitWrite { at } => Some(at as usize % bytes.len().max(1)),
            FaultAction::StallDispatch { ticks } => {
                st.pending_stalls
                    .entry(client.0)
                    .and_modify(|t| *t += ticks)
                    .or_insert(ticks);
                None
            }
            _ => None, // fire_byte_fault only returns byte faults
        }
    }

    /// Ships a control frame and dispatches it inline, under the lock the
    /// caller already holds; returns the response bytes. The bytes are
    /// still the boundary — byte faults, the CRC check and the codec see
    /// exactly what a server across a socket would.
    ///
    /// A stall armed by `StallDispatch` runs on a virtual clock: one that
    /// reaches the deadline trips the sync watchdog — the connection is
    /// torn down, the frame is never answered, and the client sees an
    /// empty response (`ConnectionDead`, never a hang). A shorter stall
    /// costs nothing. Client 0 is the transport's own control channel;
    /// its callers get an empty response but no connection is killed.
    fn ship(st: &mut WireState, client: ClientId, mut bytes: Vec<u8>) -> Vec<u8> {
        // Control frames ride the same byte stream as data frames, so
        // they share the per-client frame timeline and take byte faults
        // too (a corrupted sync request is damage the server must survive).
        Self::apply_byte_fault(st, client, &mut bytes);
        st.server.note_wire_encode(client, bytes.len());
        let stall = st.pending_stalls.remove(&client.0).unwrap_or(0);
        if u64::from(stall) * STALL_TICK_MS >= st.deadline_ms {
            st.server.note_watchdog_fire(client);
            if client.0 != 0 {
                st.server.kill_client(client);
            }
            st.bufs.remove(&client.0);
            return Vec::new();
        }
        dispatch(st, client, &bytes)
    }

    /// Ships a flush of `client`'s buffered request frames.
    fn ship_flush(st: &mut WireState, client: ClientId) {
        Self::ship(st, client, frame(FT_FLUSH_CLIENT, 0, 0, &[]));
    }

    /// Ships a flush of every client's buffer (through the control
    /// channel, client 0).
    fn ship_flush_all(st: &mut WireState) {
        Self::ship(st, ClientId(0), frame(FT_FLUSH_ALL, 0, 0, &[]));
    }

    /// Ships a control frame and decodes the single response frame it
    /// produced. `None` means the connection is gone: the watchdog
    /// tripped (empty response) or the response bytes failed integrity
    /// checks — callers surface a dead connection, never panic.
    fn call(&self, client: ClientId, bytes: Vec<u8>) -> Option<RawFrame> {
        let mut st = self.lock();
        let resp = Self::ship(&mut st, client, bytes);
        let mut fr = FrameReader::new();
        fr.push(&resp).ok()?;
        let f = fr.next_frame().ok().flatten()?;
        st.server.note_wire_decode(client, f.wire_len());
        Some(f)
    }

    /// Encodes a request frame into the client's wire buffer; returns
    /// whether the buffer hit capacity (a forced flush point).
    fn push_request(st: &mut WireState, client: ClientId, seq: u64, q: &QueuedRequest) -> bool {
        let (op, payload) = encode_request(q);
        let mut bytes = frame(FT_REQUEST, op, seq, &payload);
        let split = Self::apply_byte_fault(st, client, &mut bytes);
        st.server.note_wire_encode(client, bytes.len());
        let buf = st.bufs.entry(client.0).or_default();
        match split {
            // A split write lands as two appends to the same stream —
            // byte-identical once buffered, which is exactly the
            // invariant SplitWrite exists to witness.
            Some(at) => {
                let at = at.min(bytes.len());
                buf.bytes.extend_from_slice(&bytes[..at]);
                buf.bytes.extend_from_slice(&bytes[at..]);
            }
            None => buf.bytes.extend_from_slice(&bytes),
        }
        buf.frames += 1;
        buf.frames >= OUT_BUF_CAPACITY
    }

    /// Issues one buffered request: encodes it, records the issue-time
    /// accounting both transports share, and flushes at a flush point.
    fn issue(
        st: &mut WireState,
        client: ClientId,
        kind: RequestKind,
        reply: bool,
        window: WindowId,
        seq: u64,
        q: &QueuedRequest,
    ) {
        let start = Instant::now();
        let full = Self::push_request(st, client, seq, q);
        st.server
            .note_issue(client, kind, reply, window, seq, start);
        if full || !st.server.batching() {
            Self::ship_flush(st, client);
        }
    }

    fn buffered_frames(st: &WireState, client: ClientId) -> usize {
        st.bufs.get(&client.0).map_or(0, |b| b.frames)
    }
}

impl Transport for WireTransport {
    fn connect(&self) -> ClientId {
        self.lock().server.connect()
    }

    fn is_wire(&self) -> bool {
        true
    }

    fn wire_handle(&self) -> Option<WireHandle> {
        Some(WireHandle {
            state: self.state.clone(),
        })
    }

    fn peek(&self, f: &mut dyn FnMut(&mut Server)) {
        f(&mut self.lock().server);
    }

    fn frame_timeline(&self, client: ClientId) -> u64 {
        self.lock().frame_seq.get(&client.0).copied().unwrap_or(0)
    }

    fn sync(&self, f: &mut dyn FnMut(&mut Server)) {
        let mut st = self.lock();
        Self::ship_flush_all(&mut st);
        f(&mut st.server);
    }

    fn flush_client(&self, client: ClientId) {
        let mut st = self.lock();
        if Self::buffered_frames(&st, client) > 0 {
            Self::ship_flush(&mut st, client);
        }
    }

    fn set_batching(&self, on: bool) {
        let mut st = self.lock();
        if !on {
            // Turning batching off is a flush point for everyone, like
            // Server::set_batching's internal flush_all.
            Self::ship_flush_all(&mut st);
        }
        st.server.set_batching(on);
    }

    fn reset_obs(&self, client: ClientId) {
        let mut st = self.lock();
        if Self::buffered_frames(&st, client) > 0 {
            Self::ship_flush(&mut st, client);
        }
        st.server.reset_client_stats(client);
    }

    fn one_way(&self, client: ClientId, kind: RequestKind, window: WindowId, q: QueuedRequest) {
        let mut st = self.lock();
        if !st.server.is_alive(client) {
            return;
        }
        let seq = st.server.next_seq(client);
        Self::issue(&mut st, client, kind, false, window, seq, &q);
    }

    fn pipelined(
        &self,
        client: ClientId,
        kind: RequestKind,
        window: WindowId,
        make: &mut dyn FnMut(u64) -> QueuedRequest,
    ) -> u64 {
        let mut st = self.lock();
        let seq = st.server.next_seq(client);
        if st.server.is_alive(client) {
            let q = make(seq);
            Self::issue(&mut st, client, kind, true, window, seq, &q);
        }
        seq
    }

    fn round_trip(&self, client: ClientId, req: SyncRequest) -> Result<SyncReply, XError> {
        let (op, payload) = encode_sync_request(&req);
        let Some(f) = self.call(client, frame(FT_SYNC, op, 0, &payload)) else {
            return Err(XError::dead(0));
        };
        match f.frame_type {
            FT_SYNC_REPLY => decode_sync_reply(f.opcode, &f.payload).map_err(|_| XError::dead(0)),
            FT_ERROR => Err(decode_error(&f.payload).unwrap_or(XError::dead(0))),
            _ => Err(XError::dead(0)),
        }
    }

    fn create_window(
        &self,
        client: ClientId,
        parent: WindowId,
        x: i32,
        y: i32,
        width: u32,
        height: u32,
        border_width: u32,
    ) -> Result<WindowId, XError> {
        let mut st = self.lock();
        if !st.server.is_alive(client) {
            return Err(XError::dead(0));
        }
        let seq = st.server.next_seq(client);
        if !st.server.window_exists_or_pending(parent) {
            // Counted like the in-process path (the server would answer
            // with an error); no id handed out, nothing queued.
            let start = Instant::now();
            st.server
                .note_issue(client, RequestKind::CreateWindow, false, parent, seq, start);
            if !st.server.batching() && Self::buffered_frames(&st, client) > 0 {
                Self::ship_flush(&mut st, client);
            }
            return Err(XError {
                code: XErrorCode::BadWindow,
                seq,
                kind: Some(RequestKind::CreateWindow),
            });
        }
        let id = st.server.reserve_window_id();
        let q = QueuedRequest::CreateWindow {
            id,
            parent,
            x,
            y,
            width,
            height,
            border_width,
        };
        Self::issue(
            &mut st,
            client,
            RequestKind::CreateWindow,
            false,
            parent,
            seq,
            &q,
        );
        Ok(id)
    }

    fn create_gc(&self, client: ClientId, values: GcValues) -> crate::ids::GcId {
        let mut st = self.lock();
        let id = st.server.gcs.reserve();
        if st.server.is_alive(client) {
            let seq = st.server.next_seq(client);
            let q = QueuedRequest::CreateGc { id, values };
            Self::issue(
                &mut st,
                client,
                RequestKind::CreateGc,
                false,
                Xid::NONE,
                seq,
                &q,
            );
        }
        id
    }

    fn create_bitmap(&self, client: ClientId, bitmap: Bitmap) -> BitmapId {
        let mut st = self.lock();
        let id = st.server.bitmaps.reserve();
        if st.server.is_alive(client) {
            let seq = st.server.next_seq(client);
            let q = QueuedRequest::CreateBitmap { id, bitmap };
            Self::issue(
                &mut st,
                client,
                RequestKind::CreateBitmap,
                false,
                Xid::NONE,
                seq,
                &q,
            );
        }
        id
    }

    fn wait_reply(&self, client: ClientId, seq: u64) -> WaitReply {
        let Some(f) = self.call(client, frame(FT_TAKE_REPLY, 0, seq, &[])) else {
            return WaitReply::NoReply { alive: false };
        };
        match f.frame_type {
            FT_COOKIE_REPLY => match decode_reply_value(f.opcode, &f.payload) {
                Ok(v) => WaitReply::Reply(v),
                Err(_) => WaitReply::NoReply { alive: false },
            },
            FT_NO_REPLY => WaitReply::NoReply {
                alive: f.payload.first().is_some_and(|&b| b == 1),
            },
            _ => WaitReply::NoReply { alive: false },
        }
    }

    fn poll_event(&self, client: ClientId) -> Option<Event> {
        let f = self.call(client, frame(FT_POLL_EVENT, 0, 0, &[]))?;
        match f.frame_type {
            FT_EVENT => decode_event(f.opcode, &f.payload).ok(),
            _ => None,
        }
    }

    fn pending(&self, client: ClientId) -> usize {
        match self.call(client, frame(FT_PENDING, 0, 0, &[])) {
            Some(f) if f.frame_type == FT_PENDING_COUNT => f.seq as usize,
            _ => 0,
        }
    }

    fn set_wire_deadline(&self, ms: u64) {
        self.lock().deadline_ms = ms.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::rng::XorShift;

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

    /// A random request of the given opcode (1..=39).
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
            _ => unreachable!(),
        }
    }

    fn rand_sync_request(op: u16, r: &mut XorShift) -> SyncRequest {
        use SyncRequest as S;
        match op {
            1 => S::InternAtom { name: rstr(r) },
            2 => S::GetAtomName { atom: ratom(r) },
            3 => S::QueryTree { id: rxid(r) },
            4 => S::GetGeometry { id: rxid(r) },
            5 => S::IsViewable { id: rxid(r) },
            6 => S::GetProperty {
                id: rxid(r),
                atom: ratom(r),
            },
            7 => S::AllocNamedColor { name: rstr(r) },
            8 => S::AllocColor { rgb: rrgb(r) },
            9 => S::QueryColor { pixel: rpixel(r) },
            10 => S::OpenFont { name: rstr(r) },
            11 => S::QueryFont { font: rxid(r) },
            12 => S::CreateCursor { name: rstr(r) },
            13 => S::QueryBitmap { id: rxid(r) },
            14 => S::GetSelectionOwner {
                selection: ratom(r),
            },
            15 => S::GetInputFocus,
            16 => S::TakeProperty {
                id: rxid(r),
                atom: ratom(r),
            },
            _ => unreachable!(),
        }
    }

    fn rand_sync_reply(op: u16, r: &mut XorShift) -> SyncReply {
        use SyncReply as R;
        let some = r.below(2) == 1;
        match op {
            1 => R::Atom(ratom(r)),
            2 => R::OptString(some.then(|| rstr(r))),
            3 => R::Tree(
                some.then(|| (rxid(r), (0..r.below(6) as usize).map(|_| rxid(r)).collect())),
            ),
            4 => R::Geometry(some.then(|| (ri32(r), ri32(r), ru32(r), ru32(r), ru32(r)))),
            5 => R::Bool(some),
            6 => R::NamedColor(some.then(|| (rpixel(r), rrgb(r)))),
            7 => R::Pixel(rpixel(r)),
            8 => R::Rgb(rrgb(r)),
            9 => R::OptXid(some.then(|| rxid(r))),
            10 => R::Metrics(some.then(|| FontMetrics {
                char_width: ru32(r),
                ascent: ru32(r),
                descent: ru32(r),
            })),
            11 => R::Size(some.then(|| (ru32(r), ru32(r)))),
            12 => R::Window(rxid(r)),
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
            4 => V::Property(some.then(|| rstr(r))),
            5 => V::Geometry(some.then(|| (ri32(r), ri32(r), ru32(r), ru32(r), ru32(r)))),
            6 => V::Error(rand_error(r)),
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

    /// Encodes through a frame and decodes back via a FrameReader.
    fn frame_round_trip(ft: u8, op: u16, seq: u64, payload: &[u8]) -> RawFrame {
        let bytes = frame(ft, op, seq, payload);
        let mut fr = FrameReader::new();
        fr.push(&bytes).unwrap();
        let f = fr.next_frame().unwrap().unwrap();
        assert!(fr.next_frame().unwrap().is_none(), "exactly one frame");
        assert_eq!(f.wire_len(), bytes.len());
        f
    }

    #[test]
    fn every_request_kind_round_trips() {
        let mut r = XorShift::new(0x517e_5eed);
        for op in 1..=39u16 {
            for _ in 0..25 {
                let seq = r.next_u64();
                let q = rand_request(op, &mut r, seq);
                let (enc_op, payload) = encode_request(&q);
                assert_eq!(enc_op, op, "opcode table mismatch for {q:?}");
                let f = frame_round_trip(FT_REQUEST, enc_op, seq, &payload);
                let back = decode_request(f.opcode, f.seq, &f.payload).unwrap();
                assert_eq!(format!("{q:?}"), format!("{back:?}"));
            }
        }
    }

    #[test]
    fn every_sync_request_and_reply_round_trips() {
        let mut r = XorShift::new(0x57ee1);
        for op in 1..=16u16 {
            for _ in 0..25 {
                let req = rand_sync_request(op, &mut r);
                let (enc_op, payload) = encode_sync_request(&req);
                assert_eq!(enc_op, op);
                let f = frame_round_trip(FT_SYNC, enc_op, 0, &payload);
                let back = decode_sync_request(f.opcode, &f.payload).unwrap();
                assert_eq!(format!("{req:?}"), format!("{back:?}"));
            }
        }
        for op in 1..=12u16 {
            for _ in 0..25 {
                let reply = rand_sync_reply(op, &mut r);
                let (enc_op, payload) = encode_sync_reply(&reply);
                assert_eq!(enc_op, op);
                let f = frame_round_trip(FT_SYNC_REPLY, enc_op, 0, &payload);
                let back = decode_sync_reply(f.opcode, &f.payload).unwrap();
                assert_eq!(format!("{reply:?}"), format!("{back:?}"));
            }
        }
    }

    #[test]
    fn every_reply_value_event_and_error_round_trips() {
        let mut r = XorShift::new(0xeeee);
        for op in 1..=6u16 {
            for _ in 0..25 {
                let v = rand_reply_value(op, &mut r);
                let (enc_op, payload) = encode_reply_value(&v);
                assert_eq!(enc_op, op);
                let f = frame_round_trip(FT_COOKIE_REPLY, enc_op, 7, &payload);
                let back = decode_reply_value(f.opcode, &f.payload).unwrap();
                assert_eq!(format!("{v:?}"), format!("{back:?}"));
            }
        }
        for op in 1..=18u16 {
            for _ in 0..25 {
                let ev = rand_event(op, &mut r);
                let (enc_op, payload) = encode_event(&ev);
                assert_eq!(enc_op, op);
                let f = frame_round_trip(FT_EVENT, enc_op, 0, &payload);
                let back = decode_event(f.opcode, &f.payload).unwrap();
                assert_eq!(format!("{ev:?}"), format!("{back:?}"));
            }
        }
        for _ in 0..200 {
            let e = rand_error(&mut r);
            let payload = encode_error_payload(&e);
            let f = frame_round_trip(FT_ERROR, 0, e.seq, &payload);
            let back = decode_error(&f.payload).unwrap();
            assert_eq!(format!("{e:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn truncated_frames_wait_instead_of_erroring() {
        let mut r = XorShift::new(0x70c4);
        let q = rand_request(26, &mut r, 9); // DrawString: variable length
        let (op, payload) = encode_request(&q);
        let bytes = frame(FT_REQUEST, op, 9, &payload);
        for cut in 0..bytes.len() {
            let mut fr = FrameReader::new();
            fr.push(&bytes[..cut]).unwrap();
            assert_eq!(fr.next_frame().unwrap(), None, "cut at {cut}");
            // Feeding the remainder completes the frame.
            fr.push(&bytes[cut..]).unwrap();
            let f = fr.next_frame().unwrap().unwrap();
            assert_eq!(
                format!("{:?}", decode_request(f.opcode, f.seq, &f.payload).unwrap()),
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
        let mut fr = FrameReader::new();
        fr.push(&bytes).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::BadVersion(99)));

        // A flipped frame-type byte is caught by the CRC, which covers
        // the whole header: checksum, not a misparse.
        let mut bytes = frame(FT_REQUEST, 3, 1, &[7, 0, 0, 0]);
        bytes[5] = 200;
        let mut fr = FrameReader::new();
        fr.push(&bytes).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::Checksum));

        // A genuinely bad frame type behind a valid CRC (a buggy or
        // hostile encoder, not line noise).
        let mut bytes = frame(FT_REQUEST, 3, 1, &[7, 0, 0, 0]);
        bytes[5] = 200;
        let crc = frame_crc(&bytes[4..4 + CRC_OFFSET], &bytes[4 + HEADER_LEN..]);
        bytes[4 + CRC_OFFSET..4 + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        let mut fr = FrameReader::new();
        fr.push(&bytes).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::BadFrameType(200)));

        // Length shorter than the header: no valid encoder emits it, so
        // it is byte damage by definition.
        let mut fr = FrameReader::new();
        fr.push(&3u32.to_le_bytes()).unwrap();
        fr.push(&[0; 16]).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::Checksum));

        // Oversized length prefix: rejected before any allocation.
        let mut fr = FrameReader::new();
        fr.push(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        assert_eq!(
            fr.next_frame(),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );

        // Unknown opcode inside a well-formed frame.
        assert_eq!(
            decode_request(999, 1, &[]).err(),
            Some(WireError::BadOpcode(999))
        );
        assert_eq!(decode_sync_request(99, &[]), Err(WireError::BadOpcode(99)));
        assert!(matches!(
            decode_event(99, &[]),
            Err(WireError::BadOpcode(99))
        ));

        // Short payload, trailing bytes, and bad tags all map to Malformed.
        assert!(matches!(
            decode_request(1, 1, &[0, 0]),
            Err(WireError::Malformed(_))
        ));
        let (op, mut payload) = encode_request(&QueuedRequest::MapWindow { id: Xid(5) });
        payload.push(0);
        assert_eq!(
            decode_request(op, 1, &payload).err(),
            Some(WireError::Malformed("trailing bytes"))
        );
        assert!(matches!(
            decode_error(&[77, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::Malformed(_))
        ));
        // A corrupt bool/Option tag.
        let (op, mut payload) = encode_request(&QueuedRequest::SetOverrideRedirect {
            id: Xid(5),
            on: true,
        });
        *payload.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_request(op, 1, &payload),
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
            let op = r.range(1, 40) as u16;
            let q = rand_request(op, &mut r, i);
            let (enc_op, payload) = encode_request(&q);
            stream.extend_from_slice(&frame(FT_REQUEST, enc_op, i, &payload));
            originals.push(q);
        }
        // Feed it in random-size chunks; every frame must come back, in
        // order, regardless of where the chunk boundaries fall.
        let mut fr = FrameReader::new();
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let n = (r.range(1, 37) as usize).min(stream.len() - pos);
            fr.push(&stream[pos..pos + n]).unwrap();
            pos += n;
            while let Some(f) = fr.next_frame().unwrap() {
                decoded.push(decode_request(f.opcode, f.seq, &f.payload).unwrap());
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
        let mut payload = Vec::new();
        put_u32(&mut payload, 5); // id
        put_u32(&mut payload, 1 << 16); // width
        put_u32(&mut payload, 1 << 16); // height
        assert!(matches!(
            decode_request(17, 1, &payload),
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
            let op = r.range(1, 40) as u16;
            let q = rand_request(op, &mut r, i);
            let (enc_op, payload) = encode_request(&q);
            let clean = frame(FT_REQUEST, enc_op, i, &payload);
            for offset in 0..clean.len() {
                let xor = 1 + r.below(255) as u8;
                let mut bytes = clean.clone();
                bytes[offset] ^= xor;
                let mut fr = FrameReader::new();
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
            let op = r.range(1, 40) as u16;
            let q = rand_request(op, &mut r, i);
            let (enc_op, payload) = encode_request(&q);
            stream.extend_from_slice(&frame(FT_REQUEST, enc_op, i, &payload));
        }
        let decode_all = |chunks: &[&[u8]]| -> Vec<(u16, u64, Vec<u8>)> {
            let mut fr = FrameReader::new();
            let mut out = Vec::new();
            for c in chunks {
                fr.push(c).unwrap();
                while let Some(f) = fr.next_frame().unwrap() {
                    out.push((f.opcode, f.seq, f.payload.clone()));
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
        let mut fr = FrameReader::new();
        fr.push(&(1u32 << 30).to_le_bytes()).unwrap();
        assert_eq!(fr.next_frame(), Err(WireError::Oversized(1 << 30)));

        // Garbage flood under a maximal (but legal) length prefix: the
        // reader buffers up to the bound, then refuses further growth.
        let mut fr = FrameReader::new();
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

    /// Deadline the stall tests run under: 10 ticks of virtual time.
    const STALL_DEADLINE_MS: u64 = 100;

    /// A fixed client script over the wire transport: three data frames
    /// (create, select input, map; frame indices 1-3), then four control
    /// frames (indices 4-7) whose raw response bytes are returned.
    fn stall_script(plan: FaultPlan) -> (WireTransport, ClientId, Vec<Vec<u8>>) {
        let t = WireTransport::new();
        t.set_wire_deadline(STALL_DEADLINE_MS);
        let c = t.connect();
        let mut root = Xid::NONE;
        t.peek(&mut |s| {
            s.install_fault_plan(plan.clone());
            root = s.root();
        });
        let win = t.create_window(c, root, 0, 0, 40, 20, 0).unwrap();
        let select = QueuedRequest::SelectInput {
            id: win,
            event_mask: crate::event::mask::EXPOSURE,
        };
        t.one_way(c, RequestKind::SelectInput, win, select);
        t.one_way(
            c,
            RequestKind::MapWindow,
            win,
            QueuedRequest::MapWindow { id: win },
        );
        let sync = |req: SyncRequest| {
            let (op, payload) = encode_sync_request(&req);
            frame(FT_SYNC, op, 0, &payload)
        };
        let controls = [
            sync(SyncRequest::InternAtom {
                name: "WM_NAME".into(),
            }),
            frame(FT_PENDING, 0, 0, &[]),
            frame(FT_POLL_EVENT, 0, 0, &[]),
            sync(SyncRequest::GetGeometry { id: win }),
        ];
        let resps = controls
            .into_iter()
            .map(|bytes| WireTransport::ship(&mut t.lock(), c, bytes))
            .collect();
        (t, c, resps)
    }

    /// A plan that stalls dispatch by `ticks` from the map frame (index
    /// 3); the stall is charged to the first control frame.
    fn stall_plan(client: ClientId, ticks: u32) -> FaultPlan {
        FaultPlan::new(vec![FaultSpec {
            client: client.0,
            at: 3,
            action: FaultAction::StallDispatch { ticks },
        }])
    }

    fn watchdog_fires(t: &WireTransport, c: ClientId) -> u64 {
        let st = t.lock();
        st.server.client_obs(c).map_or(0, |o| o.wire.watchdog_fires)
    }

    #[test]
    fn stall_below_the_deadline_costs_nothing() {
        let (_, c, clean) = stall_script(FaultPlan::default());
        let ticks = (STALL_DEADLINE_MS / STALL_TICK_MS) as u32 - 1;
        let (t, c2, stalled) = stall_script(stall_plan(c, ticks));
        assert_eq!(c, c2);
        assert!(clean.iter().all(|r| !r.is_empty()), "{clean:?}");
        assert_eq!(stalled, clean, "a short stall must not change a reply byte");
        assert_eq!(watchdog_fires(&t, c), 0);
        let fired = t.lock().server.fault_plan().unwrap().fired_log().len();
        assert_eq!(fired, 1, "the stall fault itself fired");
        assert!(t.lock().server.is_alive(c));
    }

    #[test]
    fn stall_at_the_deadline_trips_the_watchdog() {
        let (_, c, _) = stall_script(FaultPlan::default());
        let ticks = (STALL_DEADLINE_MS / STALL_TICK_MS) as u32;
        let (t, c2, resps) = stall_script(stall_plan(c, ticks));
        assert_eq!(c, c2);
        assert!(resps[0].is_empty(), "the stalled frame is never answered");
        assert_eq!(watchdog_fires(&t, c), 1);
        assert!(!t.lock().server.is_alive(c));
        assert!(matches!(
            t.wait_reply(c, 1),
            WaitReply::NoReply { alive: false }
        ));
        let req = SyncRequest::InternAtom {
            name: "WM_NAME".into(),
        };
        assert_eq!(t.round_trip(c, req), Err(XError::dead(0)));
        assert_eq!(watchdog_fires(&t, c), 1, "only the stalled frame trips it");
    }

    #[test]
    fn a_watchdog_kill_leaves_a_clean_audit() {
        for ticks in [1, 10, 40] {
            let (_, c, _) = stall_script(FaultPlan::default());
            let (t, _, _) = stall_script(stall_plan(c, ticks));
            let mut violations = Vec::new();
            t.sync(&mut |s| violations = s.audit());
            assert!(violations.is_empty(), "ticks {ticks}: {violations:?}");
        }
    }
}
