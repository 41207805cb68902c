//! The GFSL edge wire protocol: compact binary framing over TCP.
//!
//! Layout (all integers little-endian, no CRC — TCP already checksums):
//!
//! ```text
//! handshake  "GFSL" · u16 version · u16 flags        (8 bytes each way)
//! frame      u16 len · u8 tag · u64 req_id · fields  (len counts tag..fields)
//! ```
//!
//! The handshake is versioned: both sides send their hello first; a server
//! that cannot speak the client's version closes without framing. Frames
//! after that are self-delimiting — `len` is the byte count *after* the
//! length field, bounded by [`MAX_PAYLOAD`], so a corrupt or hostile length
//! can never make the decoder buffer unboundedly.
//!
//! Backpressure is part of the protocol, not a connection error: a shed
//! request is answered with a [`Resp::Shed`] frame carrying the supervisor
//! rung that refused it and a retry-after hint in **milliseconds** (the
//! in-process hint is virtual ns; [`ShedError::retry_after_ms`] rounds up
//! and clamps at this boundary — see that method for the contract). Framing
//! violations get a final [`Resp::Proto`] frame and the connection is shed.

use gfsl::Error as GfslError;
use gfsl_serve::{Reply, ShedError};
use gfsl_workload::ServeOp;

/// Protocol magic: first four handshake bytes.
pub const MAGIC: [u8; 4] = *b"GFSL";
/// Protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Handshake length, bytes.
pub const HELLO_LEN: usize = 8;
/// Largest legal frame payload (tag + req_id + fields). The widest frame
/// today is 25 bytes ([`Resp::Snapped`]); the cap leaves headroom for one
/// more field without a version bump while still rejecting garbage lengths
/// immediately.
pub const MAX_PAYLOAD: usize = 32;
/// Frame header (length field) size, bytes.
pub const LEN_BYTES: usize = 2;

/// One client request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Liveness probe; answered [`Resp::Pong`] without touching the engine.
    Ping,
    /// Point lookup.
    Get(u32),
    /// Insert `(key, value)`.
    Insert(u32, u32),
    /// Delete a key.
    Delete(u32),
    /// Count keys in the inclusive window `[lo, hi]`.
    Range(u32, u32),
    /// Peek the smallest present entry (priority-queue front).
    MinEntry,
    /// Extract-min.
    PopMin,
    /// Version-pinned count of keys in the inclusive window `[lo, hi]`:
    /// answered from a pinned multiversion snapshot at the edge, never
    /// batched — the read does not wait for an epoch or block on writer
    /// locks. On an engine without the mvcc knob the count is served
    /// unpinned and the reply carries version 0.
    SnapRange(u32, u32),
}

/// One server response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resp {
    /// Ping reply.
    Pong,
    /// `Get`: the value, if present.
    Got(Option<u32>),
    /// `Insert`: whether a new key was added.
    Inserted(bool),
    /// `Delete`: whether the key was found and removed.
    Deleted(bool),
    /// `Range`: number of keys in the window.
    Ranged(u32),
    /// `MinEntry`: the smallest present entry, if any.
    MinIs(Option<(u32, u32)>),
    /// `PopMin`: the extracted entry, or `None` on empty.
    Popped(Option<(u32, u32)>),
    /// `SnapRange`: the pinned snapshot version the count was read at
    /// (0 = engine served it unpinned) and the number of keys in the
    /// window at that version.
    Snapped {
        /// Snapshot version of the cut (per-structure clock; for a
        /// cluster, the newest shard version in the cut).
        version: u64,
        /// Keys present in `[lo, hi]` at `version`.
        count: u64,
    },
    /// The request was shed at admission: the supervisor rung that refused
    /// it ([`gfsl_serve::ServiceMode::severity`]) and the retry-after hint
    /// in milliseconds (ms on the wire; rounded up, clamped — never a
    /// truncated-to-zero "retry now" for a real backlog).
    Shed {
        /// Degradation-ladder rung severity (0 = normal … 3 = drain).
        mode: u8,
        /// Retry-after hint, milliseconds.
        retry_after_ms: u32,
    },
    /// The operation failed structurally inside the engine.
    Failed {
        /// Coarse error class, see [`error_code`].
        code: u8,
    },
    /// The peer violated the framing; sent once, then the connection is
    /// shed. See [`DecodeError::code`] for the code space.
    Proto {
        /// Decode-error class.
        code: u8,
    },
}

mod tags {
    pub const PING: u8 = 0x01;
    pub const GET: u8 = 0x02;
    pub const INSERT: u8 = 0x03;
    pub const DELETE: u8 = 0x04;
    pub const RANGE: u8 = 0x05;
    pub const MIN_ENTRY: u8 = 0x06;
    pub const POP_MIN: u8 = 0x07;
    pub const SNAP_RANGE: u8 = 0x08;

    pub const PONG: u8 = 0x81;
    pub const GOT: u8 = 0x82;
    pub const INSERTED: u8 = 0x83;
    pub const DELETED: u8 = 0x84;
    pub const RANGED: u8 = 0x85;
    pub const MIN_IS: u8 = 0x86;
    pub const POPPED: u8 = 0x87;
    pub const SNAPPED: u8 = 0x88;
    pub const SHED: u8 = 0xE0;
    pub const FAILED: u8 = 0xE1;
    pub const PROTO: u8 = 0xE2;
}

/// Typed framing violation. `Incomplete` is not a fault — the decoder needs
/// more bytes; every other variant is fatal for the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends mid-frame; read more and retry.
    Incomplete,
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized(u16),
    /// The length field is too short to hold even a tag and request id.
    Runt(u16),
    /// Unknown frame tag.
    BadTag(u8),
    /// The payload is shorter than its tag's fields require.
    Truncated(u8),
    /// The payload is longer than its tag's fields (a frame must be exact).
    Trailing(u8),
    /// An option/bool byte was neither 0 nor 1.
    BadFlag(u8),
    /// The handshake bytes are not a GFSL hello.
    BadMagic,
    /// The peer speaks an incompatible protocol version.
    BadVersion(u16),
}

impl DecodeError {
    /// Stable one-byte code carried in [`Resp::Proto`] frames.
    pub fn code(self) -> u8 {
        match self {
            DecodeError::Incomplete => 0,
            DecodeError::Oversized(_) => 1,
            DecodeError::Runt(_) => 2,
            DecodeError::BadTag(_) => 3,
            DecodeError::Truncated(_) => 4,
            DecodeError::Trailing(_) => 5,
            DecodeError::BadFlag(_) => 6,
            DecodeError::BadMagic => 7,
            DecodeError::BadVersion(_) => 8,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete => write!(f, "frame incomplete: need more bytes"),
            DecodeError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_PAYLOAD}"),
            DecodeError::Runt(n) => write!(f, "frame length {n} below the fixed header"),
            DecodeError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            DecodeError::Truncated(t) => write!(f, "payload truncated for tag {t:#04x}"),
            DecodeError::Trailing(t) => write!(f, "trailing payload bytes for tag {t:#04x}"),
            DecodeError::BadFlag(b) => write!(f, "flag byte {b:#04x} is neither 0 nor 1"),
            DecodeError::BadMagic => write!(f, "handshake magic is not \"GFSL\""),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append this build's 8-byte hello to `buf`.
pub fn encode_hello(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
}

/// Validate a peer's 8-byte hello.
pub fn check_hello(hello: &[u8]) -> Result<(), DecodeError> {
    if hello.len() < HELLO_LEN {
        return Err(DecodeError::Incomplete);
    }
    if hello[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u16::from_le_bytes([hello[4], hello[5]]);
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(())
}

// ---- encoding ----

fn frame(buf: &mut Vec<u8>, tag: u8, req_id: u64, fields: &[u8]) {
    let len = (1 + 8 + fields.len()) as u16;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(fields);
}

fn opt_entry(kv: Option<(u32, u32)>) -> [u8; 9] {
    let mut b = [0u8; 9];
    if let Some((k, v)) = kv {
        b[0] = 1;
        b[1..5].copy_from_slice(&k.to_le_bytes());
        b[5..9].copy_from_slice(&v.to_le_bytes());
    }
    b
}

impl Req {
    /// Append one request frame for request id `req_id` to `buf`.
    pub fn encode(&self, req_id: u64, buf: &mut Vec<u8>) {
        match *self {
            Req::Ping => frame(buf, tags::PING, req_id, &[]),
            Req::Get(k) => frame(buf, tags::GET, req_id, &k.to_le_bytes()),
            Req::Insert(k, v) => {
                let mut b = [0u8; 8];
                b[..4].copy_from_slice(&k.to_le_bytes());
                b[4..].copy_from_slice(&v.to_le_bytes());
                frame(buf, tags::INSERT, req_id, &b);
            }
            Req::Delete(k) => frame(buf, tags::DELETE, req_id, &k.to_le_bytes()),
            Req::Range(lo, hi) => {
                let mut b = [0u8; 8];
                b[..4].copy_from_slice(&lo.to_le_bytes());
                b[4..].copy_from_slice(&hi.to_le_bytes());
                frame(buf, tags::RANGE, req_id, &b);
            }
            Req::MinEntry => frame(buf, tags::MIN_ENTRY, req_id, &[]),
            Req::PopMin => frame(buf, tags::POP_MIN, req_id, &[]),
            Req::SnapRange(lo, hi) => {
                let mut b = [0u8; 8];
                b[..4].copy_from_slice(&lo.to_le_bytes());
                b[4..].copy_from_slice(&hi.to_le_bytes());
                frame(buf, tags::SNAP_RANGE, req_id, &b);
            }
        }
    }

    /// The serve-layer operation this request maps to; `None` for `Ping`
    /// and `SnapRange`, which are answered at the edge and never enter the
    /// epoch batch.
    pub fn op(&self) -> Option<ServeOp> {
        match *self {
            Req::Ping | Req::SnapRange(..) => None,
            Req::Get(k) => Some(ServeOp::Get(k)),
            Req::Insert(k, v) => Some(ServeOp::Insert(k, v)),
            Req::Delete(k) => Some(ServeOp::Delete(k)),
            Req::Range(lo, hi) => Some(ServeOp::Range(lo, hi)),
            Req::MinEntry => Some(ServeOp::MinEntry),
            Req::PopMin => Some(ServeOp::PopMin),
        }
    }
}

impl Resp {
    /// Append one response frame for request id `req_id` to `buf`.
    pub fn encode(&self, req_id: u64, buf: &mut Vec<u8>) {
        match *self {
            Resp::Pong => frame(buf, tags::PONG, req_id, &[]),
            Resp::Got(v) => {
                let mut b = [0u8; 5];
                if let Some(v) = v {
                    b[0] = 1;
                    b[1..].copy_from_slice(&v.to_le_bytes());
                }
                frame(buf, tags::GOT, req_id, &b);
            }
            Resp::Inserted(a) => frame(buf, tags::INSERTED, req_id, &[a as u8]),
            Resp::Deleted(r) => frame(buf, tags::DELETED, req_id, &[r as u8]),
            Resp::Ranged(n) => frame(buf, tags::RANGED, req_id, &n.to_le_bytes()),
            Resp::MinIs(kv) => frame(buf, tags::MIN_IS, req_id, &opt_entry(kv)),
            Resp::Popped(kv) => frame(buf, tags::POPPED, req_id, &opt_entry(kv)),
            Resp::Snapped { version, count } => {
                let mut b = [0u8; 16];
                b[..8].copy_from_slice(&version.to_le_bytes());
                b[8..].copy_from_slice(&count.to_le_bytes());
                frame(buf, tags::SNAPPED, req_id, &b);
            }
            Resp::Shed { mode, retry_after_ms } => {
                let mut b = [0u8; 5];
                b[0] = mode;
                b[1..].copy_from_slice(&retry_after_ms.to_le_bytes());
                frame(buf, tags::SHED, req_id, &b);
            }
            Resp::Failed { code } => frame(buf, tags::FAILED, req_id, &[code]),
            Resp::Proto { code } => frame(buf, tags::PROTO, req_id, &[code]),
        }
    }
}

// ---- decoding ----

struct Fields<'a> {
    tag: u8,
    b: &'a [u8],
}

impl<'a> Fields<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let (&v, rest) = self.b.split_first().ok_or(DecodeError::Truncated(self.tag))?;
        self.b = rest;
        Ok(v)
    }

    fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadFlag(b)),
        }
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        if self.b.len() < 4 {
            return Err(DecodeError::Truncated(self.tag));
        }
        let (head, rest) = self.b.split_at(4);
        self.b = rest;
        Ok(u32::from_le_bytes(head.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        if self.b.len() < 8 {
            return Err(DecodeError::Truncated(self.tag));
        }
        let (head, rest) = self.b.split_at(8);
        self.b = rest;
        Ok(u64::from_le_bytes(head.try_into().unwrap()))
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, DecodeError> {
        // The absent arm still carries zeroed field bytes: frames are
        // fixed-width per tag, which keeps truncation checks exact.
        let has = self.flag()?;
        let v = self.u32()?;
        Ok(has.then_some(v))
    }

    fn opt_entry(&mut self) -> Result<Option<(u32, u32)>, DecodeError> {
        let has = self.flag()?;
        let k = self.u32()?;
        let v = self.u32()?;
        Ok(has.then_some((k, v)))
    }

    fn done(self) -> Result<(), DecodeError> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Trailing(self.tag))
        }
    }
}

/// Split the next frame off the front of `buf`: `(req_id, tag, fields,
/// consumed)`. Shared validation for both direction-specific decoders.
fn next_frame(buf: &[u8]) -> Result<(u64, Fields<'_>, usize), DecodeError> {
    if buf.len() < LEN_BYTES {
        return Err(DecodeError::Incomplete);
    }
    let len = u16::from_le_bytes([buf[0], buf[1]]);
    if len as usize > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(len));
    }
    if (len as usize) < 1 + 8 {
        return Err(DecodeError::Runt(len));
    }
    let total = LEN_BYTES + len as usize;
    if buf.len() < total {
        return Err(DecodeError::Incomplete);
    }
    let tag = buf[2];
    let req_id = u64::from_le_bytes(buf[3..11].try_into().unwrap());
    let fields = Fields { tag, b: &buf[11..total] };
    Ok((req_id, fields, total))
}

/// Decode one request frame from the front of `buf`. Returns the request id,
/// the request, and the bytes consumed; [`DecodeError::Incomplete`] when the
/// buffer ends mid-frame, any other error when the peer broke framing.
pub fn decode_req(buf: &[u8]) -> Result<(u64, Req, usize), DecodeError> {
    let (req_id, mut f, total) = next_frame(buf)?;
    let req = match f.tag {
        tags::PING => Req::Ping,
        tags::GET => Req::Get(f.u32()?),
        tags::INSERT => Req::Insert(f.u32()?, f.u32()?),
        tags::DELETE => Req::Delete(f.u32()?),
        tags::RANGE => Req::Range(f.u32()?, f.u32()?),
        tags::MIN_ENTRY => Req::MinEntry,
        tags::POP_MIN => Req::PopMin,
        tags::SNAP_RANGE => Req::SnapRange(f.u32()?, f.u32()?),
        t => return Err(DecodeError::BadTag(t)),
    };
    f.done()?;
    Ok((req_id, req, total))
}

/// Decode one response frame from the front of `buf`; see [`decode_req`].
pub fn decode_resp(buf: &[u8]) -> Result<(u64, Resp, usize), DecodeError> {
    let (req_id, mut f, total) = next_frame(buf)?;
    let resp = match f.tag {
        tags::PONG => Resp::Pong,
        tags::GOT => Resp::Got(f.opt_u32()?),
        tags::INSERTED => Resp::Inserted(f.flag()?),
        tags::DELETED => Resp::Deleted(f.flag()?),
        tags::RANGED => Resp::Ranged(f.u32()?),
        tags::MIN_IS => Resp::MinIs(f.opt_entry()?),
        tags::POPPED => Resp::Popped(f.opt_entry()?),
        tags::SNAPPED => Resp::Snapped { version: f.u64()?, count: f.u64()? },
        tags::SHED => Resp::Shed { mode: f.u8()?, retry_after_ms: f.u32()? },
        tags::FAILED => Resp::Failed { code: f.u8()? },
        tags::PROTO => Resp::Proto { code: f.u8()? },
        t => return Err(DecodeError::BadTag(t)),
    };
    f.done()?;
    Ok((req_id, resp, total))
}

// ---- serve-layer bridging ----

/// Coarse wire code for an engine error: 1 = invalid key, 2 = pool
/// exhausted, 3 = contained abort, 4 = handle table full. The wire deliberately
/// does not carry the full typed error — a client retries or reports, it
/// does not repair.
pub fn error_code(e: &GfslError) -> u8 {
    match e {
        GfslError::InvalidKey(_) => 1,
        GfslError::PoolExhausted(_) => 2,
        GfslError::Aborted(_) => 3,
        GfslError::TooManyHandles => 4,
    }
}

/// The response frame for a completed serve-layer reply.
pub fn reply_resp(reply: &Reply) -> Resp {
    match *reply {
        Reply::Got(v) => Resp::Got(v),
        Reply::Inserted(b) => Resp::Inserted(b),
        Reply::Deleted(b) => Resp::Deleted(b),
        Reply::Ranged(n) => Resp::Ranged(n),
        Reply::MinIs(kv) => Resp::MinIs(kv),
        Reply::Popped(kv) => Resp::Popped(kv),
        Reply::Failed(ref e) => Resp::Failed { code: error_code(e) },
    }
}

/// The response frame for a shed decision: the supervisor rung and the
/// hint converted to wire units (ms, rounded up, clamped) at this — the
/// protocol — boundary.
pub fn shed_resp(mode: gfsl_serve::ServiceMode, shed: &ShedError) -> Resp {
    Resp::Shed {
        mode: mode.severity(),
        retry_after_ms: shed.retry_after_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsl_serve::ServiceMode;

    #[test]
    fn hello_roundtrip_and_rejections() {
        let mut b = Vec::new();
        encode_hello(&mut b);
        assert_eq!(b.len(), HELLO_LEN);
        assert_eq!(check_hello(&b), Ok(()));
        assert_eq!(check_hello(&b[..5]), Err(DecodeError::Incomplete));
        let mut bad = b.clone();
        bad[0] = b'X';
        assert_eq!(check_hello(&bad), Err(DecodeError::BadMagic));
        let mut v9 = b.clone();
        v9[4] = 9;
        assert_eq!(check_hello(&v9), Err(DecodeError::BadVersion(9)));
    }

    #[test]
    fn request_frames_roundtrip() {
        let reqs = [
            Req::Ping,
            Req::Get(7),
            Req::Insert(1, u32::MAX),
            Req::Delete(9),
            Req::Range(10, 20),
            Req::MinEntry,
            Req::PopMin,
            Req::SnapRange(5, 500),
        ];
        let mut buf = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            r.encode(i as u64 * 3, &mut buf);
        }
        let mut at = 0;
        for (i, r) in reqs.iter().enumerate() {
            let (id, got, used) = decode_req(&buf[at..]).unwrap();
            assert_eq!((id, got), (i as u64 * 3, *r));
            at += used;
        }
        assert_eq!(at, buf.len(), "stream fully consumed");
    }

    #[test]
    fn response_frames_roundtrip() {
        let resps = [
            Resp::Pong,
            Resp::Got(None),
            Resp::Got(Some(5)),
            Resp::Inserted(true),
            Resp::Deleted(false),
            Resp::Ranged(1234),
            Resp::MinIs(None),
            Resp::MinIs(Some((2, 3))),
            Resp::Popped(Some((u32::MAX - 1, 0))),
            Resp::Snapped { version: 0, count: 0 },
            Resp::Snapped { version: u64::MAX, count: 1 << 40 },
            Resp::Shed { mode: 2, retry_after_ms: 250 },
            Resp::Failed { code: 3 },
            Resp::Proto { code: 1 },
        ];
        let mut buf = Vec::new();
        for (i, r) in resps.iter().enumerate() {
            r.encode(i as u64, &mut buf);
        }
        let mut at = 0;
        for (i, r) in resps.iter().enumerate() {
            let (id, got, used) = decode_resp(&buf[at..]).unwrap();
            assert_eq!((id, got), (i as u64, *r));
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn partial_frames_ask_for_more_bytes() {
        let mut buf = Vec::new();
        Req::Insert(3, 4).encode(77, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_req(&buf[..cut]).unwrap_err(),
                DecodeError::Incomplete,
                "cut at {cut}"
            );
        }
        assert!(decode_req(&buf).is_ok());
    }

    #[test]
    fn hostile_lengths_are_rejected_before_buffering() {
        // Oversized length: rejected from the two length bytes alone, so a
        // hostile peer cannot make the server wait for 64 KiB that never
        // arrives.
        let buf = u16::MAX.to_le_bytes();
        assert_eq!(decode_req(&buf).unwrap_err(), DecodeError::Oversized(u16::MAX));
        // Runt length: too short to hold the fixed tag + req_id header.
        let mut runt = 5u16.to_le_bytes().to_vec();
        runt.extend_from_slice(&[0; 5]);
        assert_eq!(decode_req(&runt).unwrap_err(), DecodeError::Runt(5));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Unknown tag.
        let mut buf = Vec::new();
        Req::Ping.encode(1, &mut buf);
        buf[2] = 0x7F;
        assert_eq!(decode_req(&buf).unwrap_err(), DecodeError::BadTag(0x7F));
        // Truncated fields: a Get whose length claims no key bytes.
        let mut get = Vec::new();
        Req::Get(1).encode(1, &mut get);
        let mut short = get.clone();
        short[0] = 9; // 1 tag + 8 id, key missing
        short.truncate(LEN_BYTES + 9);
        assert_eq!(decode_req(&short).unwrap_err(), DecodeError::Truncated(tags::GET));
        // Trailing junk inside the declared length.
        let mut long = Vec::new();
        Req::Ping.encode(1, &mut long);
        long[0] = 10; // 1 tag + 8 id + 1 junk byte
        long.push(0xAB);
        assert_eq!(decode_req(&long).unwrap_err(), DecodeError::Trailing(tags::PING));
        // Flag byte outside {0, 1}.
        let mut got = Vec::new();
        Resp::Got(Some(1)).encode(1, &mut got);
        got[11] = 2;
        assert_eq!(decode_resp(&got).unwrap_err(), DecodeError::BadFlag(2));
    }

    #[test]
    fn shed_frames_carry_mode_and_ms_hint() {
        let shed = ShedError { depth: 64, retry_after_ns: 2_500_001 };
        let resp = shed_resp(ServiceMode::ShedWrites, &shed);
        assert_eq!(resp, Resp::Shed { mode: 1, retry_after_ms: 3 }, "ms rounds up");
        let mut buf = Vec::new();
        resp.encode(42, &mut buf);
        let (id, back, _) = decode_resp(&buf).unwrap();
        assert_eq!((id, back), (42, resp));
    }

    #[test]
    fn every_serve_op_has_a_wire_form() {
        for req in [
            Req::Get(1),
            Req::Insert(1, 2),
            Req::Delete(1),
            Req::Range(1, 2),
            Req::MinEntry,
            Req::PopMin,
        ] {
            let op = req.op().expect("engine ops map to ServeOp");
            let mut buf = Vec::new();
            req.encode(0, &mut buf);
            let (_, back, _) = decode_req(&buf).unwrap();
            assert_eq!(back.op(), Some(op));
        }
        assert_eq!(Req::Ping.op(), None, "ping never reaches the engine");
        assert_eq!(
            Req::SnapRange(1, 2).op(),
            None,
            "snapshot reads answer at the edge, outside the epoch batch"
        );
    }

    #[test]
    fn snapped_is_the_widest_frame_and_fits_the_payload_cap() {
        // Snapped carries two u64 fields — the protocol's widest frame. If
        // this grows past MAX_PAYLOAD the decoder would reject our own
        // frames as hostile.
        let mut buf = Vec::new();
        Resp::Snapped { version: u64::MAX, count: u64::MAX }.encode(0, &mut buf);
        let payload = buf.len() - LEN_BYTES;
        assert_eq!(payload, 25);
        assert!(payload <= MAX_PAYLOAD);
        let (_, back, used) = decode_resp(&buf).unwrap();
        assert_eq!(back, Resp::Snapped { version: u64::MAX, count: u64::MAX });
        assert_eq!(used, buf.len());
    }
}
