//! The obr wire protocol: framing, opcodes, and the codec.
//!
//! This module is the *implementation* of the normative spec in
//! `PROTOCOL.md` at the repository root; the two are kept in lockstep and
//! the spec wins on any divergence. Summary:
//!
//! * Every message is one **frame**: a 4-byte big-endian length `N`
//!   followed by `N` payload bytes. `N` counts the payload only, must be
//!   at least 1 (the opcode byte) and at most [`MAX_FRAME`].
//! * The payload is a 1-byte **opcode** followed by an opcode-specific
//!   body. All integers are big-endian; byte strings are a `u32` length
//!   followed by the raw bytes.
//! * Decoding is strict: a body that is short **or leaves trailing
//!   bytes** is a protocol error — there are no optional fields, so any
//!   length mismatch means the peer is confused and the connection state
//!   is unknowable.
//!
//! The codec never panics on hostile input: every malformed encoding maps
//! to a typed [`ProtoError`] (the fuzz-ish tests at the bottom drive
//! truncations and bit flips through both decoders).

use std::fmt;
use std::io::{Read, Write};

use obr_storage::Lsn;

/// Protocol magic carried in `HELLO` (`b"OBR1"`).
pub const MAGIC: [u8; 4] = *b"OBR1";

/// Current protocol version. A server answers a `HELLO` whose major
/// version differs with `ERR(VERSION)` and closes.
pub const VERSION: u16 = 1;

/// Hard ceiling on one frame's payload (8 MiB): fits one default-sized
/// (4 MiB) WAL segment per `SEGMENTS` frame with headroom, and bounds a
/// hostile length prefix's allocation.
pub const MAX_FRAME: usize = 8 << 20;

/// Ceiling on one record value (256 KiB), enforced on encode and decode.
pub const MAX_VALUE: usize = 256 << 10;

/// Default `SCAN` row cap when the request's limit field is zero.
pub const DEFAULT_SCAN_LIMIT: u32 = 4_096;

/// Typed error codes carried by `ERR` responses. The numeric value is
/// the wire encoding and is frozen by PROTOCOL.md §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control shed the session or request; retry with backoff.
    Busy = 1,
    /// The transaction was chosen as a deadlock victim; restart it.
    Deadlock = 2,
    /// A lock wait timed out; restart the transaction.
    Timeout = 3,
    /// Insert of a key that already exists (transactional `PUT` only).
    KeyExists = 4,
    /// Delete of a key that does not exist.
    KeyNotFound = 5,
    /// Malformed or inapplicable request; the connection closes after.
    BadRequest = 6,
    /// The server is draining; finish up and disconnect.
    ShuttingDown = 7,
    /// Transaction-state violation (`BEGIN` inside a transaction,
    /// `COMMIT`/`ABORT` outside one).
    TxnState = 8,
    /// `HELLO` version or magic mismatch; the connection closes after.
    Version = 9,
    /// Engine-side failure; details in the message.
    Internal = 10,
    /// Segment shipping requested from a memory-only (non-durable) log.
    NotDurable = 11,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Busy,
            2 => ErrorCode::Deadlock,
            3 => ErrorCode::Timeout,
            4 => ErrorCode::KeyExists,
            5 => ErrorCode::KeyNotFound,
            6 => ErrorCode::BadRequest,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::TxnState,
            9 => ErrorCode::Version,
            10 => ErrorCode::Internal,
            11 => ErrorCode::NotDurable,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Busy => "BUSY",
            ErrorCode::Deadlock => "DEADLOCK",
            ErrorCode::Timeout => "TIMEOUT",
            ErrorCode::KeyExists => "KEY_EXISTS",
            ErrorCode::KeyNotFound => "KEY_NOT_FOUND",
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::TxnState => "TXN_STATE",
            ErrorCode::Version => "VERSION",
            ErrorCode::Internal => "INTERNAL",
            ErrorCode::NotDurable => "NOT_DURABLE",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong between bytes and messages.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// A frame's length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// A frame with a zero-length payload (no opcode).
    EmptyFrame,
    /// An opcode byte neither side of this version emits.
    UnknownOpcode(u8),
    /// The body ended before a field was complete.
    Truncated(&'static str),
    /// The body was longer than its opcode's fields.
    Trailing(usize),
    /// `HELLO` carried the wrong magic.
    BadMagic([u8; 4]),
    /// A value or message exceeded [`MAX_VALUE`].
    ValueTooLarge(usize),
    /// A field carried an invalid enum discriminant.
    BadField(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::FrameTooLarge(n) => {
                write!(f, "frame payload of {n} bytes exceeds {MAX_FRAME}")
            }
            ProtoError::EmptyFrame => write!(f, "zero-length frame (no opcode)"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Truncated(what) => write!(f, "frame truncated inside {what}"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after message body"),
            ProtoError::BadMagic(m) => write!(f, "bad HELLO magic {m:02x?}"),
            ProtoError::ValueTooLarge(n) => {
                write!(f, "value of {n} bytes exceeds {MAX_VALUE}")
            }
            ProtoError::BadField(what) => write!(f, "invalid field value for {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Result alias for codec operations.
pub type ProtoResult<T> = Result<T, ProtoError>;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake; must be the first frame on a connection.
    Hello {
        /// Client protocol version (see [`VERSION`]).
        version: u16,
    },
    /// Orderly goodbye; the server closes after acknowledging.
    Bye,
    /// Liveness probe.
    Ping,
    /// Point read.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Upsert outside a transaction; strict insert inside one (a
    /// duplicate key answers `ERR(KEY_EXISTS)` transactionally).
    Put {
        /// Key to write.
        key: u64,
        /// Value bytes (at most [`MAX_VALUE`]).
        value: Vec<u8>,
    },
    /// Delete; answers the old value.
    Delete {
        /// Key to delete.
        key: u64,
    },
    /// Inclusive range scan, capped at `limit` rows (0 means
    /// [`DEFAULT_SCAN_LIMIT`]); paginate by re-issuing from
    /// `last_key + 1`.
    Scan {
        /// Lowest key of the range.
        lo: u64,
        /// Highest key of the range (inclusive).
        hi: u64,
        /// Row cap; 0 selects the server default.
        limit: u32,
    },
    /// Open the session's transaction (at most one per session).
    Begin,
    /// Commit the session's transaction (forces the commit record).
    Commit,
    /// Abort the session's transaction (undo via CLRs).
    Abort,
    /// Full metrics-registry snapshot as JSON.
    Stats,
    /// Admin: force a sharp checkpoint.
    Checkpoint,
    /// Admin: evaluate the reorganization trigger and run whichever
    /// passes are needed (`force` runs all three unconditionally).
    Reorg {
        /// True to run every pass regardless of the trigger.
        force: bool,
    },
    /// Shape and log position of the database, for replica bootstrap.
    DbInfo,
    /// Ship WAL segments holding records past `from_lsn` (exclusive),
    /// at most `max_segments` per response (0 means server default).
    Ship {
        /// Ship records with LSN strictly greater than this.
        from_lsn: Lsn,
        /// Segment cap per response; 0 selects the server default.
        max_segments: u32,
    },
}

/// One shipped WAL segment within [`Response::Segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedSegment {
    /// LSN of the segment's first record.
    pub first_lsn: Lsn,
    /// True for an immutable sealed segment; false for the active
    /// segment's intact prefix (may grow on the next ship).
    pub sealed: bool,
    /// Raw segment bytes, exactly as on the primary's disk.
    pub bytes: Vec<u8>,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server protocol version.
        version: u16,
    },
    /// Success with nothing else to say (`PUT`, `BEGIN`, `COMMIT`, …).
    Ok,
    /// Liveness answer.
    Pong,
    /// Point-read or delete answer; `None` when the key was absent.
    Value(Option<Vec<u8>>),
    /// Scan answer. `truncated` is set when the row cap cut the range
    /// short (paginate from `last_key + 1`).
    Rows {
        /// The rows, in ascending key order.
        rows: Vec<(u64, Vec<u8>)>,
        /// True when the cap, not the range end, ended the scan.
        truncated: bool,
    },
    /// UTF-8 JSON payload (`STATS`).
    Json(String),
    /// Database shape and log position (`DB_INFO`).
    Info {
        /// Page count of the primary's disk.
        pages: u32,
        /// Oldest LSN still available in the primary's log.
        first_lsn: Lsn,
        /// Primary's durable LSN at answer time.
        durable_lsn: Lsn,
    },
    /// Shipped segments (`SHIP`).
    Segments {
        /// True when more segments exist past this batch — re-issue
        /// `SHIP` from the new applied LSN.
        more: bool,
        /// Primary's durable LSN: cap application of unsealed bytes here.
        durable_lsn: Lsn,
        /// Oldest LSN the primary can still ship; a replica needing
        /// older records must re-seed from a snapshot.
        first_available_lsn: Lsn,
        /// The segments, oldest first.
        segments: Vec<ShippedSegment>,
    },
    /// Reorganization outcome (`REORG`).
    ReorgDone {
        /// Pass 1 ran.
        compacted: bool,
        /// Pass 2 ran.
        swapped: bool,
        /// Pass 3 ran.
        shrunk: bool,
    },
    /// Typed failure; see [`ErrorCode`] for retry semantics.
    Err {
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail (UTF-8, for operators; never parse it).
        message: String,
    },
}

// --- body reader -----------------------------------------------------------

struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn new(buf: &'a [u8]) -> Body<'a> {
        Body { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> ProtoResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> ProtoResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> ProtoResult<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> ProtoResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> ProtoResult<u64> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn bytes(&mut self, what: &'static str) -> ProtoResult<Vec<u8>> {
        let len = self.u32(what)? as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::ValueTooLarge(len));
        }
        Ok(self.take(len, what)?.to_vec())
    }

    fn finish(self) -> ProtoResult<()> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(ProtoError::Trailing(extra));
        }
        Ok(())
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

/// `INFO.side_mode`: the leaf chain's layout byte. The chain is always
/// doubly linked, so 2 is the only value; 0 (no side pointers) and 1
/// (one-way) named layouts that no longer exist and are refused.
const SIDE_MODE_TWO_WAY: u8 = 2;

// --- request codec ---------------------------------------------------------

impl Request {
    /// Encode into a frame payload (opcode + body; no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                out.push(0x01);
                out.extend_from_slice(&MAGIC);
                out.extend_from_slice(&version.to_be_bytes());
            }
            Request::Bye => out.push(0x02),
            Request::Ping => out.push(0x03),
            Request::Get { key } => {
                out.push(0x10);
                out.extend_from_slice(&key.to_be_bytes());
            }
            Request::Put { key, value } => {
                out.push(0x11);
                out.extend_from_slice(&key.to_be_bytes());
                put_bytes(&mut out, value);
            }
            Request::Delete { key } => {
                out.push(0x12);
                out.extend_from_slice(&key.to_be_bytes());
            }
            Request::Scan { lo, hi, limit } => {
                out.push(0x13);
                out.extend_from_slice(&lo.to_be_bytes());
                out.extend_from_slice(&hi.to_be_bytes());
                out.extend_from_slice(&limit.to_be_bytes());
            }
            Request::Begin => out.push(0x20),
            Request::Commit => out.push(0x21),
            Request::Abort => out.push(0x22),
            Request::Stats => out.push(0x30),
            Request::Checkpoint => out.push(0x31),
            Request::Reorg { force } => {
                out.push(0x32);
                out.push(u8::from(*force));
            }
            Request::DbInfo => out.push(0x33),
            Request::Ship {
                from_lsn,
                max_segments,
            } => {
                out.push(0x40);
                out.extend_from_slice(&from_lsn.0.to_be_bytes());
                out.extend_from_slice(&max_segments.to_be_bytes());
            }
        }
        out
    }

    /// Decode a frame payload. Strict: short bodies, trailing bytes, and
    /// unknown opcodes are all errors.
    pub fn decode(payload: &[u8]) -> ProtoResult<Request> {
        let Some((&op, body)) = payload.split_first() else {
            return Err(ProtoError::EmptyFrame);
        };
        let mut b = Body::new(body);
        let req = match op {
            0x01 => {
                let magic = b.take(4, "hello.magic")?;
                if magic != MAGIC {
                    let mut m = [0u8; 4];
                    m.copy_from_slice(magic);
                    return Err(ProtoError::BadMagic(m));
                }
                Request::Hello {
                    version: b.u16("hello.version")?,
                }
            }
            0x02 => Request::Bye,
            0x03 => Request::Ping,
            0x10 => Request::Get {
                key: b.u64("get.key")?,
            },
            0x11 => {
                let key = b.u64("put.key")?;
                let value = b.bytes("put.value")?;
                if value.len() > MAX_VALUE {
                    return Err(ProtoError::ValueTooLarge(value.len()));
                }
                Request::Put { key, value }
            }
            0x12 => Request::Delete {
                key: b.u64("delete.key")?,
            },
            0x13 => Request::Scan {
                lo: b.u64("scan.lo")?,
                hi: b.u64("scan.hi")?,
                limit: b.u32("scan.limit")?,
            },
            0x20 => Request::Begin,
            0x21 => Request::Commit,
            0x22 => Request::Abort,
            0x30 => Request::Stats,
            0x31 => Request::Checkpoint,
            0x32 => Request::Reorg {
                force: b.u8("reorg.force")? != 0,
            },
            0x33 => Request::DbInfo,
            0x40 => Request::Ship {
                from_lsn: Lsn(b.u64("ship.from_lsn")?),
                max_segments: b.u32("ship.max_segments")?,
            },
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        b.finish()?;
        Ok(req)
    }
}

// --- response codec --------------------------------------------------------

impl Response {
    /// Encode into a frame payload (opcode + body; no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::HelloOk { version } => {
                out.push(0x81);
                out.extend_from_slice(&version.to_be_bytes());
            }
            Response::Ok => out.push(0x80),
            Response::Pong => out.push(0x88),
            Response::Value(v) => {
                out.push(0x82);
                match v {
                    Some(v) => {
                        out.push(1);
                        put_bytes(&mut out, v);
                    }
                    None => out.push(0),
                }
            }
            Response::Rows { rows, truncated } => {
                out.push(0x83);
                out.push(u8::from(*truncated));
                out.extend_from_slice(&(rows.len() as u32).to_be_bytes());
                for (k, v) in rows {
                    out.extend_from_slice(&k.to_be_bytes());
                    put_bytes(&mut out, v);
                }
            }
            Response::Json(s) => {
                out.push(0x84);
                put_bytes(&mut out, s.as_bytes());
            }
            Response::Info {
                pages,
                first_lsn,
                durable_lsn,
            } => {
                out.push(0x85);
                out.extend_from_slice(&pages.to_be_bytes());
                out.push(SIDE_MODE_TWO_WAY);
                out.extend_from_slice(&first_lsn.0.to_be_bytes());
                out.extend_from_slice(&durable_lsn.0.to_be_bytes());
            }
            Response::Segments {
                more,
                durable_lsn,
                first_available_lsn,
                segments,
            } => {
                out.push(0x86);
                out.push(u8::from(*more));
                out.extend_from_slice(&durable_lsn.0.to_be_bytes());
                out.extend_from_slice(&first_available_lsn.0.to_be_bytes());
                out.extend_from_slice(&(segments.len() as u32).to_be_bytes());
                for s in segments {
                    out.extend_from_slice(&s.first_lsn.0.to_be_bytes());
                    out.push(u8::from(s.sealed));
                    put_bytes(&mut out, &s.bytes);
                }
            }
            Response::ReorgDone {
                compacted,
                swapped,
                shrunk,
            } => {
                out.push(0x87);
                out.push(
                    u8::from(*compacted) | (u8::from(*swapped) << 1) | (u8::from(*shrunk) << 2),
                );
            }
            Response::Err { code, message } => {
                out.push(0xEE);
                out.push(*code as u8);
                put_bytes(&mut out, message.as_bytes());
            }
        }
        out
    }

    /// Decode a frame payload, mirroring [`Request::decode`]'s strictness.
    pub fn decode(payload: &[u8]) -> ProtoResult<Response> {
        let Some((&op, body)) = payload.split_first() else {
            return Err(ProtoError::EmptyFrame);
        };
        let mut b = Body::new(body);
        let resp = match op {
            0x80 => Response::Ok,
            0x88 => Response::Pong,
            0x81 => Response::HelloOk {
                version: b.u16("hello_ok.version")?,
            },
            0x82 => {
                let present = b.u8("value.present")?;
                match present {
                    0 => Response::Value(None),
                    1 => Response::Value(Some(b.bytes("value.bytes")?)),
                    _ => return Err(ProtoError::BadField("value.present")),
                }
            }
            0x83 => {
                let truncated = b.u8("rows.truncated")? != 0;
                let count = b.u32("rows.count")? as usize;
                // Cap the pre-allocation: a hostile count cannot ask for
                // more rows than the remaining body could possibly hold.
                let mut rows = Vec::with_capacity(count.min(MAX_FRAME / 12));
                for _ in 0..count {
                    let k = b.u64("rows.key")?;
                    let v = b.bytes("rows.value")?;
                    rows.push((k, v));
                }
                Response::Rows { rows, truncated }
            }
            0x84 => {
                let bytes = b.bytes("json.body")?;
                let s = String::from_utf8(bytes).map_err(|_| ProtoError::BadField("json.utf8"))?;
                Response::Json(s)
            }
            0x85 => {
                let pages = b.u32("info.pages")?;
                if b.u8("info.side_mode")? != SIDE_MODE_TWO_WAY {
                    return Err(ProtoError::BadField("side_mode"));
                }
                Response::Info {
                    pages,
                    first_lsn: Lsn(b.u64("info.first_lsn")?),
                    durable_lsn: Lsn(b.u64("info.durable_lsn")?),
                }
            }
            0x86 => {
                let more = b.u8("segments.more")? != 0;
                let durable_lsn = Lsn(b.u64("segments.durable_lsn")?);
                let first_available_lsn = Lsn(b.u64("segments.first_available_lsn")?);
                let count = b.u32("segments.count")? as usize;
                let mut segments = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    let first_lsn = Lsn(b.u64("segments.first_lsn")?);
                    let sealed = b.u8("segments.sealed")? != 0;
                    let bytes = b.bytes("segments.bytes")?;
                    segments.push(ShippedSegment {
                        first_lsn,
                        sealed,
                        bytes,
                    });
                }
                Response::Segments {
                    more,
                    durable_lsn,
                    first_available_lsn,
                    segments,
                }
            }
            0x87 => {
                let bits = b.u8("reorg_done.bits")?;
                if bits > 0b111 {
                    return Err(ProtoError::BadField("reorg_done.bits"));
                }
                Response::ReorgDone {
                    compacted: bits & 1 != 0,
                    swapped: bits & 2 != 0,
                    shrunk: bits & 4 != 0,
                }
            }
            0xEE => {
                let code = b.u8("err.code")?;
                let code = ErrorCode::from_u8(code).ok_or(ProtoError::BadField("err.code"))?;
                let msg = b.bytes("err.message")?;
                let message =
                    String::from_utf8(msg).map_err(|_| ProtoError::BadField("err.utf8"))?;
                Response::Err { code, message }
            }
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        b.finish()?;
        Ok(resp)
    }
}

// --- frame i/o -------------------------------------------------------------

/// Write one frame: 4-byte big-endian payload length, then the payload.
/// The two go out in one `write_all`: the sockets run with `TCP_NODELAY`,
/// so two writes would be two system calls and two segments per frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> ProtoResult<()> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. [`ProtoError::Closed`] means the peer hung
/// up cleanly *between* frames; EOF inside a frame is
/// [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> ProtoResult<Vec<u8>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Err(ProtoError::Closed),
            0 => return Err(ProtoError::Truncated("frame length")),
            n => got += n,
        }
    }
    let n = u32::from_be_bytes(len) as usize;
    if n == 0 {
        return Err(ProtoError::EmptyFrame);
    }
    if n > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(n));
    }
    let mut payload = vec![0u8; n];
    let mut got = 0;
    while got < n {
        match r.read(&mut payload[got..])? {
            0 => return Err(ProtoError::Truncated("frame payload")),
            k => got += k,
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { version: VERSION },
            Request::Bye,
            Request::Ping,
            Request::Get { key: 42 },
            Request::Put {
                key: u64::MAX,
                value: b"value bytes".to_vec(),
            },
            Request::Put {
                key: 0,
                value: Vec::new(),
            },
            Request::Delete { key: 7 },
            Request::Scan {
                lo: 10,
                hi: 99,
                limit: 128,
            },
            Request::Begin,
            Request::Commit,
            Request::Abort,
            Request::Stats,
            Request::Checkpoint,
            Request::Reorg { force: true },
            Request::Reorg { force: false },
            Request::DbInfo,
            Request::Ship {
                from_lsn: Lsn(123),
                max_segments: 4,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk { version: VERSION },
            Response::Ok,
            Response::Pong,
            Response::Value(None),
            Response::Value(Some(b"v".to_vec())),
            Response::Rows {
                rows: vec![(1, b"a".to_vec()), (2, Vec::new())],
                truncated: true,
            },
            Response::Rows {
                rows: Vec::new(),
                truncated: false,
            },
            Response::Json("{\"x\":1}".into()),
            Response::Info {
                pages: 4096,
                first_lsn: Lsn(5),
                durable_lsn: Lsn(99),
            },
            Response::Segments {
                more: true,
                durable_lsn: Lsn(50),
                first_available_lsn: Lsn(1),
                segments: vec![ShippedSegment {
                    first_lsn: Lsn(1),
                    sealed: true,
                    bytes: vec![1, 2, 3],
                }],
            },
            Response::ReorgDone {
                compacted: true,
                swapped: false,
                shrunk: true,
            },
            Response::Err {
                code: ErrorCode::Busy,
                message: "admission queue full".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp, "{resp:?}");
        }
    }

    /// Every strict prefix of a valid encoding must decode to an error —
    /// never a wrong message, never a panic. This is the short-read case
    /// a TCP segmentation boundary would produce if framing were broken.
    #[test]
    fn every_truncation_is_a_clean_error() {
        for req in sample_requests() {
            let enc = req.encode();
            for cut in 0..enc.len() {
                assert!(
                    Request::decode(&enc[..cut]).is_err(),
                    "{req:?} truncated at {cut} must not decode"
                );
            }
        }
        for resp in sample_responses() {
            let enc = resp.encode();
            for cut in 0..enc.len() {
                assert!(
                    Response::decode(&enc[..cut]).is_err(),
                    "{resp:?} truncated at {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for req in sample_requests() {
            let mut enc = req.encode();
            enc.push(0xAA);
            assert!(
                matches!(Request::decode(&enc), Err(ProtoError::Trailing(1))),
                "{req:?} with a trailing byte must be rejected"
            );
        }
    }

    /// Single-byte corruptions must never panic; they may decode to a
    /// different valid message (flipping a key bit is undetectable by
    /// design), but the decoder itself must stay total.
    #[test]
    fn bit_flips_never_panic() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for req in sample_requests() {
            let enc = req.encode();
            for _ in 0..200 {
                let mut m = enc.clone();
                let i = (next() as usize) % m.len();
                m[i] ^= 1 << ((next() % 8) as u8);
                let _ = Request::decode(&m);
            }
        }
        for resp in sample_responses() {
            let enc = resp.encode();
            for _ in 0..200 {
                let mut m = enc.clone();
                let i = (next() as usize) % m.len();
                m[i] ^= 1 << ((next() % 8) as u8);
                let _ = Response::decode(&m);
            }
        }
    }

    #[test]
    fn hostile_lengths_are_bounded() {
        // A bytes field claiming more than MAX_FRAME must be refused
        // before any allocation of that size.
        let mut enc = vec![0x11]; // PUT
        enc.extend_from_slice(&1u64.to_be_bytes());
        enc.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            Request::decode(&enc),
            Err(ProtoError::ValueTooLarge(_))
        ));
        // An oversized value under the frame cap is still refused.
        let big = vec![0u8; MAX_VALUE + 1];
        let mut enc = vec![0x11];
        enc.extend_from_slice(&1u64.to_be_bytes());
        enc.extend_from_slice(&(big.len() as u32).to_be_bytes());
        enc.extend_from_slice(&big);
        assert!(matches!(
            Request::decode(&enc),
            Err(ProtoError::ValueTooLarge(_))
        ));
    }

    #[test]
    fn unknown_opcode_and_empty_frame() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(ProtoError::UnknownOpcode(0x7F))
        ));
        assert!(matches!(Request::decode(&[]), Err(ProtoError::EmptyFrame)));
        assert!(matches!(
            Response::decode(&[0x01]),
            Err(ProtoError::UnknownOpcode(0x01))
        ));
    }

    #[test]
    fn info_accepts_only_the_two_way_layout_byte() {
        // INFO = opcode, pages, side_mode, first_lsn, durable_lsn.
        let frame = |side_mode: u8| {
            let mut enc = vec![0x85];
            enc.extend_from_slice(&4096u32.to_be_bytes());
            enc.push(side_mode);
            enc.extend_from_slice(&5u64.to_be_bytes());
            enc.extend_from_slice(&99u64.to_be_bytes());
            enc
        };
        assert!(Response::decode(&frame(2)).is_ok());
        for retired in [0u8, 1] {
            assert!(
                matches!(
                    Response::decode(&frame(retired)),
                    Err(ProtoError::BadField("side_mode"))
                ),
                "side_mode {retired} must be refused"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut enc = vec![0x01];
        enc.extend_from_slice(b"NOPE");
        enc.extend_from_slice(&VERSION.to_be_bytes());
        assert!(matches!(
            Request::decode(&enc),
            Err(ProtoError::BadMagic(_))
        ));
    }

    #[test]
    fn frame_io_round_trips_and_detects_torn_frames() {
        let payload = Request::Get { key: 9 }.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), payload);
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
        // Torn inside the payload.
        let mut r = &buf[..buf.len() - 1];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtoError::Truncated("frame payload"))
        ));
        // Torn inside the length prefix.
        let mut r = &buf[..2];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtoError::Truncated("frame length"))
        ));
        // Hostile length prefix.
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtoError::FrameTooLarge(_))
        ));
    }
}
