//! The MISP frame layer: the length-prefixed, checksummed envelope every
//! protocol message travels in (see the [module docs](super) for the full
//! wire specification).
//!
//! This layer is deliberately hostile-input-first, following the HGCSR /
//! HGWAL policy: truncation at every byte offset, arbitrary bit flips and
//! lying headers must land in a structured [`FrameError`] — never a panic,
//! never an over-allocation driven by attacker-controlled lengths.

use hypergraph::io::fnv1a;
use std::io::Read;

/// The four magic bytes every frame starts with: `"MISP"`.
pub const MAGIC: [u8; 4] = *b"MISP";

/// The protocol version this build speaks (`MISP 1`). The version rides in
/// every frame header; a peer receiving a version it does not support
/// answers with an error frame carrying
/// [`FrameError::UnsupportedVersion`]'s code — that error frame (whose
/// layout is frozen across all future versions) *is* the negotiation
/// mechanism.
pub const VERSION: u16 = 1;

/// Bytes in a frame header: magic (4) + version (2) + kind (1) +
/// reserved (1) + payload length (4) + FNV-1a checksum (8).
pub const HEADER_LEN: usize = 20;

/// Default cap on a frame's payload length (64 MiB). Frames claiming more
/// are rejected as [`FrameError::Oversize`] *before* any allocation — a
/// lying length field cannot make a peer reserve memory.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 26;

/// What a frame carries, from the header's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`SolveRequest`](crate::serve::SolveRequest) (client → server).
    Request,
    /// A [`SolveOutcome`](crate::serve::SolveOutcome) (server → client).
    Outcome,
    /// A protocol-level failure report (server → client): the peer's frame
    /// or payload was rejected before it reached the serving layer.
    Error,
}

impl FrameKind {
    /// The stable kind byte (`1`/`2`/`3` — pinned by unit tests; `0` is
    /// permanently invalid so an all-zero header can never parse).
    pub fn wire_code(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Outcome => 2,
            FrameKind::Error => 3,
        }
    }

    /// Inverse of [`wire_code`](Self::wire_code).
    pub fn from_wire_code(code: u8) -> Result<Self, FrameError> {
        match code {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Outcome),
            3 => Ok(FrameKind::Error),
            found => Err(FrameError::UnknownKind { found }),
        }
    }
}

/// A structured rejection from the frame or payload codec. Every hostile
/// input lands here; the codec never panics and never allocates from an
/// unvalidated length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does (`needed` counts the whole
    /// frame: header + declared payload).
    Truncated {
        /// Total bytes the frame requires.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes are not `"MISP"`.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The header names a protocol version this build does not speak.
    UnsupportedVersion {
        /// The version the peer sent.
        found: u16,
        /// The version this build supports ([`VERSION`]).
        supported: u16,
    },
    /// The kind byte is none of the defined frame kinds.
    UnknownKind {
        /// The byte found.
        found: u8,
    },
    /// The reserved header byte was not zero (reserved for future use; a
    /// `MISP 1` peer must send zero).
    BadReserved {
        /// The byte found.
        found: u8,
    },
    /// The declared payload length exceeds the receiver's cap.
    Oversize {
        /// The declared payload length.
        len: u32,
        /// The receiver's cap.
        cap: u32,
    },
    /// The payload does not hash to the checksum the header carries.
    ChecksumMismatch {
        /// The checksum stored in the header.
        stored: u64,
        /// The checksum computed over the received payload.
        computed: u64,
    },
    /// A payload field failed to decode (bad tag byte, lying element count,
    /// invalid UTF-8, out-of-range vertex id, …).
    Malformed {
        /// Byte offset *within the payload* where decoding failed.
        offset: usize,
        /// Which field rejected the bytes.
        detail: &'static str,
    },
    /// The payload decoded cleanly but was longer than its content — a
    /// frame must contain exactly one message.
    TrailingBytes {
        /// Bytes the message actually consumed.
        consumed: usize,
        /// The payload length.
        len: usize,
    },
}

impl FrameError {
    /// The stable numeric error code (the `1xx` block of the
    /// [protocol's error-code table](crate::net#error-codes)) — pinned by
    /// unit tests as a compatibility promise.
    pub fn code(&self) -> u16 {
        match self {
            FrameError::Truncated { .. } => 101,
            FrameError::BadMagic { .. } => 102,
            FrameError::UnsupportedVersion { .. } => 103,
            FrameError::UnknownKind { .. } => 104,
            FrameError::BadReserved { .. } => 105,
            FrameError::Oversize { .. } => 106,
            FrameError::ChecksumMismatch { .. } => 107,
            FrameError::Malformed { .. } => 108,
            FrameError::TrailingBytes { .. } => 109,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            FrameError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected \"MISP\")")
            }
            FrameError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this peer speaks {supported})"
                )
            }
            FrameError::UnknownKind { found } => write!(f, "unknown frame kind {found}"),
            FrameError::BadReserved { found } => {
                write!(f, "reserved header byte is {found} (must be 0)")
            }
            FrameError::Oversize { len, cap } => {
                write!(f, "payload length {len} exceeds the {cap}-byte cap")
            }
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch: header says {stored:#018x}, payload hashes to \
                 {computed:#018x}"
            ),
            FrameError::Malformed { offset, detail } => {
                write!(f, "malformed payload at byte {offset}: {detail}")
            }
            FrameError::TrailingBytes { consumed, len } => write!(
                f,
                "payload carries {len} bytes but the message ends at {consumed}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame borrowing its payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// What the payload carries.
    pub kind: FrameKind,
    /// The checksum-verified payload bytes.
    pub payload: &'a [u8],
}

/// Appends one frame (header + payload) to `out`.
pub fn encode_frame(kind: FrameKind, payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= u32::MAX as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.wire_code());
    out.push(0); // reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes the frame at the start of `buf`, returning it and the number of
/// bytes it occupied. Every validation failure is a structured
/// [`FrameError`]; nothing in the header is trusted before it is checked
/// (in particular, the length field is bounds-checked against both
/// `max_payload` and the buffer before any payload byte is touched).
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<(Frame<'_>, usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(FrameError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = FrameKind::from_wire_code(buf[6])?;
    if buf[7] != 0 {
        return Err(FrameError::BadReserved { found: buf[7] });
    }
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > max_payload {
        return Err(FrameError::Oversize {
            len,
            cap: max_payload,
        });
    }
    let needed = HEADER_LEN + len as usize;
    if buf.len() < needed {
        return Err(FrameError::Truncated {
            needed,
            have: buf.len(),
        });
    }
    let stored = u64::from_le_bytes([
        buf[12], buf[13], buf[14], buf[15], buf[16], buf[17], buf[18], buf[19],
    ]);
    let payload = &buf[HEADER_LEN..needed];
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok((Frame { kind, payload }, needed))
}

/// What [`read_frame`] pulled off a stream.
#[derive(Debug)]
pub(crate) enum ReadFrame {
    /// One verified frame.
    Frame(FrameKind, Vec<u8>),
    /// The peer closed the stream cleanly, at a frame boundary.
    Eof,
    /// `stop()` turned true while waiting (only possible on streams with a
    /// read timeout configured).
    Stopped,
}

/// Reads exactly `buf.len()` bytes, retrying timeouts but polling `stop`
/// on each one. `start_of_frame` distinguishes a clean close (EOF before
/// any byte of a new frame) from a mid-frame truncation.
fn read_full(
    stream: &mut impl Read,
    buf: &mut [u8],
    start_of_frame: bool,
    needed: usize,
    stop: &impl Fn() -> bool,
) -> Result<Option<usize>, crate::Error> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if start_of_frame && got == 0 {
                    return Ok(None); // clean EOF at a frame boundary
                }
                return Err(crate::Error::Frame(FrameError::Truncated {
                    needed,
                    have: needed - buf.len() + got,
                }));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop() {
                    return Ok(Some(got));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(crate::Error::Io(e)),
        }
    }
    Ok(Some(got))
}

/// Reads one frame from a stream: header first, then the declared payload
/// (already bounds-checked against `max_payload`), then the checksum
/// verification. Timeouts poll `stop` so a server reader can notice
/// shutdown; a stream without a read timeout never observes `Stopped`.
pub(crate) fn read_frame(
    stream: &mut impl Read,
    max_payload: u32,
    stop: &impl Fn() -> bool,
) -> Result<ReadFrame, crate::Error> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(stream, &mut header, true, HEADER_LEN, stop)? {
        None => return Ok(ReadFrame::Eof),
        Some(got) if got < HEADER_LEN => return Ok(ReadFrame::Stopped),
        Some(_) => {}
    }
    // Validate the header alone by offering the frame decoder just the
    // header bytes: every check except the final truncation/checksum pair
    // runs before the payload is read (or allocated).
    match decode_frame(&header, max_payload) {
        Err(FrameError::Truncated { .. }) => {} // header fine, payload pending
        Err(e) => return Err(crate::Error::Frame(e)),
        Ok(_) => {} // zero-length payload: already complete
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let needed = HEADER_LEN + len;
    let mut payload = vec![0u8; len];
    match read_full(stream, &mut payload, false, needed, stop)? {
        Some(got) if got < len => return Ok(ReadFrame::Stopped),
        _ => {}
    }
    let stored = u64::from_le_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    let computed = fnv1a(&payload);
    if stored != computed {
        return Err(crate::Error::Frame(FrameError::ChecksumMismatch {
            stored,
            computed,
        }));
    }
    let kind = FrameKind::from_wire_code(header[6]).expect("kind validated by decode_frame");
    Ok(ReadFrame::Frame(kind, payload))
}
