//! The crate-wide error type: every failure the facade can surface —
//! graph I/O, graph edits, wire framing, solve-time rejections, raw socket
//! I/O and peer-reported protocol errors — unified under one
//! [`enum@Error`] with `From` conversions from each subsystem's error and a
//! stable numeric code per variant.
//!
//! # Error codes — a compatibility promise
//!
//! [`Error::code`] maps every error to a `u16` that is **frozen**: codes
//! are never renumbered or reused, only appended. The wire protocol
//! ([`net`](crate::net)) transmits these codes in error frames and as the
//! variant tags of encoded [`SolveError`]s, so a `MISP 1` client built
//! today decodes the errors of any future server. The blocks:
//!
//! | block | meaning | source type |
//! |-------|---------|-------------|
//! | `1`   | socket / file I/O failure (local, never on the wire) | [`std::io::Error`] |
//! | `1xx` | frame/codec rejection | [`FrameError`] |
//! | `2xx` | solve-time rejection (reported as outcome data) | [`SolveError`] |
//! | `3xx` | graph read failure | [`ReadError`] |
//! | `4xx` | graph edit rejection | [`EditError`] |
//!
//! Per-code assignments live on the subsystem errors
//! ([`FrameError::code`], [`SolveError::code`]) and in the table on the
//! [`net` module docs](crate::net#error-codes); unit tests pin every
//! assignment.

use crate::net::{FrameError, RemoteError};
use crate::serve::SolveError;
use hypergraph::edit::EditError;
use hypergraph::io::ReadError;

/// Any failure the facade can surface, unified. See the
/// [module docs](self) for the stable numeric code mapping.
#[derive(Debug)]
pub enum Error {
    /// Reading a graph (file I/O or parse) failed.
    Read(ReadError),
    /// A graph edit was rejected.
    Edit(EditError),
    /// A wire frame or payload was rejected by the codec.
    Frame(FrameError),
    /// A solve request failed (the same rejection the serving layer reports
    /// as [`SolveOutcome::error`](crate::serve::SolveOutcome::error) data).
    Solve(SolveError),
    /// A raw socket operation failed (connect, read, write).
    Io(std::io::Error),
    /// The wire peer reported a protocol error (an error frame): *its*
    /// codec rejected something this side sent.
    Remote(RemoteError),
}

impl Error {
    /// The stable numeric code of this error — frozen as a compatibility
    /// promise (see the [module docs](self)). For [`Remote`](Self::Remote)
    /// this is the code the peer transmitted.
    pub fn code(&self) -> u16 {
        match self {
            Error::Io(_) => 1,
            Error::Frame(e) => e.code(),
            Error::Solve(e) => e.code(),
            Error::Read(ReadError::Io(_)) => 301,
            Error::Read(ReadError::Parse(_)) => 302,
            Error::Edit(EditError::VertexOutOfRange { .. }) => 401,
            Error::Edit(EditError::EmptyEdge) => 402,
            Error::Edit(EditError::DuplicateEdge(_)) => 403,
            Error::Edit(EditError::NoSuchEdge(_)) => 404,
            Error::Edit(EditError::IdSpaceOverflow { .. }) => 405,
            Error::Remote(e) => e.code,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Read(e) => write!(f, "graph read failed: {e}"),
            Error::Edit(e) => write!(f, "graph edit rejected: {e}"),
            Error::Frame(e) => write!(f, "wire frame rejected: {e}"),
            Error::Solve(e) => write!(f, "solve failed: {e}"),
            Error::Io(e) => write!(f, "socket i/o failed: {e}"),
            Error::Remote(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Read(e) => Some(e),
            Error::Edit(e) => Some(e),
            Error::Frame(e) => Some(e),
            Error::Solve(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Remote(e) => Some(e),
        }
    }
}

impl From<ReadError> for Error {
    fn from(e: ReadError) -> Self {
        Error::Read(e)
    }
}

impl From<EditError> for Error {
    fn from(e: EditError) -> Self {
        Error::Edit(e)
    }
}

impl From<FrameError> for Error {
    fn from(e: FrameError) -> Self {
        Error::Frame(e)
    }
}

impl From<SolveError> for Error {
    fn from(e: SolveError) -> Self {
        Error::Solve(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<RemoteError> for Error {
    fn from(e: RemoteError) -> Self {
        Error::Remote(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{DenyReason, Epoch, GraphId, TenantId};
    use hypergraph::io::ParseError;
    use mis_core::linear::LinearError;

    fn gid() -> GraphId {
        GraphId::from_wire_parts(7, 3)
    }

    /// The compatibility promise: every code assignment is frozen. A
    /// failure here means a renumbering that would break deployed wire
    /// peers — add new codes, never change these.
    #[test]
    fn error_codes_are_pinned() {
        use FrameError as F;
        let frame: [(F, u16); 9] = [
            (
                F::Truncated {
                    needed: 20,
                    have: 3,
                },
                101,
            ),
            (F::BadMagic { found: *b"XXXX" }, 102),
            (
                F::UnsupportedVersion {
                    found: 2,
                    supported: 1,
                },
                103,
            ),
            (F::UnknownKind { found: 9 }, 104),
            (F::BadReserved { found: 1 }, 105),
            (F::Oversize { len: 9, cap: 8 }, 106),
            (
                F::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                107,
            ),
            (
                F::Malformed {
                    offset: 0,
                    detail: "x",
                },
                108,
            ),
            (
                F::TrailingBytes {
                    consumed: 1,
                    len: 2,
                },
                109,
            ),
        ];
        for (e, code) in frame {
            assert_eq!(e.code(), code, "{e:?}");
            assert_eq!(Error::from(e).code(), code);
        }
        let solve: [(SolveError, u16); 9] = [
            (
                SolveError::NotLinear(LinearError::NotLinear {
                    first: 0,
                    second: 1,
                }),
                201,
            ),
            (SolveError::UnknownGraph(gid()), 202),
            (
                SolveError::UnknownEpoch {
                    graph: gid(),
                    epoch: Epoch(4),
                },
                203,
            ),
            (
                SolveError::EpochEvicted {
                    graph: gid(),
                    epoch: Epoch(1),
                    floor: Epoch(3),
                },
                204,
            ),
            (
                SolveError::SnapshotUnavailable {
                    graph: gid(),
                    detail: "gone".into(),
                },
                205,
            ),
            (
                SolveError::InvalidQuery {
                    vertex: 9,
                    duplicate: false,
                },
                206,
            ),
            (
                SolveError::AdmissionDenied {
                    tenant: TenantId(1),
                    reason: DenyReason::QuotaExhausted,
                },
                207,
            ),
            (
                SolveError::AdmissionDenied {
                    tenant: TenantId(1),
                    reason: DenyReason::InFlightCap,
                },
                208,
            ),
            (
                SolveError::DimensionTooLarge {
                    dimension: 21,
                    max: 20,
                },
                209,
            ),
        ];
        for (e, code) in solve {
            assert_eq!(e.code(), code, "{e:?}");
            assert_eq!(Error::from(e).code(), code);
        }
        let read: [(ReadError, u16); 2] = [
            (ReadError::Io(std::io::Error::other("x")), 301),
            (ReadError::Parse(ParseError::BadHeader("x".into())), 302),
        ];
        for (e, code) in read {
            assert_eq!(Error::from(e).code(), code);
        }
        let edit: [(EditError, u16); 5] = [
            (EditError::VertexOutOfRange { vertex: 9, n: 5 }, 401),
            (EditError::EmptyEdge, 402),
            (EditError::DuplicateEdge(vec![0, 1]), 403),
            (EditError::NoSuchEdge(vec![0, 1]), 404),
            (EditError::IdSpaceOverflow { n: 5, extra: 7 }, 405),
        ];
        for (e, code) in edit {
            assert_eq!(Error::from(e).code(), code);
        }
        assert_eq!(Error::Io(std::io::Error::other("x")).code(), 1);
        assert_eq!(
            Error::Remote(RemoteError {
                correlation: 0,
                code: 555,
                message: String::new(),
            })
            .code(),
            555
        );
    }

    /// `std::error::Error` is implemented end to end, with sources chained.
    #[test]
    fn sources_chain() {
        let e = Error::from(SolveError::NotLinear(LinearError::NotLinear {
            first: 2,
            second: 5,
        }));
        let source = std::error::Error::source(&e).expect("solve source");
        let inner = std::error::Error::source(source).expect("linear source");
        assert!(inner.to_string().contains("share at least two vertices"));
    }
}
