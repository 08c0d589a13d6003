//! `MISP 1` — the wire protocol and socket front-end of the serving layer.
//!
//! The [`serve`](crate::serve) subsystem is a library; production traffic
//! arrives over a wire. This module puts a small framed binary protocol in
//! front of the existing machinery: a [`Server`] accepts TCP connections,
//! decodes [`SolveRequest`](crate::serve::SolveRequest) frames straight
//! into [`ShardedRunner::submit`](crate::serve::ShardedRunner::submit), and
//! streams each [`SolveOutcome`](crate::serve::SolveOutcome) back on the
//! connection that asked for it as the shards finish — admission denials
//! included, flowing as ordinary response frames (rejection as data, the
//! same contract the library has). A [`Client`] is the matching blocking
//! connector. No async runtime is involved anywhere: the front-end is
//! thread-per-connection over the same [`pram::pool`] worker seam the
//! shards use. Each connection's reader submits to the runner under one
//! shared lock, and the shard that computes an outcome queues it straight
//! on that connection's writer.
//!
//! Determinism survives the trip: the codec is lossless down to the trace
//! `f64`s, so an outcome's
//! [`fingerprint`](crate::serve::SolveOutcome::fingerprint) is identical
//! whether the request was submitted in-process or travelled the wire —
//! that identity is asserted per-request by `tests/net.rs` and gated in CI
//! by `BENCH_net.json`'s `wire_identical` flag.
//!
//! # Frame layout
//!
//! Every message travels in one frame; all integers are little-endian:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `"MISP"` |
//! | 4      | 2    | protocol version (`u16`, currently [`1`](frame::VERSION)) |
//! | 6      | 1    | frame kind: `1` request, `2` outcome, `3` error |
//! | 7      | 1    | reserved (must be `0`) |
//! | 8      | 4    | payload length (`u32`) |
//! | 12     | 8    | FNV-1a 64-bit checksum of the payload |
//! | 20     | …    | payload |
//!
//! Payload encodings are documented on [`codec`]. Request and outcome
//! payloads open with a client-chosen **correlation id** (`u64`): server
//! tickets are global across connections, so responses are matched to
//! requests by this id instead. Outcomes arrive in *completion* order, not
//! submission order — per-connection pipelining is the point.
//!
//! # Hostile input
//!
//! The codec follows the HGCSR/HGWAL policy: truncation at every byte
//! offset, arbitrary bit flips and lying headers land in a structured
//! [`FrameError`], never a panic, and no attacker-controlled length sizes
//! an allocation before it is bounds-checked against the bytes actually
//! present (`tests/net.rs` sweeps all three families). A server answers a
//! rejected frame with an error frame and closes the connection — a byte
//! stream cannot be resynchronised past a framing error.
//!
//! # Version negotiation
//!
//! The version rides in every frame header. A peer receiving a version it
//! does not speak answers with an error frame carrying code `103`
//! ([`FrameError::UnsupportedVersion`]) and its own supported version in
//! the message, then closes; the error-frame layout itself is frozen
//! across all future versions, so any `MISP n` client can decode the
//! rejection and retry with a lower version. `MISP 1` peers simply fail
//! the connection.
//!
//! # Error codes
//!
//! Stable numeric codes are a compatibility promise shared with
//! [`crate::Error`] (see its module docs for the block layout): codes are
//! never renumbered, only appended. The wire uses them in two places —
//! error frames carry a `u16` code, and an encoded
//! [`SolveError`](crate::serve::SolveError) uses its code as the variant
//! tag:
//!
//! | code | meaning |
//! |------|---------|
//! | 101  | truncated frame |
//! | 102  | bad magic |
//! | 103  | unsupported version |
//! | 104  | unknown frame kind |
//! | 105  | nonzero reserved byte |
//! | 106  | payload length over cap |
//! | 107  | checksum mismatch |
//! | 108  | malformed payload field |
//! | 109  | trailing bytes after message |
//! | 201  | not a linear hypergraph |
//! | 202  | unknown graph |
//! | 203  | unknown epoch |
//! | 204  | epoch evicted by retention |
//! | 205  | spilled snapshot unavailable |
//! | 206  | invalid induced query |
//! | 207  | admission denied: token bucket exhausted |
//! | 208  | admission denied: in-flight cap |
//! | 209  | BL request above its enumerable dimension (20) |
//!
//! # Example
//!
//! ```
//! use hypergraph_mis::net::{Client, NetConfig, Server};
//! use hypergraph_mis::prelude::*;
//! # use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! # let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let mut registry = ResidentRegistry::new();
//! let id = registry.register(generate::paper_regime(&mut rng, 200, 30, 6));
//!
//! let server = Server::bind("127.0.0.1:0", Arc::new(registry), &NetConfig::default())
//!     .expect("bind loopback");
//! let mut client = Client::connect(server.local_addr()).expect("connect");
//!
//! let correlation = client
//!     .submit(&SolveRequest::for_graph(id).seed(7).build())
//!     .expect("send request");
//! let reply = client.recv().expect("receive outcome");
//! assert_eq!(reply.correlation, correlation);
//! assert!(reply.outcome.error.is_none());
//!
//! drop(client);
//! let stats = server.shutdown();
//! assert_eq!(stats.delivered, 1);
//! ```

pub mod client;
pub mod codec;
pub mod frame;
pub mod server;

pub use client::{Client, ClientReceiver, ClientSender, Reply};
pub use codec::RemoteError;
pub use frame::{FrameError, FrameKind};
pub use server::{NetConfig, Server};
