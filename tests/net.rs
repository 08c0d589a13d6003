//! The `MISP 1` wire layer under test: codec round trips, hostile input
//! (truncation at every byte, single-bit flips, lying headers) and the
//! loopback contract — every outcome a [`Client`] receives over TCP is
//! byte-identical (by [`SolveOutcome::fingerprint`]) to what an in-process
//! [`BatchRunner::solve`] of the same request produces. Runs in both the
//! default and `--no-default-features` configurations.

use hypergraph_mis::hypergraph::io::fnv1a;
use hypergraph_mis::net::codec::{
    decode_error_payload, decode_outcome_payload, decode_request_payload, encode_error_frame,
    encode_outcome_frame, encode_request_frame,
};
use hypergraph_mis::net::frame::{
    decode_frame, encode_frame, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION,
};
use hypergraph_mis::net::{Client, FrameError, FrameKind, NetConfig, Server};
use hypergraph_mis::prelude::*;
use hypergraph_mis::serve::{DenyReason, SolveError, SolveOutcome, SolveTrace};
use mis_core::linear::LinearError;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Two resident tenants of different shapes plus their ids.
fn registry() -> (Arc<ResidentRegistry>, GraphId, GraphId) {
    let mut registry = ResidentRegistry::new();
    let a = registry.register(generate::paper_regime(&mut rng(31), 200, 50, 8));
    let b = registry.register(generate::d_uniform(&mut rng(32), 120, 240, 3));
    (Arc::new(registry), a, b)
}

/// A deterministic pseudo-random query set against a graph with `n` ids.
fn query(n: usize, size: usize, seed: u64) -> Vec<u32> {
    let mut r = rng(0xBEEF ^ seed);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for k in 0..size.min(n) {
        let j = rand::Rng::gen_range(&mut r, k..n);
        ids.swap(k, j);
    }
    ids.truncate(size.min(n));
    ids.sort_unstable();
    ids
}

/// Requests exercising every target shape, all six algorithms, epoch pins
/// and a deliberate in-band failure (`Linear` on a non-linear instance).
fn mixed_requests(a: GraphId, b: GraphId, count: usize) -> Vec<SolveRequest> {
    let adhoc = Arc::new(generate::mixed_dimension(&mut rng(33), 90, 110, &[2, 3, 4]));
    let linear_graph = Arc::new(generate::linear(&mut rng(34), 90, 60, 3));
    (0..count)
        .map(|i| {
            let seed = 0x11E7_0000 + i as u64;
            let builder = match i % 8 {
                0 => SolveRequest::for_graph(a).algorithm(Algorithm::Sbl(SblConfig::default())),
                1 => SolveRequest::induced(b, query(120, 40, seed))
                    .algorithm(Algorithm::Bl(BlConfig::default())),
                2 => SolveRequest::adhoc(Arc::clone(&adhoc)).algorithm(Algorithm::Kuw),
                3 => SolveRequest::induced(a, query(200, 48, seed)).algorithm(Algorithm::Greedy),
                4 => SolveRequest::for_graph(b).algorithm(Algorithm::Permutation),
                5 => SolveRequest::adhoc(Arc::clone(&linear_graph)).algorithm(Algorithm::Linear),
                // Linear on a d-uniform instance with shared pairs: the
                // outcome carries a NotLinear error as data.
                6 => SolveRequest::for_graph(b).algorithm(Algorithm::Linear),
                _ => SolveRequest::induced(b, query(120, 24, seed))
                    .algorithm(Algorithm::Sbl(SblConfig::default()))
                    .pin(EpochPin::At(Epoch(0))),
            };
            builder.seed(seed).tenant(TenantId(i as u64 % 3)).build()
        })
        .collect()
}

fn algorithm_for(code: u8) -> Algorithm {
    match code % 6 {
        0 => Algorithm::Sbl(SblConfig::default()),
        1 => Algorithm::Bl(BlConfig::default()),
        2 => Algorithm::Kuw,
        3 => Algorithm::Greedy,
        4 => Algorithm::Permutation,
        _ => Algorithm::Linear,
    }
}

// ---------------------------------------------------------------------------
// Pinned wire codes: the compatibility promise of the protocol spec.

#[test]
fn wire_constants_are_pinned() {
    assert_eq!(&MAGIC, b"MISP");
    assert_eq!(VERSION, 1);
    assert_eq!(HEADER_LEN, 20);
    assert_eq!(FrameKind::Request.wire_code(), 1);
    assert_eq!(FrameKind::Outcome.wire_code(), 2);
    assert_eq!(FrameKind::Error.wire_code(), 3);
    assert!(FrameKind::from_wire_code(0).is_err(), "0 stays invalid");
}

#[test]
fn algorithm_wire_codes_are_pinned() {
    assert_eq!(Algorithm::Sbl(SblConfig::default()).wire_code(), 0);
    assert_eq!(Algorithm::Bl(BlConfig::default()).wire_code(), 1);
    assert_eq!(Algorithm::Kuw.wire_code(), 2);
    assert_eq!(Algorithm::Greedy.wire_code(), 3);
    assert_eq!(Algorithm::Permutation.wire_code(), 4);
    assert_eq!(Algorithm::Linear.wire_code(), 5);
}

#[test]
fn epoch_pin_wire_codes_are_pinned() {
    assert_eq!(EpochPin::Latest.wire_code(), 0);
    assert_eq!(EpochPin::At(Epoch(7)).wire_code(), 1);
}

// ---------------------------------------------------------------------------
// Round trips.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary requests survive encode → frame-decode → payload-decode
    /// exactly, through every target shape, algorithm, pin and tenant.
    #[test]
    fn request_frames_round_trip(
        correlation in any::<u64>(),
        tenant in any::<u64>(),
        seed in any::<u64>(),
        algo in any::<u8>(),
        pin_latest in any::<bool>(),
        pin_epoch in any::<u64>(),
        shape in 0u8..3,
        n in 2u32..40,
        raw_edges in prop::collection::vec(prop::collection::vec(any::<u16>(), 1..5), 1..10),
        raw_query in prop::collection::vec(any::<u16>(), 0..24),
    ) {
        let mut registry = ResidentRegistry::new();
        let id = registry.register(generate::d_uniform(&mut rng(35), 20, 12, 3));
        let builder = match shape {
            0 => {
                // Normalise the raw edges into a valid instance: in-range
                // vertices, no duplicates within or across edges.
                let edges: Vec<Vec<u32>> = raw_edges
                    .iter()
                    .map(|e| {
                        e.iter()
                            .map(|&v| u32::from(v) % n)
                            .collect::<BTreeSet<u32>>()
                            .into_iter()
                            .collect::<Vec<u32>>()
                    })
                    .collect::<BTreeSet<Vec<u32>>>()
                    .into_iter()
                    .collect();
                SolveRequest::adhoc(Arc::new(hypergraph::builder::hypergraph_from_edges(
                    n as usize, edges,
                )))
            }
            1 => SolveRequest::for_graph(id),
            _ => SolveRequest::induced(
                id,
                raw_query.iter().map(|&v| u32::from(v) % 20).collect::<Vec<u32>>(),
            ),
        };
        let request = builder
            .algorithm(algorithm_for(algo))
            .seed(seed)
            .pin(if pin_latest {
                EpochPin::Latest
            } else {
                EpochPin::At(Epoch(pin_epoch))
            })
            .tenant(TenantId(tenant))
            .build();

        let bytes = encode_request_frame(correlation, &request);
        let (frame, consumed) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(frame.kind, FrameKind::Request);
        let (c, decoded) = decode_request_payload(frame.payload).expect("valid payload");
        prop_assert_eq!(c, correlation);
        prop_assert_eq!(decoded, request);
    }
}

/// Real outcomes — every trace variant the solvers produce, plus the
/// in-band `NotLinear` failure — survive the wire losslessly, down to the
/// `f64` trace fields ([`SolveOutcome::fingerprint`] equality).
#[test]
fn outcome_frames_round_trip_losslessly() {
    let (registry, a, b) = registry();
    let mut runner = BatchRunner::new();
    for (i, request) in mixed_requests(a, b, 16).iter().enumerate() {
        let outcome = runner.solve(&registry, request);
        let bytes = encode_outcome_frame(i as u64, &outcome);
        let (frame, consumed) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame.kind, FrameKind::Outcome);
        let (c, decoded) = decode_outcome_payload(frame.payload).expect("valid payload");
        assert_eq!(c, i as u64);
        assert_eq!(decoded.fingerprint(), outcome.fingerprint(), "request {i}");
        assert_eq!(decoded.ticket, outcome.ticket);
        assert_eq!(decoded.shard, outcome.shard);
        assert_eq!(decoded.tenant, outcome.tenant);
    }
}

/// Every [`SolveError`] variant round-trips as outcome data with its stable
/// numeric code.
#[test]
fn solve_error_variants_round_trip() {
    let (_registry, a, _b) = registry();
    let errors: Vec<(SolveError, u16)> = vec![
        (
            SolveError::NotLinear(LinearError::NotLinear {
                first: 3,
                second: 9,
            }),
            201,
        ),
        (SolveError::UnknownGraph(a), 202),
        (
            SolveError::UnknownEpoch {
                graph: a,
                epoch: Epoch(42),
            },
            203,
        ),
        (
            SolveError::EpochEvicted {
                graph: a,
                epoch: Epoch(1),
                floor: Epoch(5),
            },
            204,
        ),
        (
            SolveError::SnapshotUnavailable {
                graph: a,
                detail: "snapshot file vanished".to_string(),
            },
            205,
        ),
        (
            SolveError::InvalidQuery {
                vertex: 7,
                duplicate: true,
            },
            206,
        ),
        (
            SolveError::AdmissionDenied {
                tenant: TenantId(3),
                reason: DenyReason::QuotaExhausted,
            },
            207,
        ),
        (
            SolveError::AdmissionDenied {
                tenant: TenantId(4),
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
    for (i, (error, code)) in errors.into_iter().enumerate() {
        assert_eq!(error.code(), code, "pinned code of {error:?}");
        let outcome = SolveOutcome {
            ticket: i as u64,
            shard: i % 3,
            tenant: TenantId(i as u64),
            seed: 99 + i as u64,
            epoch: if i % 2 == 0 {
                Some(Epoch(i as u64))
            } else {
                None
            },
            independent_set: Vec::new(),
            work: 0,
            depth: 0,
            rounds: 0,
            trace: SolveTrace::Failed,
            error: Some(error),
        };
        let bytes = encode_outcome_frame(i as u64, &outcome);
        let (frame, _) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
        let (_, decoded) = decode_outcome_payload(frame.payload).expect("valid payload");
        assert_eq!(decoded.fingerprint(), outcome.fingerprint());
    }
}

/// An induced request that fails after its snapshot resolved —
/// `InvalidQuery`, `DimensionTooLarge` or `NotLinear` — reports the epoch it
/// ran against, as a failing full-graph request does: in process, on the
/// sequential and the sharded path, and after a trip through the codec.
#[test]
fn failed_induced_requests_report_their_epoch() {
    // A 21-vertex edge (above BL's enumerable dimension) and two triples
    // sharing a pair (not linear). Two mutations later, epoch 1 is pinned
    // while the graph has moved on to epoch 2.
    let edges = vec![(0..21).collect(), vec![21, 22, 23], vec![22, 23, 24]];
    let mut registry = ResidentRegistry::new();
    let id = registry.register(hypergraph::builder::hypergraph_from_edges(30, edges));
    for pair in [[25, 26], [27, 28]] {
        registry
            .apply(id, &[GraphEdit::AddEdge(pair.to_vec())])
            .unwrap();
    }
    let registry = Arc::new(registry);
    let pinned = |vertices: Vec<u32>, algorithm: Algorithm| {
        SolveRequest::induced(id, vertices)
            .algorithm(algorithm)
            .seed(7)
            .pin(EpochPin::At(Epoch(1)))
            .build()
    };
    let requests = vec![
        pinned(vec![1, 2, 100], Algorithm::Greedy),
        pinned((0..30).collect(), Algorithm::Bl(BlConfig::default())),
        pinned(vec![21, 22, 23, 24], Algorithm::Linear),
    ];
    let mut runner = BatchRunner::new();
    let sequential: Vec<SolveOutcome> = requests
        .iter()
        .map(|r| runner.solve(&registry, r))
        .collect();
    let config = ServeConfig {
        shards: 2,
        threads_per_shard: Some(1),
        ..ServeConfig::default()
    };
    let sharded = ShardedRunner::new(Arc::clone(&registry), &config).run_stream(requests);
    for (i, (out, code)) in sequential.iter().zip([206, 209, 201]).enumerate() {
        assert_eq!(out.error.as_ref().map(SolveError::code), Some(code));
        assert_eq!(out.epoch, Some(Epoch(1)), "{:?}", out.error);
        assert_eq!(sharded[i].fingerprint(), out.fingerprint());
        let bytes = encode_outcome_frame(i as u64, out);
        let (frame, _) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
        let (_, decoded) = decode_outcome_payload(frame.payload).expect("valid payload");
        assert_eq!(decoded.epoch, Some(Epoch(1)));
        assert_eq!(decoded.fingerprint(), out.fingerprint());
    }
}

// ---------------------------------------------------------------------------
// Hostile input: the codec never panics, never trusts a length.

/// A frame and its payload cut at *every* byte offset land in a structured
/// [`FrameError`] — never a panic, never a partial decode.
#[test]
fn truncation_at_every_byte_is_a_structured_error() {
    let (registry, a, b) = registry();
    let request = &mixed_requests(a, b, 8)[0];
    let outcome = BatchRunner::new().solve(&registry, request);
    for bytes in [
        encode_request_frame(5, request),
        encode_outcome_frame(5, &outcome),
        encode_error_frame(5, 104, "unknown frame kind 9"),
    ] {
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD) {
                Err(FrameError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert_eq!(
                        needed,
                        if cut < HEADER_LEN {
                            HEADER_LEN
                        } else {
                            bytes.len()
                        }
                    );
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        // Payload-level truncation (a lying length field that passed the
        // frame layer) is also always a structured error: the full payload
        // decodes by consuming every byte, so any proper prefix must fail.
        let (frame, _) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        for cut in 0..frame.payload.len() {
            let prefix = &frame.payload[..cut];
            let failed = match frame.kind {
                FrameKind::Request => decode_request_payload(prefix).is_err(),
                FrameKind::Outcome => decode_outcome_payload(prefix).is_err(),
                FrameKind::Error => decode_error_payload(prefix).is_err(),
            };
            assert!(failed, "payload cut at {cut} decoded");
        }
        // And a frame must contain exactly one message: an extra byte after
        // a complete payload is TrailingBytes, not silently ignored.
        let mut padded = frame.payload.to_vec();
        padded.push(0);
        let failed = match frame.kind {
            FrameKind::Request => decode_request_payload(&padded).unwrap_err(),
            FrameKind::Outcome => decode_outcome_payload(&padded).unwrap_err(),
            FrameKind::Error => decode_error_payload(&padded).unwrap_err(),
        };
        assert_eq!(failed.code(), 109, "expected TrailingBytes, got {failed}");
    }
}

/// Flipping any single bit of a frame is detected. The one undetectable
/// header flip — the kind byte toggling between two *valid* kinds — is
/// caught by the dispatch layer instead (a server rejects non-request
/// frames, a client rejects request frames), which this test pins.
#[test]
fn single_bit_flips_never_pass_undetected() {
    let (_registry, a, b) = registry();
    let request = &mixed_requests(a, b, 8)[1];
    let bytes = encode_request_frame(9, request);
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            match decode_frame(&evil, DEFAULT_MAX_PAYLOAD) {
                Err(_) => {}
                Ok((frame, _)) => {
                    assert_eq!(byte, 6, "flip at byte {byte} bit {bit} decoded");
                    assert_ne!(frame.kind, FrameKind::Request);
                    assert_eq!(frame.payload, &bytes[HEADER_LEN..]);
                }
            }
        }
    }
}

/// Hand-crafted lying headers map to their promised error variants and
/// stable codes.
#[test]
fn lying_headers_are_rejected_with_stable_codes() {
    let mut valid = Vec::new();
    encode_frame(FrameKind::Request, b"payload", &mut valid);

    let err = decode_frame(b"XXXXYYYYZZZZWWWWVVVV", DEFAULT_MAX_PAYLOAD).unwrap_err();
    assert_eq!(err, FrameError::BadMagic { found: *b"XXXX" });
    assert_eq!(err.code(), 102);

    let mut v2 = valid.clone();
    v2[4..6].copy_from_slice(&2u16.to_le_bytes());
    let err = decode_frame(&v2, DEFAULT_MAX_PAYLOAD).unwrap_err();
    assert_eq!(
        err,
        FrameError::UnsupportedVersion {
            found: 2,
            supported: 1
        }
    );
    assert_eq!(err.code(), 103);

    for kind in [0u8, 4, 9, 255] {
        let mut bad = valid.clone();
        bad[6] = kind;
        let err = decode_frame(&bad, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert_eq!(err, FrameError::UnknownKind { found: kind });
        assert_eq!(err.code(), 104);
    }

    let mut reserved = valid.clone();
    reserved[7] = 0xA5;
    let err = decode_frame(&reserved, DEFAULT_MAX_PAYLOAD).unwrap_err();
    assert_eq!(err, FrameError::BadReserved { found: 0xA5 });
    assert_eq!(err.code(), 105);

    // A length over the receiver's cap is rejected before the buffer is
    // even consulted — the lying claim alone suffices, with no allocation.
    let err = decode_frame(&valid, 3).unwrap_err();
    assert_eq!(err, FrameError::Oversize { len: 7, cap: 3 });
    assert_eq!(err.code(), 106);

    // A length larger than the buffer holds: Truncated, sized from the
    // claim, still with no allocation.
    let mut long = valid.clone();
    long[8..12].copy_from_slice(&1000u32.to_le_bytes());
    let err = decode_frame(&long, DEFAULT_MAX_PAYLOAD).unwrap_err();
    assert_eq!(
        err,
        FrameError::Truncated {
            needed: HEADER_LEN + 1000,
            have: valid.len()
        }
    );
    assert_eq!(err.code(), 101);

    let mut corrupt = valid.clone();
    let stored = fnv1a(b"payload");
    corrupt[12..20].copy_from_slice(&(stored ^ 1).to_le_bytes());
    let err = decode_frame(&corrupt, DEFAULT_MAX_PAYLOAD).unwrap_err();
    assert_eq!(
        err,
        FrameError::ChecksumMismatch {
            stored: stored ^ 1,
            computed: stored
        }
    );
    assert_eq!(err.code(), 107);
}

/// An SBL request whose sampling probability is `p`.
fn sbl_with_p(graph: GraphId, p: f64) -> SolveRequest {
    SolveRequest::for_graph(graph)
        .algorithm(Algorithm::Sbl(SblConfig {
            p: Some(p),
            ..SblConfig::default()
        }))
        .seed(0x9A9)
        .build()
}

/// A NaN SBL sampling probability is a malformed field (code 108): no clamp
/// turns it into a probability, and the coins assert on it. Every other
/// `f64` still decodes, to be clamped into `[1e-9, 1]` by the solve.
#[test]
fn a_nan_sampling_probability_is_a_malformed_field() {
    let (_registry, a, _b) = registry();
    let bits = [
        f64::NAN.to_bits(),
        0x7FF0_0000_0000_0001,
        0xFFF8_0000_0000_0000,
    ];
    for nan in bits.map(f64::from_bits) {
        let bytes = encode_request_frame(3, &sbl_with_p(a, nan));
        let (frame, _) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
        let err = decode_request_payload(frame.payload).unwrap_err();
        assert!(matches!(err, FrameError::Malformed { .. }), "{err:?}");
        assert_eq!(err.code(), 108);
    }
    for p in [0.0, 1e-300, 0.5, 1.0, 7.0, -1.0, f64::INFINITY] {
        let bytes = encode_request_frame(3, &sbl_with_p(a, p));
        let (frame, _) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
        let (_, request) = decode_request_payload(frame.payload).expect("a number decodes");
        assert_eq!(request, sbl_with_p(a, p));
    }
}

// ---------------------------------------------------------------------------
// Loopback: the wire changes nothing.

fn loopback_config(shards: usize) -> NetConfig {
    NetConfig {
        serve: ServeConfig {
            shards,
            queue_depth: 8,
            threads_per_shard: Some(1),
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    }
}

/// The headline contract: every outcome received over TCP is
/// fingerprint-identical to the in-process sequential path, across shard
/// counts, with the per-connection counters accounting for every frame.
fn loopback_matches_in_process(shards: usize) {
    let (registry, a, b) = registry();
    let requests = mixed_requests(a, b, 16);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        &loopback_config(shards),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut by_correlation = BTreeMap::new();
    for request in &requests {
        let c = client.submit(request).expect("submit");
        by_correlation.insert(c, request.clone());
    }
    let mut reference = BatchRunner::new();
    for _ in 0..requests.len() {
        let reply = client.recv().expect("recv");
        let request = by_correlation.remove(&reply.correlation).expect("known id");
        assert_eq!(
            reply.outcome.fingerprint(),
            reference.solve(&registry, &request).fingerprint(),
            "shards={shards}, correlation {}: wire outcome diverged",
            reply.correlation
        );
        assert_eq!(reply.outcome.tenant, request.tenant());
    }
    assert!(by_correlation.is_empty());

    let stats = server.shutdown();
    assert_eq!(stats.submitted, requests.len() as u64);
    assert_eq!(stats.delivered, requests.len() as u64);
    assert_eq!(stats.connections.len(), 1);
    assert_eq!(stats.connections[0].requests, requests.len() as u64);
    assert_eq!(stats.connections[0].responses, requests.len() as u64);
    assert_eq!(stats.connections[0].protocol_errors, 0);
}

#[test]
fn loopback_matches_in_process_one_shard() {
    loopback_matches_in_process(1);
}

#[test]
fn loopback_matches_in_process_four_shards() {
    loopback_matches_in_process(4);
}

/// Graceful shutdown completes every request a reader has submitted and
/// flushes the responses; the client can still read them afterwards.
#[test]
fn shutdown_drains_in_flight_requests() {
    let (registry, a, b) = registry();
    let requests = mixed_requests(a, b, 12);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(2))
        .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for request in &requests {
        client.submit(request).expect("submit");
    }
    // Wait for the reply to the *last* request: the reader consumes frames
    // in order, so this proves all 12 were accepted — while earlier ones
    // may still be outstanding when the shutdown lands.
    let mut seen = BTreeSet::new();
    while !seen.contains(&(requests.len() as u64 - 1)) {
        seen.insert(client.recv().expect("recv before shutdown").correlation);
    }
    let stats = server.shutdown();
    assert_eq!(stats.delivered, requests.len() as u64, "nothing dropped");
    // The drained responses were flushed before shutdown returned; they
    // are sitting in the socket, readable after the server is gone.
    while seen.len() < requests.len() {
        let reply = client.recv().expect("drained reply after shutdown");
        assert!(seen.insert(reply.correlation), "duplicate reply");
    }
}

/// A reply still being computed when shutdown begins reaches its client:
/// stopping the server must not close the connection's writer before the
/// shard hands it the outcome.
#[test]
fn shutdown_flushes_a_reply_still_computing() {
    let mut registry = ResidentRegistry::new();
    let big = registry.register(generate::paper_regime(&mut rng(35), 65_536, 8_192, 16));
    let small = registry.register(generate::d_uniform(&mut rng(32), 120, 240, 3));
    let registry = Arc::new(registry);
    let heavy = SolveRequest::for_graph(big)
        .algorithm(Algorithm::Sbl(SblConfig::default()))
        .seed(41)
        .build();
    let tiny = SolveRequest::induced(small, query(120, 24, 42))
        .algorithm(Algorithm::Bl(BlConfig::default()))
        .seed(42)
        .build();
    // Two round-robin shards: the tiny request runs beside the heavy one.
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(2))
        .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let heavy_id = client.submit(&heavy).expect("submit heavy");
    let tiny_id = client.submit(&tiny).expect("submit tiny");
    let mut replies = BTreeMap::new();
    while !replies.contains_key(&tiny_id) {
        let reply = client.recv().expect("recv before shutdown");
        replies.insert(reply.correlation, reply.outcome);
    }
    let stats = server.shutdown();
    if !replies.contains_key(&heavy_id) {
        let reply = client.recv().expect("in-flight reply flushed by shutdown");
        replies.insert(reply.correlation, reply.outcome);
    }
    let mut reference = BatchRunner::new();
    for (id, request) in [(heavy_id, &heavy), (tiny_id, &tiny)] {
        assert_eq!(
            replies[&id].fingerprint(),
            reference.solve(&registry, request).fingerprint()
        );
    }
    assert_eq!(stats.delivered, 2);
    assert_eq!(stats.connections.len(), 1);
    assert_eq!(stats.connections[0].responses, 2, "both replies written");
}

/// A finished outcome goes out as soon as its shard completes it, not on
/// a timer: one request at a time, a tiny induced solve comes back well
/// inside a millisecond. (A front-end that polls for completions every
/// 1 ms puts the median above 1 ms; unoptimised,
/// this one takes about 0.3 ms. The queries have 8 vertices because an
/// unoptimised 24-vertex solve alone brings the median near 1 ms.)
#[test]
fn replies_do_not_wait_for_a_poll_tick() {
    let (registry, _a, b) = registry();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(1))
        .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut round_trips: Vec<std::time::Duration> = (0..64u64)
        .map(|i| {
            let request = SolveRequest::induced(b, query(120, 8, i))
                .algorithm(Algorithm::Bl(BlConfig::default()))
                .seed(i)
                .build();
            let sent = std::time::Instant::now();
            let c = client.submit(&request).expect("submit");
            let reply = client.recv().expect("recv");
            let elapsed = sent.elapsed();
            assert_eq!(reply.correlation, c);
            assert!(reply.outcome.error.is_none(), "{:?}", reply.outcome.error);
            elapsed
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(1),
        "median round trip {median:?} (min {:?}, max {:?})",
        round_trips[0],
        round_trips[round_trips.len() - 1]
    );
    server.shutdown();
}

/// Admission control holds over the wire. A denial comes back as an
/// ordinary outcome frame, and a tenant capped at one request in flight is
/// never denied while its client waits for each reply: the delivery is
/// counted before the reply goes out.
#[test]
fn admission_travels_the_wire() {
    let (registry, _a, b) = registry();
    let mut config = loopback_config(1);
    config.serve.admission.per_tenant = vec![
        (
            TenantId(7),
            TenantQuota {
                burst: 2,
                refill_every: 0,
                max_in_flight: None,
            },
        ),
        (
            TenantId(8),
            TenantQuota {
                burst: u64::MAX,
                refill_every: 0,
                max_in_flight: Some(1),
            },
        ),
    ];
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), &config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut reference = BatchRunner::new();
    for (tenant, count) in [(7u64, 3u64), (8, 64)] {
        for i in 0..count {
            let request = SolveRequest::induced(b, query(120, 8, i))
                .algorithm(Algorithm::Bl(BlConfig::default()))
                .seed(i)
                .tenant(TenantId(tenant))
                .build();
            let c = client.submit(&request).expect("submit");
            let reply = client.recv().expect("recv");
            assert_eq!(reply.correlation, c);
            if tenant == 7 && i == 2 {
                assert_eq!(
                    reply.outcome.error,
                    Some(SolveError::AdmissionDenied {
                        tenant: TenantId(7),
                        reason: DenyReason::QuotaExhausted,
                    })
                );
            } else {
                assert_eq!(
                    reply.outcome.fingerprint(),
                    reference.solve(&registry, &request).fingerprint(),
                    "tenant {tenant}, request {i}"
                );
            }
        }
    }
    let stats = server.shutdown();
    let counts = |tenant: u64| {
        let t = stats
            .per_tenant
            .iter()
            .find(|t| t.tenant == TenantId(tenant))
            .expect("tenant stats");
        (
            t.submitted,
            t.admitted,
            t.denied_quota,
            t.denied_in_flight,
            t.delivered,
        )
    };
    assert_eq!(counts(7), (3, 2, 1, 0, 3));
    assert_eq!(counts(8), (64, 64, 0, 0, 64));
    assert_eq!(stats.delivered, 67);
}

/// Full SBL solves on `a` alternating with 40-vertex BL induced queries on
/// `b`: work heavy enough to keep a shard busy while the wire moves.
fn sbl_and_bl_requests(a: GraphId, b: GraphId, count: u64) -> Vec<SolveRequest> {
    (0..count)
        .map(|i| {
            let builder = if i % 2 == 0 {
                SolveRequest::for_graph(a).algorithm(Algorithm::Sbl(SblConfig::default()))
            } else {
                SolveRequest::induced(b, query(120, 40, i))
                    .algorithm(Algorithm::Bl(BlConfig::default()))
            };
            builder.seed(0x4A46_0000 + i).build()
        })
        .collect()
}

/// A client that pipelines requests and hangs up without reading leaves
/// replies with nowhere to go; they are dropped, and a second client's
/// round trips come back whole and identical to the in-process answers.
#[test]
fn a_client_that_hangs_up_mid_flight_costs_the_others_nothing() {
    let (registry, a, b) = registry();
    let requests = sbl_and_bl_requests(a, b, 16);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(2))
        .expect("bind loopback");
    let mut quitter = Client::connect(server.local_addr()).expect("connect quitter");
    for request in &requests {
        quitter.submit(request).expect("submit");
    }
    drop(quitter);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut reference = BatchRunner::new();
    for request in &requests {
        let c = client.submit(request).expect("submit");
        let reply = client.recv().expect("recv");
        assert_eq!(reply.correlation, c);
        assert_eq!(
            reply.outcome.fingerprint(),
            reference.solve(&registry, request).fingerprint()
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.delivered, stats.submitted);
    let connection = |id: u64| stats.connections.iter().find(|c| c.connection == id);
    // The quitter's close can reset its socket before every request is read.
    if let Some(quitter) = connection(0) {
        assert!(quitter.requests <= 16, "{quitter:?}");
    }
    let second = connection(1).expect("second connection");
    assert_eq!((second.requests, second.responses), (16, 16));
}

/// With the one shard's queue full, the reader feeding it waits in
/// `submit` while holding the runner lock, but the shard keeps replying:
/// a second client's round trips complete, and the first client then reads
/// all its replies.
#[test]
fn a_full_shard_queue_stalls_readers_not_replies() {
    let (registry, a, b) = registry();
    let requests = sbl_and_bl_requests(a, b, 32);
    let mut config = loopback_config(1);
    config.serve.queue_depth = 1;
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), &config).expect("bind loopback");
    let mut pipeliner = Client::connect(server.local_addr()).expect("connect pipeliner");
    let mut pipelined = BTreeMap::new();
    for request in &requests {
        let c = pipeliner.submit(request).expect("submit");
        pipelined.insert(c, request);
    }
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut reference = BatchRunner::new();
    for request in &requests[..4] {
        let c = client.submit(request).expect("submit");
        let reply = client.recv().expect("recv");
        assert_eq!(reply.correlation, c);
        assert_eq!(
            reply.outcome.fingerprint(),
            reference.solve(&registry, request).fingerprint()
        );
    }
    for _ in 0..requests.len() {
        let reply = pipeliner.recv().expect("recv pipelined");
        let request = pipelined.remove(&reply.correlation).expect("known id");
        assert_eq!(
            reply.outcome.fingerprint(),
            reference.solve(&registry, request).fingerprint(),
            "correlation {}",
            reply.correlation
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.delivered, 36);
}

// ---------------------------------------------------------------------------
// Protocol errors over a live socket.

/// Reads one raw frame off a test socket (header, then the declared
/// payload) and decodes it.
fn read_raw_frame(stream: &mut TcpStream) -> (FrameKind, Vec<u8>) {
    let mut header = vec![0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut bytes = header;
    bytes.resize(HEADER_LEN + len, 0);
    stream
        .read_exact(&mut bytes[HEADER_LEN..])
        .expect("frame payload");
    let (frame, _) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("well-formed error frame");
    (frame.kind, frame.payload.to_vec())
}

/// Hostile bytes on a live connection come back as one structured error
/// frame with the promised stable code, then the server closes the
/// connection (a byte stream cannot resynchronise after a framing error).
#[test]
fn hostile_connections_get_an_error_frame_then_close() {
    let (registry, _a, _b) = registry();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(1))
        .expect("bind loopback");

    // (code, raw bytes to send)
    let mut version2 = Vec::new();
    encode_frame(FrameKind::Request, b"", &mut version2);
    version2[4..6].copy_from_slice(&2u16.to_le_bytes());
    let outcome_kind = encode_error_frame(0, 101, "client should never send this");
    let cases: Vec<(u16, Vec<u8>)> = vec![
        (102, b"XXXXYYYYZZZZWWWWVVVV".to_vec()),
        // Version negotiation: the error frame names the supported version.
        (103, version2),
        // A well-formed frame of the wrong kind on a server connection.
        (108, outcome_kind),
    ];
    for (code, bytes) in cases {
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(&bytes).expect("send hostile bytes");
        let (kind, payload) = read_raw_frame(&mut raw);
        assert_eq!(kind, FrameKind::Error);
        let remote = decode_error_payload(&payload).expect("decodable error payload");
        assert_eq!(remote.code, code, "got {remote:?}");
        assert_eq!(remote.correlation, 0, "unattributable failures use 0");
        if code == 103 {
            assert!(
                remote.message.contains("speaks 1"),
                "version error must advertise the supported version: {}",
                remote.message
            );
        }
        // The server closed its side after the error frame.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("read to close");
        assert!(rest.is_empty());
    }

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 0, "nothing hostile reached the runner");
    assert_eq!(stats.connections.len(), 3);
    for conn in &stats.connections {
        assert_eq!(conn.requests, 0);
        assert_eq!(conn.responses, 1, "exactly the error frame");
        assert_eq!(conn.protocol_errors, 1);
    }
}

/// Two concurrent connections get their replies routed back to the right
/// socket, and both show up in the per-connection stats.
#[test]
fn replies_route_to_the_connection_that_asked() {
    let (registry, a, b) = registry();
    let requests = mixed_requests(a, b, 10);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(2))
        .expect("bind loopback");
    let mut first = Client::connect(server.local_addr()).expect("connect first");
    let mut second = Client::connect(server.local_addr()).expect("connect second");

    let mut expected = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let client = if i % 2 == 0 { &mut first } else { &mut second };
        let c = client.submit(request).expect("submit");
        expected.push((i % 2 == 0, c, request.clone()));
    }
    let mut reference = BatchRunner::new();
    // Replies arrive per connection in completion order; stash the ones
    // received ahead of the correlation currently being checked.
    let mut stash: [BTreeMap<u64, SolveOutcome>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for (on_first, correlation, request) in expected {
        let idx = usize::from(!on_first);
        let outcome = loop {
            if let Some(outcome) = stash[idx].remove(&correlation) {
                break outcome;
            }
            let client = if on_first { &mut first } else { &mut second };
            let reply = client.recv().expect("recv");
            stash[idx].insert(reply.correlation, reply.outcome);
        };
        assert_eq!(
            outcome.fingerprint(),
            reference.solve(&registry, &request).fingerprint()
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.connections.len(), 2);
    assert_eq!(
        stats.connections.iter().map(|c| c.requests).sum::<u64>(),
        requests.len() as u64
    );
    assert_eq!(
        stats.connections.iter().map(|c| c.responses).sum::<u64>(),
        requests.len() as u64
    );
}

/// Runs `talk` (a client's side of a loopback exchange) on a thread of its
/// own and fails unless it returns within a deadline, so a server that
/// never answers fails the test instead of hanging it.
fn before_deadline<T: Send + 'static>(talk: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(talk()).expect("the test waits"));
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the exchange failed or missed its deadline");
    worker.join().expect("client thread");
    out
}

/// A frame carrying a NaN SBL `p` costs its own connection, not the
/// server: it is answered with a malformed-field error frame and closed,
/// and a well-formed request on a fresh connection is answered exactly as
/// in process.
#[test]
fn a_nan_sampling_probability_leaves_the_server_answering() {
    let (registry, a, _b) = registry();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(1))
        .expect("bind loopback");
    let addr = server.local_addr();
    let good = sbl_with_p(a, 0.5);
    let request = good.clone();
    let (kind, error, reply) = before_deadline(move || {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&encode_request_frame(7, &sbl_with_p(a, f64::NAN)))
            .expect("send the NaN frame");
        let (kind, payload) = read_raw_frame(&mut raw);
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("read to close");
        assert!(rest.is_empty(), "the server closed after the error frame");
        let mut client = Client::connect(addr).expect("connect again");
        client.submit(&request).expect("submit");
        (
            kind,
            payload,
            client.recv().expect("the good request's reply"),
        )
    });
    assert_eq!(kind, FrameKind::Error);
    let remote = decode_error_payload(&error).expect("decodable error payload");
    assert_eq!(remote.code, 108, "{remote:?}");
    assert!(remote.message.contains("NaN"), "{}", remote.message);
    assert_eq!(
        reply.outcome.fingerprint(),
        BatchRunner::new().solve(&registry, &good).fingerprint()
    );
    let stats = server.shutdown();
    assert_eq!(
        stats.submitted, 1,
        "only the good request reached the runner"
    );
    assert_eq!(stats.delivered, 1);
}

/// BL above its enumerable dimension comes back over the wire as a
/// `DimensionTooLarge` outcome (code 209), identical to the in-process
/// answer, and the shard that answered it serves the next request.
#[test]
fn bl_above_the_enumerable_dimension_travels_the_wire() {
    let (registry, _a, b) = registry();
    let wide = Arc::new(hypergraph::builder::hypergraph_from_edges(
        23,
        vec![(0..21).collect::<Vec<u32>>(), vec![20, 21]],
    ));
    let requests = vec![
        SolveRequest::adhoc(wide)
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(21)
            .build(),
        SolveRequest::induced(b, query(120, 40, 21))
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(22)
            .build(),
    ];
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &loopback_config(1))
        .expect("bind loopback");
    let addr = server.local_addr();
    let sent = requests.clone();
    let replies = before_deadline(move || {
        let mut client = Client::connect(addr).expect("connect");
        sent.iter()
            .map(|request| {
                client.submit(request).expect("submit");
                client.recv().expect("reply").outcome
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        replies[0].error,
        Some(SolveError::DimensionTooLarge {
            dimension: 21,
            max: 20
        })
    );
    assert_eq!(replies[1].error, None);
    let mut reference = BatchRunner::new();
    for (reply, request) in replies.iter().zip(&requests) {
        assert_eq!(
            reply.fingerprint(),
            reference.solve(&registry, request).fingerprint()
        );
    }
    assert_eq!(server.shutdown().delivered, 2);
}
