//! The `HGCSR 1` binary snapshot format: round-trips across every generator
//! family, the hostile-file sweeps (truncate at every byte, flip every bit —
//! every corruption must surface as a structured error, never a panic, a
//! mis-parse, or an unsafe path), and mapped-vs-owned equivalence.

use hypergraph::io::{csr_from_bytes, csr_to_bytes, open_mapped, read_csr, write_csr, ParseError};
use hypergraph::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hgcsr_test_{}_{}", std::process::id(), tag));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One representative per generator family, seeded, covering every code path
/// of the arena (empty, edgeless, singleton edges, uniform, mixed, linear,
/// planted, paper-regime, and the special shapes).
fn family_zoo() -> Vec<(&'static str, Hypergraph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC5A0);
    vec![
        ("empty", HypergraphBuilder::new(0).build()),
        ("edgeless", HypergraphBuilder::new(9).build()),
        ("d_uniform", generate::d_uniform(&mut rng, 60, 120, 3)),
        (
            "mixed_dimension",
            generate::mixed_dimension(&mut rng, 50, 80, &[2, 3, 5]),
        ),
        ("linear", generate::linear(&mut rng, 64, 90, 3)),
        ("paper_regime", generate::paper_regime(&mut rng, 128, 30, 8)),
        (
            "planted",
            generate::planted_independent(&mut rng, 40, 70, 3, 12),
        ),
        ("complete_graph", generate::special::complete_graph(8)),
        ("path", generate::special::path(12)),
        ("cycle", generate::special::cycle(10)),
        ("star", generate::special::star(9)),
        (
            "giant_edge_with_stars",
            generate::special::giant_edge_with_stars(5, 4),
        ),
        ("all_singletons", generate::special::all_singletons(7)),
        ("sunflower", generate::special::sunflower(4, 3, 2)),
    ]
}

#[test]
fn every_family_round_trips_owned_and_mapped() {
    let dir = temp_dir("families");
    for (name, h) in family_zoo() {
        let bytes = csr_to_bytes(&h);
        let owned = csr_from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(owned, h, "{name}: owned decode");
        assert_eq!(owned.storage_kind(), "owned", "{name}");

        let path = dir.join(format!("{name}.hgcsr"));
        write_csr(&h, &path).unwrap();
        let reread = read_csr(&path).unwrap();
        assert_eq!(reread, h, "{name}: file round trip");

        let mapped = open_mapped(&path).unwrap();
        assert_eq!(mapped, h, "{name}: mapped equals original");
        if cfg!(all(
            unix,
            target_pointer_width = "64",
            target_endian = "little"
        )) {
            assert!(mapped.is_mapped(), "{name}: expected the zero-copy tier");
            assert_eq!(mapped.storage_kind(), "mapped", "{name}");
        }
        assert_eq!(mapped.bytes_resident(), h.bytes_resident(), "{name}");
        let stats = HypergraphStats::compute(&mapped);
        assert_eq!(stats.storage, mapped.storage_kind(), "{name}");
        assert_eq!(stats.bytes_resident, mapped.bytes_resident(), "{name}");

        // Every accessor answers identically across tiers.
        assert_eq!(mapped.n_vertices(), h.n_vertices());
        assert_eq!(mapped.n_edges(), h.n_edges());
        assert_eq!(mapped.dimension(), h.dimension());
        for e in 0..h.n_edges() as u32 {
            assert_eq!(mapped.edge(e), h.edge(e), "{name}: edge {e}");
        }
        for v in 0..h.n_vertices() as u32 {
            assert_eq!(
                mapped.incident_edges(v),
                h.incident_edges(v),
                "{name}: vertex {v}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_construction_from_mapped_matches_owned() {
    let dir = temp_dir("engine");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let h = generate::paper_regime(&mut rng, 200, 40, 8);
    let path = dir.join("engine.hgcsr");
    write_csr(&h, &path).unwrap();
    let mapped = open_mapped(&path).unwrap();
    let from_owned = ActiveHypergraph::from_hypergraph(&h);
    let from_mapped = ActiveHypergraph::from_hypergraph(&mapped);
    assert_eq!(from_owned.n_alive(), from_mapped.n_alive());
    assert_eq!(from_owned.n_edges(), from_mapped.n_edges());
    assert_eq!(
        from_owned.live_edges_owned(),
        from_mapped.live_edges_owned()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ActiveHypergraph::compact` can produce duplicate edges (two edges that
/// shrink to the same vertex set) and `HGCSR` accepts them, so such a graph
/// persists and reopens mapped. `apply_edits` answers the same scripts
/// identically on the owned and mapped copies: a removal drops the first
/// copy, removing again reports `NoSuchEdge` although a copy remains, and a
/// re-add appends.
#[test]
fn duplicate_edges_from_compact_reopen_and_edit_identically() {
    let h = hypergraph::builder::hypergraph_from_edges(4, vec![vec![0, 1, 2], vec![0, 1, 3]]);
    let mut engine = ActiveHypergraph::from_hypergraph(&h);
    engine.shrink_edges_by(&[false, false, true, true], &[2, 3]);
    let (owned, _) = engine.compact();
    assert_eq!(owned.edges_owned(), vec![vec![0, 1], vec![0, 1]]);
    assert_eq!(csr_from_bytes(&csr_to_bytes(&owned)).unwrap(), owned);

    let dir = temp_dir("duplicates");
    let path = dir.join("duplicates.hgcsr");
    write_csr(&owned, &path).unwrap();
    let mapped = open_mapped(&path).unwrap();
    assert_eq!(mapped, owned);

    let remove = GraphEdit::RemoveEdge(vec![0, 1]);
    let re_add = GraphEdit::AddEdge(vec![1, 0]);
    let expected = [
        (vec![remove.clone()], Ok(vec![vec![0, 1]])),
        (
            vec![remove.clone(), remove.clone()],
            Err(EditError::NoSuchEdge(vec![0, 1])),
        ),
        (vec![remove, re_add], Ok(vec![vec![0, 1], vec![0, 1]])),
    ];
    for (script, want) in expected {
        let from_owned = apply_edits(&owned, &script);
        assert_eq!(from_owned, apply_edits(&mapped, &script), "{script:?}");
        assert_eq!(from_owned.map(|g| g.edges_owned()), want, "{script:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// A snapshot has no recoverable prefix: truncation at *every* byte boundary
// must reject the file — through both the owned decoder and the mapped
// opener — and the full file must still parse.
#[test]
fn truncated_at_every_byte_is_rejected_never_mis_parsed() {
    let dir = temp_dir("truncate");
    let h = hypergraph::builder::hypergraph_from_edges(
        6,
        vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5]],
    );
    let bytes = csr_to_bytes(&h);
    let path = dir.join("cut.hgcsr");
    for cut in 0..bytes.len() {
        match csr_from_bytes(&bytes[..cut]) {
            Err(ParseError::BadCsrSnapshot(_)) => {}
            other => panic!("cut {cut}: expected BadCsrSnapshot, got {other:?}"),
        }
        // The mapped opener sees the identical rejection (through a real
        // file and mapping).
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(open_mapped(&path).is_err(), "cut {cut}: mapped open");
    }
    assert_eq!(csr_from_bytes(&bytes).unwrap(), h);
    let _ = std::fs::remove_dir_all(&dir);
}

// Flip every bit of every byte: header fields and stored checksums are
// covered by the header checksum, payload words by the word checksum, and
// alignment padding by the explicit zero check — so *no* single-bit
// corruption may survive, panic, or change the parsed graph.
#[test]
fn bit_flips_anywhere_are_rejected() {
    let h =
        hypergraph::builder::hypergraph_from_edges(5, vec![vec![0, 1], vec![1, 2, 3], vec![0, 4]]);
    let good = csr_to_bytes(&h);
    for i in 0..good.len() {
        for bit in 0..8 {
            let mut bytes = good.clone();
            bytes[i] ^= 1 << bit;
            match csr_from_bytes(&bytes) {
                Err(ParseError::BadCsrSnapshot(_)) => {}
                Ok(_) => panic!("flip of bit {bit} at byte {i} parsed"),
                Err(other) => panic!("flip of bit {bit} at byte {i}: {other:?}"),
            }
        }
    }
}

// Hostile headers: a few bytes must never demand a huge allocation, panic,
// or index out of bounds — including sizes that would overflow the layout
// arithmetic and internally inconsistent (but checksum-correct) arrays.
#[test]
fn hostile_headers_and_inconsistent_arrays_are_structured_errors() {
    let h = hypergraph::builder::hypergraph_from_edges(4, vec![vec![0, 1], vec![1, 2, 3]]);
    let good = csr_to_bytes(&h);

    // Re-checksum a doctored header so only the *semantic* check can fire.
    let cook = |mutate: &dyn Fn(&mut Vec<u8>)| -> Vec<u8> {
        let mut bytes = good.clone();
        mutate(&mut bytes);
        let mut hasher = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes[..48] {
            hasher ^= b as u64;
            hasher = hasher.wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes[48..56].copy_from_slice(&hasher.to_le_bytes());
        bytes
    };
    let set_field = |bytes: &mut Vec<u8>, field: usize, value: u64| {
        bytes[8 * field..8 * field + 8].copy_from_slice(&value.to_le_bytes());
    };

    for (what, hostile) in [
        ("huge n", cook(&|b| set_field(b, 1, u64::MAX))),
        ("huge m", cook(&|b| set_field(b, 2, u64::MAX / 2))),
        ("huge total", cook(&|b| set_field(b, 3, u64::MAX / 8))),
        ("dim beyond total", cook(&|b| set_field(b, 4, 1 << 40))),
        ("n off by one", cook(&|b| set_field(b, 1, 5))),
        ("m off by one", cook(&|b| set_field(b, 2, 3))),
        ("wrong dim", cook(&|b| set_field(b, 4, 2))),
        ("not a snapshot", b"HGWAL 1 0 0 0 0 0 0\n".to_vec()),
        ("empty", Vec::new()),
    ] {
        match csr_from_bytes(&hostile) {
            Err(ParseError::BadCsrSnapshot(_)) | Err(ParseError::BadWalHeader(_)) => {}
            other => panic!("{what}: expected a structured error, got {other:?}"),
        }
    }

    // Structurally inconsistent payloads with *correct* checksums: lie about
    // an edge boundary by editing edge_offsets[1], then re-checksum
    // everything so only the structural validation can reject it.
    let mut bytes = good.clone();
    let eo_off = 64;
    let first_end = u32::from_le_bytes(bytes[eo_off + 4..eo_off + 8].try_into().unwrap());
    bytes[eo_off + 4..eo_off + 8].copy_from_slice(&(first_end - 1).to_le_bytes());
    rehash(&mut bytes);
    match csr_from_bytes(&bytes) {
        Err(ParseError::BadCsrSnapshot(_)) => {}
        other => panic!("structural lie: expected BadCsrSnapshot, got {other:?}"),
    }

    // And an incidence index that is internally consistent but not the
    // canonical counting-sort: swap the two incident entries of a
    // degree-2 vertex, re-checksum, and expect the replay check to fire.
    let h2 = hypergraph::builder::hypergraph_from_edges(3, vec![vec![0, 1], vec![1, 2]]);
    let mut bytes = csr_to_bytes(&h2);
    let (inc_off, _) = incident_array(&bytes);
    // Vertex 1 is in both edges; its incidence list is [0, 1] — swap it.
    let a = inc_off + 4; // incident[1] (vertex 1's first slot)
    let w0 = u32::from_le_bytes(bytes[a..a + 4].try_into().unwrap());
    let w1 = u32::from_le_bytes(bytes[a + 4..a + 8].try_into().unwrap());
    bytes[a..a + 4].copy_from_slice(&w1.to_le_bytes());
    bytes[a + 4..a + 8].copy_from_slice(&w0.to_le_bytes());
    rehash(&mut bytes);
    match csr_from_bytes(&bytes) {
        Err(ParseError::BadCsrSnapshot(_)) => {}
        other => panic!("swapped incidence: expected BadCsrSnapshot, got {other:?}"),
    }
}

/// `(byte offset, words)` of the fourth array (`incident`) in an HGCSR file
/// — test helper mirroring the documented layout.
fn incident_array(bytes: &[u8]) -> (usize, usize) {
    let field = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
    let (n, m, total) = (field(1) as usize, field(2) as usize, field(3) as usize);
    let align64 = |x: usize| (x + 63) & !63;
    let ev = align64(64 + 4 * (m + 1));
    let io_ = align64(ev + 4 * total);
    (align64(io_ + 4 * (n + 1)), total)
}

/// Recomputes both checksums of a doctored HGCSR byte image so that only
/// semantic validation can reject it.
fn rehash(bytes: &mut [u8]) {
    let field = |bytes: &[u8], i: usize| {
        u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap()) as usize
    };
    let (n, m, total) = (field(bytes, 1), field(bytes, 2), field(bytes, 3));
    let align64 = |x: usize| (x + 63) & !63;
    let mut offs = Vec::new();
    let mut cursor = 64usize;
    for words in [m + 1, total, n + 1, total] {
        offs.push((cursor, words));
        cursor = align64(cursor + 4 * words);
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (off, words) in offs {
        for w in 0..words {
            let word = u32::from_le_bytes(bytes[off + 4 * w..off + 4 * w + 4].try_into().unwrap());
            hash ^= word as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    bytes[40..48].copy_from_slice(&hash.to_le_bytes());
    let mut hdr = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[..48] {
        hdr ^= b as u64;
        hdr = hdr.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[48..56].copy_from_slice(&hdr.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binary round-trip is the identity on arbitrary edge lists, and the
    /// mapped open agrees through a real file.
    #[test]
    fn csr_round_trip_is_identity(edges in prop::collection::vec(
        prop::collection::btree_set(0u32..20, 1..=5),
        0..=30,
    )) {
        let edges: Vec<Vec<u32>> =
            edges.into_iter().map(|s| s.into_iter().collect()).collect();
        let h = hypergraph::builder::hypergraph_from_edges(20, edges);
        let bytes = csr_to_bytes(&h);
        prop_assert_eq!(&csr_from_bytes(&bytes).unwrap(), &h);
        // And byte-stability: re-encoding the decode is the same file.
        prop_assert_eq!(csr_to_bytes(&csr_from_bytes(&bytes).unwrap()), bytes);
    }
}
