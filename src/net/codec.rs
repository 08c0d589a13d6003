//! The MISP payload codec: lossless binary encodings of
//! [`SolveRequest`] and [`SolveOutcome`] (including the full per-algorithm
//! traces and every [`SolveError`] variant), plus the error-frame payload.
//!
//! Losslessness is load-bearing, not cosmetic: the serving layer's
//! determinism contract is checked through
//! [`SolveOutcome::fingerprint`], and the wire gate
//! (`BENCH_net.json`'s `wire_identical` flag) asserts that an outcome that
//! crossed the wire fingerprints byte-identical to one that never left the
//! process. Every field that participates in the fingerprint — seeds,
//! epochs, independent sets, cost totals, trace records down to their
//! `f64`s (encoded via [`f64::to_bits`], so NaNs and signed zeros survive)
//! and error details — therefore round-trips exactly. The one field a
//! decoder refuses although it encodes is a NaN SBL sampling probability
//! ([`SblConfig::p`]): no solve could use it, so it is malformed.
//!
//! All multi-byte integers are little-endian. Variable-length sequences are
//! a `u32` element count followed by the elements; every count is
//! sanity-checked against the bytes actually remaining before any
//! allocation, so a lying count is a [`FrameError::Malformed`], not an OOM.

use super::frame::{encode_frame, FrameError, FrameKind};
use crate::serve::{
    Algorithm, DenyReason, Epoch, EpochPin, GraphId, SolveError, SolveOutcome, SolveRequest,
    SolveTrace, Target, TenantId,
};
use hypergraph::builder::hypergraph_from_edges;
use hypergraph::{Hypergraph, VertexId};
use mis_core::bl::BlConfig;
use mis_core::sbl::{SblConfig, TailChoice};
use mis_core::trace::{
    BlStageStats, BlTrace, KuwRoundStats, KuwTrace, SblRoundStats, SblTrace, TailAlgorithm,
};
use std::sync::Arc;

/// Cap on the vertex count of an ad-hoc instance shipped in a request
/// frame — the same bound the text reader enforces
/// (`hypergraph::io::MAX_TEXT_VERTICES`), for the same reason: a lying
/// header must not size an allocation.
pub const MAX_WIRE_VERTICES: u64 = 1 << 24;

// ---------------------------------------------------------------------------
// Little-endian primitives.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_vertices(out: &mut Vec<u8>, vs: &[VertexId]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Bounds-checked payload reader. Every accessor returns
/// [`FrameError::Malformed`] with the failing offset and field name instead
/// of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn fail<T>(&self, detail: &'static str) -> Result<T, FrameError> {
        Err(FrameError::Malformed {
            offset: self.pos,
            detail,
        })
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return self.fail(what);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self, what: &'static str) -> Result<usize, FrameError> {
        let v = self.u64(what)?;
        usize::try_from(v).or_else(|_| self.fail(what))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, FrameError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => self.fail(what),
        }
    }

    /// Reads a `u32` element count and sanity-checks it against the bytes
    /// remaining (`min_elem` = minimum encoded size of one element), so the
    /// following loop's `Vec::with_capacity` is bounded by real input.
    fn count(&mut self, min_elem: usize, what: &'static str) -> Result<usize, FrameError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem) > self.buf.len() - self.pos {
            return self.fail(what);
        }
        Ok(n)
    }

    fn str(&mut self, what: &'static str) -> Result<String, FrameError> {
        let n = self.count(1, what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).or_else(|_| self.fail(what))
    }

    fn vertices(&mut self, what: &'static str) -> Result<Vec<VertexId>, FrameError> {
        let n = self.count(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32(what)?);
        }
        Ok(out)
    }

    /// Rejects trailing bytes: a frame carries exactly one message.
    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::TrailingBytes {
                consumed: self.pos,
                len: self.buf.len(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Wire codes for the protocol enums — stable by promise, pinned by tests.

impl Algorithm {
    /// The stable wire code of this algorithm variant (`0`–`5`; the
    /// variant's configuration travels separately). Pinned by unit tests so
    /// reordering the enum cannot silently change the protocol.
    pub fn wire_code(&self) -> u8 {
        match self {
            Algorithm::Sbl(_) => 0,
            Algorithm::Bl(_) => 1,
            Algorithm::Kuw => 2,
            Algorithm::Greedy => 3,
            Algorithm::Permutation => 4,
            Algorithm::Linear => 5,
        }
    }
}

impl EpochPin {
    /// The stable wire code of this pin variant (`0` = latest, `1` = a
    /// pinned epoch, whose number travels separately). Pinned by unit
    /// tests.
    pub fn wire_code(&self) -> u8 {
        match self {
            EpochPin::Latest => 0,
            EpochPin::At(_) => 1,
        }
    }
}

impl SolveError {
    /// The stable numeric error code (the `2xx` block of the
    /// [protocol's error-code table](crate::net#error-codes)); doubles as
    /// the variant tag in the outcome encoding. The two
    /// [`AdmissionDenied`](SolveError::AdmissionDenied) reasons carry
    /// distinct codes so a wire client can tell a drained token bucket from
    /// a hit in-flight cap without decoding details.
    pub fn code(&self) -> u16 {
        match self {
            SolveError::NotLinear(_) => 201,
            SolveError::UnknownGraph(_) => 202,
            SolveError::UnknownEpoch { .. } => 203,
            SolveError::EpochEvicted { .. } => 204,
            SolveError::SnapshotUnavailable { .. } => 205,
            SolveError::InvalidQuery { .. } => 206,
            SolveError::AdmissionDenied {
                reason: DenyReason::QuotaExhausted,
                ..
            } => 207,
            SolveError::AdmissionDenied {
                reason: DenyReason::InFlightCap,
                ..
            } => 208,
            SolveError::DimensionTooLarge { .. } => 209,
        }
    }
}

fn trace_code(trace: &SolveTrace) -> u8 {
    match trace {
        SolveTrace::Sbl(_) => 0,
        SolveTrace::Bl(_) => 1,
        SolveTrace::Kuw(_) => 2,
        SolveTrace::Greedy => 3,
        SolveTrace::Permutation(_) => 4,
        SolveTrace::Linear(_) => 5,
        SolveTrace::Failed => 6,
    }
}

fn tail_choice_code(t: TailChoice) -> u8 {
    match t {
        TailChoice::Greedy => 0,
        TailChoice::Kuw => 1,
    }
}

fn tail_algorithm_code(t: TailAlgorithm) -> u8 {
    match t {
        TailAlgorithm::Greedy => 0,
        TailAlgorithm::Kuw => 1,
        TailAlgorithm::None => 2,
    }
}

// ---------------------------------------------------------------------------
// Graph ids, targets, configurations.

fn put_graph_id(out: &mut Vec<u8>, id: GraphId) {
    let (registry, index) = id.wire_parts();
    put_u64(out, registry);
    put_u64(out, index);
}

fn read_graph_id(r: &mut Reader<'_>) -> Result<GraphId, FrameError> {
    let registry = r.u64("graph id registry tag")?;
    let index = r.u64("graph id index")?;
    Ok(GraphId::from_wire_parts(registry, index))
}

fn put_hypergraph(out: &mut Vec<u8>, h: &Hypergraph) {
    put_u64(out, h.n_vertices() as u64);
    put_u32(out, h.n_edges() as u32);
    for e in h.edges() {
        put_vertices(out, e);
    }
}

fn read_hypergraph(r: &mut Reader<'_>) -> Result<Hypergraph, FrameError> {
    let n = r.u64("ad-hoc vertex count")?;
    if n > MAX_WIRE_VERTICES {
        return r.fail("ad-hoc vertex count exceeds the wire cap");
    }
    let n = n as usize;
    // An edge encodes to ≥ 8 bytes (count + one vertex), so the edge count
    // is bounded by the remaining payload before anything is allocated.
    let m = r.count(8, "ad-hoc edge count")?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let e = r.vertices("ad-hoc edge")?;
        if e.is_empty() {
            return r.fail("ad-hoc edge is empty");
        }
        if e.iter().any(|&v| v as usize >= n) {
            return r.fail("ad-hoc edge lists an out-of-range vertex");
        }
        edges.push(e);
    }
    Ok(hypergraph_from_edges(n, edges))
}

fn put_target(out: &mut Vec<u8>, target: &Target) {
    match target {
        Target::Adhoc(h) => {
            put_u8(out, 0);
            put_hypergraph(out, h);
        }
        Target::Resident(id) => {
            put_u8(out, 1);
            put_graph_id(out, *id);
        }
        Target::Induced { graph, vertices } => {
            put_u8(out, 2);
            put_graph_id(out, *graph);
            put_vertices(out, vertices);
        }
    }
}

fn read_target(r: &mut Reader<'_>) -> Result<Target, FrameError> {
    match r.u8("target tag")? {
        0 => Ok(Target::Adhoc(Arc::new(read_hypergraph(r)?))),
        1 => Ok(Target::Resident(read_graph_id(r)?)),
        2 => {
            let graph = read_graph_id(r)?;
            // Range/duplicate validation happens at solve time (the
            // `InvalidQuery` outcome); the codec only bounds the count.
            let vertices = Arc::new(r.vertices("induced vertex set")?);
            Ok(Target::Induced { graph, vertices })
        }
        _ => r.fail("target tag"),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_u64(out, v);
        }
    }
}

fn read_opt_u64(r: &mut Reader<'_>, what: &'static str) -> Result<Option<u64>, FrameError> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.u64(what)?)),
        _ => r.fail(what),
    }
}

fn put_bl_config(out: &mut Vec<u8>, c: &BlConfig) {
    put_u8(out, c.track_potentials as u8);
    put_usize(out, c.max_stages);
}

fn read_bl_config(r: &mut Reader<'_>) -> Result<BlConfig, FrameError> {
    Ok(BlConfig {
        track_potentials: r.bool("bl track_potentials")?,
        max_stages: r.usize("bl max_stages")?,
    })
}

fn put_sbl_config(out: &mut Vec<u8>, c: &SblConfig) {
    match c.p {
        None => put_u8(out, 0),
        Some(p) => {
            put_u8(out, 1);
            put_f64(out, p);
        }
    }
    put_opt_u64(out, c.dimension_cap.map(|v| v as u64));
    put_opt_u64(out, c.tail_threshold.map(|v| v as u64));
    put_usize(out, c.max_round_retries);
    put_u8(out, tail_choice_code(c.tail));
    put_bl_config(out, &c.bl);
    put_usize(out, c.max_rounds);
}

fn read_sbl_config(r: &mut Reader<'_>) -> Result<SblConfig, FrameError> {
    let p = match r.u8("sbl p flag")? {
        0 => None,
        // NaN is no probability: clamping passes it through to the coins.
        1 => match r.f64("sbl p")? {
            p if p.is_nan() => return r.fail("sbl p is NaN"),
            p => Some(p),
        },
        _ => return r.fail("sbl p flag"),
    };
    let dimension_cap = read_opt_u64(r, "sbl dimension_cap")?.map(|v| v as usize);
    let tail_threshold = read_opt_u64(r, "sbl tail_threshold")?.map(|v| v as usize);
    let max_round_retries = r.usize("sbl max_round_retries")?;
    let tail = match r.u8("sbl tail choice")? {
        0 => TailChoice::Greedy,
        1 => TailChoice::Kuw,
        _ => return r.fail("sbl tail choice"),
    };
    let bl = read_bl_config(r)?;
    let max_rounds = r.usize("sbl max_rounds")?;
    Ok(SblConfig {
        p,
        dimension_cap,
        tail_threshold,
        max_round_retries,
        tail,
        bl,
        max_rounds,
    })
}

fn put_algorithm(out: &mut Vec<u8>, a: &Algorithm) {
    put_u8(out, a.wire_code());
    match a {
        Algorithm::Sbl(c) => put_sbl_config(out, c),
        Algorithm::Bl(c) => put_bl_config(out, c),
        Algorithm::Kuw | Algorithm::Greedy | Algorithm::Permutation | Algorithm::Linear => {}
    }
}

fn read_algorithm(r: &mut Reader<'_>) -> Result<Algorithm, FrameError> {
    match r.u8("algorithm code")? {
        0 => Ok(Algorithm::Sbl(read_sbl_config(r)?)),
        1 => Ok(Algorithm::Bl(read_bl_config(r)?)),
        2 => Ok(Algorithm::Kuw),
        3 => Ok(Algorithm::Greedy),
        4 => Ok(Algorithm::Permutation),
        5 => Ok(Algorithm::Linear),
        _ => r.fail("algorithm code"),
    }
}

fn put_pin(out: &mut Vec<u8>, pin: EpochPin) {
    put_u8(out, pin.wire_code());
    if let EpochPin::At(e) = pin {
        put_u64(out, e.0);
    }
}

fn read_pin(r: &mut Reader<'_>) -> Result<EpochPin, FrameError> {
    match r.u8("epoch pin tag")? {
        0 => Ok(EpochPin::Latest),
        1 => Ok(EpochPin::At(Epoch(r.u64("pinned epoch")?))),
        _ => r.fail("epoch pin tag"),
    }
}

// ---------------------------------------------------------------------------
// Requests.

/// Encodes one request frame: the MISP header plus the request payload,
/// carrying the caller-chosen `correlation` id the server echoes back in
/// the matching outcome (tickets are assigned server-side and global across
/// connections, so clients correlate by this id instead).
pub fn encode_request_frame(correlation: u64, request: &SolveRequest) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_u64(&mut payload, correlation);
    put_u64(&mut payload, request.tenant().0);
    put_target(&mut payload, request.target());
    put_algorithm(&mut payload, request.algorithm());
    put_u64(&mut payload, request.seed());
    put_pin(&mut payload, request.pin());
    let mut out = Vec::with_capacity(payload.len() + super::frame::HEADER_LEN);
    encode_frame(FrameKind::Request, &payload, &mut out);
    out
}

/// Decodes a request-frame payload into `(correlation, request)`. The
/// request is rebuilt through the [`SolveRequest`] builder — the same
/// single construction path library callers use.
pub fn decode_request_payload(payload: &[u8]) -> Result<(u64, SolveRequest), FrameError> {
    let mut r = Reader::new(payload);
    let correlation = r.u64("correlation id")?;
    let tenant = TenantId(r.u64("tenant id")?);
    let target = read_target(&mut r)?;
    let algorithm = read_algorithm(&mut r)?;
    let seed = r.u64("request seed")?;
    let pin = read_pin(&mut r)?;
    r.finish()?;
    let builder = match target {
        Target::Adhoc(h) => SolveRequest::adhoc(h),
        Target::Resident(id) => SolveRequest::for_graph(id),
        Target::Induced { graph, vertices } => SolveRequest::induced(graph, vertices),
    };
    let request = builder
        .algorithm(algorithm)
        .seed(seed)
        .pin(pin)
        .tenant(tenant)
        .build();
    Ok((correlation, request))
}

// ---------------------------------------------------------------------------
// Traces.

fn put_sbl_trace(out: &mut Vec<u8>, t: &SblTrace) {
    put_u32(out, t.rounds.len() as u32);
    for s in &t.rounds {
        put_usize(out, s.round);
        put_usize(out, s.n_alive);
        put_usize(out, s.m);
        put_f64(out, s.p);
        put_usize(out, s.sampled);
        put_usize(out, s.sample_dimension);
        put_usize(out, s.dimension_failures);
        put_usize(out, s.sample_edges);
        put_usize(out, s.added);
        put_usize(out, s.rejected);
        put_usize(out, s.edges_discarded);
        put_usize(out, s.bl_stages);
    }
    put_u8(out, tail_algorithm_code(t.tail));
    put_usize(out, t.tail_vertices);
    put_u8(out, t.direct_bl as u8);
}

fn read_sbl_trace(r: &mut Reader<'_>) -> Result<SblTrace, FrameError> {
    let n = r.count(96, "sbl round count")?;
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(SblRoundStats {
            round: r.usize("sbl round")?,
            n_alive: r.usize("sbl n_alive")?,
            m: r.usize("sbl m")?,
            p: r.f64("sbl p")?,
            sampled: r.usize("sbl sampled")?,
            sample_dimension: r.usize("sbl sample_dimension")?,
            dimension_failures: r.usize("sbl dimension_failures")?,
            sample_edges: r.usize("sbl sample_edges")?,
            added: r.usize("sbl added")?,
            rejected: r.usize("sbl rejected")?,
            edges_discarded: r.usize("sbl edges_discarded")?,
            bl_stages: r.usize("sbl bl_stages")?,
        });
    }
    let tail = match r.u8("sbl tail algorithm")? {
        0 => TailAlgorithm::Greedy,
        1 => TailAlgorithm::Kuw,
        2 => TailAlgorithm::None,
        _ => return r.fail("sbl tail algorithm"),
    };
    let tail_vertices = r.usize("sbl tail_vertices")?;
    let direct_bl = r.bool("sbl direct_bl")?;
    Ok(SblTrace {
        rounds,
        tail,
        tail_vertices,
        direct_bl,
    })
}

fn put_bl_trace(out: &mut Vec<u8>, t: &BlTrace) {
    put_u32(out, t.stages.len() as u32);
    for s in &t.stages {
        put_usize(out, s.stage);
        put_usize(out, s.n_alive);
        put_usize(out, s.m);
        put_usize(out, s.dimension);
        put_f64(out, s.delta);
        put_f64(out, s.p);
        put_usize(out, s.marked);
        put_usize(out, s.unmarked);
        put_usize(out, s.added);
        put_usize(out, s.dominated_removed);
        put_usize(out, s.singletons_removed);
        put_u32(out, s.deltas_by_dimension.len() as u32);
        for &d in &s.deltas_by_dimension {
            put_f64(out, d);
        }
    }
}

fn read_bl_trace(r: &mut Reader<'_>) -> Result<BlTrace, FrameError> {
    let n = r.count(92, "bl stage count")?;
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = r.usize("bl stage")?;
        let n_alive = r.usize("bl n_alive")?;
        let m = r.usize("bl m")?;
        let dimension = r.usize("bl dimension")?;
        let delta = r.f64("bl delta")?;
        let p = r.f64("bl p")?;
        let marked = r.usize("bl marked")?;
        let unmarked = r.usize("bl unmarked")?;
        let added = r.usize("bl added")?;
        let dominated_removed = r.usize("bl dominated_removed")?;
        let singletons_removed = r.usize("bl singletons_removed")?;
        let dn = r.count(8, "bl deltas_by_dimension count")?;
        let mut deltas_by_dimension = Vec::with_capacity(dn);
        for _ in 0..dn {
            deltas_by_dimension.push(r.f64("bl deltas_by_dimension")?);
        }
        stages.push(BlStageStats {
            stage,
            n_alive,
            m,
            dimension,
            delta,
            p,
            marked,
            unmarked,
            added,
            dominated_removed,
            singletons_removed,
            deltas_by_dimension,
        });
    }
    Ok(BlTrace { stages })
}

fn put_kuw_trace(out: &mut Vec<u8>, t: &KuwTrace) {
    put_u32(out, t.rounds.len() as u32);
    for s in &t.rounds {
        put_usize(out, s.round);
        put_usize(out, s.n_alive);
        put_usize(out, s.m);
        put_usize(out, s.candidates_tested);
        put_usize(out, s.batch_added);
        put_usize(out, s.excluded);
    }
}

fn read_kuw_trace(r: &mut Reader<'_>) -> Result<KuwTrace, FrameError> {
    let n = r.count(48, "kuw round count")?;
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(KuwRoundStats {
            round: r.usize("kuw round")?,
            n_alive: r.usize("kuw n_alive")?,
            m: r.usize("kuw m")?,
            candidates_tested: r.usize("kuw candidates_tested")?,
            batch_added: r.usize("kuw batch_added")?,
            excluded: r.usize("kuw excluded")?,
        });
    }
    Ok(KuwTrace { rounds })
}

fn put_trace(out: &mut Vec<u8>, t: &SolveTrace) {
    put_u8(out, trace_code(t));
    match t {
        SolveTrace::Sbl(t) => put_sbl_trace(out, t),
        SolveTrace::Bl(t) | SolveTrace::Linear(t) => put_bl_trace(out, t),
        SolveTrace::Kuw(t) => put_kuw_trace(out, t),
        SolveTrace::Permutation(order) => put_vertices(out, order),
        SolveTrace::Greedy | SolveTrace::Failed => {}
    }
}

fn read_trace(r: &mut Reader<'_>) -> Result<SolveTrace, FrameError> {
    match r.u8("trace tag")? {
        0 => Ok(SolveTrace::Sbl(read_sbl_trace(r)?)),
        1 => Ok(SolveTrace::Bl(read_bl_trace(r)?)),
        2 => Ok(SolveTrace::Kuw(read_kuw_trace(r)?)),
        3 => Ok(SolveTrace::Greedy),
        4 => Ok(SolveTrace::Permutation(r.vertices("permutation order")?)),
        5 => Ok(SolveTrace::Linear(read_bl_trace(r)?)),
        6 => Ok(SolveTrace::Failed),
        _ => r.fail("trace tag"),
    }
}

// ---------------------------------------------------------------------------
// Solve errors (as outcome data).

fn put_solve_error(out: &mut Vec<u8>, e: &SolveError) {
    put_u16(out, e.code());
    match e {
        SolveError::NotLinear(mis_core::linear::LinearError::NotLinear { first, second }) => {
            put_usize(out, *first);
            put_usize(out, *second);
        }
        SolveError::UnknownGraph(id) => put_graph_id(out, *id),
        SolveError::UnknownEpoch { graph, epoch } => {
            put_graph_id(out, *graph);
            put_u64(out, epoch.0);
        }
        SolveError::EpochEvicted {
            graph,
            epoch,
            floor,
        } => {
            put_graph_id(out, *graph);
            put_u64(out, epoch.0);
            put_u64(out, floor.0);
        }
        SolveError::SnapshotUnavailable { graph, detail } => {
            put_graph_id(out, *graph);
            put_str(out, detail);
        }
        SolveError::InvalidQuery { vertex, duplicate } => {
            put_u32(out, *vertex);
            put_u8(out, *duplicate as u8);
        }
        SolveError::AdmissionDenied { tenant, .. } => {
            // The deny reason is the code itself (207/208).
            put_u64(out, tenant.0);
        }
        SolveError::DimensionTooLarge { dimension, max } => {
            put_usize(out, *dimension);
            put_usize(out, *max);
        }
    }
}

fn read_solve_error(r: &mut Reader<'_>) -> Result<SolveError, FrameError> {
    match r.u16("solve error code")? {
        201 => Ok(SolveError::NotLinear(
            mis_core::linear::LinearError::NotLinear {
                first: r.usize("not-linear first edge")?,
                second: r.usize("not-linear second edge")?,
            },
        )),
        202 => Ok(SolveError::UnknownGraph(read_graph_id(r)?)),
        203 => Ok(SolveError::UnknownEpoch {
            graph: read_graph_id(r)?,
            epoch: Epoch(r.u64("unknown epoch")?),
        }),
        204 => Ok(SolveError::EpochEvicted {
            graph: read_graph_id(r)?,
            epoch: Epoch(r.u64("evicted epoch")?),
            floor: Epoch(r.u64("retention floor epoch")?),
        }),
        205 => Ok(SolveError::SnapshotUnavailable {
            graph: read_graph_id(r)?,
            detail: r.str("snapshot-unavailable detail")?,
        }),
        206 => Ok(SolveError::InvalidQuery {
            vertex: r.u32("invalid query vertex")?,
            duplicate: r.bool("invalid query duplicate flag")?,
        }),
        code @ (207 | 208) => Ok(SolveError::AdmissionDenied {
            tenant: TenantId(r.u64("denied tenant")?),
            reason: if code == 207 {
                DenyReason::QuotaExhausted
            } else {
                DenyReason::InFlightCap
            },
        }),
        209 => Ok(SolveError::DimensionTooLarge {
            dimension: r.usize("too-large dimension")?,
            max: r.usize("enumerable dimension")?,
        }),
        _ => r.fail("solve error code"),
    }
}

// ---------------------------------------------------------------------------
// Outcomes.

/// Encodes one outcome frame, echoing the request's `correlation` id.
pub fn encode_outcome_frame(correlation: u64, outcome: &SolveOutcome) -> Vec<u8> {
    let mut payload = Vec::with_capacity(128);
    put_u64(&mut payload, correlation);
    put_u64(&mut payload, outcome.ticket);
    put_u64(&mut payload, outcome.shard as u64);
    put_u64(&mut payload, outcome.tenant.0);
    put_u64(&mut payload, outcome.seed);
    put_opt_u64(&mut payload, outcome.epoch.map(|e| e.0));
    put_vertices(&mut payload, &outcome.independent_set);
    put_u64(&mut payload, outcome.work);
    put_u64(&mut payload, outcome.depth);
    put_u64(&mut payload, outcome.rounds);
    put_trace(&mut payload, &outcome.trace);
    match &outcome.error {
        None => put_u8(&mut payload, 0),
        Some(e) => {
            put_u8(&mut payload, 1);
            put_solve_error(&mut payload, e);
        }
    }
    let mut out = Vec::with_capacity(payload.len() + super::frame::HEADER_LEN);
    encode_frame(FrameKind::Outcome, &payload, &mut out);
    out
}

/// Decodes an outcome-frame payload into `(correlation, outcome)`. The
/// outcome is lossless down to the trace `f64`s, so
/// [`SolveOutcome::fingerprint`] of the decode equals the fingerprint of
/// what the server encoded.
pub fn decode_outcome_payload(payload: &[u8]) -> Result<(u64, SolveOutcome), FrameError> {
    let mut r = Reader::new(payload);
    let correlation = r.u64("correlation id")?;
    let ticket = r.u64("outcome ticket")?;
    let shard = r.usize("outcome shard")?;
    let tenant = TenantId(r.u64("outcome tenant")?);
    let seed = r.u64("outcome seed")?;
    let epoch = read_opt_u64(&mut r, "outcome epoch")?.map(Epoch);
    let independent_set = r.vertices("independent set")?;
    let work = r.u64("outcome work")?;
    let depth = r.u64("outcome depth")?;
    let rounds = r.u64("outcome rounds")?;
    let trace = read_trace(&mut r)?;
    let error = match r.u8("outcome error flag")? {
        0 => None,
        1 => Some(read_solve_error(&mut r)?),
        _ => return r.fail("outcome error flag"),
    };
    r.finish()?;
    Ok((
        correlation,
        SolveOutcome {
            ticket,
            shard,
            tenant,
            seed,
            epoch,
            independent_set,
            work,
            depth,
            rounds,
            trace,
            error,
        },
    ))
}

// ---------------------------------------------------------------------------
// Error frames.

/// A protocol-level failure reported by the peer in an error frame: the
/// frame or payload was rejected before reaching the serving layer (frame
/// codes `1xx`), or the connection was refused. Carried by
/// [`Error::Remote`](crate::Error::Remote) on the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// The correlation id of the request the failure answers (`0` when the
    /// failure was not attributable to a decodable request).
    pub correlation: u64,
    /// The stable numeric error code (see the
    /// [error-code table](crate::net#error-codes)).
    pub code: u16,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peer reported error {} (correlation {}): {}",
            self.code, self.correlation, self.message
        )
    }
}

impl std::error::Error for RemoteError {}

/// Encodes one error frame.
pub fn encode_error_frame(correlation: u64, code: u16, message: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + message.len());
    put_u64(&mut payload, correlation);
    put_u16(&mut payload, code);
    put_str(&mut payload, message);
    let mut out = Vec::with_capacity(payload.len() + super::frame::HEADER_LEN);
    encode_frame(FrameKind::Error, &payload, &mut out);
    out
}

/// Decodes an error-frame payload.
pub fn decode_error_payload(payload: &[u8]) -> Result<RemoteError, FrameError> {
    let mut r = Reader::new(payload);
    let correlation = r.u64("correlation id")?;
    let code = r.u16("error code")?;
    let message = r.str("error message")?;
    r.finish()?;
    Ok(RemoteError {
        correlation,
        code,
        message,
    })
}
