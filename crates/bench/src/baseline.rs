//! The bench-regression gate: parse the `BENCH_*.json` artifacts and compare
//! a fresh run against a committed baseline.
//!
//! The `experiments` bin emits five JSON artifacts (`BENCH_activeset.json`,
//! `BENCH_batch.json`, `BENCH_serve.json`, `BENCH_coldstart.json`,
//! `BENCH_net.json`) into the working directory, where they stay untracked.
//! The committed copies live in `bench/baselines/`; CI re-runs the guards
//! and then invokes `experiments --check-against bench/baselines`, which
//! routes through [`check_against`] per artifact. The gate fails the job on
//!
//! * **fingerprint mismatches** — deterministic fields (`work`, `depth`,
//!   `rounds`, `rng_draws`, outcome fingerprints, admission counters, …)
//!   must match the baseline *exactly*, and the `*_identical` determinism
//!   flags must be `true`;
//! * **wall-time regressions** — every `*_ms` field may exceed its baseline
//!   by at most the tolerance band;
//! * **speedup erosion** — every `speedup*` field must stay above
//!   baseline ÷ (1 + tolerance), a multiplicative floor that stays live at
//!   any band width;
//! * **schema drift** — a baseline key or array element missing from the
//!   fresh artifact.
//!
//! Host-dependent fields (`host_parallelism`, throughputs, prose
//! descriptions, the scaling-assertion note) are deliberately ignored, so a
//! baseline recorded on one machine gates runs on another: the deterministic
//! fields carry the regression teeth, the banded fields catch catastrophic
//! slowdowns.
//!
//! The build is offline and no vendored crate parses JSON, so this module
//! carries a minimal recursive-descent parser — sufficient for the artifacts
//! we emit and strict enough to reject malformed files loudly.

/// A parsed JSON value (numbers are kept as `f64`; the artifacts only emit
/// integers small enough to round-trip exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number
    Num(f64),
    /// A string
    Str(String),
    /// An array
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys rejected at parse)
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `s` as a single JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members: Vec<(String, Json)> = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key {key:?}"));
                }
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(String::from)?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 is copied through verbatim.
                let start = *pos;
                let width = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(start..start + width)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += width;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

/// FNV-1a over a byte string — the stable 64-bit hash behind the
/// `outcome_fingerprint` fields the artifacts carry (platform- and
/// run-independent for deterministic inputs, unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The outcome of one [`check_against`] comparison.
#[derive(Debug)]
pub struct CheckReport {
    /// Leaf values compared under a non-ignore rule.
    pub compared: usize,
    /// Human-readable failure descriptions (empty = gate passes).
    pub failures: Vec<String>,
}

impl CheckReport {
    /// `true` if the fresh artifact is within the gate.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How a leaf value is gated, keyed on its JSON member name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Must equal the baseline exactly (deterministic fields).
    Exact,
    /// Must be `true` in the fresh artifact (and match the baseline).
    DeterminismFlag,
    /// fresh ≤ baseline × (1 + tolerance).
    WallTimeCeiling,
    /// fresh ≥ baseline ÷ (1 + tolerance).
    SpeedupFloor,
    /// Not gated (host-dependent or informative).
    Ignore,
}

fn rule_for(key: &str) -> Rule {
    match key {
        // Deterministic outputs: any drift is a reproducibility regression.
        "work"
        | "depth"
        | "rounds"
        | "rng_draws"
        | "warm_fresh_allocations"
        | "outcome_fingerprint"
        | "set_fingerprint" => Rule::Exact,
        // Deterministic admission / rewarm accounting (emitted only for the
        // deterministic routing policies).
        "submitted" | "admitted" | "denied_quota" | "denied_in_flight" | "delivered"
        | "rewarm_hits" | "rewarm_misses" => Rule::Exact,
        // Workload identity: a mismatch means the entries are misaligned.
        "experiment" | "kind" | "n" | "m" | "instances" | "requests" | "tenant" | "tenants"
        | "policy" | "shards" => Rule::Exact,
        // Retention accounting in the mutation entry is deterministic: the
        // same edit stream against the same `keep_last` yields the same
        // bound and eviction count.
        "retention_keep_last" | "retention_snapshots_max" | "retention_evictions" => Rule::Exact,
        "sets_identical"
        | "costs_identical"
        | "outcomes_identical"
        | "deterministic_replay"
        | "replay_identical"
        | "wal_replay_identical"
        | "retention_latest_identical"
        | "mapped_identical"
        | "wire_identical" => Rule::DeterminismFlag,
        // Coldstart workload identity: the storage tier and resident
        // footprint of the snapshot under test are deterministic.
        "storage" | "bytes_resident" => Rule::Exact,
        k if k.ends_with("_ms") || k == "ms" => Rule::WallTimeCeiling,
        k if k.starts_with("speedup") => Rule::SpeedupFloor,
        _ => Rule::Ignore,
    }
}

/// Compares a freshly emitted artifact against a committed baseline.
///
/// `tolerance` is the relative band for the wall-time and speedup rules
/// (e.g. `0.5` = a fresh `*_ms` may be up to 1.5× its baseline and a fresh
/// `speedup*` no less than baseline ÷ 1.5). Exact-rule fields ignore the band.
/// Returns `Err` only for unparseable input; gate verdicts are in the
/// [`CheckReport`].
pub fn check_against(fresh: &str, baseline: &str, tolerance: f64) -> Result<CheckReport, String> {
    let fresh = Json::parse(fresh).map_err(|e| format!("fresh artifact: {e}"))?;
    let baseline = Json::parse(baseline).map_err(|e| format!("baseline artifact: {e}"))?;
    let mut report = CheckReport {
        compared: 0,
        failures: Vec::new(),
    };
    walk("$", "", &baseline, &fresh, tolerance, &mut report);
    Ok(report)
}

fn walk(path: &str, key: &str, base: &Json, fresh: &Json, tol: f64, report: &mut CheckReport) {
    match (base, fresh) {
        (Json::Obj(members), Json::Obj(_)) => {
            for (k, bv) in members {
                let child = format!("{path}.{k}");
                match fresh.get(k) {
                    Some(fv) => walk(&child, k, bv, fv, tol, report),
                    None => report.failures.push(format!(
                        "{child}: present in baseline, missing from fresh run"
                    )),
                }
            }
        }
        (Json::Arr(bs), Json::Arr(fs)) => {
            if bs.len() != fs.len() {
                report.failures.push(format!(
                    "{path}: baseline has {} entries, fresh run has {}",
                    bs.len(),
                    fs.len()
                ));
                return;
            }
            for (i, (bv, fv)) in bs.iter().zip(fs).enumerate() {
                // Elements inherit the array's key for rule lookup.
                walk(&format!("{path}[{i}]"), key, bv, fv, tol, report);
            }
        }
        _ => check_leaf(path, key, base, fresh, tol, report),
    }
}

fn check_leaf(
    path: &str,
    key: &str,
    base: &Json,
    fresh: &Json,
    tol: f64,
    report: &mut CheckReport,
) {
    let rule = rule_for(key);
    if rule == Rule::Ignore {
        return;
    }
    report.compared += 1;
    match rule {
        Rule::Exact | Rule::DeterminismFlag => {
            if base != fresh {
                report.failures.push(format!(
                    "{path}: fingerprint mismatch (baseline {base:?}, fresh {fresh:?})"
                ));
            } else if rule == Rule::DeterminismFlag && *fresh != Json::Bool(true) {
                report.failures.push(format!(
                    "{path}: determinism flag is {fresh:?}, expected true"
                ));
            }
        }
        Rule::WallTimeCeiling | Rule::SpeedupFloor => {
            let (Some(b), Some(f)) = (base.as_f64(), fresh.as_f64()) else {
                report.failures.push(format!(
                    "{path}: expected numbers (baseline {base:?}, fresh {fresh:?})"
                ));
                return;
            };
            if b <= 0.0 {
                return; // degenerate baseline — nothing meaningful to gate
            }
            if rule == Rule::WallTimeCeiling && f > b * (1.0 + tol) {
                report.failures.push(format!(
                    "{path}: wall-time regression ({f:.4} vs baseline {b:.4}, \
                     ceiling {:.4})",
                    b * (1.0 + tol)
                ));
            }
            // Multiplicative floor (baseline ÷ band, mirroring the ceiling's
            // baseline × band): stays a live gate at any tolerance, unlike
            // `b * (1 - tol)`, which goes negative — and therefore dead —
            // once the band exceeds 1.
            if rule == Rule::SpeedupFloor && f < b / (1.0 + tol) {
                report.failures.push(format!(
                    "{path}: speedup regression ({f:.4} vs baseline {b:.4}, \
                     floor {:.4})",
                    b / (1.0 + tol)
                ));
            }
        }
        Rule::Ignore => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRESH: &str = r#"{
      "experiment": "serve_sharded_runner",
      "host_parallelism": 4,
      "largest_workload": {"kind": "query", "n": 262144, "speedup_vs_1shard": 1.9},
      "workloads": [
        {"kind": "query", "n": 262144, "instances": 100, "sequential_ms": 64.2,
         "outcomes_identical": true, "outcome_fingerprint": "0x00ff00ff00ff00ff",
         "shards": [{"shards": 1, "ms": 65.0, "speedup_vs_sequential": 0.99},
                    {"shards": 8, "ms": 33.0, "speedup_vs_sequential": 1.95}]}
      ]
    }"#;

    #[test]
    fn parser_round_trips_artifact_shapes() {
        let v = Json::parse(FRESH).unwrap();
        assert_eq!(
            v.get("experiment"),
            Some(&Json::Str("serve_sharded_runner".into()))
        );
        let wl = match v.get("workloads") {
            Some(Json::Arr(a)) => &a[0],
            other => panic!("bad workloads: {other:?}"),
        };
        assert_eq!(wl.get("n").and_then(Json::as_f64), Some(262144.0));
        assert_eq!(wl.get("outcomes_identical"), Some(&Json::Bool(true)));
        // Escapes and rejects.
        assert_eq!(Json::parse(r#""a\nA""#).unwrap(), Json::Str("a\nA".into()));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn identical_artifacts_pass() {
        let report = check_against(FRESH, FRESH, 0.0).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.compared >= 10);
    }

    /// The satellite acceptance check: a doctored baseline trips the gate.
    #[test]
    fn doctored_baseline_trips_on_wall_time() {
        // Baseline claims the sequential path ran 4× faster than the fresh
        // run measured — a seeded synthetic regression.
        let doctored = FRESH.replace("\"sequential_ms\": 64.2", "\"sequential_ms\": 16.0");
        let report = check_against(FRESH, &doctored, 0.5).unwrap();
        assert!(!report.passed());
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("wall-time regression") && f.contains("sequential_ms")),
            "failures: {:?}",
            report.failures
        );
        // A generous band swallows it again.
        assert!(check_against(FRESH, &doctored, 5.0).unwrap().passed());
    }

    #[test]
    fn doctored_baseline_trips_on_fingerprint_mismatch() {
        let doctored = FRESH.replace("0x00ff00ff00ff00ff", "0x0123456789abcdef");
        let report = check_against(FRESH, &doctored, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("fingerprint mismatch") && f.contains("outcome_fingerprint")),
            "failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn false_determinism_flag_trips_even_when_baseline_agrees() {
        let broken = FRESH.replace(
            "\"outcomes_identical\": true",
            "\"outcomes_identical\": false",
        );
        let report = check_against(&broken, &broken, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("determinism flag")),
            "failures: {:?}",
            report.failures
        );
    }

    /// The PR-7 gate: `wal_replay_identical` (and its retention siblings)
    /// are determinism flags — `false` trips even when baseline agrees, and
    /// the retention accounting gates exactly.
    #[test]
    fn wal_replay_and_retention_fields_gate() {
        let fresh = FRESH.replace(
            "\"outcomes_identical\": true,",
            "\"outcomes_identical\": true, \"wal_replay_identical\": true, \
             \"retention_latest_identical\": true, \"retention_keep_last\": 1, \
             \"retention_snapshots_max\": 2, \"retention_evictions\": 3,",
        );
        assert!(check_against(&fresh, &fresh, 0.0).unwrap().passed());
        let broken = fresh.replace(
            "\"wal_replay_identical\": true",
            "\"wal_replay_identical\": false",
        );
        let report = check_against(&broken, &broken, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("determinism flag") && f.contains("wal_replay_identical")),
            "failures: {:?}",
            report.failures
        );
        let drifted = fresh.replace("\"retention_evictions\": 3", "\"retention_evictions\": 7");
        let report = check_against(&fresh, &drifted, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("retention_evictions")),
            "failures: {:?}",
            report.failures
        );
    }

    /// The coldstart gate: `mapped_identical` is a determinism flag and the
    /// snapshot's storage tier + resident footprint gate exactly.
    #[test]
    fn coldstart_fields_gate() {
        let fresh = FRESH.replace(
            "\"outcomes_identical\": true,",
            "\"outcomes_identical\": true, \"mapped_identical\": true, \
             \"storage\": \"mapped\", \"bytes_resident\": 12582944,",
        );
        assert!(check_against(&fresh, &fresh, 0.0).unwrap().passed());
        let broken = fresh.replace("\"mapped_identical\": true", "\"mapped_identical\": false");
        let report = check_against(&broken, &broken, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("determinism flag") && f.contains("mapped_identical")),
            "failures: {:?}",
            report.failures
        );
        let drifted = fresh.replace("\"storage\": \"mapped\"", "\"storage\": \"owned\"");
        let report = check_against(&fresh, &drifted, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("fingerprint mismatch") && f.contains("storage")),
            "failures: {:?}",
            report.failures
        );
    }

    /// Keystream words per solve gate exactly: one word more is a change in
    /// how the solve consumes its RNG.
    #[test]
    fn rng_draws_gate_exactly() {
        let fresh = FRESH.replace(
            "\"outcomes_identical\": true,",
            "\"outcomes_identical\": true, \"rng_draws\": 200962,",
        );
        assert!(check_against(&fresh, &fresh, 0.0).unwrap().passed());
        let drifted = fresh.replace("\"rng_draws\": 200962", "\"rng_draws\": 200963");
        let report = check_against(&fresh, &drifted, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("fingerprint mismatch") && f.contains("rng_draws")),
            "failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn speedup_floor_and_schema_drift_trip() {
        let doctored = FRESH.replace("\"speedup_vs_1shard\": 1.9", "\"speedup_vs_1shard\": 6.0");
        let report = check_against(FRESH, &doctored, 0.5).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("speedup regression")),
            "failures: {:?}",
            report.failures
        );

        // A key present in the baseline but dropped from the fresh artifact.
        let fresh_missing = FRESH.replace("\"host_parallelism\": 4,", "");
        let report = check_against(&fresh_missing, FRESH, 0.5).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("missing from fresh run")),
            "failures: {:?}",
            report.failures
        );

        // Host-dependent fields never gate.
        let other_host = FRESH.replace("\"host_parallelism\": 4", "\"host_parallelism\": 96");
        assert!(check_against(&other_host, FRESH, 0.5).unwrap().passed());
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values: the fingerprint fields in committed baselines
        // depend on this hash never changing.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
