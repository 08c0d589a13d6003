//! The bench artifacts as values: build them, write them, parse them, and
//! compare a fresh run against a committed baseline.
//!
//! The `experiments` bin builds five artifacts as [`Json`] trees (with
//! [`obj!`](crate::obj)) and writes each with [`Json::render`]
//! (`BENCH_activeset.json`, `BENCH_batch.json`, `BENCH_serve.json`,
//! `BENCH_coldstart.json`, `BENCH_net.json`) into the working directory,
//! where they stay untracked. The writer is deterministic: object members
//! keep insertion order, the top-level object and the arrays directly under
//! it put one item per line (so a baseline diff stays one workload per line),
//! and a float is rounded once, when it is built ([`Json::fixed`]).
//!
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
//! * **schema drift, both ways** — a baseline key or array element missing
//!   from the fresh artifact, and a fresh key missing from the baseline when
//!   any leaf under it is gated (a new gated field must land with a
//!   regenerated baseline, or it would go uncompared).
//!
//! Host-dependent fields (`host_parallelism`, throughputs, prose
//! descriptions, the scaling-assertion note) are deliberately ignored, so a
//! baseline recorded on one machine gates runs on another: the deterministic
//! fields carry the regression teeth, the banded fields catch catastrophic
//! slowdowns. A fresh ignored field may appear without a baseline.
//!
//! The build is offline and no vendored crate handles JSON, so this module
//! carries a minimal writer and recursive-descent parser — sufficient for
//! the artifacts we emit and strict enough to reject malformed files loudly.

/// A JSON value, parsed or built (numbers are kept as `f64`; counts enter
/// through `From<u64>`, which refuses any an `f64` cannot hold exactly).
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

    /// `x` rounded to `places` decimals, the field's one precision
    /// (`*_ms` 4, `*_ms_per_round` 5, speedups 3, throughputs 1).
    pub fn fixed(x: f64, places: i32) -> Json {
        let scale = 10f64.powi(places);
        Json::Num((x * scale).round() / scale)
    }

    /// The value as a JSON document: the top-level container and the arrays
    /// directly under it put one item per line, deeper values stay inline,
    /// and a number is the `f64` `Display` of its value.
    ///
    /// # Panics
    ///
    /// On a non-finite number, which JSON cannot hold.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Num(x) => {
                assert!(x.is_finite(), "a JSON number cannot be {x}");
                out.push_str(&x.to_string());
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_items(out, ('[', ']'), level, items.iter().map(|v| (None, v)))
            }
            Json::Obj(members) => write_items(
                out,
                ('{', '}'),
                level,
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container's items between `open` and `close`, each behind its
/// key if it has one. `level` is the container's depth (0 = the document).
fn write_items<'a>(
    out: &mut String,
    (open, close): (char, char),
    level: usize,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let broken = level == 0 || (level == 1 && open == '[');
    let mut empty = true;
    out.push(open);
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        if broken {
            out.push('\n');
            out.push_str(&"  ".repeat(level + 1));
        } else if !empty {
            out.push(' ');
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, level + 1);
        empty = false;
    }
    if broken && !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// Writes `s` as a JSON string, escaping `"`, `\` and control characters
/// (RFC 8259 §7).
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// A count. Panics above 2^53, where the parser's `f64` would round it.
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        assert!(x <= 1 << 53, "{x} is above 2^53, which an f64 cannot hold");
        Json::Num(x as f64)
    }
}

/// A count. Panics above 2^53, where the parser's `f64` would round it.
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::from(x as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// A [`Json::Obj`] whose members keep the order written:
/// `obj! { "n" => 4096usize, "ms" => Json::fixed(ms, 4) }`. Each value goes
/// through `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::baseline::Json::Obj(vec![
            $(($key.to_string(), $crate::baseline::Json::from($value))),*
        ])
    };
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
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "unescaped control character at byte {pos}",
                    pos = *pos
                ))
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
        | "stages"
        | "work_per_round"
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
        (Json::Obj(members), Json::Obj(fresh_members)) => {
            for (k, bv) in members {
                let child = format!("{path}.{k}");
                match fresh.get(k) {
                    Some(fv) => walk(&child, k, bv, fv, tol, report),
                    None => report.failures.push(format!(
                        "{child}: present in baseline, missing from fresh run"
                    )),
                }
            }
            for (k, fv) in fresh_members {
                if base.get(k).is_none() && gated(k, fv) {
                    report.failures.push(format!(
                        "{path}.{k}: gated field in fresh run, missing from baseline"
                    ));
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

/// Whether any leaf under `value` (reached through member `key`; array
/// elements inherit it) has a rule other than [`Rule::Ignore`].
fn gated(key: &str, value: &Json) -> bool {
    match value {
        Json::Obj(members) => members.iter().any(|(k, v)| gated(k, v)),
        Json::Arr(items) => items.iter().any(|v| gated(key, v)),
        _ => rule_for(key) != Rule::Ignore,
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
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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
        assert!(Json::parse("\"a\nb\"").is_err());
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

    /// BL stage counts gate exactly: one stage more is a change in what the
    /// solve decided.
    #[test]
    fn stages_gate_exactly() {
        let fresh = FRESH.replace(
            "\"outcomes_identical\": true,",
            "\"outcomes_identical\": true, \"stages\": 133,",
        );
        assert!(check_against(&fresh, &fresh, 0.0).unwrap().passed());
        let drifted = fresh.replace("\"stages\": 133", "\"stages\": 134");
        let report = check_against(&fresh, &drifted, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("fingerprint mismatch") && f.contains("stages")),
            "failures: {:?}",
            report.failures
        );
    }

    /// Work per round is work / rounds, as deterministic as either: a
    /// stale value fails instead of passing unnoticed.
    #[test]
    fn work_per_round_gates_exactly() {
        let fresh = FRESH.replace(
            "\"outcomes_identical\": true,",
            "\"outcomes_identical\": true, \"work_per_round\": 420,",
        );
        assert!(check_against(&fresh, &fresh, 0.0).unwrap().passed());
        let stale = fresh.replace("\"work_per_round\": 420", "\"work_per_round\": 511");
        let report = check_against(&fresh, &stale, 10.0).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("fingerprint mismatch") && f.contains("work_per_round")),
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

    /// A fresh field the baseline lacks fails only if it is gated: a new
    /// `Exact` field would otherwise go uncompared until someone regenerated
    /// the baseline.
    #[test]
    fn a_fresh_gated_field_needs_a_baseline() {
        let with = |extra: &str| {
            FRESH.replace(
                "\"outcomes_identical\": true,",
                &format!("\"outcomes_identical\": true, {extra},"),
            )
        };
        for extra in [
            r#""rng_draws": 200962"#,
            r#""layers": {"decode": {"p50_ms": 0.01}}"#,
            r#""per_stage": [{"name": "solve", "p50_ms": 0.1}]"#,
            r#""p99_ms": [0.5, 0.7]"#,
        ] {
            let report = check_against(&with(extra), FRESH, 0.5).unwrap();
            assert!(
                report
                    .failures
                    .iter()
                    .any(|f| f.contains("missing from baseline")),
                "{extra}: {:?}",
                report.failures
            );
        }
        for extra in [r#""host_parallelism": 4"#, r#""throughput_per_s": 6161.7"#] {
            let report = check_against(&with(extra), FRESH, 0.5).unwrap();
            assert!(report.passed(), "{extra}: {:?}", report.failures);
        }
    }

    #[test]
    fn the_writer_keeps_one_workload_per_line() {
        let v = obj! {
            "experiment" => "x",
            "largest_workload" => obj! { "n" => 4usize, "speedup" => Json::fixed(1.23456, 3) },
            "workloads" => vec![
                obj! {
                    "n" => 1u64 << 53,
                    "ms" => Json::fixed(0.22899999, 4),
                    "shards" => vec![obj! { "shards" => 1usize, "ok" => true }],
                },
                obj! {},
            ],
            "empty" => Vec::new(),
        };
        assert_eq!(
            v.render(),
            r#"{
  "experiment": "x",
  "largest_workload": {"n": 4, "speedup": 1.235},
  "workloads": [
    {"n": 9007199254740992, "ms": 0.229, "shards": [{"shards": 1, "ok": true}]},
    {}
  ],
  "empty": []
}
"#
        );
        assert_eq!(Json::parse(&v.render()), Ok(v));
    }

    #[test]
    #[should_panic(expected = "cannot be NaN")]
    fn a_non_finite_number_panics() {
        Json::fixed(f64::NAN, 3).render();
    }

    #[test]
    #[should_panic(expected = "above 2^53")]
    fn a_count_above_2_pow_53_panics() {
        let _ = Json::from((1u64 << 53) + 1);
    }

    /// Artifact-shaped trees: nested objects and arrays, strings with quotes,
    /// backslashes, control characters and non-ASCII text, counts up to
    /// 2^53 and `fixed` floats. Keys come from a pool holding gated names;
    /// the banded ones (`*_ms`, `speedup*`) only ever hold numbers, as in
    /// the artifacts, and no determinism flag is drawn (it must be `true`).
    struct Trees;

    impl Strategy for Trees {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            object(rng, 1)
        }
    }

    const FREE_KEYS: [&str; 8] = [
        "n",
        "work",
        "kind",
        "outcome_fingerprint",
        "note",
        "quote\"d \\ key",
        "ключ\t1",
        "\u{1}🦀",
    ];
    const BANDED_KEYS: [&str; 4] = ["p50_ms", "ms", "speedup", "flat_ms_per_round"];

    fn object(rng: &mut TestRng, depth: usize) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        for _ in 0..rng.below(5) {
            let (key, value) = if rng.below(3) == 0 {
                let key = BANDED_KEYS[rng.below(4) as usize];
                (key, fixed(rng))
            } else {
                (FREE_KEYS[rng.below(8) as usize], tree(rng, depth + 1))
            };
            if members.iter().all(|(k, _)| k != key) {
                members.push((key.to_string(), value));
            }
        }
        Json::Obj(members)
    }

    fn tree(rng: &mut TestRng, depth: usize) -> Json {
        match rng.below(if depth < 4 { 7 } else { 5 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::from(rng.below((1 << 53) + 1)),
            3 => fixed(rng),
            4 => {
                const CHARS: [char; 14] = [
                    'a', 'Z', ' ', '/', '"', '\\', '\n', '\t', '\r', '\0', '\u{1f}', 'é', '中',
                    '🦀',
                ];
                let len = rng.below(8);
                Json::Str((0..len).map(|_| CHARS[rng.below(14) as usize]).collect())
            }
            5 => Json::Arr((0..rng.below(4)).map(|_| tree(rng, depth + 1)).collect()),
            _ => object(rng, depth),
        }
    }

    fn fixed(rng: &mut TestRng) -> Json {
        let x = rng.next_u64() as i64 as f64 / 1e12;
        Json::fixed(x, rng.below(6) as i32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rendered_trees_parse_back_and_pass_their_own_gate(v in Trees) {
            let text = v.render();
            prop_assert_eq!(Json::parse(&text), Ok(v.clone()));
            let report = check_against(&text, &text, 0.0).unwrap();
            prop_assert!(report.passed(), "{:?}", report.failures);
        }
    }
}
