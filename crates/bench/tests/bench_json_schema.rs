//! Schema sanity checks for the checked-in `BENCH_*.json` records: a
//! hand-rolled mini JSON parser (the workspace deliberately carries no JSON
//! dependency) that fails CI when a bench record goes stale — wrong shape,
//! missing series, or a depth sweep that no longer covers the acceptance
//! point (depth 128).

use std::collections::BTreeMap;

/// A minimal JSON value: just enough for flat bench records.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Bench records contain no escapes; pass them through
                    // verbatim so a malformed file still fails loudly later.
                    out.push('\\');
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']' (found {other:?})")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => return Err(format!("expected ',' or '}}' (found {other:?})")),
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser::new(text);
    let v = p.value().expect("valid JSON");
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
    v
}

fn load(name: &str) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name} must be checked in at the workspace root: {e}"));
    parse(&text)
}

/// Common envelope: `bench` name, `units`, non-empty `results` rows each
/// carrying a positive `depth` and a positive `speedup`, with depth 128
/// present (the acceptance point the README quotes).
fn check_envelope(doc: &Json, bench: &str, row_check: impl Fn(&Json)) {
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some(bench));
    assert_eq!(
        doc.get("units").and_then(Json::as_str),
        Some("ns_per_call"),
        "stale units field"
    );
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results array");
    assert!(!results.is_empty(), "empty results");
    let mut saw_128 = false;
    for row in results {
        let depth = row.get("depth").and_then(Json::as_f64).expect("row depth");
        assert!(depth > 0.0 && depth.fract() == 0.0, "bad depth {depth}");
        saw_128 |= depth == 128.0;
        let speedup = row
            .get("speedup")
            .and_then(Json::as_f64)
            .expect("row speedup");
        assert!(speedup > 0.0, "non-positive speedup");
        row_check(row);
    }
    assert!(saw_128, "depth sweep must include the acceptance point 128");
}

#[test]
fn bench_edf_json_schema_is_current() {
    let doc = load("BENCH_edf.json");
    check_envelope(&doc, "edf_is_schedulable", |row| {
        let kind = row.get("kind").and_then(Json::as_str).expect("row kind");
        assert!(matches!(kind, "cpu" | "gpu"), "unknown kind {kind}");
        assert!(row.get("event_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("reference_ns").and_then(Json::as_f64).unwrap() > 0.0);
        // A dense placement that fits, then its backtrack: push + verdict
        // + undo on the standing queue.
        assert!(
            row.get("timeline_dense_ns")
                .and_then(Json::as_f64)
                .expect("row timeline_dense_ns")
                > 0.0
        );
        // A placement attempt that fails: one `try_push` on the standing
        // queue, which moves nothing.
        assert!(
            row.get("timeline_probe_fail_ns")
                .and_then(Json::as_f64)
                .expect("row timeline_probe_fail_ns")
                > 0.0
        );
        // With-phantom columns: incremental timeline probe vs the oracle's
        // engine run over a queue holding one future-released job.
        assert!(
            row.get("timeline_phantom_ns")
                .and_then(Json::as_f64)
                .expect("row timeline_phantom_ns")
                > 0.0
        );
        assert!(
            row.get("oracle_phantom_ns")
                .and_then(Json::as_f64)
                .expect("row oracle_phantom_ns")
                > 0.0
        );
        assert!(
            row.get("phantom_speedup")
                .and_then(Json::as_f64)
                .expect("row phantom_speedup")
                > 0.0
        );
    });
    // At the acceptance depth the timeline must clearly beat re-running the
    // engine per probe on both kinds: the segment sweep on the preemptable
    // one, the release-merge walk on the non-preemptable one. At the
    // depth the managers' queues reach, a dense probe must cost at most
    // half an engine run over the same queue, and a failed probe, which
    // moves no memory, less than a dense probe.
    let results = doc.get("results").and_then(Json::as_array).unwrap();
    let row = |kind: &str, depth: f64| {
        results
            .iter()
            .find(|r| {
                r.get("kind").and_then(Json::as_str) == Some(kind)
                    && r.get("depth").and_then(Json::as_f64) == Some(depth)
            })
            .unwrap_or_else(|| panic!("{kind} row at depth {depth}"))
    };
    for kind in ["cpu", "gpu"] {
        let phantom_speedup = row(kind, 128.0)
            .get("phantom_speedup")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(
            phantom_speedup >= 2.0,
            "{kind} phantom probe speedup at depth 128 regressed below 2x: {phantom_speedup}"
        );
        let row_32 = row(kind, 32.0);
        let dense_ns = row_32
            .get("timeline_dense_ns")
            .and_then(Json::as_f64)
            .unwrap();
        let event_ns = row_32.get("event_ns").and_then(Json::as_f64).unwrap();
        assert!(
            dense_ns <= event_ns / 2.0,
            "{kind} dense probe at depth 32 costs over half an engine run: \
             {dense_ns} ns vs {event_ns} ns"
        );
        let fail_ns = row_32
            .get("timeline_probe_fail_ns")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(
            fail_ns < dense_ns,
            "{kind} failed probe at depth 32 costs no less than a dense probe: \
             {fail_ns} ns vs {dense_ns} ns"
        );
    }
}

#[test]
fn bench_activation_json_schema_is_current() {
    let doc = load("BENCH_activation.json");
    let mut series = Vec::new();
    check_envelope(&doc, "activation_latency", |row| {
        let s = row
            .get("series")
            .and_then(Json::as_str)
            .expect("row series");
        assert!(
            matches!(
                s,
                "heuristic_decide"
                    | "milp_fallback_decide"
                    | "heuristic_decide_phantom"
                    | "milp_fallback_decide_phantom"
                    | "simulate_100_requests_heuristic"
            ),
            "unknown series {s}"
        );
        assert!(row.get("baseline_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("incremental_ns").and_then(Json::as_f64).unwrap() > 0.0);
    });
    for row in doc.get("results").and_then(Json::as_array).unwrap() {
        series.push((
            row.get("series").and_then(Json::as_str).unwrap().to_owned(),
            row.get("depth").and_then(Json::as_f64).unwrap() as u64,
            row.get("speedup").and_then(Json::as_f64).unwrap(),
        ));
    }
    // All five series must be present...
    for want in [
        "heuristic_decide",
        "milp_fallback_decide",
        "heuristic_decide_phantom",
        "milp_fallback_decide_phantom",
        "simulate_100_requests_heuristic",
    ] {
        assert!(
            series.iter().any(|(s, _, _)| s == want),
            "missing series {want}"
        );
    }
    // ...and the recorded speedups must meet the acceptance bars: 2x
    // end-to-end, and 2x for the with-phantom decide() series now that
    // preemptable future releases stay on the incremental path.
    for (want, label) in [
        ("simulate_100_requests_heuristic", "end-to-end"),
        ("heuristic_decide_phantom", "with-phantom heuristic"),
        ("milp_fallback_decide_phantom", "with-phantom milp fallback"),
    ] {
        let row_128 = series
            .iter()
            .find(|(s, d, _)| s == want && *d == 128)
            .unwrap_or_else(|| panic!("{want} row at depth 128"));
        assert!(
            row_128.2 >= 2.0,
            "recorded {label} speedup at depth 128 regressed below 2x: {}",
            row_128.2
        );
    }
}

/// `BENCH_platform.json` — the resource-count scaling record for the
/// pruned candidate path (`platform_scale` bin). The depth column is the
/// *resource count*; the acceptance bar is a >= 5x heuristic decide speedup
/// at 128 resources and beyond, pruned (shared `CandidateTable` + installed
/// `PlatformIndex`) vs the legacy rebuild-per-rung path.
#[test]
fn bench_platform_json_schema_is_current() {
    let doc = load("BENCH_platform.json");
    let mut series = Vec::new();
    check_envelope(&doc, "platform_scale", |row| {
        let s = row
            .get("series")
            .and_then(Json::as_str)
            .expect("row series");
        assert!(
            matches!(
                s,
                "heuristic_decide" | "heuristic_decide_phantom" | "exact_decide_phantom"
            ),
            "unknown series {s}"
        );
        assert!(row.get("baseline_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("pruned_ns").and_then(Json::as_f64).unwrap() > 0.0);
    });
    for row in doc.get("results").and_then(Json::as_array).unwrap() {
        series.push((
            row.get("series").and_then(Json::as_str).unwrap().to_owned(),
            row.get("depth").and_then(Json::as_f64).unwrap() as u64,
            row.get("speedup").and_then(Json::as_f64).unwrap(),
        ));
    }
    for want in [
        "heuristic_decide",
        "heuristic_decide_phantom",
        "exact_decide_phantom",
    ] {
        assert!(
            series.iter().any(|(s, _, _)| s == want),
            "missing series {want}"
        );
    }
    // The sweep must cover the full resource axis...
    for want in [6, 32, 128, 512] {
        assert!(
            series
                .iter()
                .any(|(s, d, _)| s == "heuristic_decide" && *d == want),
            "heuristic_decide must cover {want} resources"
        );
    }
    // ...and hold the acceptance bar at 128 resources and beyond: the
    // pruned heuristic decide must be at least 5x the unpruned baseline.
    for (s, d, speedup) in &series {
        if s.starts_with("heuristic") && *d >= 128 {
            assert!(
                *speedup >= 5.0,
                "recorded {s} speedup at {d} resources regressed below 5x: {speedup}"
            );
        }
        if s == "exact_decide_phantom" {
            assert!(
                *speedup >= 1.0,
                "pruned exact ladder slower than the legacy path at {d}: {speedup}"
            );
        }
    }
}

/// `BENCH_milp.json` — the exact-backend warm-start/presolve record
/// (`milp_scale` bin). The depth column is the resource count; the
/// acceptance bar is a >= 3x ladder-decide speedup at 128 resources and
/// beyond, warm-started + presolved defaults vs the cold/unpresolved
/// baseline on the contended pair fixture. The `milp_lt_budget` row runs
/// the sweeps' 25 000-node exact manager over fig2's LT prediction-off
/// cell; its bar is on a deterministic count: at most a tenth of the
/// decides admit from a search the budget cut (0.37 before the search
/// priced GPU time in its bound). The `milp_vt_phantom` row runs a VT
/// perfect-phantom cell budgeted and unbudgeted; its bar is on the count
/// of traces whose budgeted report differs from the unbudgeted one: at
/// most 0.15 of them (36 of 160 before the first-dispatch cut).
#[test]
fn bench_milp_json_schema_is_current() {
    let doc = load("BENCH_milp.json");
    let mut series = Vec::new();
    check_envelope(&doc, "milp_scale", |row| {
        let s = row
            .get("series")
            .and_then(Json::as_str)
            .expect("row series");
        assert!(
            matches!(
                s,
                "milp_ladder_decide" | "milp_lt_budget" | "milp_vt_phantom"
            ),
            "unknown series {s}"
        );
        assert!(row.get("baseline_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("warm_ns").and_then(Json::as_f64).unwrap() > 0.0);
    });
    let lt = doc
        .get("results")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|row| row.get("series").and_then(Json::as_str) == Some("milp_lt_budget"))
        .expect("missing series milp_lt_budget");
    let field = |name: &str| {
        lt.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("milp_lt_budget row lacks {name}"))
    };
    let decides = field("decides");
    assert_eq!(
        decides, 8000.0,
        "fig2's LT cell is 40 traces x 200 requests"
    );
    assert!(field("nodes_per_decide") > 0.0);
    let share = field("budget_cut_share");
    assert!(
        (share - field("budget_cut_admits") / decides).abs() < 1e-4,
        "budget_cut_share is budget_cut_admits per decide"
    );
    assert!(
        share <= 0.1,
        "recorded LT budget-cut share regressed above 0.1: {share}"
    );
    let vt = doc
        .get("results")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|row| row.get("series").and_then(Json::as_str) == Some("milp_vt_phantom"))
        .expect("missing series milp_vt_phantom");
    let field = |name: &str| {
        vt.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("milp_vt_phantom row lacks {name}"))
    };
    assert_eq!(
        field("decides"),
        20_000.0,
        "the VT cell is 160 traces x 125 requests"
    );
    let traces = field("traces");
    assert_eq!(traces, 160.0);
    let differing = field("differing_traces");
    assert!(
        differing <= 0.15 * traces,
        "recorded VT phantom budget differences regressed above 0.15 of the traces: \
         {differing} of {traces}"
    );
    for row in doc.get("results").and_then(Json::as_array).unwrap() {
        series.push((
            row.get("series").and_then(Json::as_str).unwrap().to_owned(),
            row.get("depth").and_then(Json::as_f64).unwrap() as u64,
            row.get("speedup").and_then(Json::as_f64).unwrap(),
        ));
    }
    assert!(
        series.iter().any(|(s, _, _)| s == "milp_ladder_decide"),
        "missing series milp_ladder_decide"
    );
    // The ladder series must cover the scaling axis...
    for want in [32, 128, 512] {
        assert!(
            series
                .iter()
                .any(|(s, d, _)| s == "milp_ladder_decide" && *d == want),
            "milp_ladder_decide must cover {want} resources"
        );
    }
    // ...and hold the acceptance bar at 128 resources and beyond: the
    // warm-started, presolved exact ladder must be at least 3x the cold
    // baseline (the recorded runs show ~20x and ~40x).
    for (s, d, speedup) in &series {
        if s == "milp_ladder_decide" && *d >= 128 {
            assert!(
                *speedup >= 3.0,
                "recorded {s} speedup at {d} resources regressed below 3x: {speedup}"
            );
        }
    }
}

/// `BENCH_horizon.json` — the horizon-depth scaling record (`horizon`
/// bin). The depth column is the number of admitted phantoms `k`, so it
/// does not go through [`check_envelope`] (which pins depth 128): the
/// acceptance points are k ∈ {1, 2, 4, 8} for the heuristic series, and
/// every row must record `engine_verdicts: 0` — deeper horizons stay on
/// the incremental fast path on every resource (the fixture never puts two
/// phantoms in one GPU queue).
#[test]
fn bench_horizon_json_schema_is_current() {
    let doc = load("BENCH_horizon.json");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("horizon"));
    assert_eq!(
        doc.get("units").and_then(Json::as_str),
        Some("ns_per_call"),
        "stale units field"
    );
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results array");
    assert!(!results.is_empty(), "empty results");
    let mut series = Vec::new();
    for row in results {
        let s = row
            .get("series")
            .and_then(Json::as_str)
            .expect("row series");
        assert!(
            matches!(s, "heuristic_decide" | "exact_decide"),
            "unknown series {s}"
        );
        let depth = row.get("depth").and_then(Json::as_f64).expect("row depth");
        assert!(depth > 0.0 && depth.fract() == 0.0, "bad depth {depth}");
        assert!(row.get("baseline_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("decide_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("ratio").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(
            row.get("engine_verdicts").and_then(Json::as_f64),
            Some(0.0),
            "{s} k={depth}: a probe left the incremental fast path"
        );
        series.push((s.to_owned(), depth as u64));
    }
    for want in [1, 2, 4, 8] {
        assert!(
            series
                .iter()
                .any(|(s, d)| s == "heuristic_decide" && *d == want),
            "heuristic_decide must cover horizon depth {want}"
        );
    }
    assert!(
        series.iter().any(|(s, d)| s == "exact_decide" && *d > 1),
        "exact_decide must cover a multi-phantom rung"
    );
}

/// `BENCH_sweep.json` has its own acceptance points (batch sizes 64 and
/// 512), so it does not go through [`check_envelope`] (which pins 128).
#[test]
fn bench_sweep_json_schema_is_current() {
    let doc = load("BENCH_sweep.json");
    assert_eq!(
        doc.get("bench").and_then(Json::as_str),
        Some("sweep_throughput")
    );
    assert_eq!(
        doc.get("units").and_then(Json::as_str),
        Some("ns_per_trace"),
        "stale units field"
    );
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results array");
    assert!(!results.is_empty(), "empty results");
    let mut batches = Vec::new();
    for row in results {
        assert_eq!(
            row.get("series").and_then(Json::as_str),
            Some("warm_pool_vs_cold"),
            "unknown series"
        );
        let depth = row.get("depth").and_then(Json::as_f64).expect("row depth");
        assert!(depth > 0.0 && depth.fract() == 0.0, "bad depth {depth}");
        batches.push(depth as u64);
        assert!(row.get("baseline_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(row.get("incremental_ns").and_then(Json::as_f64).unwrap() > 0.0);
        let speedup = row
            .get("speedup")
            .and_then(Json::as_f64)
            .expect("row speedup");
        assert!(speedup > 0.0, "non-positive speedup");
    }
    for want in [64, 512] {
        assert!(
            batches.contains(&want),
            "batch-size sweep must include the acceptance point {want}"
        );
    }
}

/// `BENCH_service.json` — the streaming service's latency record. Two
/// scenarios must be present: `poisson` (paced steady state, no budget —
/// so no timeout or degradation can appear) and `overload` (firehose with
/// a near-zero anytime budget — which must show the budget ladder working:
/// degraded verdicts and counted expiries, with the backlog still bounded).
#[test]
fn bench_service_json_schema_is_current() {
    let doc = load("BENCH_service.json");
    assert_eq!(
        doc.get("bench").and_then(Json::as_str),
        Some("service_latency")
    );
    assert_eq!(
        doc.get("units").and_then(Json::as_str),
        Some("ns"),
        "stale units field"
    );
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .expect("scenarios array");
    let mut names = Vec::new();
    for row in scenarios {
        let name = row
            .get("scenario")
            .and_then(Json::as_str)
            .expect("scenario name");
        names.push(name.to_owned());
        let field = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: numeric field {key}"))
        };
        let requests = field("requests");
        assert!(requests > 0.0, "{name}: empty run");
        assert_eq!(
            field("admitted") + field("rejected"),
            requests,
            "{name}: every request needs a verdict"
        );
        assert!(field("shards") >= 1.0);
        let (p50, p99, p999, max) = (
            field("p50_ns"),
            field("p99_ns"),
            field("p999_ns"),
            field("max_ns"),
        );
        assert!(p50 > 0.0, "{name}: zero p50");
        assert!(
            p50 <= p99 && p99 <= p999 && p999 <= max,
            "{name}: quantiles must be nondecreasing ({p50} / {p99} / {p999} / {max})"
        );
        assert!(field("throughput_per_sec") > 0.0, "{name}: no throughput");
        assert!(field("max_backlog") >= 0.0);
        assert!(field("backpressure_waits") >= 0.0);
        match name {
            "poisson" => {
                assert_eq!(field("degraded"), 0.0, "unbudgeted run cannot degrade");
                assert_eq!(field("solver_timeouts"), 0.0);
            }
            "overload" => {
                assert!(
                    field("degraded") > 0.0,
                    "overload must show the budget ladder degrading verdicts"
                );
                assert!(field("solver_timeouts") > 0.0);
                assert_eq!(
                    field("degraded"),
                    field("admitted"),
                    "near-zero budget: every admission comes from the ladder's floor"
                );
            }
            other => panic!("unknown scenario {other}"),
        }
    }
    for want in ["poisson", "overload"] {
        assert!(names.iter().any(|n| n == want), "missing scenario {want}");
    }
}

/// The sweep driver's checkpoint document: run a tiny sweep and validate
/// the file it persists under `results/` — header identity fields plus the
/// full per-cell metric set, so `load_checkpoint` and external consumers
/// agree on the schema.
#[test]
fn sweep_checkpoint_schema_is_current() {
    use rtrm_bench::sweep::{run_sweep, GridWorkload, PredictorSpec, SweepOptions, SweepSpec};
    use rtrm_bench::{Group, Policy, Scale};

    let spec = SweepSpec {
        name: "test_checkpoint_schema",
        scale: Scale {
            traces: 2,
            trace_len: 20,
            seed: 5,
        },
        workload: GridWorkload::Paper {
            groups: vec![Group::Vt],
        },
        policies: vec![Policy::Heuristic],
        predictors: vec![PredictorSpec::off(), PredictorSpec::perfect()],
    };
    let outcome = run_sweep(
        &spec,
        &SweepOptions {
            fresh: true,
            quiet: true,
            ..SweepOptions::default()
        },
    )
    .expect("sweep runs");
    let text = std::fs::read_to_string(&outcome.checkpoint_path).expect("checkpoint written");
    let doc = parse(&text);

    assert_eq!(
        doc.get("sweep").and_then(Json::as_str),
        Some("test_checkpoint_schema")
    );
    for (key, want) in [
        ("version", 2.0),
        ("seed", 5.0),
        ("traces_per_cell", 2.0),
        ("trace_len", 20.0),
    ] {
        assert_eq!(
            doc.get(key).and_then(Json::as_f64),
            Some(want),
            "header {key}"
        );
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .expect("cells array");
    assert_eq!(cells.len(), 2, "one cell per predictor");
    for cell in cells {
        for key in ["key", "workload", "policy", "predictor"] {
            assert!(
                cell.get(key).and_then(Json::as_str).is_some(),
                "cell string field {key}"
            );
        }
        for key in [
            "traces",
            "requests",
            "accepted",
            "rejected",
            "mean_rejection_percent",
            "mean_energy",
            "degraded_activations",
            "elapsed_ms",
        ] {
            assert!(
                cell.get(key).and_then(Json::as_f64).is_some(),
                "cell numeric field {key}"
            );
        }
        let key = cell.get("key").and_then(Json::as_str).unwrap();
        let parts: Vec<&str> = key.split('/').collect();
        assert_eq!(parts.len(), 3, "key is workload/policy/predictor: {key}");
        assert_eq!(cell.get("workload").and_then(Json::as_str), Some(parts[0]));
        assert_eq!(cell.get("policy").and_then(Json::as_str), Some(parts[1]));
        assert_eq!(cell.get("predictor").and_then(Json::as_str), Some(parts[2]));
    }

    let _ = std::fs::remove_file(&outcome.checkpoint_path);
    let _ = std::fs::remove_file(&outcome.csv_path);
}

#[test]
fn mini_parser_rejects_malformed_records() {
    let mut p = Parser::new("{\"a\": [1, 2");
    assert!(p.value().is_err(), "unterminated array must not parse");
    let mut p = Parser::new("{\"a\" 1}");
    assert!(p.value().is_err(), "missing colon must not parse");
    // A stale-formatted record (results as an object) fails the envelope.
    let stale =
        parse("{\"bench\": \"edf_is_schedulable\", \"units\": \"ns_per_call\", \"results\": {}}");
    assert!(stale.get("results").and_then(Json::as_array).is_none());
}
