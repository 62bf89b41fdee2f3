//! Trace data model and its JSONL serialisation.
//!
//! One [`TraceLine`] per observed instance, one JSON object per line:
//!
//! ```json
//! {"instance": "c17/gate-change/p1/s1/bsat",
//!  "counters": {"sat.conflicts": 12},
//!  "spans": [{"name": "instance", "depth": 0, "counters": {"sat.conflicts": 12}}]}
//! ```
//!
//! The deterministic channel (counters, span names/depths/deltas) is
//! byte-identical across worker counts; the timing channel (`wall_ns`
//! per span, the top-level `nd_counters` object) is emitted only when
//! the caller opts in, mirroring the campaign's `wall_ms` quarantine.
//! Equality on every type here ignores the timing channel, so two
//! traces of the same deterministic work compare equal.
//!
//! Both directions go through the shared [`crate::json`] layer: a line
//! is rendered from a [`Json`] tree and parsed back by mapping the parsed
//! tree onto a [`TraceLine`]. Parsing must return a clean
//! [`TraceParseError`] — never panic — on arbitrary corrupted input
//! (property-tested in `tests/proptest_trace.rs`).

use crate::json::{parse_json, Json, JsonError};
use std::fmt;

/// One closed span: name, nesting depth and the inclusive deltas of the
/// deterministic counters between enter and exit.
#[derive(Clone, Debug, Default)]
pub struct SpanRecord {
    /// Span name (the phase taxonomy: `instance`, `inject`, `tests`,
    /// `engine`, `encode`, `solve`, `cover`, `screen`, `trace`,
    /// `testgen`).
    pub name: String,
    /// Nesting depth: 0 for the root, parent depth + 1 below it. Spans
    /// are stored in enter (pre-)order, so depths never jump by more
    /// than +1 from one record to the next.
    pub depth: usize,
    /// Nonzero deterministic-counter deltas, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock duration — **timing channel**: ignored by `==`,
    /// serialised only on request.
    pub wall_ns: u64,
}

impl PartialEq for SpanRecord {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.depth == other.depth && self.counters == other.counters
    }
}

impl Eq for SpanRecord {}

/// Everything one [`crate::Sink`] collected: the span tree in pre-order
/// plus the final counter totals of both channels.
#[derive(Clone, Debug, Default)]
pub struct ObsTrace {
    /// Spans in enter order (see [`SpanRecord::depth`]).
    pub spans: Vec<SpanRecord>,
    /// Deterministic counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Timing-channel counter totals, sorted by name — ignored by `==`,
    /// serialised only on request.
    pub nd_counters: Vec<(String, u64)>,
}

impl PartialEq for ObsTrace {
    fn eq(&self, other: &Self) -> bool {
        self.spans == other.spans && self.counters == other.counters
    }
}

impl Eq for ObsTrace {}

impl ObsTrace {
    /// The root span's wall-clock duration in nanoseconds (0 without a
    /// root span) — the single wall-clock source for callers that
    /// publish a quarantined timing column.
    pub fn root_wall_ns(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.wall_ns)
    }

    /// Final total of one deterministic counter; 0 when it was never
    /// charged (counters with zero totals are not stored).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// One line of a trace stream: an instance identity plus its trace.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TraceLine {
    /// Compact instance identity, e.g. `c17/gate-change/p1/s1/bsat` (a
    /// sequential instance appends `/f3/l4`).
    pub instance: String,
    /// The instance's collected trace.
    pub trace: ObsTrace,
}

fn counters_json(counters: &[(String, u64)]) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(value.to_string())))
            .collect(),
    )
}

impl TraceLine {
    /// Serialises the line as a single JSON object (no trailing
    /// newline). With `include_timing` the quarantined channel joins:
    /// per-span `wall_ns` fields and the top-level `nd_counters`
    /// object. Output re-parses to an equal line ([`parse_trace_line`])
    /// and re-serialises byte-identically.
    pub fn to_json(&self, include_timing: bool) -> String {
        let spans = self
            .trace
            .spans
            .iter()
            .map(|span| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(span.name.clone())),
                    ("depth".to_string(), Json::Num(span.depth.to_string())),
                    ("counters".to_string(), counters_json(&span.counters)),
                ];
                if include_timing {
                    fields.push(("wall_ns".to_string(), Json::Num(span.wall_ns.to_string())));
                }
                Json::Obj(fields)
            })
            .collect();
        let mut fields = vec![
            ("instance".to_string(), Json::Str(self.instance.clone())),
            ("counters".to_string(), counters_json(&self.trace.counters)),
            ("spans".to_string(), Json::Arr(spans)),
        ];
        if include_timing {
            fields.push((
                "nd_counters".to_string(),
                counters_json(&self.trace.nd_counters),
            ));
        }
        Json::Obj(fields).render()
    }
}

/// A clean parse failure: where and why the input is not a trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    message: String,
}

impl TraceParseError {
    fn new(message: impl Into<String>) -> Self {
        TraceParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

impl From<JsonError> for TraceParseError {
    fn from(e: JsonError) -> Self {
        TraceParseError::new(e.message)
    }
}

/// The fields of a JSON object, or an error naming `context`.
fn object<'a>(value: &'a Json, context: &str) -> Result<&'a [(String, Json)], TraceParseError> {
    match value {
        Json::Obj(fields) => Ok(fields),
        _ => Err(TraceParseError::new(format!(
            "{context}: expected an object"
        ))),
    }
}

/// A `{"name": u64, ...}` counters object.
fn counters(value: &Json, context: &str) -> Result<Vec<(String, u64)>, TraceParseError> {
    object(value, context)?
        .iter()
        .map(|(name, v)| Ok((name.clone(), v.as_u64(context)?)))
        .collect()
}

fn span(value: &Json) -> Result<SpanRecord, TraceParseError> {
    object(value, "span")?;
    let depth = value.expect("depth", "span")?.as_u64("span depth")?;
    Ok(SpanRecord {
        name: value
            .expect("name", "span")?
            .as_str("span name")?
            .to_string(),
        depth: usize::try_from(depth)
            .map_err(|_| TraceParseError::new("span depth out of range"))?,
        counters: match value.get("counters") {
            Some(c) => counters(c, "span counters")?,
            None => Vec::new(),
        },
        wall_ns: match value.get("wall_ns") {
            Some(w) => w.as_u64("span wall_ns")?,
            None => 0,
        },
    })
}

/// Maps a parsed document onto a [`TraceLine`]: `instance` and `spans`
/// are required, `counters` and `nd_counters` optional, and unknown keys
/// are ignored (forward compatibility).
fn trace_line(doc: &Json) -> Result<TraceLine, TraceParseError> {
    object(doc, "trace line")?;
    let optional_counters = |key: &str| match doc.get(key) {
        Some(c) => counters(c, key),
        None => Ok(Vec::new()),
    };
    let line = TraceLine {
        instance: doc
            .expect("instance", "trace line")?
            .as_str("instance")?
            .to_string(),
        trace: ObsTrace {
            spans: doc
                .expect("spans", "trace line")?
                .as_arr("spans")?
                .iter()
                .map(span)
                .collect::<Result<_, _>>()?,
            counters: optional_counters("counters")?,
            nd_counters: optional_counters("nd_counters")?,
        },
    };
    // Structural invariant of pre-order emission: the first span is
    // the root and depth never jumps by more than +1.
    let mut prev_depth = 0usize;
    for (i, span) in line.trace.spans.iter().enumerate() {
        if i == 0 && span.depth != 0 {
            return Err(TraceParseError::new("first span is not a root (depth 0)"));
        }
        if i > 0 && span.depth > prev_depth + 1 {
            return Err(TraceParseError::new(format!(
                "span `{}` jumps from depth {} to {}",
                span.name, prev_depth, span.depth
            )));
        }
        prev_depth = span.depth;
    }
    Ok(line)
}

/// Parses one JSONL trace line. Corrupted input yields a clean error,
/// never a panic.
pub fn parse_trace_line(text: &str) -> Result<TraceLine, TraceParseError> {
    trace_line(&parse_json(text)?)
}

/// Parses a whole trace stream (one JSON object per non-empty line),
/// labelling errors with their 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceLine>, TraceParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            parse_trace_line(line)
                .map_err(|e| TraceParseError::new(format!("line {}: {e}", i + 1)))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceLine {
        TraceLine {
            instance: "c17/gate-change/p1/s1/bsat".to_string(),
            trace: ObsTrace {
                spans: vec![
                    SpanRecord {
                        name: "instance".to_string(),
                        depth: 0,
                        counters: vec![("sat.conflicts".to_string(), 12)],
                        wall_ns: 1234,
                    },
                    SpanRecord {
                        name: "solve".to_string(),
                        depth: 1,
                        counters: vec![("sat.conflicts".to_string(), 12)],
                        wall_ns: 1000,
                    },
                ],
                counters: vec![("sat.conflicts".to_string(), 12)],
                nd_counters: vec![("pool.threads".to_string(), 2)],
            },
        }
    }

    #[test]
    fn round_trips_bytes_in_both_timing_modes() {
        for timing in [false, true] {
            let json = sample().to_json(timing);
            let parsed = parse_trace_line(&json).expect("own output parses");
            assert_eq!(parsed, sample());
            assert_eq!(parsed.to_json(timing), json, "timing={timing}");
        }
    }

    #[test]
    fn timing_channel_is_absent_by_default() {
        let json = sample().to_json(false);
        assert!(!json.contains("wall_ns"));
        assert!(!json.contains("nd_counters"));
        let parsed = parse_trace_line(&json).unwrap();
        assert_eq!(parsed.trace.spans[0].wall_ns, 0);
        assert!(parsed.trace.nd_counters.is_empty());
        // Equality still holds: the timing channel is not compared.
        assert_eq!(parsed, sample());
    }

    #[test]
    fn streams_parse_line_by_line() {
        let text = format!("{}\n{}\n\n", sample().to_json(true), sample().to_json(true));
        let lines = parse_trace(&text).unwrap();
        assert_eq!(lines.len(), 2);
        let bad = format!("{}\nnot json\n", sample().to_json(false));
        let err = parse_trace(&bad).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn instance_names_escape_and_unescape() {
        let mut line = sample();
        line.instance = "we\"ird\\name\n".to_string();
        let json = line.to_json(false);
        assert_eq!(parse_trace_line(&json).unwrap().instance, line.instance);
    }

    #[test]
    fn broken_nesting_is_rejected() {
        let json = r#"{"instance": "x", "counters": {}, "spans": [{"name": "a", "depth": 1, "counters": {}}]}"#;
        assert!(parse_trace_line(json).is_err(), "non-root first span");
        let json = r#"{"instance": "x", "counters": {}, "spans": [{"name": "a", "depth": 0, "counters": {}}, {"name": "b", "depth": 2, "counters": {}}]}"#;
        assert!(parse_trace_line(json).is_err(), "depth jump");
    }

    #[test]
    fn garbage_is_a_clean_error() {
        for garbage in [
            "",
            "{",
            "nonsense",
            r#"{"instance": 3, "spans": []}"#,
            r#"{"spans": []}"#,
            r#"{"instance": "x"}"#,
            r#"{"instance": "x", "spans": [{"depth": 0, "counters": {}}]}"#,
            r#"{"instance": "x", "spans": []} trailing"#,
            r#"{"instance": "x", "instance": "y", "spans": []}"#,
            r#"{"instance": "x", "counters": {"a": -1}, "spans": []}"#,
            r#"{"instance": "x", "spans": [{"name": "a", "depth": 0, "counters": {"c": 1.5}}]}"#,
            r#"{"instance": "x", "spans": [{"name": "a", "depth": 0, "counters": []}]}"#,
            &("[".repeat(64)),
        ] {
            assert!(parse_trace_line(garbage).is_err(), "{garbage:?}");
        }
    }

    #[test]
    fn unknown_keys_are_skipped_for_forward_compat() {
        let json = r#"{"instance": "x", "future": {"a": [1, true, null, -2.5e3]}, "counters": {}, "spans": []}"#;
        let line = parse_trace_line(json).unwrap();
        assert_eq!(line.instance, "x");
    }
}
