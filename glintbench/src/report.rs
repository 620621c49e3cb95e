//! Metric names, the result line, and failure accounting.
//!
//! Every run prints one JSON object as its last stdout line: `correct`,
//! `attempted`, `failed` and `metrics`. An untraced run reports exactly
//! [`END_TO_END`]; a traced run reports exactly [`per_layer_names`]. A
//! per-layer metric of a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::OpFigures;

/// End-to-end metrics: (name, unit). Every workload reports all of them;
/// what each means per workload is in the benchmark's README.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_p50_ms", "ms"),
    ("cpu_tail_ms", "ms"),
    ("throughput_per_cpu_s", "1/s"),
    ("verdict_f1", "ratio"),
];

/// Timings reported as `<name>.p50` + `<name>.tail`, with their unit.
pub const TIMED_LAYERS: [(&str, &str); 23] = [
    ("serve.roundtrip_us", "us"),
    ("serve.score_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.json_decode_us", "us"),
    ("detector.assess_full_us", "us"),
    ("detector.assess_flagged_us", "us"),
    ("detector.apply_delta_us", "us"),
    ("gnn.prepare_us", "us"),
    ("gnn.embed_us.n2_4", "us"),
    ("gnn.embed_us.n5_12", "us"),
    ("gnn.embed_us.n13_24", "us"),
    ("gnn.classify_us.n2_4", "us"),
    ("gnn.classify_us.n5_12", "us"),
    ("gnn.classify_us.n13_24", "us"),
    ("drift.degree_us", "us"),
    ("explain.top_causes_us", "us"),
    ("nlp.node_features_us", "us"),
    ("incremental.apply_us", "us"),
    ("incremental.refresh_us", "us"),
    ("shard.save_us", "us"),
    ("screen.prepare_all_us", "us"),
    ("screen.embed_all_us", "us"),
    ("screen.detect_us", "us"),
];

/// Single-valued per-layer metrics, with their unit.
pub const SCALAR_LAYERS: [(&str, &str); 27] = [
    ("serve.body_bytes", "bytes"),
    ("serve.accepted", "count"),
    ("serve.drift_only", "count"),
    ("serve.quarantined", "count"),
    ("serve.queue_depth_max", "count"),
    ("detector.flagged_share", "ratio"),
    ("explain.forwards", "count"),
    ("tensor.matmul.calls", "count"),
    ("tensor.matmul.flops", "flop"),
    ("tensor.spmm.calls", "count"),
    ("tensor.spmm.flops", "flop"),
    ("tensor.alloc.matrices", "count"),
    ("infer.pool.misses", "count"),
    ("incremental.remined_pairs", "count"),
    ("incremental.neighborhood", "count"),
    ("incremental.reembedded", "count"),
    ("shard.bytes", "bytes"),
    ("train.corpus_s", "s"),
    ("train.dataset_s", "s"),
    ("train.classifier_s", "s"),
    ("train.contrastive_s", "s"),
    ("drift.fit_s", "s"),
    ("churn.bootstrap_s", "s"),
    ("inputs.generate_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead.p50_pct", "%"),
    ("trace.overhead.throughput_pct", "%"),
];

/// Per-layer metrics a traced run of each workload must produce: a timed
/// layer (a [`TIMED_LAYERS`] name) needs at least one sample, any other
/// metric a non-zero value. A layer the workload exercises that reads 0
/// failed to record, and the run is marked incorrect.
pub fn required_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve_mixed" => &[
            "serve.roundtrip_us",
            "serve.score_us",
            "serve.overhead_us",
            "serve.json_decode_us",
            "detector.assess_full_us",
            "detector.assess_flagged_us",
            "gnn.prepare_us",
            "gnn.embed_us.n2_4",
            "gnn.embed_us.n5_12",
            "gnn.classify_us.n2_4",
            "gnn.classify_us.n5_12",
            "drift.degree_us",
            "explain.top_causes_us",
            "serve.body_bytes",
            "serve.accepted",
            "detector.flagged_share",
            "explain.forwards",
            "tensor.matmul.calls",
        ],
        "drift_screen" => &[
            "screen.prepare_all_us",
            "screen.embed_all_us",
            "screen.detect_us",
            "gnn.prepare_us",
            "gnn.embed_us.n5_12",
            "gnn.embed_us.n13_24",
            "drift.degree_us",
            "tensor.matmul.calls",
        ],
        "churn_ingest" => &[
            "nlp.node_features_us",
            "incremental.apply_us",
            "incremental.refresh_us",
            "shard.save_us",
            "detector.apply_delta_us",
            "detector.assess_full_us",
            "detector.assess_flagged_us",
            "explain.top_causes_us",
            "gnn.prepare_us",
            "drift.degree_us",
            "incremental.neighborhood",
            "shard.bytes",
            "tensor.matmul.calls",
        ],
        _ => &[],
    }
}

/// Kernel-table shapes `m×k×n` of `par::matmul`: the serving projections
/// (300-d and 512-d text features, 64-d hidden) and a screening batch row
/// block. Each is measured single-threaded and at the default thread count.
pub const KERNEL_SHAPES: [(usize, usize, usize); 4] =
    [(5, 300, 64), (5, 512, 64), (5, 64, 64), (16, 300, 64)];
/// Side of the square single-core ceiling matmul.
pub const CEILING_SIDE: usize = 256;

/// Kernel-table metric names: `(name, shape, threads)`, where `threads` 0
/// means the program's default.
pub fn kernel_rows() -> Vec<(String, (usize, usize, usize), usize)> {
    let mut rows = Vec::new();
    for &(m, k, n) in &KERNEL_SHAPES {
        rows.push((format!("tensor.gflops.{m}x{k}x{n}.t1"), (m, k, n), 1));
        rows.push((format!("tensor.gflops.{m}x{k}x{n}.tdefault"), (m, k, n), 0));
    }
    let c = CEILING_SIDE;
    rows.push((format!("tensor.gflops.{c}x{c}x{c}.t1"), (c, c, c), 1));
    rows
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in TIMED_LAYERS {
        out.push((format!("{name}.p50"), unit));
        out.push((format!("{name}.tail"), unit));
    }
    for (name, unit) in SCALAR_LAYERS {
        out.push((name.to_string(), unit));
    }
    for (name, _, _) in kernel_rows() {
        out.push((name, "GFLOP/s"));
    }
    out
}

/// A metric name is 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or a
/// digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One scored operation's fate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A full verdict.
    Full,
    /// The connection or the exchange failed.
    Transport,
    /// Any status but 200.
    Status(u16),
    /// A 200 answered on the drift-only rung.
    DriftOnly,
    /// A 200 answered on the quarantined rung.
    Quarantined,
}

impl Outcome {
    /// Classify one `/score` exchange.
    pub fn of_response(response: &std::io::Result<(u16, Value)>) -> Outcome {
        match response {
            Err(_) => Outcome::Transport,
            Ok((200, body)) => match field(body, "degradation").and_then(Value::as_str) {
                Some("full") => Outcome::Full,
                Some("drift_only") => Outcome::DriftOnly,
                Some("quarantined") => Outcome::Quarantined,
                _ => Outcome::Transport,
            },
            Ok((status, _)) => Outcome::Status(*status),
        }
    }

    pub fn failed(self) -> bool {
        self != Outcome::Full
    }
}

/// Look up a field of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
}

/// The result line's metrics, keyed by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        debug_assert!(valid_name(name), "bad metric name {name}");
        self.values.insert(name.to_string(), (value, unit));
    }

    /// The three per-operation end-to-end figures of a pass.
    pub fn set_ops(&mut self, f: &OpFigures) {
        self.set("cpu_p50_ms", "ms", f.scaled.p50);
        self.set("cpu_tail_ms", "ms", f.scaled.tail);
        self.set("throughput_per_cpu_s", "1/s", f.per_cpu_s);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Restrict to `names` (in that order), filling any metric the run did
    /// not produce with 0.
    pub fn select(&self, names: &[(String, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for (name, unit) in names {
            let value = self.get(name).unwrap_or(0.0);
            out.set(name, unit, if value.is_finite() { value } else { 0.0 });
        }
        out
    }

    pub fn to_json(&self) -> Value {
        Value::Map(
            self.values
                .iter()
                .map(|(k, (v, unit))| {
                    (
                        k.clone(),
                        Value::Map(vec![
                            ("value".to_string(), Value::F64(*v)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The end-to-end metric names with their units.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

/// Render the result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    serde_json::to_string(&body).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_within_limits() {
        let e2e = end_to_end_names();
        let layers = per_layer_names();
        assert!(e2e.len() <= 16);
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in e2e.iter().chain(layers.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && *u == "s"));
    }

    #[test]
    fn required_layers_are_reported_metrics() {
        let layers = per_layer_names();
        for workload in crate::WORKLOADS {
            let required = required_layers(workload);
            assert!(!required.is_empty(), "{workload}");
            for name in required {
                let timed = TIMED_LAYERS.iter().any(|(n, _)| n == name);
                let scalar = layers.iter().any(|(n, _)| n == name);
                assert!(timed || scalar, "{workload}: unknown layer {name}");
            }
        }
    }

    #[test]
    fn names_reject_bad_characters() {
        assert!(valid_name("serve.p50_ms"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    fn body(rung: &str) -> Value {
        serde_json::json!({ "verdict": "normal", "degradation": rung })
    }

    #[test]
    fn failure_accounting() {
        let ok: std::io::Result<(u16, Value)> = Ok((200, body("full")));
        assert_eq!(Outcome::of_response(&ok), Outcome::Full);
        assert!(!Outcome::of_response(&ok).failed());
        for (response, expect) in [
            (Ok((500, body("full"))), Outcome::Status(500)),
            (Ok((503, Value::Null)), Outcome::Status(503)),
            (Ok((429, Value::Null)), Outcome::Status(429)),
            (Ok((200, body("quarantined"))), Outcome::Quarantined),
            (Ok((200, body("drift_only"))), Outcome::DriftOnly),
            (Ok((200, Value::Null)), Outcome::Transport),
            (
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "reset",
                )),
                Outcome::Transport,
            ),
        ] {
            let got = Outcome::of_response(&response);
            assert_eq!(got, expect);
            assert!(got.failed(), "{expect:?} must count as failed");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("cpu_p50_ms", "ms", 1.25);
        let line = result_line(true, 0, 0, &m.select(&end_to_end_names()));
        let v: Value = serde_json::from_str(&line).expect("parses");
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&v, "attempted").and_then(Value::as_u64), Some(1));
        let metrics = field(&v, "metrics").unwrap().as_map().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = field(field(&v, "metrics").unwrap(), "cpu_p50_ms").unwrap();
        assert_eq!(field(p50, "value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(field(p50, "unit").and_then(Value::as_str), Some("ms"));
    }
}
