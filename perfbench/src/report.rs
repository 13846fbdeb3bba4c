//! The metric catalogue, the per-run outcome, and everything printed:
//! attribution tables, the run's metadata line, and the final result
//! line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use td_serve::Request;

use crate::build::{BuildTimes, COMPONENTS};
use crate::drive::Sample;
use crate::stats::{median, quantile};

/// The eight search families, in protocol order.
#[must_use]
pub fn families() -> [&'static str; 8] {
    Request::search_endpoints()
}

/// End-to-end metrics, reported by every untraced run:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("read_rps", "1/s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics on the result line of every traced run:
/// `(name, unit)`. These are the layers all four workloads exercise;
/// per-family breakdowns and the layers only one workload has (the
/// write path, the store, the coordinator) are on the `layers` line.
#[must_use]
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("wire.request_bytes", "bytes"),
        ("wire.reply_bytes", "bytes"),
        ("wire.unattributed_ms", "ms"),
        ("serve.service_ms", "ms"),
        ("serve.coalesced", "count"),
        ("serve.shed", "count"),
        ("serve.deadline_expired", "count"),
        ("cache.hit_rate", "ratio"),
        ("cache.evictions", "count"),
        ("core.execute_ms", "ms"),
        ("core.fuzzy.verified_ratio", "ratio"),
        ("index.hnsw_visits_per_query", "count"),
        ("build.context_ms", "ms"),
    ]
    .iter()
    .map(|(n, u)| ((*n).to_string(), *u))
    .collect();
    for c in COMPONENTS {
        out.push((format!("build.extract_ms.{c}"), "ms"));
    }
    for c in COMPONENTS {
        out.push((format!("build.merge_ms.{c}"), "ms"));
    }
    out.push(("build.unattributed_ms".into(), "ms"));
    out.push(("trace.overhead_ms".into(), "ms"));
    out
}

/// Counts that must repeat exactly for a seed, whatever the timing.
pub const EXACT: [&str; 5] = [
    "wire.request_bytes",
    "wire.reply_bytes",
    "core.fuzzy.verified_ratio",
    "coord.rounds_per_query",
    "store.bytes_per_input_byte",
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in the timed phase (reads and writes).
    pub attempted: u64,
    /// Of those, requests that failed or did not answer `Ok`.
    pub failed: u64,
    /// `Ok` replies that differed from the oracle.
    pub divergences: u64,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer values by name (traced runs): the catalogue plus the
    /// per-family and workload-specific values.
    pub per_layer: BTreeMap<String, f64>,
    /// Workload-specific end-to-end values that are not in every
    /// workload (write latency, store size, error rate).
    pub detail: BTreeMap<String, f64>,
    /// Canonical bytes of the first requests of the sequence.
    pub sequence: Vec<Vec<u8>>,
    /// Human-readable tables, printed before the result line.
    pub text: String,
}

impl Outcome {
    /// Set a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }

    /// Record read samples: attempted/failed counts, latency and
    /// throughput end-to-end metrics.
    pub fn reads(&mut self, samples: &[Sample], elapsed_s: f64) {
        let rtts: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.rtt_ms).collect();
        self.attempted += samples.len() as u64;
        self.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        self.end_to_end.insert("read_p50_ms".into(), median(&rtts));
        self.end_to_end
            .insert("read_p95_ms".into(), quantile(&rtts, 0.95));
        self.end_to_end.insert(
            "read_rps".into(),
            if elapsed_s > 0.0 {
                rtts.len() as f64 / elapsed_s
            } else {
                0.0
            },
        );
        self.detail.insert("reads".into(), samples.len() as f64);
        self.detail
            .insert("read_p99_ms".into(), quantile(&rtts, 0.99));
    }

    /// Record the build chain from a traced build: the parent's wall
    /// time and its measured parts.
    pub fn build_chain(&mut self, title: &str, parent_ms: f64, times: &BuildTimes) {
        self.layer("build.context_ms", times.context_ms);
        for (i, c) in COMPONENTS.iter().enumerate() {
            self.layer(&format!("build.extract_ms.{c}"), times.extract_ms[i]);
            self.layer(&format!("build.merge_ms.{c}"), times.merge_ms[i]);
        }
        let unattributed = parent_ms - times.total_ms();
        self.layer("build.unattributed_ms", unattributed);
        let mut rows = vec![vec![
            "context".to_string(),
            f3(times.context_ms),
            String::new(),
        ]];
        for (i, c) in COMPONENTS.iter().enumerate() {
            rows.push(vec![
                (*c).to_string(),
                f3(times.extract_ms[i]),
                f3(times.merge_ms[i]),
            ]);
        }
        rows.push(vec![
            "sum of parts".into(),
            f3(times.context_ms + times.extract_ms.iter().sum::<f64>()),
            f3(times.merge_ms.iter().sum::<f64>()),
        ]);
        rows.push(vec!["unattributed".into(), f3(unattributed), String::new()]);
        rows.push(vec!["build (parent)".into(), f3(parent_ms), String::new()]);
        self.table(
            &format!("build chain: {title} = context + extract + merge (ms)"),
            &["part", "extract / self", "merge"],
            &rows,
        );
    }

    /// Append a fixed-width table to the printed text.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for r in rows {
            for (i, c) in r.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let _ = writeln!(self.text, "\n{title}");
        let line = |cells: Vec<&str>| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(self.text, "{}", line(headers.to_vec()));
        for r in rows {
            let _ = writeln!(
                self.text,
                "{}",
                line(r.iter().map(String::as_str).collect())
            );
        }
    }
}

/// A number with three decimals, for tables.
#[must_use]
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`; the metrics are the end-to-end catalogue in an untraced
/// run and the per-layer catalogue in a traced one.
#[must_use]
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<(String, &str)> = if trace {
        per_layer_catalogue()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect()
    };
    let values = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.divergences == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

/// A flat JSON object of name → number.
#[must_use]
pub fn json_object(values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
