//! Acceptance test for the observability wiring: one pipeline build plus
//! one call to every online search entry point must leave the global
//! registry holding the named build-stage spans and per-family query
//! histograms that BENCH reports and the Prometheus exporter expose.
//!
//! Kept as a single test function: the global registry is process-wide,
//! and a lone test per binary keeps its counts deterministic.

use td::core::{DiscoveryPipeline, PipelineConfig};
use td::table::gen::lakegen::{LakeGenConfig, LakeGenerator};

const QUERY_FAMILIES: [&str; 8] = [
    "keyword",
    "joinable",
    "unionable",
    "unionable_semantic",
    "unionable_relationship",
    "fuzzy_joinable",
    "multi_joinable",
    "correlated",
];

#[test]
fn pipeline_emits_build_spans_and_query_histograms() {
    let gl = LakeGenerator::standard().generate(&LakeGenConfig {
        num_tables: 30,
        rows: (20, 60),
        cols: (2, 5),
        seed: 123,
        ..Default::default()
    });
    let reg = td::obs::global();
    reg.reset();

    let pipeline =
        DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &PipelineConfig::default());

    // One call to each of the eight search methods.
    let (_, qt) = gl.lake.iter().next().map(|(i, t)| (i, t.clone())).unwrap();
    let textual = qt
        .columns
        .iter()
        .find(|c| !c.is_numeric())
        .unwrap_or(&qt.columns[0]);
    let numeric = gl
        .lake
        .iter()
        .flat_map(|(_, t)| t.columns.iter())
        .find(|c| c.is_numeric())
        .expect("generated lake has a numeric column")
        .clone();
    let _ = pipeline.search_keyword("dataset", 5);
    let _ = pipeline.search_joinable(textual, 5);
    let _ = pipeline.search_unionable(&qt, 5);
    let _ = pipeline.search_unionable_semantic(&qt, 5);
    let _ = pipeline.search_unionable_relationship(&qt, 5);
    let _ = pipeline.search_fuzzy_joinable(textual, 0.6, 5);
    let _ = pipeline.search_multi_joinable(&qt, &[0], 5);
    let _ = pipeline.search_correlated(textual, &numeric, 5);

    let snap = reg.snapshot();

    // ≥ 9 named build-stage spans, all with at least one recorded run.
    let spans = snap.histograms_with_prefix("span.pipeline.");
    assert!(
        spans.len() >= 9,
        "expected >= 9 pipeline build spans, got {}: {spans:?}",
        spans.len()
    );
    for name in &spans {
        let h = snap.histogram(name).unwrap();
        assert!(h.count > 0, "span {name} recorded nothing");
    }
    // The umbrella span wraps every stage.
    assert!(
        snap.histogram("span.pipeline.build").is_some(),
        "missing the umbrella pipeline.build span"
    );

    // The one extraction pass records each component's time once per
    // build, and the size of the n-gram row memo.
    let extract = snap.histograms_with_prefix("pipeline.extract.");
    assert_eq!(
        extract.len(),
        10,
        "per-component extract times: {extract:?}"
    );
    for name in &extract {
        assert_eq!(snap.histogram(name).unwrap().count, 1, "{name}");
    }
    let rows = snap.gauge("embed.ngram.memo_rows").unwrap_or(0.0);
    assert!(rows > 0.0, "embed.ngram.memo_rows = {rows}");
    assert_eq!(
        snap.gauge("embed.ngram.memo_bytes"),
        Some(rows * 64.0 * 4.0),
        "memo bytes are rows × dim × 4"
    );

    // Every query family recorded exactly one count and one latency sample.
    for family in QUERY_FAMILIES {
        assert_eq!(
            snap.counter(&format!("query.{family}.count")),
            Some(1),
            "query.{family}.count"
        );
        let h = snap
            .histogram(&format!("query.{family}.latency_ns"))
            .unwrap_or_else(|| panic!("query.{family}.latency_ns missing"));
        assert_eq!(h.count, 1, "query.{family}.latency_ns sample count");
        assert!(h.sum > 0, "query.{family} latency must be non-zero");
    }

    // Both exporters render the state; the JSON one stays machine-readable.
    let prom = reg.export_prometheus();
    assert!(prom.contains("query_keyword_latency_ns_count 1"));
    let parsed: serde_json::Value =
        serde_json::from_str(&reg.export_json()).expect("export_json parses");
    assert!(parsed.as_map().is_some());
}
