//! The seed is the benchmark's only source of inputs: the same seed must
//! give the same request sequence and the same exact counts, whatever
//! the timing of the run. Runs every workload on small inputs, traced,
//! twice per seed. One test function, so runs never overlap in the
//! process-wide metrics registry the exact counts read.

use std::time::Duration;

use td_perfbench::report::{per_layer_catalogue, Outcome, END_TO_END, EXACT};
use td_perfbench::stats::Spans;
use td_perfbench::{run, RunArgs, Scale, WorkloadKind};

fn small(workload: WorkloadKind, seed: u64) -> Outcome {
    let args = RunArgs {
        workload,
        seed,
        seconds: Duration::from_millis(300),
        trace: true,
        scale: Scale {
            lake_tables: 60,
            ingest_base: 30,
            ingest_writes: 8,
        },
    };
    // Runs write their scratch files under the working directory.
    std::env::set_current_dir(env!("CARGO_TARGET_TMPDIR")).expect("enter the scratch dir");
    run(&args, &Spans::new(true))
}

#[test]
fn same_seed_same_sequence_and_exact_counts() {
    for workload in [
        WorkloadKind::Lookup,
        WorkloadKind::Scan,
        WorkloadKind::Ingest,
        WorkloadKind::Sharded,
    ] {
        let name = workload.name();
        let a = small(workload, 11);
        let b = small(workload, 11);
        let other = small(workload, 12);
        assert!(a.attempted > 0, "{name}: no requests completed");
        assert_eq!(a.divergences, 0, "{name}: a reply diverged from its oracle");
        assert_eq!(a.failed, 0, "{name}: a request failed");
        assert!(!a.sequence.is_empty(), "{name}: empty request sequence");
        assert_eq!(
            a.sequence, b.sequence,
            "{name}: same seed, different requests"
        );
        assert_ne!(a.sequence, other.sequence, "{name}: seeds 11 and 12 agree");
        let exact = |m: &str| a.per_layer.get(m).copied().unwrap_or(0.0);
        assert!(
            exact("wire.request_bytes") > 0.0,
            "{name}: no request bytes"
        );
        assert!(exact("wire.reply_bytes") > 0.0, "{name}: no reply bytes");
        match workload {
            WorkloadKind::Scan => assert!(exact("core.fuzzy.verified_ratio") > 0.0),
            WorkloadKind::Ingest => assert!(exact("store.bytes_per_input_byte") > 0.0),
            WorkloadKind::Sharded => assert!(exact("coord.rounds_per_query") >= 1.0),
            WorkloadKind::Lookup => {}
        }
        for metric in EXACT {
            assert_eq!(
                a.per_layer.get(metric),
                b.per_layer.get(metric),
                "{name}: {metric} differs between runs of one seed"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names_in = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_string()).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    let layers: Vec<String> = per_layer_catalogue().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names_in("per_layer"), layers);
    assert_eq!(
        names_in("workloads"),
        ["lookup", "scan", "ingest", "sharded"]
    );
}
