//! `td-perfbench --workload <lookup|scan|ingest|sharded> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Runs one workload in this process and prints, last, one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. The metrics are the
//! end-to-end set with `--trace 0` and the per-layer set with
//! `--trace 1`. Exits non-zero on bad arguments or when a reply
//! diverges from its oracle.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use td_perfbench::ingest::out_dir;
use td_perfbench::report::{json_object, result_line};
use td_perfbench::stats::Spans;
use td_perfbench::{
    run, RunArgs, Scale, WorkloadKind, CONNECTIONS, INGEST_BASE_TABLES, INGEST_SETUPS,
    INGEST_WRITES, LAKE_TABLES, RELOAD_EVERY, SETUPS, SHARDS, WORKERS,
};

const USAGE: &str =
    "usage: td-perfbench --workload <lookup|scan|ingest|sharded> --seed <n> --seconds <n> --trace <0|1>";

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    for flag in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(flag) {
            return Err(format!("unknown flag {flag}"));
        }
    }
    let workload = get("--workload")?;
    Ok(RunArgs {
        workload: WorkloadKind::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: Duration::from_secs_f64(
            get("--seconds")?
                .parse::<f64>()
                .map_err(|e| format!("--seconds: {e}"))?,
        ),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        scale: Scale::default(),
    })
}

/// The commit when run from a git checkout, else "unknown".
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// FNV-1a over the paths and bytes of every file under `crates/`, so a
/// result names the source it measured even outside a git checkout.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("td-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("td-perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let spans = Spans::new(args.trace);
    let out = run(&args, &spans);

    print!("{}", out.text);
    let name = args.workload.name();
    if args.trace {
        let path = out_dir().join(format!("spans-{name}-seed{}.jsonl", args.seed));
        match spans.write_jsonl(&path) {
            Ok(n) => println!("{n} spans written to {}", path.display()),
            Err(e) => eprintln!("td-perfbench: writing spans: {e}"),
        }
    }
    let setups = match (args.trace, args.workload) {
        (true, _) => 1,
        (false, WorkloadKind::Ingest) => INGEST_SETUPS,
        (false, _) => SETUPS,
    };
    let mut detail = out.detail.clone();
    detail.insert("attempted".into(), out.attempted as f64);
    detail.insert("failed".into(), out.failed as f64);
    detail.insert("divergences".into(), out.divergences as f64);
    detail.insert(
        "error_rate".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    println!(
        "{{\"meta\": {{\"workload\": \"{name}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"commit\": \"{}\", \"source_fingerprint\": \"{}\", \
         \"profile\": \"release, lto=thin\", \"workers\": {WORKERS}, \"connections\": {CONNECTIONS}, \
         \"shards\": {SHARDS}, \"lake_tables\": {LAKE_TABLES}, \"ingest_base_tables\": {INGEST_BASE_TABLES}, \
         \"ingest_writes\": {INGEST_WRITES}, \"reload_every\": {RELOAD_EVERY}, \"setups\": {setups}}}}}",
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace,
        commit(),
        source_fingerprint(),
    );
    println!("{{\"detail\": {}}}", json_object(&detail));
    if args.trace {
        println!("{{\"layers\": {}}}", json_object(&out.per_layer));
    }
    println!("{}", result_line(&out, args.trace));
    if out.divergences > 0 {
        eprintln!(
            "td-perfbench: {} replies diverged from the oracle",
            out.divergences
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
