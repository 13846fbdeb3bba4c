//! The repository benchmark: four seeded workloads driven against real
//! td-serve sockets, with client-observed end-to-end metrics and a
//! separate traced run that attributes round-trip, build and write time
//! to the layers beneath.
//!
//! The benchmark reads the program only through its public API; every
//! per-layer number is timed from outside, around a call into that
//! layer. See `README.md` for the workloads, the metric catalogue and
//! the prediction table.

#![forbid(unsafe_code)]

pub mod build;
pub mod drive;
pub mod ingest;
pub mod report;
pub mod requests;
pub mod served;
pub mod sharded;
pub mod stats;

use std::time::Duration;

/// Server worker threads in every workload (one per shard server in
/// `sharded`).
pub const WORKERS: usize = 2;
/// Closed-loop client connections for the read workloads.
pub const CONNECTIONS: usize = 2;
/// Tables in the `lookup`, `scan` and `sharded` lakes.
pub const LAKE_TABLES: usize = 2_000;
/// Tables in the `ingest` base store.
pub const INGEST_BASE_TABLES: usize = 500;
/// Fresh tables the `ingest` writer sends, one `IngestTable` frame each.
pub const INGEST_WRITES: usize = 40;
/// The `ingest` writer sends a `Reload` after every this many writes.
pub const RELOAD_EVERY: usize = 8;
/// Shards in the `sharded` workload.
pub const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Set-ups per `ingest` run: a store boot is cheap and short, so it is
/// repeated more to steady its median.
pub const INGEST_SETUPS: usize = 5;
/// Length of the request-sequence prefix the exact counts are taken
/// over, so they do not depend on how many requests a run completes.
pub const EXACT_PREFIX: usize = 64;
/// `k` on every search request.
pub const K: usize = 5;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Cheap families from a small skewed pool: the result cache hits.
    Lookup,
    /// Never-repeating unionable / fuzzy / semantic queries: the cache
    /// is bypassed and index kernels dominate.
    Scan,
    /// A durable server taking `IngestTable` writes beside a reader.
    Ingest,
    /// Two shard servers behind a scatter-gather coordinator.
    Sharded,
}

impl WorkloadKind {
    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "lookup" => Some(Self::Lookup),
            "scan" => Some(Self::Scan),
            "ingest" => Some(Self::Ingest),
            "sharded" => Some(Self::Sharded),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Lookup => "lookup",
            Self::Scan => "scan",
            Self::Ingest => "ingest",
            Self::Sharded => "sharded",
        }
    }
}

/// Input sizes. The benchmark always runs at [`Scale::default`]; the
/// seed tests run the same code on small inputs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Tables in the `lookup`, `scan` and `sharded` lakes.
    pub lake_tables: usize,
    /// Tables in the `ingest` base store.
    pub ingest_base: usize,
    /// Fresh tables the `ingest` writer sends.
    pub ingest_writes: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            lake_tables: LAKE_TABLES,
            ingest_base: INGEST_BASE_TABLES,
            ingest_writes: INGEST_WRITES,
        }
    }
}

/// One run's parameters, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Run one workload.
#[must_use]
pub fn run(args: &RunArgs, spans: &stats::Spans) -> report::Outcome {
    match args.workload {
        WorkloadKind::Lookup | WorkloadKind::Scan => served::run(args, spans),
        WorkloadKind::Ingest => ingest::run(args, spans),
        WorkloadKind::Sharded => sharded::run(args, spans),
    }
}

/// splitmix64: the seed mixer every generated input derives from.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
