//! Seeded inputs: the lakes and the request sequences of every
//! workload. Everything here is a pure function of the seed, so the
//! same seed gives the same lake and the same request at every
//! sequence position.

use td_serve::{Request, Workload, WorkloadConfig};
use td_table::gen::lakegen::{GeneratedLake, LakeGenConfig, LakeGenerator};
use td_table::{Column, Table};

use crate::{mix, K};

/// A lake from the standard generator: rows 8–24, columns 2–4.
#[must_use]
pub fn lake(seed: u64, tables: usize) -> GeneratedLake {
    LakeGenerator::standard().generate(&LakeGenConfig {
        num_tables: tables,
        rows: (8, 24),
        cols: (2, 4),
        seed,
        ..LakeGenConfig::default()
    })
}

/// A deterministic request stream: position `i` always yields the same
/// request for the same seed and lake.
pub trait Source: Send {
    /// The next request in sequence order.
    fn next_request(&mut self) -> Request;
}

/// The first `n` requests of a source.
pub fn take(source: &mut dyn Source, n: usize) -> Vec<Request> {
    (0..n).map(|_| source.next_request()).collect()
}

fn text_column(t: &Table) -> Option<&Column> {
    t.columns.iter().find(|c| !c.is_numeric())
}

fn numeric_column(t: &Table) -> Option<&Column> {
    t.columns.iter().find(|c| c.is_numeric())
}

/// Fuzzy-join similarity thresholds the scan stream cycles through.
const TAUS: [f32; 4] = [0.5, 0.6, 0.7, 0.8];

/// Distinct requests in the lookup pool.
pub const LOOKUP_POOL: usize = 64;

/// `lookup`: the six cheap families over a small pool, drawn with a
/// Zipf(1) skew so the result cache hits on repeats.
pub struct LookupSource {
    pool: Vec<Request>,
    cumulative: Vec<f64>,
    state: u64,
}

impl LookupSource {
    /// The pool is built from `tables` (in lake order).
    #[must_use]
    pub fn new(tables: &[&Table], seed: u64) -> Self {
        let mut state = mix(seed, 0x100);
        let mut pool = Vec::with_capacity(LOOKUP_POOL);
        for slot in 0..LOOKUP_POOL {
            state = mix(state, slot as u64);
            let t = tables[(state % tables.len() as u64) as usize];
            let keyword = Request::Keyword {
                query: t.name.clone(),
                k: K,
            };
            let req = match slot % 6 {
                0 => keyword,
                1 => text_column(t).map_or(keyword, |c| Request::Joinable {
                    column: c.clone(),
                    k: K,
                }),
                2 => Request::MultiJoinable {
                    table: t.clone(),
                    key_cols: if t.num_cols() > 1 {
                        vec![0, 1]
                    } else {
                        vec![0]
                    },
                    k: K,
                },
                3 => match (text_column(t), numeric_column(t)) {
                    (Some(key), Some(num)) => Request::Correlated {
                        key: key.clone(),
                        numeric: num.clone(),
                        k: K,
                    },
                    _ => keyword,
                },
                4 => Request::UnionableRelationship {
                    table: t.clone(),
                    k: K,
                },
                _ => Request::UnionableSemantic {
                    table: t.clone(),
                    k: K,
                },
            };
            pool.push(req);
        }
        let mut acc = 0.0;
        let cumulative = (0..LOOKUP_POOL)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        LookupSource {
            pool,
            cumulative,
            state: mix(seed, 0x101),
        }
    }
}

impl Source for LookupSource {
    fn next_request(&mut self) -> Request {
        self.state = mix(self.state, 0x102);
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64 * total;
        let rank = self.cumulative.partition_point(|c| *c <= u);
        self.pool[rank.min(self.pool.len() - 1)].clone()
    }
}

/// `scan`: unionable, fuzzy_joinable and unionable_semantic queries
/// that never repeat. Position `i` visits table `perm[(i / 3) % n]`
/// with family `i % 3`; every pass over the lake raises `k` by one, so
/// no two positions share canonical request bytes.
pub struct ScanSource {
    tables: Vec<Table>,
    perm: Vec<usize>,
    next: u64,
}

impl ScanSource {
    /// The stream over `tables` (in lake order).
    #[must_use]
    pub fn new(tables: &[&Table], seed: u64) -> Self {
        let mut perm: Vec<usize> = (0..tables.len()).collect();
        let mut state = mix(seed, 0x200);
        for i in (1..perm.len()).rev() {
            state = mix(state, i as u64);
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        ScanSource {
            tables: tables.iter().map(|t| (*t).clone()).collect(),
            perm,
            next: 0,
        }
    }
}

impl Source for ScanSource {
    fn next_request(&mut self) -> Request {
        let i = self.next;
        self.next += 1;
        let n = self.tables.len() as u64;
        let pass = i / (3 * n);
        let pos = i % (3 * n);
        let t = &self.tables[self.perm[(pos / 3) as usize]];
        let k = K + pass as usize;
        match pos % 3 {
            0 => Request::Unionable {
                table: t.clone(),
                k,
            },
            // Generated tables have at least two columns; a table with
            // no text column is probed on its first column.
            1 => Request::FuzzyJoinable {
                column: text_column(t).unwrap_or(&t.columns[0]).clone(),
                tau: TAUS[((pos / 3 + pass) % TAUS.len() as u64) as usize],
                k,
            },
            _ => Request::UnionableSemantic {
                table: t.clone(),
                k,
            },
        }
    }
}

/// Distinct requests in the 8-family mix pool (`ingest` reads and
/// `sharded`).
pub const MIX_POOL: usize = 64;

/// The full 8-family mix of `td_serve::Workload`.
pub struct MixSource(Workload);

impl MixSource {
    /// The mix over `lake`.
    #[must_use]
    pub fn new(lake: &td_table::DataLake, seed: u64) -> Self {
        MixSource(Workload::new(
            lake,
            &WorkloadConfig {
                seed: mix(seed, 0x300),
                pool_size: MIX_POOL,
                k: K,
                deadline_ms: 0,
            },
        ))
    }
}

impl Source for MixSource {
    fn next_request(&mut self) -> Request {
        self.0.next_request().unwrap_or(Request::Keyword {
            query: String::new(),
            k: K,
        })
    }
}
