//! # td-index — indices for table discovery at lake scale
//!
//! The tutorial's Section 3 singles out indexing as the open scalability
//! problem for discovery over millions of tables. This crate implements the
//! index families the surveyed systems rely on:
//!
//! * [`InvertedSetIndex`] — token posting lists with exact top-k overlap
//!   search in three strategies (merge / probe / JOSIE-style adaptive).
//! * [`MinHashLsh`] — classic banding LSH for Jaccard thresholds.
//! * [`LshEnsemble`] — cardinality-partitioned LSH for *containment*
//!   (domain) search under skew (Zhu et al., VLDB 2016).
//! * [`Hnsw`] — hierarchical navigable small-world graphs for dense column
//!   embeddings (Malkov & Yashunin), as used by Starmie.
//! * [`FlatIndex`] — exact brute-force vector baseline.
//! * [`Bm25Index`] — metadata keyword search.
//!
//! All families share the flat arena substrate in [`intern`]: dense `u32`
//! symbols from an [`Interner`], contiguous [`PostingLists`], and
//! epoch-reset probe scratch, reused across queries on a thread.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod access;
pub mod bm25;
pub mod ensemble;
pub mod flat;
pub mod hnsw;
pub mod intern;
pub mod inverted;
pub mod lsh;
pub mod topk;

pub use access::{AccessMethod, AdaptiveVectorIndex, CostModel, Workload};
pub use bm25::{tokenize, Bm25Index, Bm25Params, Bm25Stats};
pub use ensemble::LshEnsemble;
pub use flat::FlatIndex;
pub use hnsw::{Hnsw, HnswParams};
pub use intern::{EpochCounters, FlatMap64, Interner, PostingLists};
pub use inverted::{InvertedSetIndex, InvertedSetIndexBuilder, SearchStats, SetId};
pub use lsh::{collision_probability, tune_bands, MinHashLsh};
pub use topk::TopK;
