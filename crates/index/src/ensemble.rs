//! LSH Ensemble: internet-scale *containment* search (Zhu et al., VLDB 2016).
//!
//! Jaccard-tuned LSH is biased against joins between a small query and a
//! large indexed domain: containment can be 1.0 while Jaccard is tiny. LSH
//! Ensemble fixes this by (i) partitioning indexed sets by cardinality
//! (equi-depth, approximating the paper's optimal partitioning), and
//! (ii) converting the containment threshold `t` into a *per-partition*
//! Jaccard threshold using the partition's upper cardinality bound `u`:
//! `j(t) = t·q / (q + u − t·q)` for query size `q`. Each partition's LSH is
//! then queried with a band count matched to its own threshold, and
//! candidates are re-ranked by signature-estimated containment.
//!
//! Signatures live in one id-sorted flat array (binary-search lookup)
//! rather than a hash map, and every banding table is frozen at build
//! time, so the verification loop touches contiguous memory only.

use crate::lsh::MinHashLsh;
use serde::{Deserialize, Serialize};
use td_sketch::minhash::MinHashSignature;

/// Row counts for which banding tables are precomputed. Low thresholds need
/// small `r` (a single agreeing MinHash row suffices as evidence); high
/// thresholds need large `r` for selectivity. Precomputing all of them is
/// how the original system supports *dynamic* thresholds at query time.
const ROW_CHOICES: [usize; 4] = [1, 2, 4, 8];

/// Target recall at exactly the threshold: the band count is chosen so the
/// S-curve reaches this probability at the converted Jaccard threshold.
const TARGET_RECALL: f64 = 0.95;

/// One cardinality partition with banding tables for several row counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Partition {
    /// Largest set size in this partition.
    upper: usize,
    /// `(rows, table)` pairs, one per element of [`ROW_CHOICES`] that fits.
    tables: Vec<(usize, MinHashLsh)>,
    /// Ids stored in this partition (for recall accounting).
    members: Vec<u32>,
}

/// LSH Ensemble index over MinHash signatures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshEnsemble {
    partitions: Vec<Partition>,
    /// Ascending ids for all indexed sets; parallel to `sigs`.
    ids: Vec<u32>,
    /// Signature for `ids[i]`, for candidate verification.
    sigs: Vec<MinHashSignature>,
    /// Signature length.
    k: usize,
}

/// Bands needed for [`TARGET_RECALL`] at Jaccard `j` with `r` rows:
/// solve `1 - (1 - j^r)^b >= R`.
fn bands_needed(j: f64, r: usize) -> f64 {
    let p = j.powi(r as i32);
    if p <= 0.0 {
        return f64::INFINITY;
    }
    if p >= 1.0 {
        return 1.0;
    }
    // ln_1p keeps precision for tiny p, where (1.0 - p) == 1.0 in f64 and a
    // naive ln would return 0 (making every row count look feasible).
    ((1.0 - TARGET_RECALL).ln() / (-p).ln_1p()).ceil().max(1.0)
}

impl LshEnsemble {
    /// Build from `(id, signature)` pairs with `num_partitions` equi-depth
    /// cardinality partitions. Signatures must share a `MinHasher`; longer
    /// signatures allow stricter row counts. An empty `items` builds an
    /// empty ensemble (every query answers nothing) — the state a durable
    /// pipeline restores into on its very first boot.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    #[must_use]
    pub fn build(items: Vec<(u32, MinHashSignature)>, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        let k = items.first().map_or(0, |(_, s)| s.values.len());

        let mut sorted = items;
        sorted.sort_by_key(|(_, s)| s.set_size);
        let n = sorted.len();
        // `chunks` rejects a zero size, which `n == 0` would produce; one
        // is harmless there (no chunks to take).
        let per = n.div_ceil(num_partitions).max(1);

        let mut partitions = Vec::with_capacity(num_partitions);
        let mut store: Vec<(u32, MinHashSignature)> = Vec::with_capacity(n);
        for chunk in sorted.chunks(per) {
            let Some(last) = chunk.last() else { continue };
            let upper = last.1.set_size.max(1);
            let mut tables = Vec::new();
            for &r in &ROW_CHOICES {
                let bands = k / r;
                if bands == 0 {
                    continue;
                }
                let mut lsh = MinHashLsh::new(bands, r);
                for (id, sig) in chunk {
                    lsh.insert(*id, sig);
                }
                // Build-then-query: sort the band buckets once so every
                // probe binary-searches contiguous memory.
                lsh.freeze();
                tables.push((r, lsh));
            }
            let members: Vec<u32> = chunk.iter().map(|(id, _)| *id).collect();
            for (id, sig) in chunk {
                store.push((*id, sig.clone()));
            }
            partitions.push(Partition {
                upper,
                tables,
                members,
            });
        }
        // Id-sorted parallel arrays so verification does a binary search
        // instead of a hash lookup per raw candidate.
        store.sort_by_key(|&(id, _)| id);
        let ids: Vec<u32> = store.iter().map(|&(id, _)| id).collect();
        let sigs: Vec<MinHashSignature> = store.into_iter().map(|(_, s)| s).collect();
        LshEnsemble {
            partitions,
            ids,
            sigs,
            k,
        }
    }

    /// Number of indexed sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing was indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of partitions.
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The per-partition Jaccard threshold for containment `t`, query size
    /// `q`, partition upper bound `u`.
    #[must_use]
    pub fn jaccard_threshold(t: f64, q: usize, u: usize) -> f64 {
        let qf = q as f64;
        let denom = qf + u as f64 - t * qf;
        if denom <= 0.0 {
            1.0
        } else {
            (t * qf / denom).clamp(0.0, 1.0)
        }
    }

    /// Sets whose estimated containment of the query reaches `t`,
    /// with their estimates, sorted descending.
    ///
    /// Candidates are produced per partition with a band count matched to
    /// that partition's Jaccard threshold, then verified against their
    /// stored signatures (`containment_in` conversion).
    #[must_use]
    pub fn query_containment(&self, query: &MinHashSignature, t: f64) -> Vec<(u32, f64)> {
        self.query_containment_with_stats(query, t).0
    }

    /// Like [`Self::query_containment`], additionally returning the number
    /// of raw candidates fetched from the banding tables *before*
    /// signature verification — the work the partitioning minimizes.
    #[must_use]
    pub fn query_containment_with_stats(
        &self,
        query: &MinHashSignature,
        t: f64,
    ) -> (Vec<(u32, f64)>, usize) {
        let q = query.set_size.max(1);
        let mut raw_candidates = 0usize;
        // Each id lives in exactly one partition and `query_bands` already
        // deduplicates within a table, so candidates are unique: a plain
        // Vec replaces the old hash-map accumulator without changing the
        // result set.
        let mut v: Vec<(u32, f64)> = Vec::new();
        for p in &self.partitions {
            let j = Self::jaccard_threshold(t, q, p.upper);
            // Pick the largest row count whose target-recall band budget
            // fits in the signature (stricter rows = fewer false positives),
            // then use exactly that many bands.
            let mut choice: Option<(usize, usize)> = None; // (rows, bands)
            for &(r, _) in &p.tables {
                let need = bands_needed(j, r);
                if need <= (self.k / r) as f64 {
                    choice = Some((r, need as usize));
                }
            }
            // Nothing reaches target recall: fall back to the most
            // forgiving table with all its bands.
            let (rows, bands) = choice.unwrap_or((ROW_CHOICES[0], self.k));
            let Some(table) = p
                .tables
                .iter()
                .find(|&&(r, _)| r == rows)
                .map(|(_, lsh)| lsh)
            else {
                continue;
            };
            for id in table.query_bands(query, bands) {
                raw_candidates += 1;
                let Ok(pos) = self.ids.binary_search(&id) else {
                    continue;
                };
                let est = query.containment_in(&self.sigs[pos]);
                if est >= t {
                    v.push((id, est));
                }
            }
        }
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let reg = td_obs::global();
        reg.counter("index.ensemble.queries").inc();
        reg.counter("index.ensemble.partition_probes")
            .add(self.partitions.len() as u64);
        reg.counter("index.ensemble.raw_candidates")
            .add(raw_candidates as u64);
        reg.counter("index.ensemble.verified_hits")
            .add(v.len() as u64);
        (v, raw_candidates)
    }

    /// Top-k by estimated containment: runs a low-threshold containment
    /// query and truncates.
    #[must_use]
    pub fn top_k_containment(&self, query: &MinHashSignature, k: usize) -> Vec<(u32, f64)> {
        let mut v = self.query_containment(query, 0.05);
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_sketch::minhash::MinHasher;

    fn sig(h: &MinHasher, range: std::ops::Range<u32>) -> MinHashSignature {
        let toks: Vec<String> = range.map(|i| format!("v{i}")).collect();
        h.sign(toks.iter().map(String::as_str))
    }

    /// Corpus with wildly skewed cardinalities: ids 0..10 are large sets
    /// (5k) fully containing the query; 10..20 are small sets (100) with
    /// only partial overlap; 20..60 are disjoint noise of mixed size.
    fn corpus(h: &MinHasher) -> Vec<(u32, MinHashSignature)> {
        let mut items = Vec::new();
        for i in 0..10u32 {
            items.push((i, sig(h, 0..(5000 + i * 100)))); // contain [0,200)
        }
        for i in 10..20u32 {
            items.push((i, sig(h, (i - 10) * 20..((i - 10) * 20 + 100)))); // partial
        }
        for i in 20..60u32 {
            let base = 100_000 + i * 10_000;
            let len = if i % 2 == 0 { 80 } else { 4_000 };
            items.push((i, sig(h, base..base + len)));
        }
        items
    }

    #[test]
    fn jaccard_threshold_conversion() {
        // q=100 fully contained in u=10000: j = 100/10000 ≈ 0.01.
        let j = LshEnsemble::jaccard_threshold(1.0, 100, 10_000);
        assert!((j - 0.01).abs() < 0.001, "j {j}");
        // u = q, t=1: j = 1.
        let j2 = LshEnsemble::jaccard_threshold(1.0, 100, 100);
        assert!((j2 - 1.0).abs() < 1e-9);
        // Monotone in t.
        assert!(
            LshEnsemble::jaccard_threshold(0.5, 100, 1000)
                < LshEnsemble::jaccard_threshold(0.9, 100, 1000)
        );
    }

    #[test]
    fn finds_large_containing_sets_that_jaccard_lsh_misses() {
        let h = MinHasher::new(256, 1);
        let ens = LshEnsemble::build(corpus(&h), 8);
        let q = sig(&h, 0..200);
        let hits = ens.query_containment(&q, 0.8);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        // All ten big containing sets should be found.
        let found = (0..10).filter(|i| ids.contains(i)).count();
        assert!(found >= 8, "found only {found}/10 containing supersets");
        // Disjoint noise should not pass the containment filter.
        assert!(ids.iter().all(|&id| id < 20), "noise leaked: {ids:?}");
    }

    #[test]
    fn threshold_filters_partial_overlaps() {
        let h = MinHasher::new(256, 1);
        let ens = LshEnsemble::build(corpus(&h), 8);
        let q = sig(&h, 0..200);
        let strict = ens.query_containment(&q, 0.9);
        let loose = ens.query_containment(&q, 0.2);
        assert!(loose.len() >= strict.len());
    }

    #[test]
    fn top_k_ranks_by_containment() {
        let h = MinHasher::new(256, 1);
        let ens = LshEnsemble::build(corpus(&h), 8);
        let q = sig(&h, 0..200);
        let top = ens.top_k_containment(&q, 5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The best hits are the full containers.
        assert!(top[0].1 > 0.8);
        assert!(top[0].0 < 10);
    }

    #[test]
    fn partitions_are_equi_depth() {
        let h = MinHasher::new(64, 1);
        let items: Vec<(u32, MinHashSignature)> =
            (0..100u32).map(|i| (i, sig(&h, 0..(10 + i * 7)))).collect();
        let ens = LshEnsemble::build(items, 4);
        assert_eq!(ens.num_partitions(), 4);
        assert_eq!(ens.len(), 100);
    }

    #[test]
    fn single_partition_still_works() {
        let h = MinHasher::new(128, 1);
        let ens = LshEnsemble::build(corpus(&h), 1);
        let q = sig(&h, 0..200);
        let hits = ens.query_containment(&q, 0.8);
        assert!(!hits.is_empty());
    }

    #[test]
    fn empty_build_answers_nothing() {
        let ens = LshEnsemble::build(Vec::new(), 4);
        assert!(ens.is_empty());
        let h = MinHasher::new(128, 7);
        let probe = sig(&h, 0..10);
        assert!(ens.query_containment(&probe, 0.0).is_empty());
        assert!(ens.top_k_containment(&probe, 5).is_empty());
    }
}
