//! BM25 full-text index for keyword/metadata search (tutorial §2.3).
//!
//! Terms are interned into dense `u32` symbols through the arena-backed
//! [`Interner`] (see [`crate::intern`]), and posting lists are indexed
//! by symbol in one flat `Vec` — no string-keyed `HashMap` on the query
//! path. Score accumulation runs over a dense, epoch-marked scratch
//! array reused across the queries of a batch.

use crate::intern::Interner;
use crate::topk::TopK;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// BM25 ranking parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Bm25Params {
    /// Term-frequency saturation (`k1`, typically 1.2–2.0).
    pub k1: f64,
    /// Length normalization (`b`, typically 0.75).
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// Lower-cased alphanumeric tokenization (runs of `[a-z0-9]`).
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Corpus-level statistics BM25 scoring depends on: document count,
/// summed document length, and per-query-term document frequencies.
///
/// Scores computed against a *subset* of the corpus (a shard) diverge
/// from whole-corpus scores unless the scorer is pinned to whole-corpus
/// statistics: idf derives from `df / num_docs` and length
/// normalization from `total_len / num_docs`. A scatter-gather
/// coordinator therefore runs keyword search in two phases — gather
/// each shard's `term_stats`, [`Bm25Stats::merge`] them, and re-scatter
/// the merged stats to [`Bm25Index::search_with_stats`].
///
/// `df` entries align index-wise with the deduplicated token sequence
/// of the query that produced them (see [`Bm25Index::term_stats`]); the
/// alignment is positional, so stats are only meaningful for the exact
/// query string they were gathered for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bm25Stats {
    /// Total number of indexed documents.
    pub num_docs: u64,
    /// Summed token length of all indexed documents.
    pub total_len: u64,
    /// Document frequency per deduplicated query term, positional.
    pub df: Vec<u64>,
}

impl Bm25Stats {
    /// Element-wise sum of per-shard statistics. Returns `None` when
    /// the shards disagree on the query term count (stats gathered for
    /// different queries), or when `parts` is empty.
    #[must_use]
    pub fn merge(parts: &[Bm25Stats]) -> Option<Bm25Stats> {
        let first = parts.first()?;
        let mut out = Bm25Stats {
            num_docs: 0,
            total_len: 0,
            df: vec![0; first.df.len()],
        };
        for p in parts {
            if p.df.len() != first.df.len() {
                return None;
            }
            out.num_docs += p.num_docs;
            out.total_len += p.total_len;
            for (acc, d) in out.df.iter_mut().zip(&p.df) {
                *acc += d;
            }
        }
        Some(out)
    }
}

/// Dense per-thread scoring scratch, epoch-reset between queries so a
/// batch of searches re-zeroes nothing. Bounded by the largest corpus
/// scored on this thread.
#[derive(Debug, Default)]
struct ScoreScratch {
    epoch: u32,
    mark: Vec<u32>,
    score: Vec<f64>,
    touched: Vec<u32>,
}

impl ScoreScratch {
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.score.resize(n, 0.0);
        }
        if self.epoch == u32::MAX {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.touched.clear();
    }

    #[inline]
    fn add(&mut self, doc: u32, s: f64) {
        let i = doc as usize;
        if self.mark[i] == self.epoch {
            self.score[i] += s;
        } else {
            self.mark[i] = self.epoch;
            self.score[i] = s;
            self.touched.push(doc);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<ScoreScratch> = RefCell::new(ScoreScratch::default());
}

/// An inverted BM25 index over documents identified by `u32` ids.
/// ```
/// use td_index::{Bm25Index, Bm25Params};
///
/// let mut idx = Bm25Index::new(Bm25Params::default());
/// idx.add_document("city budget finance 2023");
/// idx.add_document("wildlife sightings dataset");
/// let hits = idx.search("municipal budget", 2);
/// assert_eq!(hits[0].0, 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bm25Index {
    params: Bm25Params,
    /// Term dictionary: string → dense symbol, arena-backed.
    terms: Interner,
    /// Symbol → (doc id, term frequency), docs ascending.
    postings: Vec<Vec<(u32, u32)>>,
    doc_len: Vec<u32>,
    total_len: u64,
}

impl Bm25Index {
    /// An empty index.
    #[must_use]
    pub fn new(params: Bm25Params) -> Self {
        Bm25Index {
            params,
            terms: Interner::new(),
            postings: Vec::new(),
            doc_len: Vec::new(),
            total_len: 0,
        }
    }

    /// Add a document; returns its id (dense, insertion order).
    pub fn add_document(&mut self, text: &str) -> u32 {
        let id = self.doc_len.len() as u32;
        let tokens = tokenize(text);
        // Intern in token order (first occurrence fixes the symbol), then
        // count term frequencies over the sorted symbol run — fully
        // deterministic, so the posting layout (and anything serialized
        // from it) is identical across runs.
        let mut syms: Vec<u32> = Vec::with_capacity(tokens.len());
        for t in &tokens {
            let sym = self.terms.intern(t);
            if sym as usize == self.postings.len() {
                self.postings.push(Vec::new());
            }
            syms.push(sym);
        }
        syms.sort_unstable();
        let mut i = 0;
        while i < syms.len() {
            let sym = syms[i];
            let mut f = 1u32;
            while i + 1 < syms.len() && syms[i + 1] == sym {
                f += 1;
                i += 1;
            }
            self.postings[sym as usize].push((id, f));
            i += 1;
        }
        self.doc_len.push(tokens.len() as u32);
        self.total_len += tokens.len() as u64;
        id
    }

    /// Number of documents.
    #[must_use]
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// True if no documents are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.doc_len.is_empty()
    }

    /// BM25 idf with the standard +1 smoothing (never negative).
    fn idf(n: f64, df: f64) -> f64 {
        (((n - df + 0.5) / (df + 0.5)) + 1.0).ln()
    }

    /// Posting list of a term string, if indexed.
    fn postings_of(&self, term: &str) -> Option<&[(u32, u32)]> {
        self.terms
            .get(term)
            .map(|sym| self.postings[sym as usize].as_slice())
    }

    /// This index's own statistics for `query`'s terms — the exact
    /// statistics [`Self::search`] scores with. Merge per-shard stats
    /// with [`Bm25Stats::merge`] to score against a distributed corpus.
    #[must_use]
    pub fn term_stats(&self, query: &str) -> Bm25Stats {
        let mut qterms = tokenize(query);
        qterms.dedup();
        Bm25Stats {
            num_docs: self.doc_len.len() as u64,
            total_len: self.total_len,
            df: qterms
                .iter()
                .map(|t| self.postings_of(t).map_or(0, |pl| pl.len() as u64))
                .collect(),
        }
    }

    /// Top-k documents for a free-text query, `(doc, score)` descending.
    /// Documents matching no query term are not returned.
    #[must_use]
    pub fn search(&self, query: &str, k: usize) -> Vec<(u32, f64)> {
        self.search_with_stats(query, k, &self.term_stats(query))
    }

    /// [`Self::search`], but scored with pinned corpus statistics
    /// instead of this index's own. With `stats == self.term_stats(query)`
    /// this is bit-identical to `search`; with merged multi-shard stats
    /// every shard scores its local documents on the global scale, so a
    /// coordinator can merge per-shard top-k lists exactly. `stats.df`
    /// must align with this query's deduplicated terms (same length);
    /// mismatched stats return no hits rather than mis-scored ones.
    #[must_use]
    pub fn search_with_stats(&self, query: &str, k: usize, stats: &Bm25Stats) -> Vec<(u32, f64)> {
        if self.doc_len.is_empty() || k == 0 || stats.num_docs == 0 {
            return Vec::new();
        }
        let avg_len = stats.total_len as f64 / stats.num_docs as f64;
        let n = stats.num_docs as f64;
        let mut qterms = tokenize(query);
        qterms.dedup();
        if stats.df.len() != qterms.len() {
            return Vec::new();
        }
        SCRATCH.with(|cell| {
            let s = &mut cell.borrow_mut();
            s.begin(self.doc_len.len());
            for (term, &df) in qterms.iter().zip(&stats.df) {
                let Some(pl) = self.postings_of(term) else {
                    continue;
                };
                let idf = Self::idf(n, df as f64);
                for &(doc, f) in pl {
                    let f = f as f64;
                    let len_norm = 1.0 - self.params.b
                        + self.params.b * f64::from(self.doc_len[doc as usize]) / avg_len.max(1e-9);
                    let sc = idf * (f * (self.params.k1 + 1.0)) / (f + self.params.k1 * len_norm);
                    s.add(doc, sc);
                }
            }
            // Sorted drain: tied BM25 scores must rank deterministically.
            s.touched.sort_unstable();
            let mut topk = TopK::new(k);
            for &doc in &s.touched {
                topk.push(s.score[doc as usize], doc);
            }
            topk.into_sorted()
                .into_iter()
                .map(|(sc, d)| (d, sc))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(docs: &[&str]) -> Bm25Index {
        let mut i = Bm25Index::new(Bm25Params::default());
        for d in docs {
            i.add_document(d);
        }
        i
    }

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            tokenize("City Budgets, FY-2023!"),
            vec!["city", "budgets", "fy", "2023"]
        );
        assert!(tokenize("  ,,  ").is_empty());
    }

    #[test]
    fn exact_topic_match_ranks_first() {
        let i = idx(&[
            "city budget annual finance",
            "wildlife animals habitat",
            "city population census",
        ]);
        let r = i.search("city budget", 3);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        let i = idx(&[
            "data data data zebra",
            "data survey",
            "data report",
            "data analysis",
        ]);
        // "zebra" appears in one doc: it should dominate the ubiquitous "data".
        let r = i.search("data zebra", 4);
        assert_eq!(r[0].0, 0);
        assert!(r[0].1 > r[1].1 * 1.5);
    }

    #[test]
    fn unmatched_documents_are_absent() {
        let i = idx(&["apples oranges", "trains planes"]);
        let r = i.search("apples", 10);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn no_hits_for_unknown_terms() {
        let i = idx(&["apples oranges"]);
        assert!(i.search("quantum chromodynamics", 5).is_empty());
    }

    #[test]
    fn length_normalization_prefers_concise_docs() {
        let long: String = std::iter::repeat_n("filler", 200)
            .collect::<Vec<_>>()
            .join(" ")
            + " target";
        let i = idx(&[&long, "short target doc"]);
        let r = i.search("target", 2);
        assert_eq!(r[0].0, 1, "short doc should outrank padded doc");
    }

    #[test]
    fn empty_query_and_empty_index() {
        let i = idx(&["a b c"]);
        assert!(i.search("", 3).is_empty());
        let e = Bm25Index::new(Bm25Params::default());
        assert!(e.search("a", 3).is_empty());
    }

    #[test]
    fn duplicate_query_terms_count_once() {
        let i = idx(&["apple pie", "apple apple apple tart"]);
        let once = i.search("apple", 2);
        let thrice = i.search("apple apple apple", 2);
        assert_eq!(once, thrice);
    }
}
