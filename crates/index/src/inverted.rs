//! Inverted index over token sets with exact top-k overlap search.
//!
//! This is the substrate of JOSIE (Zhu et al., SIGMOD 2019): columns are
//! token sets, the index maps token → posting list of set ids, and top-k
//! equi-joinability search means *exact* top-k by overlap `|Q ∩ X|`.
//!
//! Storage is flat and arena-backed (see [`crate::intern`]): the token
//! dictionary is an open-addressed [`FlatMap64`] over token hashes, and
//! both the postings (token → set ids) and the sets (set → rare-first
//! token ids) live in CSR [`PostingLists`] — one contiguous allocation
//! each instead of a `Vec` of `Vec`s behind a `HashMap`. Query scratch
//! (candidate counters, seen/settled marks) is dense and epoch-marked,
//! reused across queries on the same thread, so a probe sweep allocates
//! nothing per query.
//!
//! Three search strategies expose the trade-off JOSIE's cost model
//! navigates (ablated in experiment E03):
//!
//! * [`InvertedSetIndex::top_k_merge`] — read **every** posting list of the
//!   query's tokens and count (cheap per element, reads everything).
//! * [`InvertedSetIndex::top_k_probe`] — read lists rare-token-first,
//!   verifying candidates *exactly* against the query set, with the
//!   position upper bound (`unseen tokens`) used to stop early.
//! * [`InvertedSetIndex::top_k_adaptive`] — JOSIE-style: at each step
//!   compare the estimated cost of continuing to read posting lists with
//!   the cost of verifying the current candidates, and switch when
//!   verification becomes cheaper.

use crate::intern::{EpochCounters, FlatMap64, PostingLists};
use crate::topk::TopK;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use td_sketch::hash::hash_str;

/// Identifier of an indexed set (dense, insertion order).
pub type SetId = u32;

const TOKEN_SEED: u64 = 0x10_5E7;

/// Search-strategy statistics (for the E03 cost ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Posting-list elements read.
    pub postings_read: usize,
    /// Candidate sets exactly verified.
    pub sets_verified: usize,
    /// Total tokens touched during verification.
    pub verify_tokens_read: usize,
}

impl SearchStats {
    /// Fold this query's work into the global `td-obs` counters under
    /// `index.inverted.<strategy>.*`.
    fn publish(&self, strategy: &str) {
        let reg = td_obs::global();
        reg.counter(&format!("index.inverted.{strategy}.queries"))
            .inc();
        reg.counter(&format!("index.inverted.{strategy}.postings_read"))
            .add(self.postings_read as u64);
        reg.counter(&format!("index.inverted.{strategy}.sets_verified"))
            .add(self.sets_verified as u64);
    }
}

/// Dense per-thread probe scratch: candidate counters and seen/settled
/// marks sized to the index, epoch-reset between queries. Bounded by
/// the largest index probed on this thread — build-time state, never
/// query-volume state.
#[derive(Debug, Default)]
struct Scratch {
    /// Merge counts / adaptive partial counts.
    counts: EpochCounters,
    /// Probe "seen" marks / adaptive "settled" marks.
    marks: EpochCounters,
    /// Set ids touched this query (drain order is re-sorted before any
    /// ranking, so reuse cannot leak order across queries).
    touched: Vec<SetId>,
    /// Query token ids sorted ascending, for binary-search membership
    /// during verification.
    qsorted: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Builder for [`InvertedSetIndex`].
#[derive(Debug, Default)]
pub struct InvertedSetIndexBuilder {
    /// Token-hash → interned token id.
    token_ids: FlatMap64,
    /// Per-set interned token ids (unsorted during build).
    sets: Vec<Vec<u32>>,
    /// Per-token global frequency.
    freq: Vec<u32>,
}

impl InvertedSetIndexBuilder {
    /// New empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a set of string tokens; returns its id. Duplicate tokens within
    /// a set are collapsed.
    pub fn add_set<'a, I>(&mut self, tokens: I) -> SetId
    where
        I: IntoIterator<Item = &'a str>,
    {
        let id = self.sets.len() as SetId;
        let mut ids: Vec<u32> = Vec::new();
        for t in tokens {
            let h = hash_str(t, TOKEN_SEED);
            let next = self.token_ids.len() as u32;
            let tid = self.token_ids.get_or_insert(h, next);
            if tid as usize == self.freq.len() {
                self.freq.push(0);
            }
            ids.push(tid);
        }
        // Collapse duplicates within the set (the final per-set order is
        // established in `build`, so a sort here loses nothing).
        ids.sort_unstable();
        ids.dedup();
        for &tid in &ids {
            self.freq[tid as usize] += 1;
        }
        self.sets.push(ids);
        id
    }

    /// Finish building: computes the global rare-first token order and the
    /// posting lists, packing both into contiguous CSR arenas.
    #[must_use]
    pub fn build(self) -> InvertedSetIndex {
        let InvertedSetIndexBuilder {
            token_ids,
            mut sets,
            freq,
        } = self;
        // Sort each set's tokens rare-first (frequency asc, id tiebreak):
        // this is the canonical prefix-filter ordering.
        for s in &mut sets {
            s.sort_unstable_by_key(|&t| (freq[t as usize], t));
        }
        let mut postings: Vec<Vec<SetId>> = vec![Vec::new(); freq.len()];
        for (sid, s) in sets.iter().enumerate() {
            for &t in s {
                postings[t as usize].push(sid as SetId);
            }
        }
        InvertedSetIndex {
            token_ids,
            postings: PostingLists::from_lists(postings),
            sets: PostingLists::from_lists(sets),
            freq,
        }
    }
}

/// An immutable inverted index over token sets, CSR-packed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvertedSetIndex {
    token_ids: FlatMap64,
    /// Token id → set ids (ascending).
    postings: PostingLists,
    /// Set id → token ids, rare-first.
    sets: PostingLists,
    freq: Vec<u32>,
}

impl InvertedSetIndex {
    /// Number of indexed sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.sets.num_lists()
    }

    /// Number of distinct tokens.
    #[must_use]
    pub fn num_tokens(&self) -> usize {
        self.postings.num_lists()
    }

    /// Size (distinct tokens) of an indexed set.
    #[must_use]
    pub fn set_size(&self, id: SetId) -> usize {
        self.sets.list(id as usize).len()
    }

    /// Intern a query's tokens: known token ids sorted rare-first
    /// (unknown tokens can't contribute overlap and are dropped).
    fn intern_query<'a, I>(&self, tokens: I) -> Vec<u32>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut ids: Vec<u32> = tokens
            .into_iter()
            .filter_map(|t| self.token_ids.get(hash_str(t, TOKEN_SEED)))
            .collect();
        ids.sort_unstable_by_key(|&t| (self.freq[t as usize], t));
        ids.dedup();
        ids
    }

    /// Exact top-k by overlap, full-merge strategy.
    pub fn top_k_merge<'a, I>(&self, tokens: I, k: usize) -> (Vec<(SetId, usize)>, SearchStats)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let q = self.intern_query(tokens);
        let (out, stats) = SCRATCH.with(|s| self.merge_core(&q, k, &mut s.borrow_mut()));
        stats.publish("merge");
        (out, stats)
    }

    fn merge_core(
        &self,
        q: &[u32],
        k: usize,
        s: &mut Scratch,
    ) -> (Vec<(SetId, usize)>, SearchStats) {
        let mut stats = SearchStats::default();
        s.counts.begin(self.num_sets());
        s.touched.clear();
        for &t in q {
            let pl = self.postings.list(t as usize);
            stats.postings_read += pl.len();
            for &sid in pl {
                if s.counts.bump(sid as usize) {
                    s.touched.push(sid);
                }
            }
        }
        // Sorted drain: TopK's tie-breaking is insertion-invariant, but
        // draining candidates in ascending set id keeps the offered
        // sequence — and therefore every downstream byte — identical to
        // the historical sorted HashMap drain.
        s.touched.sort_unstable();
        let mut topk = TopK::new(k.max(1));
        for &sid in &s.touched {
            topk.push(f64::from(s.counts.get(sid as usize)), sid);
        }
        let out = topk
            .into_sorted()
            .into_iter()
            .map(|(sc, id)| (id, sc as usize))
            .collect();
        (out, stats)
    }

    /// Exact overlap of an indexed set with the query (given as token ids
    /// sorted ascending, for binary-search membership).
    fn verify(&self, sid: SetId, qsorted: &[u32], stats: &mut SearchStats) -> usize {
        let set = self.sets.list(sid as usize);
        stats.sets_verified += 1;
        stats.verify_tokens_read += set.len();
        set.iter()
            .filter(|t| qsorted.binary_search(t).is_ok())
            .count()
    }

    /// Exact top-k by overlap, probe strategy: posting lists rare-first,
    /// exact verification of first-seen candidates, early exit when the
    /// number of unread query tokens can no longer beat the k-th best.
    pub fn top_k_probe<'a, I>(&self, tokens: I, k: usize) -> (Vec<(SetId, usize)>, SearchStats)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let q = self.intern_query(tokens);
        let (out, stats) = SCRATCH.with(|s| self.probe_core(&q, k, &mut s.borrow_mut()));
        stats.publish("probe");
        (out, stats)
    }

    fn probe_core(
        &self,
        q: &[u32],
        k: usize,
        s: &mut Scratch,
    ) -> (Vec<(SetId, usize)>, SearchStats) {
        let mut stats = SearchStats::default();
        s.marks.begin(self.num_sets());
        s.qsorted.clear();
        s.qsorted.extend_from_slice(q);
        s.qsorted.sort_unstable();
        let mut topk = TopK::new(k.max(1));
        for (i, &t) in q.iter().enumerate() {
            // Any set first appearing now shares none of the earlier (rarer)
            // tokens we've read... it may still share them (we only read a
            // prefix of ITS tokens implicitly) — the sound bound is the
            // number of query tokens not yet processed:
            let remaining = q.len() - i;
            if let Some(th) = topk.threshold() {
                // Strict: a set *tying* the k-th best can still displace a
                // larger id under TopK's total order, so only a strictly
                // lower bound is safe to stop on.
                if (remaining as f64) < th {
                    break; // no unseen set can beat or tie the k-th best
                }
            }
            let pl = self.postings.list(t as usize);
            stats.postings_read += pl.len();
            for &sid in pl {
                if !s.marks.is_set(sid as usize) {
                    s.marks.set(sid as usize, 1);
                    let ov = self.verify(sid, &s.qsorted, &mut stats);
                    topk.push(ov as f64, sid);
                }
            }
        }
        let out = topk
            .into_sorted()
            .into_iter()
            .map(|(sc, id)| (id, sc as usize))
            .collect();
        (out, stats)
    }

    /// Exact top-k by overlap, JOSIE-style adaptive strategy.
    ///
    /// Reads posting lists rare-first while *counting* partial overlaps.
    /// Before each list it compares the cost of reading the remaining
    /// lists (`sum of their lengths`) against the cost of verifying the
    /// outstanding candidates (`sum of their unread set sizes`), and
    /// switches to verification when that becomes cheaper. The final
    /// verification pass only touches candidates whose upper bound
    /// (`partial + unread query tokens`) can still beat the k-th best.
    pub fn top_k_adaptive<'a, I>(&self, tokens: I, k: usize) -> (Vec<(SetId, usize)>, SearchStats)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let q = self.intern_query(tokens);
        let (out, stats) = SCRATCH.with(|s| self.adaptive_core(&q, k, &mut s.borrow_mut()));
        stats.publish("adaptive");
        (out, stats)
    }

    fn adaptive_core(
        &self,
        q: &[u32],
        k: usize,
        s: &mut Scratch,
    ) -> (Vec<(SetId, usize)>, SearchStats) {
        let mut stats = SearchStats::default();
        let mut topk = TopK::new(k.max(1));
        // Partial counts of unsettled candidates (sound upper bound for a
        // candidate at boundary i: partial + unread tokens). `counts` is
        // the partial counter, `marks` flags sets whose exact overlap is
        // settled (verified, or soundly pruned forever — the threshold
        // only rises).
        s.counts.begin(self.num_sets());
        s.marks.begin(self.num_sets());
        s.touched.clear();
        s.qsorted.clear();
        s.qsorted.extend_from_slice(q);
        s.qsorted.sort_unstable();
        let mut remaining_list_cost: usize = q
            .iter()
            .map(|&t| self.postings.list(t as usize).len())
            .sum();
        let mut merged_all = true;
        for (i, &t) in q.iter().enumerate() {
            let unread = q.len() - i;
            // Global stop: no unseen set (≤ unread) nor any outstanding
            // candidate (≤ partial + unread) can beat the k-th best.
            if let Some(th) = topk.threshold() {
                // Strict bounds: ties can still displace under TopK's
                // total order (see top_k_probe).
                let max_partial = self.max_partial(s);
                if (unread as f64) < th && ((max_partial + unread) as f64) < th {
                    merged_all = false;
                    break;
                }
            }
            // Incremental verification: settle the few most promising
            // candidates (highest partial count, upper bound above the
            // threshold) so the threshold rises early and the global stop
            // can fire — without committing to verify every candidate the
            // remaining heavy lists will spawn (which is what makes naive
            // probing lose to merging on skewed token distributions).
            const VERIFY_PER_ROUND: usize = 2;
            for _ in 0..VERIFY_PER_ROUND {
                let th = topk.threshold();
                // Highest partial count wins, ties prefer the smaller set
                // id — the same total order the historical HashMap
                // `max_by` computed, so iteration order is irrelevant.
                let mut best: Option<(u32, SetId)> = None;
                for &sid in &s.touched {
                    if s.marks.is_set(sid as usize) {
                        continue; // settled
                    }
                    let p = s.counts.get(sid as usize);
                    if let Some(t) = th {
                        if ((p as usize + unread) as f64) < t {
                            continue;
                        }
                    }
                    best = match best {
                        Some((bp, bs)) if p < bp || (p == bp && sid >= bs) => Some((bp, bs)),
                        _ => Some((p, sid)),
                    };
                }
                let Some((_, sid)) = best else { break };
                // Verifying this candidate must be cheaper than just
                // finishing the merge.
                if self.sets.list(sid as usize).len() >= remaining_list_cost {
                    break;
                }
                s.marks.set(sid as usize, 1);
                let ov = self.verify(sid, &s.qsorted, &mut stats);
                topk.push(ov as f64, sid);
            }
            if let Some(th) = topk.threshold() {
                let max_partial = self.max_partial(s);
                if (unread as f64) < th && ((max_partial + unread) as f64) < th {
                    merged_all = false;
                    break;
                }
            }
            let pl = self.postings.list(t as usize);
            remaining_list_cost -= pl.len();
            stats.postings_read += pl.len();
            for &sid in pl {
                if !s.marks.is_set(sid as usize) && s.counts.bump(sid as usize) {
                    s.touched.push(sid);
                }
            }
        }
        // Leftover candidates. If every list was merged, the partial counts
        // are exact. If we broke early, the break condition guaranteed that
        // every outstanding candidate's upper bound (partial + unread) was
        // strictly below the k-th best — nothing left can beat or tie it.
        if merged_all {
            // Sorted drain for run-to-run deterministic tie order.
            s.touched.sort_unstable();
            for &sid in &s.touched {
                if s.marks.is_set(sid as usize) {
                    continue;
                }
                topk.push(f64::from(s.counts.get(sid as usize)), sid);
            }
        }
        let out = topk
            .into_sorted()
            .into_iter()
            .map(|(sc, id)| (id, sc as usize))
            .collect();
        (out, stats)
    }

    /// Largest partial count among unsettled candidates.
    fn max_partial(&self, s: &Scratch) -> usize {
        let mut max = 0u32;
        for &sid in &s.touched {
            if !s.marks.is_set(sid as usize) {
                max = max.max(s.counts.get(sid as usize));
            }
        }
        max as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets: s0 = {a..j} (10), s1 = {a..e} (5), s2 = {f..o} (10), s3 = {x,y,z}.
    fn toy() -> InvertedSetIndex {
        let mut b = InvertedSetIndexBuilder::new();
        let t = |r: std::ops::Range<u8>| -> Vec<String> {
            r.map(|c| ((b'a' + c) as char).to_string()).collect()
        };
        let s0 = t(0..10);
        let s1 = t(0..5);
        let s2 = t(5..15);
        b.add_set(s0.iter().map(String::as_str));
        b.add_set(s1.iter().map(String::as_str));
        b.add_set(s2.iter().map(String::as_str));
        b.add_set(["x", "y", "z"]);
        b.build()
    }

    fn query() -> Vec<String> {
        // q = {a..h}: overlap s0=8, s1=5, s2=3, s3=0.
        (0..8u8).map(|c| ((b'a' + c) as char).to_string()).collect()
    }

    #[test]
    fn merge_finds_exact_topk() {
        let idx = toy();
        let q = query();
        let (r, _) = idx.top_k_merge(q.iter().map(String::as_str), 2);
        assert_eq!(r, vec![(0, 8), (1, 5)]);
    }

    #[test]
    fn probe_matches_merge() {
        let idx = toy();
        let q = query();
        let (m, _) = idx.top_k_merge(q.iter().map(String::as_str), 3);
        let (p, _) = idx.top_k_probe(q.iter().map(String::as_str), 3);
        assert_eq!(m, p);
    }

    #[test]
    fn adaptive_matches_merge() {
        let idx = toy();
        let q = query();
        let (m, _) = idx.top_k_merge(q.iter().map(String::as_str), 3);
        let (a, _) = idx.top_k_adaptive(q.iter().map(String::as_str), 3);
        assert_eq!(m, a);
    }

    #[test]
    fn unknown_tokens_are_ignored() {
        let idx = toy();
        let (r, _) = idx.top_k_merge(["a", "zzz-not-indexed"], 1);
        assert_eq!(r[0].1, 1);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let idx = toy();
        let (r, s) = idx.top_k_merge(std::iter::empty(), 5);
        assert!(r.is_empty());
        assert_eq!(s.postings_read, 0);
    }

    #[test]
    fn duplicate_query_tokens_count_once() {
        let idx = toy();
        let (r, _) = idx.top_k_merge(["a", "a", "a", "b"], 1);
        // s0 and s1 both contain {a, b}: overlap 2, either may win the tie.
        assert_eq!(r[0].1, 2);
        assert!(r[0].0 == 0 || r[0].0 == 1);
    }

    #[test]
    fn duplicate_set_tokens_count_once() {
        let mut b = InvertedSetIndexBuilder::new();
        b.add_set(["a", "a", "b"]);
        let idx = b.build();
        assert_eq!(idx.set_size(0), 2);
    }

    #[test]
    fn probe_early_exit_reads_fewer_postings_on_skew() {
        // One huge common token shared by everyone + rare discriminative
        // tokens: probe should finish before touching the huge list.
        let mut b = InvertedSetIndexBuilder::new();
        let common: Vec<String> = (0..50).map(|i| format!("common{i}")).collect();
        for s in 0..200u32 {
            let mut toks: Vec<String> = common.clone();
            toks.push(format!("rare-{s}"));
            b.add_set(toks.iter().map(String::as_str));
        }
        let idx = b.build();
        let mut q: Vec<String> = common.clone();
        q.push("rare-7".to_string());
        let (m, sm) = idx.top_k_merge(q.iter().map(String::as_str), 1);
        let (p, sp) = idx.top_k_probe(q.iter().map(String::as_str), 1);
        assert_eq!(m[0], p[0]);
        assert_eq!(m[0], (7, 51));
        assert!(
            sp.postings_read < sm.postings_read,
            "probe {} vs merge {}",
            sp.postings_read,
            sm.postings_read
        );
    }

    #[test]
    fn strategies_agree_on_random_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut b = InvertedSetIndexBuilder::new();
        let mut raw_sets = Vec::new();
        for _ in 0..120 {
            let n = rng.gen_range(3..40);
            let s: Vec<String> = (0..n)
                .map(|_| format!("t{}", rng.gen_range(0..200)))
                .collect();
            raw_sets.push(s);
        }
        for s in &raw_sets {
            b.add_set(s.iter().map(String::as_str));
        }
        let idx = b.build();
        for qi in [0usize, 5, 17, 60] {
            let q = &raw_sets[qi];
            let (m, _) = idx.top_k_merge(q.iter().map(String::as_str), 5);
            let (p, _) = idx.top_k_probe(q.iter().map(String::as_str), 5);
            let (a, _) = idx.top_k_adaptive(q.iter().map(String::as_str), 5);
            // Overlap multisets must agree (ties may order differently).
            let ov =
                |v: &Vec<(SetId, usize)>| -> Vec<usize> { v.iter().map(|&(_, o)| o).collect() };
            assert_eq!(ov(&m), ov(&p), "query {qi}");
            assert_eq!(ov(&m), ov(&a), "query {qi}");
            // The query set itself must rank first with full overlap.
            assert_eq!(m[0].1, idx.set_size(qi as SetId));
        }
    }
}
