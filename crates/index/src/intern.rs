//! Flat arena-backed symbol tables: the substrate of the probe paths.
//!
//! Every index in this crate used to key its hot lookups through nested
//! `std::collections::HashMap`s — token-hash → id, term → posting list,
//! band-bucket → candidate ids. Each lookup chased SipHash state and a
//! heap-allocated bucket; each posting list was its own allocation. The
//! three types here replace that with contiguous, cache-friendly
//! layouts:
//!
//! * [`FlatMap64`] — an open-addressed `u64 → u32` table with linear
//!   probing, for lookups whose keys are already 64-bit hashes.
//! * [`Interner`] — a string → dense `u32` symbol table whose bytes
//!   live in one arena, with exact (byte-compare) collision handling.
//! * [`PostingLists`] — CSR-style posting storage: one `offsets` array
//!   and one flat `data` array instead of a `Vec` of `Vec`s.
//!
//! All three are **deterministic**: their contents depend only on the
//! sequence of insertions, never on process-random hash seeds, so the
//! indexes built on them serialize byte-identically across runs and
//! the rankings they produce are reproducible. Their growth is bounded
//! by what is inserted at build time (the lake), not by query volume —
//! queries only read.

use serde::{Deserialize, Serialize};

/// Slot marker for an empty [`FlatMap64`] cell. Values are dense ids
/// assigned by callers, so the all-ones id is reserved.
const EMPTY: u32 = u32::MAX;

/// Multiplier for Fibonacci hashing: spreads already-hashed keys whose
/// low bits are weak across the power-of-two table.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressed `u64 → u32` map with linear probing.
///
/// Keys are expected to already be well-mixed 64-bit hashes (the token
/// hashes of the inverted index); values are dense ids strictly below
/// `u32::MAX`. Lookups touch one contiguous slot run — no per-bucket
/// allocations, no SipHash. Layout depends only on insertion order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatMap64 {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
}

impl Default for FlatMap64 {
    fn default() -> Self {
        Self::new()
    }
}

impl FlatMap64 {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        FlatMap64 {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Capacity is a power of two; Fibonacci-mix the key first so
        // structured keys still spread.
        (key.wrapping_mul(FIB) >> 32) as usize & (self.keys.len() - 1)
    }

    /// Look up a key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.slot_of(key);
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(v);
            }
            i = (i + 1) & (self.keys.len() - 1);
        }
    }

    /// Insert `val` under `key` unless the key is present; returns the
    /// stored value either way (the `entry(..).or_insert(..)` shape the
    /// builders use). `val` must be below `u32::MAX`.
    pub fn get_or_insert(&mut self, key: u64, val: u32) -> u32 {
        debug_assert!(val != EMPTY, "u32::MAX is the empty-slot marker");
        // Grow at 7/8 load so probe runs stay short.
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mut i = self.slot_of(key);
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return val;
            }
            if self.keys[i] == key {
                return v;
            }
            i = (i + 1) & (self.keys.len() - 1);
        }
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![EMPTY; cap]);
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v == EMPTY {
                continue;
            }
            let mut i = self.slot_of(k);
            while self.vals[i] != EMPTY {
                i = (i + 1) & (cap - 1);
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

/// A string interner over one contiguous byte arena.
///
/// Symbols are dense `u32`s assigned in first-occurrence order. Unlike
/// [`FlatMap64`], lookups compare the actual bytes on hash collision,
/// so two distinct strings can never alias one symbol. The arena grows
/// only on [`Interner::intern`] — i.e. at index build/ingest time — so
/// its footprint is bounded by the lake's vocabulary, not by how many
/// queries are served.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Interner {
    /// All interned strings, concatenated.
    text: String,
    /// Per-symbol `(byte offset, byte length)` into `text`.
    spans: Vec<(u32, u32)>,
    /// Per-symbol hash (avoids re-hashing the arena when growing).
    hashes: Vec<u64>,
    /// Open-addressed table of `symbol + 1` (0 = empty slot).
    table: Vec<u32>,
}

/// FNV-1a, good enough for short tokens and fully deterministic.
fn hash_bytes(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

impl Interner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total arena bytes (diagnostics: growth is bounded by the lake).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.text.len()
    }

    /// The symbol of `s`, if it was interned.
    #[must_use]
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let h = hash_bytes(s);
        let mask = self.table.len() - 1;
        let mut i = (h.wrapping_mul(FIB) >> 32) as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == 0 {
                return None;
            }
            let sym = slot - 1;
            if self.hashes[sym as usize] == h && self.resolve(sym) == s {
                return Some(sym);
            }
            i = (i + 1) & mask;
        }
    }

    /// Intern `s`, returning its dense symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        if (self.spans.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        let h = hash_bytes(s);
        let mask = self.table.len() - 1;
        let mut i = (h.wrapping_mul(FIB) >> 32) as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == 0 {
                let sym = self.spans.len() as u32;
                self.spans.push((self.text.len() as u32, s.len() as u32));
                self.hashes.push(h);
                self.text.push_str(s);
                self.table[i] = sym + 1;
                return sym;
            }
            let sym = slot - 1;
            if self.hashes[sym as usize] == h && self.resolve(sym) == s {
                return sym;
            }
            i = (i + 1) & mask;
        }
    }

    /// The string of a symbol.
    ///
    /// # Panics
    /// Panics if `sym` was never returned by this interner.
    #[must_use]
    pub fn resolve(&self, sym: u32) -> &str {
        let (start, len) = self.spans[sym as usize];
        &self.text[start as usize..(start + len) as usize]
    }

    fn grow(&mut self) {
        let cap = (self.table.len() * 2).max(16);
        let mask = cap - 1;
        let mut table = vec![0u32; cap];
        for (sym, &h) in self.hashes.iter().enumerate() {
            let mut i = (h.wrapping_mul(FIB) >> 32) as usize & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = sym as u32 + 1;
        }
        self.table = table;
    }
}

/// CSR posting storage: `n` variable-length `u32` lists packed into one
/// flat `data` array with an `offsets` fence array (`n + 1` entries).
///
/// Reading list `i` is two offset loads and one contiguous slice — no
/// pointer chase per list, and sequential scans over many lists walk
/// one allocation front to back.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PostingLists {
    offsets: Vec<u64>,
    data: Vec<u32>,
}

impl PostingLists {
    /// Empty storage.
    #[must_use]
    pub fn new() -> Self {
        PostingLists {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Pack a nested list-of-lists (consumed) into CSR form.
    #[must_use]
    pub fn from_lists(lists: Vec<Vec<u32>>) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut out = PostingLists {
            offsets: Vec::with_capacity(lists.len() + 1),
            data: Vec::with_capacity(total),
        };
        out.offsets.push(0);
        for l in lists {
            out.data.extend_from_slice(&l);
            out.offsets.push(out.data.len() as u64);
        }
        out
    }

    /// Append one list.
    pub fn push_list<I: IntoIterator<Item = u32>>(&mut self, items: I) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.data.extend(items);
        self.offsets.push(self.data.len() as u64);
    }

    /// Number of lists.
    #[must_use]
    pub fn num_lists(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True if no lists are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_lists() == 0
    }

    /// Total stored elements across all lists.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// List `i` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= num_lists()` (same contract as `Vec` indexing).
    #[must_use]
    pub fn list(&self, i: usize) -> &[u32] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Epoch-marked dense scratch for probe sweeps: per-item counters that
/// reset in O(1) between queries instead of re-zeroing (or re-hashing)
/// the whole array. One instance is reused across every query a thread
/// answers, which amortizes its allocation; correctness never depends
/// on reuse, only speed.
#[derive(Debug, Default)]
pub struct EpochCounters {
    epoch: u32,
    mark: Vec<u32>,
    count: Vec<u32>,
}

impl EpochCounters {
    /// Start a fresh query over `n` items: all counters read as unset.
    pub fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.count.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: stale marks could alias; hard-reset once per
            // ~4 billion queries.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Current counter of `i` (0 if untouched this epoch).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u32 {
        if self.mark[i] == self.epoch {
            self.count[i]
        } else {
            0
        }
    }

    /// True if `i` was touched this epoch.
    #[inline]
    #[must_use]
    pub fn is_set(&self, i: usize) -> bool {
        self.mark[i] == self.epoch
    }

    /// Set the counter of `i`, returning the previous value.
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) -> u32 {
        let prev = self.get(i);
        self.mark[i] = self.epoch;
        self.count[i] = v;
        prev
    }

    /// Increment the counter of `i`, returning true if this was the
    /// first touch this epoch.
    #[inline]
    pub fn bump(&mut self, i: usize) -> bool {
        if self.mark[i] == self.epoch {
            self.count[i] += 1;
            false
        } else {
            self.mark[i] = self.epoch;
            self.count[i] = 1;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_map_inserts_and_gets() {
        let mut m = FlatMap64::new();
        assert!(m.is_empty());
        assert_eq!(m.get(42), None);
        for i in 0..1000u64 {
            let v = m.get_or_insert(i.wrapping_mul(0x123_4567), i as u32);
            assert_eq!(v, i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i.wrapping_mul(0x123_4567)), Some(i as u32));
        }
        assert_eq!(m.get(999_999_999), None);
        // Re-insert returns the first value.
        assert_eq!(m.get_or_insert(0, 77), 0);
    }

    #[test]
    fn flat_map_survives_adversarial_low_bits() {
        // Keys differing only above bit 32 collide without mixing.
        let mut m = FlatMap64::new();
        for i in 0..200u64 {
            m.get_or_insert(i << 48, i as u32);
        }
        for i in 0..200u64 {
            assert_eq!(m.get(i << 48), Some(i as u32));
        }
    }

    #[test]
    fn interner_assigns_dense_first_occurrence_symbols() {
        let mut it = Interner::new();
        assert_eq!(it.intern("alpha"), 0);
        assert_eq!(it.intern("beta"), 1);
        assert_eq!(it.intern("alpha"), 0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(0), "alpha");
        assert_eq!(it.resolve(1), "beta");
        assert_eq!(it.get("beta"), Some(1));
        assert_eq!(it.get("gamma"), None);
    }

    #[test]
    fn interner_handles_many_symbols_and_unicode() {
        let mut it = Interner::new();
        let words: Vec<String> = (0..5000).map(|i| format!("wörd-{i}")).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(it.intern(w), i as u32);
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(it.get(w), Some(i as u32));
            assert_eq!(it.resolve(i as u32), w.as_str());
        }
    }

    #[test]
    fn interner_serializes_deterministically() {
        let build = || {
            let mut it = Interner::new();
            for w in ["x", "y", "z", "x"] {
                it.intern(w);
            }
            it
        };
        let a = serde_json::to_string(&build()).expect("serialize");
        let b = serde_json::to_string(&build()).expect("serialize");
        assert_eq!(a, b);
        let back: Interner = serde_json::from_str(&a).expect("deserialize");
        assert_eq!(back.get("y"), Some(1));
    }

    #[test]
    fn posting_lists_roundtrip() {
        let pl = PostingLists::from_lists(vec![vec![1, 2, 3], vec![], vec![9]]);
        assert_eq!(pl.num_lists(), 3);
        assert_eq!(pl.total_len(), 4);
        assert_eq!(pl.list(0), &[1, 2, 3]);
        assert_eq!(pl.list(1), &[] as &[u32]);
        assert_eq!(pl.list(2), &[9]);
        let mut inc = PostingLists::new();
        inc.push_list([5, 6]);
        inc.push_list([]);
        assert_eq!(inc.num_lists(), 2);
        assert_eq!(inc.list(0), &[5, 6]);
    }

    #[test]
    fn epoch_counters_reset_between_queries() {
        let mut c = EpochCounters::default();
        c.begin(4);
        assert!(c.bump(2));
        assert!(!c.bump(2));
        assert_eq!(c.get(2), 2);
        assert_eq!(c.get(0), 0);
        assert!(c.is_set(2));
        c.begin(4);
        assert_eq!(c.get(2), 0, "new epoch clears counters");
        assert!(!c.is_set(2));
        assert_eq!(c.set(3, 7), 0);
        assert_eq!(c.get(3), 7);
    }
}
