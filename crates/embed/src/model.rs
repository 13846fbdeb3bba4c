//! Deterministic pseudo-embedding models.
//!
//! The surveyed systems consume pre-trained word/column embeddings
//! (fastText, BERT, fine-tuned PLMs). Downstream search code only depends
//! on the *geometry* those models induce: values of one semantic domain
//! cluster, different domains separate, misspellings land near their
//! originals, and homographs sit between their senses. The two models here
//! construct exactly that geometry, deterministically and without model
//! files (see DESIGN.md, "Substitutions"):
//!
//! * [`NGramEmbedder`] — character-n-gram hash projections (fastText-style
//!   subword bags). Typos share most n-grams with the original, so edit
//!   proximity becomes cosine proximity — the property PEXESO-style fuzzy
//!   join search needs.
//! * [`DomainEmbedder`] — registry-aware: each semantic domain gets a
//!   random unit *anchor*; an in-vocabulary value embeds as its domain
//!   anchor plus a value-specific spread; a homograph (a spelling shared
//!   by two domains) embeds as the normalized *mixture* of both anchors,
//!   exactly the ambiguity real distributional embeddings exhibit. OOV
//!   strings fall back to n-grams (far from every anchor).
//!
//! An n-gram's contribution to [`NGramEmbedder::embed`] depends only on
//! the n-gram's hash, so each n-gram embedder memoizes those rows in a
//! bounded table shared by its clones: a repeat n-gram costs a gather-add
//! instead of `dim` Box–Muller samples, and the sums are bit-identical to
//! computing every row afresh.

use crate::vector::normalize;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
use td_sketch::hash::{hash_bytes, hash_str, hash_u64};
use td_table::gen::domains::DomainRegistry;

/// Anything that can embed a string into a fixed-dimension vector.
pub trait Embedder: Send + Sync {
    /// Embedding dimension.
    fn dim(&self) -> usize;
    /// Embed one string.
    fn embed(&self, text: &str) -> Vec<f32>;
}

/// Deterministic standard-normal-ish sample from a seed (Box–Muller over
/// two hashed uniforms).
#[must_use]
fn gauss(seed: u64) -> f32 {
    let u1 = (hash_u64(seed, 0xAA) as f64 + 1.0) / (u64::MAX as f64 + 2.0);
    let u2 = (hash_u64(seed, 0xBB) as f64 + 1.0) / (u64::MAX as f64 + 2.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// A deterministic random unit vector identified by a seed.
#[must_use]
pub fn seeded_unit_vector(seed: u64, dim: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim as u64)
        .map(|j| gauss(seed.wrapping_mul(0x9E37_79B9).wrapping_add(j)))
        .collect();
    normalize(&mut v);
    v
}

/// Byte budget of one [`RowMemo`]: 16 MiB, i.e. 65,536 rows at dim 64.
/// A fixed constant, so query strings cannot grow it.
const MEMO_BYTES: usize = 16 << 20;

/// Rows per arena block: 256 KiB at dim 64.
const BLOCK_ROWS: usize = 1024;

/// Rows stored back to back in fixed-size blocks, indexed by key (value:
/// row number). Blocks never reallocate.
#[derive(Default)]
struct Rows {
    index: HashMap<u64, usize>,
    blocks: Vec<Vec<f32>>,
}

impl Rows {
    fn row(&self, n: usize, dim: usize) -> &[f32] {
        let at = (n % BLOCK_ROWS) * dim;
        &self.blocks[n / BLOCK_ROWS][at..at + dim]
    }

    /// Store `row` under `key`. The row is stored before the index names
    /// it, and its number comes from the blocks, so an insert cut short
    /// leaves an unreferenced row, never a misaligned one.
    fn push(&mut self, key: u64, row: &[f32]) {
        let dim = row.len();
        if self
            .blocks
            .last()
            .is_none_or(|b| b.len() == BLOCK_ROWS * dim)
        {
            self.blocks.push(Vec::with_capacity(BLOCK_ROWS * dim));
        }
        let last = self.blocks.len() - 1;
        let Some(block) = self.blocks.last_mut() else {
            return;
        };
        let n = last * BLOCK_ROWS + block.len() / dim;
        block.extend_from_slice(row);
        self.index.insert(key, n);
    }
}

/// A bounded memo of `dim`-float rows, each a pure function of its `u64`
/// key, shared by every clone of its owner. A hit hands back the very
/// floats a miss computes, so callers stay bit-identical whichever path
/// a row takes. Once [`MEMO_BYTES`] of rows are held, a miss is computed
/// in place and not kept.
#[derive(Clone)]
struct RowMemo {
    dim: usize,
    rows: Arc<RwLock<Rows>>,
}

impl std::fmt::Debug for RowMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RowMemo({} rows of {})", self.len(), self.dim)
    }
}

impl RowMemo {
    fn new(dim: usize) -> Self {
        RowMemo {
            dim,
            rows: Arc::default(),
        }
    }

    fn len(&self) -> usize {
        self.rows
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .index
            .len()
    }

    fn bytes(&self) -> usize {
        self.len() * self.dim * std::mem::size_of::<f32>()
    }

    fn cap(&self) -> usize {
        MEMO_BYTES / (self.dim * std::mem::size_of::<f32>())
    }

    /// Hand `use_row` the row of each key in order; `compute` appends a
    /// missing key's `dim` floats to its buffer.
    fn for_each(
        &self,
        keys: impl IntoIterator<Item = u64>,
        compute: impl Fn(u64, &mut Vec<f32>),
        mut use_row: impl FnMut(&[f32]),
    ) {
        let (mut missed, mut fresh) = (Vec::new(), Vec::new());
        let full = {
            let rows = self.rows.read().unwrap_or_else(PoisonError::into_inner);
            for key in keys {
                if let Some(&n) = rows.index.get(&key) {
                    use_row(rows.row(n, self.dim));
                    continue;
                }
                let at = fresh.len();
                compute(key, &mut fresh);
                use_row(&fresh[at..]);
                missed.push(key);
            }
            rows.index.len() >= self.cap()
        };
        if missed.is_empty() || full {
            return;
        }
        let mut rows = self.rows.write().unwrap_or_else(PoisonError::into_inner);
        for (&key, row) in missed.iter().zip(fresh.chunks_exact(self.dim)) {
            if rows.index.len() >= self.cap() {
                break;
            }
            if !rows.index.contains_key(&key) {
                rows.push(key, row);
            }
        }
    }
}

/// Character-n-gram hash embedder (fastText-style subword bag).
///
/// An n-gram's row `[gauss(g + (j << 32)) for j in 0..dim]` depends only
/// on its hash `g`, so rows live in a [`RowMemo`] shared by every clone
/// and `embed` is a gather-add over them.
#[derive(Debug, Clone)]
pub struct NGramEmbedder {
    dim: usize,
    n: usize,
    seed: u64,
    memo: RowMemo,
}

impl NGramEmbedder {
    /// Create an embedder with `dim` dimensions over character `n`-grams
    /// (with `<`/`>` boundary markers, lower-cased input).
    ///
    /// # Panics
    /// Panics if `dim == 0` or `n == 0`.
    #[must_use]
    pub fn new(dim: usize, n: usize, seed: u64) -> Self {
        assert!(dim > 0 && n > 0);
        NGramEmbedder {
            dim,
            n,
            seed,
            memo: RowMemo::new(dim),
        }
    }

    /// Number of n-gram rows memoized so far (shared by every clone).
    #[must_use]
    pub fn memo_rows(&self) -> usize {
        self.memo.len()
    }

    /// Bytes of row data the memo holds.
    #[must_use]
    pub fn memo_bytes(&self) -> usize {
        self.memo.bytes()
    }

    /// Hashes of the n-grams of `<text>` (lower-cased), each taken over
    /// the window's UTF-8 bytes; a string shorter than `n` characters is
    /// one n-gram.
    fn ngrams(&self, text: &str) -> Vec<u64> {
        let padded = format!("<{}>", text.to_lowercase());
        let bounds: Vec<usize> = padded
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(padded.len()))
            .collect();
        if bounds.len() <= self.n {
            return vec![hash_str(&padded, self.seed)];
        }
        bounds
            .windows(self.n + 1)
            .map(|w| hash_bytes(&padded.as_bytes()[w[0]..w[self.n]], self.seed))
            .collect()
    }
}

impl Embedder for NGramEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        self.memo.for_each(
            self.ngrams(text),
            |g, out| out.extend((0..self.dim as u64).map(|j| gauss(g.wrapping_add(j << 32)))),
            |row| {
                for (a, x) in acc.iter_mut().zip(row) {
                    *a += x;
                }
            },
        );
        normalize(&mut acc);
        acc
    }
}

/// Registry-aware embedder with per-domain anchors.
#[derive(Debug, Clone)]
pub struct DomainEmbedder {
    dim: usize,
    /// Anchor unit vector per domain (index = `DomainId.0`).
    anchors: Vec<Vec<f32>>,
    /// Value spelling → domains it belongs to (more than one = homograph).
    membership: HashMap<String, Vec<u16>>,
    /// Intra-domain spread: scale of the value-specific noise added to the
    /// anchor (0 = all values of a domain embed identically).
    spread: f32,
    fallback: NGramEmbedder,
    seed: u64,
}

impl DomainEmbedder {
    /// Build from a registry, materializing the first `vocab_per_domain`
    /// values of every *categorical* domain into the membership dictionary.
    ///
    /// `spread` controls how tightly a domain's values cluster around the
    /// anchor (0.4 mimics word-embedding clusters well).
    #[must_use]
    pub fn from_registry(
        registry: &DomainRegistry,
        vocab_per_domain: u64,
        dim: usize,
        spread: f32,
        seed: u64,
    ) -> Self {
        let mut anchors = Vec::with_capacity(registry.len());
        for (id, _) in registry.iter() {
            anchors.push(seeded_unit_vector(
                seed ^ 0xA0C0_0000 ^ (id.0 as u64) << 8,
                dim,
            ));
        }
        let mut membership: HashMap<String, Vec<u16>> = HashMap::new();
        for (id, dom) in registry.iter() {
            if dom.format.is_numeric() {
                continue;
            }
            for i in 0..vocab_per_domain {
                let v = registry.value(id, i).to_string().to_lowercase();
                let entry = membership.entry(v).or_default();
                if !entry.contains(&id.0) {
                    entry.push(id.0);
                }
            }
        }
        DomainEmbedder {
            dim,
            anchors,
            membership,
            spread,
            fallback: NGramEmbedder::new(dim, 3, seed ^ 0xFA11),
            seed,
        }
    }

    /// The anchor vector of a domain.
    #[must_use]
    pub fn anchor(&self, domain: u16) -> &[f32] {
        &self.anchors[domain as usize]
    }

    /// Domains a spelling belongs to (empty = OOV).
    #[must_use]
    pub fn domains_of(&self, text: &str) -> &[u16] {
        self.membership
            .get(&text.to_lowercase())
            .map_or(&[], Vec::as_slice)
    }

    /// True if a spelling belongs to more than one domain.
    #[must_use]
    pub fn is_homograph(&self, text: &str) -> bool {
        self.domains_of(text).len() > 1
    }

    /// The n-gram embedder out-of-vocabulary strings fall back to.
    #[must_use]
    pub fn fallback(&self) -> &NGramEmbedder {
        &self.fallback
    }
}

impl Embedder for DomainEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let key = text.to_lowercase();
        let Some(domains) = self.membership.get(&key) else {
            return self.fallback.embed(text);
        };
        let mut acc = vec![0.0f32; self.dim];
        for &d in domains {
            crate::vector::add_scaled(&mut acc, &self.anchors[d as usize], 1.0);
        }
        // Anchor mixture first (unit length), then a value-specific unit
        // noise direction scaled by `spread` — so spread is the ratio of
        // noise to signal regardless of dimension.
        normalize(&mut acc);
        let vseed = hash_str(&key, self.seed ^ 0x5EED);
        let noise = seeded_unit_vector(vseed, self.dim);
        crate::vector::add_scaled(&mut acc, &noise, self.spread);
        normalize(&mut acc);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cosine;
    use td_table::gen::domains::DomainRegistry;

    fn registry_with_homographs() -> DomainRegistry {
        let mut r = DomainRegistry::standard();
        let a = r.id("animal").unwrap();
        let c = r.id("city").unwrap();
        r.add_homograph_pair(a, c, 50);
        r
    }

    #[test]
    fn embeddings_are_deterministic_unit_vectors() {
        let e = NGramEmbedder::new(64, 3, 1);
        let a = e.embed("boston");
        let b = e.embed("boston");
        assert_eq!(a, b);
        let n: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-4);
    }

    #[test]
    fn ngram_embedder_puts_typos_near_originals() {
        let e = NGramEmbedder::new(64, 3, 1);
        let orig = e.embed("bostonia");
        let typo = e.embed("bostonla");
        let unrelated = e.embed("quartz");
        assert!(
            cosine(&orig, &typo) > 0.5,
            "typo cos {}",
            cosine(&orig, &typo)
        );
        assert!(
            cosine(&orig, &typo) > cosine(&orig, &unrelated) + 0.3,
            "typo {} unrelated {}",
            cosine(&orig, &typo),
            cosine(&orig, &unrelated)
        );
    }

    #[test]
    fn ngram_handles_short_and_empty_strings() {
        let e = NGramEmbedder::new(32, 3, 1);
        assert_eq!(e.embed("a").len(), 32);
        assert_eq!(e.embed("").len(), 32);
    }

    #[test]
    fn domain_values_cluster_around_anchor() {
        let r = DomainRegistry::standard();
        let emb = DomainEmbedder::from_registry(&r, 500, 64, 0.4, 7);
        let city = r.id("city").unwrap();
        let a = emb.embed(&r.value(city, 1).to_string());
        let b = emb.embed(&r.value(city, 2).to_string());
        assert!(cosine(&a, &b) > 0.6, "same-domain cos {}", cosine(&a, &b));
        let anchor = emb.anchor(city.0);
        assert!(cosine(&a, anchor) > 0.7);
    }

    #[test]
    fn different_domains_separate() {
        let r = DomainRegistry::standard();
        let emb = DomainEmbedder::from_registry(&r, 500, 64, 0.4, 7);
        let city = r.id("city").unwrap();
        let gene = r.id("gene").unwrap();
        let a = emb.embed(&r.value(city, 1).to_string());
        let g = emb.embed(&r.value(gene, 1).to_string());
        assert!(cosine(&a, &g) < 0.35, "cross-domain cos {}", cosine(&a, &g));
    }

    #[test]
    fn homographs_sit_between_their_senses() {
        let r = registry_with_homographs();
        let emb = DomainEmbedder::from_registry(&r, 500, 64, 0.4, 7);
        let animal = r.id("animal").unwrap();
        let city = r.id("city").unwrap();
        let homograph = r.value(animal, 3).to_string(); // index < 50: shared
        assert!(emb.is_homograph(&homograph), "{homograph} not detected");
        let h = emb.embed(&homograph);
        let ca = cosine(&h, emb.anchor(animal.0));
        let cc = cosine(&h, emb.anchor(city.0));
        assert!(
            ca > 0.4 && cc > 0.4,
            "mixture broke: animal {ca}, city {cc}"
        );
    }

    #[test]
    fn oov_falls_back_far_from_anchors() {
        let r = DomainRegistry::standard();
        let emb = DomainEmbedder::from_registry(&r, 200, 64, 0.4, 7);
        let v = emb.embed("zzz-completely-unknown-token-123");
        assert!(emb
            .domains_of("zzz-completely-unknown-token-123")
            .is_empty());
        for (id, _) in r.iter() {
            assert!(
                cosine(&v, emb.anchor(id.0)) < 0.4,
                "OOV too close to anchor {id:?}"
            );
        }
    }

    #[test]
    fn membership_is_case_insensitive() {
        let r = DomainRegistry::standard();
        let emb = DomainEmbedder::from_registry(&r, 100, 32, 0.4, 7);
        let city = r.id("city").unwrap();
        let v = r.value(city, 1).to_string();
        assert_eq!(emb.domains_of(&v.to_uppercase()), emb.domains_of(&v));
    }

    /// The kernel before memoization: one `String` per window and a
    /// fresh `gauss` per n-gram and dimension.
    fn reference_embed(e: &NGramEmbedder, text: &str) -> Vec<f32> {
        let padded: Vec<char> = std::iter::once('<')
            .chain(text.to_lowercase().chars())
            .chain(std::iter::once('>'))
            .collect();
        let grams: Vec<u64> = if padded.len() < e.n {
            vec![hash_str(&padded.iter().collect::<String>(), e.seed)]
        } else {
            padded
                .windows(e.n)
                .map(|w| hash_str(&w.iter().collect::<String>(), e.seed))
                .collect()
        };
        let mut acc = vec![0.0f32; e.dim];
        for g in grams {
            for (j, a) in acc.iter_mut().enumerate() {
                *a += gauss(g.wrapping_add((j as u64) << 32));
            }
        }
        normalize(&mut acc);
        acc
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_exact(e: &NGramEmbedder, text: &str) {
        assert_eq!(
            bits(&e.embed(text)),
            bits(&reference_embed(e, text)),
            "memoized embed of {text:?} differs from the reference"
        );
    }

    /// Strings covering ASCII, non-ASCII, mixed case, shorter than `n`,
    /// and empty.
    const SAMPLES: [&str; 12] = [
        "",
        "a",
        "ab",
        "boston",
        "Boston",
        "BOSTON-42",
        "São Paulo",
        "Zürich",
        "İstanbul",
        "東京都",
        "ß",
        "mixed Ünïcode and ascii 123",
    ];

    #[test]
    fn memoized_embed_is_bitwise_the_reference() {
        for n in [1, 2, 3, 5] {
            let e = NGramEmbedder::new(64, n, 11);
            for text in SAMPLES {
                assert_exact(&e, text);
            }
            let rows = e.memo_rows();
            assert!(rows > 0);
            // Every n-gram is now memoized: repeats are all hits, still exact.
            for text in SAMPLES {
                assert_exact(&e, text);
            }
            assert_eq!(e.memo_rows(), rows, "repeat calls add no rows");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn arbitrary_strings_embed_exactly(text in "\\PC{0,24}") {
            let e = NGramEmbedder::new(64, 3, 3);
            let want = bits(&reference_embed(&e, &text));
            proptest::prop_assert_eq!(bits(&e.embed(&text)), want.clone());
            proptest::prop_assert_eq!(bits(&e.embed(&text)), want);
        }
    }

    #[test]
    fn miss_path_past_the_budget_is_exact_and_bounded() {
        // At dim 1024 the budget is 4,096 rows (four blocks); fill it
        // with distinct n-grams, then keep embedding strings the memo has
        // never seen.
        let e = NGramEmbedder::new(1024, 3, 5);
        let cap = e.memo.cap();
        assert_eq!(cap, 4 * BLOCK_ROWS);
        // Two CJK characters: trigrams `<ab` and `ab>`, mostly new ones.
        let word = |i: u32| -> String {
            [i % 251, i / 251]
                .iter()
                .filter_map(|&k| char::from_u32(0x4E00 + k))
                .collect()
        };
        let mut i = 0;
        while e.memo_rows() < cap {
            e.embed(&word(i));
            i += 1;
        }
        assert_eq!(e.memo_rows(), cap);
        assert_eq!(e.memo_bytes(), MEMO_BYTES);
        for text in SAMPLES.iter().chain(&["never seen before", "qqqzzzjjj"]) {
            assert_exact(&e, text);
        }
        // Rows in every block, and the words that went past the cap.
        for j in (0..i + 50).step_by(16) {
            assert_exact(&e, &word(j));
        }
        assert_eq!(e.memo_rows(), cap, "a full memo does not grow");
    }

    #[test]
    fn clones_share_one_memo_across_threads() {
        let e = NGramEmbedder::new(64, 3, 9);
        let texts: Vec<String> = (0..200).map(|i| format!("value {i} Ä")).collect();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (e, texts) = (e.clone(), &texts);
                s.spawn(move || {
                    for t in texts {
                        assert_exact(&e, t);
                    }
                });
            }
        });
        let rows = e.memo_rows();
        assert!(rows > 0, "clones filled the shared memo");
        for t in &texts {
            assert_exact(&e, t);
        }
        assert_eq!(e.memo_rows(), rows);
    }

    #[test]
    fn seeded_unit_vectors_are_nearly_orthogonal_in_high_dim() {
        let a = seeded_unit_vector(1, 128);
        let b = seeded_unit_vector(2, 128);
        assert!(cosine(&a, &b).abs() < 0.3);
    }
}
