//! Flat (brute-force) vector index: the exact baseline every approximate
//! index is measured against.
//!
//! Vectors are packed end-to-end in one `Vec<f32>` arena (`dim` stride)
//! instead of a `Vec<Vec<f32>>` of separate heap allocations, so a scan
//! walks one contiguous buffer.

use crate::topk::TopK;
use serde::{Deserialize, Serialize};
use td_embed::vector::{dot, normalize};

/// Exact cosine top-k over normalized vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlatIndex {
    dim: usize,
    /// All vectors, normalized, packed contiguously with stride `dim`.
    data: Vec<f32>,
}

impl FlatIndex {
    /// An empty index for dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        FlatIndex {
            dim,
            data: Vec::new(),
        }
    }

    /// Insert a vector (normalized internally); returns its id.
    pub fn insert(&mut self, vector: Vec<f32>) -> u32 {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        let mut v = vector;
        normalize(&mut v);
        let id = (self.data.len() / self.dim) as u32;
        self.data.extend_from_slice(&v);
        id
    }

    /// Number of indexed vectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Exact top-k by cosine similarity, `(id, similarity)` descending.
    #[must_use]
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if self.data.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut q = query.to_vec();
        normalize(&mut q);
        let mut topk = TopK::new(k);
        for (i, v) in self.data.chunks_exact(self.dim).enumerate() {
            topk.push(dot(v, &q) as f64, i as u32);
        }
        topk.into_sorted()
            .into_iter()
            .map(|(s, id)| (id, s as f32))
            .collect()
    }

    /// Access a stored (normalized) vector.
    #[must_use]
    pub fn vector(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_neighbors() {
        let mut f = FlatIndex::new(3);
        f.insert(vec![1.0, 0.0, 0.0]);
        f.insert(vec![0.0, 1.0, 0.0]);
        f.insert(vec![0.9, 0.1, 0.0]);
        let r = f.search(&[1.0, 0.0, 0.0], 2);
        assert_eq!(r[0].0, 0);
        assert_eq!(r[1].0, 2);
    }

    #[test]
    fn normalization_makes_scale_irrelevant() {
        let mut f = FlatIndex::new(2);
        f.insert(vec![100.0, 0.0]);
        f.insert(vec![0.001, 0.001]);
        let r = f.search(&[5.0, 0.0], 1);
        assert_eq!(r[0].0, 0);
        assert!((r[0].1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn k_larger_than_len() {
        let mut f = FlatIndex::new(2);
        f.insert(vec![1.0, 0.0]);
        assert_eq!(f.search(&[1.0, 0.0], 10).len(), 1);
    }

    #[test]
    fn empty_and_zero_k() {
        let f = FlatIndex::new(2);
        assert!(f.search(&[1.0, 0.0], 3).is_empty());
        let mut f2 = FlatIndex::new(2);
        f2.insert(vec![1.0, 0.0]);
        assert!(f2.search(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn vector_accessor_round_trips() {
        let mut f = FlatIndex::new(4);
        let a = f.insert(vec![2.0, 0.0, 0.0, 0.0]);
        let b = f.insert(vec![0.0, 0.0, 3.0, 0.0]);
        assert_eq!(f.vector(a), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(f.vector(b), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(f.len(), 2);
    }
}
