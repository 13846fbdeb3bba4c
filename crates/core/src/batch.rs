//! Deterministic parallel execution of a batch of independent queries.
//!
//! [`run_batch`] answers the sub-requests of one td-serve batch frame: a
//! batch of independent read-only queries is chunked across the
//! machine's cores with `std::thread::scope`, each worker answering its
//! contiguous slice sequentially.
//!
//! Determinism contract: every query is answered by the *same* per-query
//! code path a single request uses, against the same immutable index
//! state, and results are returned in input order — so a batched answer is
//! byte-identical to the sequential one regardless of core count or
//! scheduling. The serve batch suite (`crates/serve/tests/batch.rs`) pins
//! this for every search family and shard-plane kind.

/// Answer every query in `queries` with `f`, in parallel, returning
/// results in input order.
///
/// `f` must be a pure function of the query and shared immutable state
/// (all pipeline `search_*` methods qualify: they take `&self`). Batches
/// of one — and machines reporting a single core — run inline without
/// spawning.
pub fn run_batch<Q, R, F>(queries: &[Q], f: F) -> Vec<R>
where
    Q: Sync,
    R: Send,
    F: Fn(&Q) -> R + Sync,
{
    let n = queries.len();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return queries.iter().map(&f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        let mut workers = Vec::with_capacity(threads);
        for qchunk in queries.chunks(chunk) {
            let (slot, tail) = rest.split_at_mut(qchunk.len());
            rest = tail;
            let f = &f;
            // One worker per contiguous chunk; workers only touch their
            // own output slots.
            workers.push(scope.spawn(move || {
                for (s, q) in slot.iter_mut().zip(qchunk) {
                    *s = Some(f(q));
                }
            }));
        }
        // Join each worker by handle. Unlike the scope's implicit join,
        // this waits for the thread to exit, which hands its malloc
        // arena back before the caller spawns more threads; a late
        // hand-back lets those take fresh arenas and raises peak RSS.
        for w in workers {
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let results: Vec<R> = out.into_iter().flatten().collect();
    debug_assert_eq!(results.len(), n, "every slot is filled before join");
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let queries: Vec<u64> = (0..100).collect();
        let got = run_batch(&queries, |&q| q * q);
        let want: Vec<u64> = queries.iter().map(|&q| q * q).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_single_batches_work() {
        let none: Vec<u32> = Vec::new();
        assert!(run_batch(&none, |&q| q).is_empty());
        assert_eq!(run_batch(&[41u32], |&q| q + 1), vec![42]);
    }

    #[test]
    fn uneven_chunks_cover_every_query() {
        // Sizes around core-count boundaries exercise the chunk math.
        for n in [2usize, 3, 5, 7, 8, 13, 16, 17, 31] {
            let queries: Vec<usize> = (0..n).collect();
            assert_eq!(run_batch(&queries, |&q| q), queries, "n={n}");
        }
    }

    #[test]
    fn borrows_shared_state() {
        let corpus: Vec<String> = (0..10).map(|i| format!("doc{i}")).collect();
        let queries = [3usize, 7, 0];
        let got = run_batch(&queries, |&q| corpus[q].clone());
        assert_eq!(got, vec!["doc3", "doc7", "doc0"]);
    }
}
