//! A small scoped worker pool with *deterministic* parallel map.
//!
//! The evaluation sweeps (schemes × scales × failure scenarios) are
//! embarrassingly parallel, but the repo's contract — byte-identical
//! output for any thread count — rules out naive work stealing with
//! order-dependent reduction. [`par_map`] gives the safe shape:
//!
//! * work items are split into **fixed contiguous chunks** that workers
//!   claim by index from one atomic counter;
//! * each item is mapped by a pure function of the item (never of the
//!   thread or of other in-flight items);
//! * results are returned **in input order**, whatever order workers
//!   finished in.
//!
//! Consequently `par_map(items, t, f)` equals `items.iter().map(f)` for
//! every `t` — callers may reduce the returned vector sequentially and
//! stay bit-deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on auto-detected worker threads (sweeps are memory-light;
/// beyond this the coordination dominates).
pub const MAX_AUTO_THREADS: usize = 8;

/// Environment variable overriding the auto-detected thread count
/// (`0`/unset = auto). Lets CI and the bench harness pin serial vs
/// parallel runs without recompiling.
pub const THREADS_ENV: &str = "FLEXWAN_THREADS";

/// The worker-thread count used when a caller passes `threads == 0`:
/// [`THREADS_ENV`] when set to a positive integer, otherwise the
/// machine's available parallelism capped at [`MAX_AUTO_THREADS`].
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(MAX_AUTO_THREADS)
}

/// Deterministic parallel map: `f` applied to every item, results in
/// input order, output invariant to `threads` (`0` = auto; `1` = serial
/// in-place). `f` must be pure per item for the contract to mean
/// anything — it is called exactly once per item either way.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Fixed chunking: contiguous ranges of ~4 chunks per worker, so a
    // straggler chunk cannot idle the rest of the pool for long while
    // chunk boundaries stay cheap to coordinate.
    let chunk = items.len().div_ceil(workers * 4).max(1);
    // Workers claim chunk indices from this ticket counter. `Relaxed`
    // suffices: the counter publishes no data — the items are borrowed
    // from before the scope and results come back through `join`.
    let next = AtomicUsize::new(0);
    // Reassemble in input order: scheduling decided only *who* mapped
    // each item, never *where* its result goes.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mapped = Vec::new();
                    loop {
                        let start = next.fetch_add(1, Ordering::Relaxed) * chunk;
                        if start >= items.len() {
                            return mapped;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in (start..end).zip(&items[start..end]) {
                            mapped.push((i, f(item)));
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            let mapped = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in mapped {
                debug_assert!(slots[i].is_none(), "item {i} mapped twice");
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every item mapped exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, 4, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let items: Vec<u64> = (0..57).collect();
        let serial = par_map(&items, 1, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        for t in [2, 3, 4, 8] {
            let parallel = par_map(&items, t, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
            assert_eq!(parallel, serial, "threads={t}");
        }
    }

    #[test]
    fn every_item_mapped_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..33).collect();
        let out = par_map(&items, 4, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), 33);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, 4, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(par_map(&items, 0, |&x| x + 1), (1..=10).collect::<Vec<_>>());
        assert!(default_threads() >= 1);
    }
}
