//! Scoped-thread fan-out: the workspace's one way to spread work over
//! cores.
//!
//! The QT distance-matrix fill ([`crate::qt`]), the live campaign's
//! fleet inputs and the storage bench's mixed readers and writer follow
//! one std-only pattern: partition independent work items into
//! per-thread buckets, run each bucket on a `std::thread::scope` worker,
//! and rely on the items themselves (disjoint `&mut` slots) for output.
//! Because every item is processed exactly once and writes only through
//! its own exclusive reference, the result is bit-identical to the
//! sequential loop regardless of thread count or scheduling.

/// Runs `work` over every item of every bucket, one scoped thread per
/// non-empty bucket (sequentially when at most one bucket has work).
///
/// Callers are responsible for balancing the buckets; items carry any
/// `&mut` output slots they need, which keeps the closure `Fn` (shared)
/// while the writes stay exclusive.
pub fn fan_out<T: Send, F: Fn(T) + Sync>(buckets: Vec<Vec<T>>, work: &F) {
    let mut live: Vec<Vec<T>> = buckets.into_iter().filter(|b| !b.is_empty()).collect();
    if live.len() <= 1 {
        for item in live.pop().unwrap_or_default() {
            work(item);
        }
        return;
    }
    std::thread::scope(|scope| {
        for bucket in live {
            scope.spawn(move || {
                for item in bucket {
                    work(item);
                }
            });
        }
    });
}

/// Number of worker threads to use for `n` independent work items, given
/// the caller's parallelism threshold: 1 below the threshold (thread
/// spawns would dominate), otherwise `available_parallelism` capped at
/// `n`.
pub fn worker_count(n: usize, threshold: usize, allow_parallel: bool) -> usize {
    if !allow_parallel || n < threshold {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fan_out_processes_every_item_once() {
        let mut out = vec![0u32; 10];
        let items: Vec<(u32, &mut u32)> = (0u32..).zip(out.iter_mut()).collect();
        let mut buckets: Vec<Vec<(u32, &mut u32)>> = (0..3).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            buckets[i % 3].push(item);
        }
        let calls = AtomicUsize::new(0);
        fan_out(buckets, &|(i, slot): (u32, &mut u32)| {
            *slot = i * i;
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        let want: Vec<u32> = (0u32..10).map(|i| i * i).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn single_bucket_runs_sequentially() {
        let mut out = vec![0u32; 4];
        let bucket: Vec<(u32, &mut u32)> = (1u32..).zip(out.iter_mut()).collect();
        fan_out(vec![bucket, Vec::new()], &|(i, slot): (u32, &mut u32)| {
            *slot = i;
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
        fan_out::<u32, _>(Vec::new(), &|_| panic!("no items"));
    }

    #[test]
    fn worker_count_respects_threshold() {
        assert_eq!(worker_count(10, 64, true), 1);
        assert_eq!(worker_count(10, 64, false), 1);
        assert_eq!(worker_count(0, 0, false), 1);
        let w = worker_count(1000, 64, true);
        assert!((1..=1000).contains(&w));
    }
}
