//! Minimal data-parallel executor for the offline pipeline.
//!
//! A rayon-style fan-out built on `std::thread::scope`: a shared atomic
//! cursor hands out item indices to a fixed set of workers (dynamic load
//! balancing, so one slow item does not idle the other workers), and the
//! results are reassembled in item order, making the output **independent
//! of scheduling**. With `workers <= 1` (or one item) everything runs
//! inline on the caller's stack — the exact legacy sequential path, with
//! no threads spawned and no synchronization.
//!
//! The executor is deliberately tiny: no pools are kept alive between
//! calls, no task graph, no nested-scheduling policy. JPortal's offline
//! phases are long, coarse-grained and embarrassingly parallel (decode a
//! segment, score a candidate), so scoped threads per phase are cheap
//! relative to the work they carry.

use jportal_obs::{ContentionCounter, Determinism, Gauge, MetricsRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Telemetry handles for one fan-out call site: a queue-depth gauge
/// over the not-yet-claimed items (`par.queue.pending`) and contention
/// accounting over the shared result-collection mutex
/// (`lock.par.collect.*`). The plain [`par_map`] family uses a noop
/// set; the pipeline passes a registered set through the `_metered`
/// variants at its fan-outs.
#[derive(Debug, Clone, Default)]
pub struct ParMetrics {
    pending: Gauge,
    collect: ContentionCounter,
}

impl ParMetrics {
    /// Handles that record nothing.
    pub fn noop() -> ParMetrics {
        ParMetrics::default()
    }

    /// Registers `par.queue.pending` and `lock.par.collect.*` (noop
    /// handles when the registry is disabled), all
    /// [`Determinism::Scheduling`]: the queue depth a reading sees
    /// depends on how workers claim items.
    pub fn register(reg: &MetricsRegistry) -> ParMetrics {
        ParMetrics {
            pending: reg.gauge_as("par.queue.pending", Determinism::Scheduling),
            collect: ContentionCounter::register(reg, "lock.par.collect"),
        }
    }
}

/// Number of workers the machine can usefully run.
pub fn max_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a parallelism request: `None` means "all cores",
/// `Some(n)` is clamped to at least 1.
pub fn effective_workers(requested: Option<usize>) -> usize {
    match requested {
        None => max_parallelism(),
        Some(n) => n.max(1),
    }
}

/// Applies `f` to every item, fanning out over at most `workers` threads,
/// and returns the results **in item order**.
///
/// `f` receives `(index, &item)`. Output order — and therefore anything
/// the caller folds over the output — is deterministic regardless of the
/// worker count or scheduling. A panic in any worker propagates.
///
/// # Examples
///
/// ```
/// let squares = jportal_par::par_map(4, &[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// // workers = 1 is the inline sequential path, same result.
/// assert_eq!(jportal_par::par_map(1, &[1u64, 2, 3, 4], |_, &x| x * x), squares);
/// ```
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_metered(workers, items, &ParMetrics::noop(), f)
}

/// [`par_map`] with queue-depth and collection-lock telemetry: the
/// `par.queue.pending` gauge tracks how many items remain unclaimed
/// (updated at every claim, so a scrape mid-fan-out sees the live
/// backlog) and the result-collection mutex is accounted through
/// `lock.par.collect.*`. With noop metrics this is exactly [`par_map`].
pub fn par_map_metered<T, R, F>(workers: usize, items: &[T], metrics: &ParMetrics, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    metrics.pending.set(n as u64);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    metrics.pending.set((n - i - 1) as u64);
                    local.push((i, f(i, &items[i])));
                }
                if !local.is_empty() {
                    metrics.collect.lock(&collected).extend(local);
                }
            });
        }
    });
    metrics.pending.set(0);

    // Reassemble in item order.
    let mut tagged = collected.into_inner().unwrap();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Like [`par_map`] but consumes the items, handing each worker ownership
/// of the elements it claims. Results are returned in item order.
pub fn par_map_owned<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_owned_metered(workers, items, &ParMetrics::noop(), f)
}

/// [`par_map_owned`] with the same telemetry as [`par_map_metered`].
pub fn par_map_owned_metered<T, R, F>(
    workers: usize,
    items: Vec<T>,
    metrics: &ParMetrics,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    metrics.pending.set(n as u64);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    metrics.pending.set((n - i - 1) as u64);
                    let item = slots[i].lock().unwrap().take().expect("item claimed once");
                    local.push((i, f(i, item)));
                }
                if !local.is_empty() {
                    metrics.collect.lock(&collected).extend(local);
                }
            });
        }
    });
    metrics.pending.set(0);
    let mut tagged = collected.into_inner().unwrap();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Like [`par_map`] over the index range `0..n` without materializing a
/// slice of inputs.
pub fn par_map_range<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // A unit slice of length n would do; avoid the allocation with a
    // cursor loop mirroring par_map.
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                if !local.is_empty() {
                    collected.lock().unwrap().extend(local);
                }
            });
        }
    });
    let mut tagged = collected.into_inner().unwrap();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Concatenates `parts` into one vector of exactly their total length,
/// copying the parts on up to `workers` threads.
///
/// A fresh buffer pays a page fault per page on first touch, so copying
/// a large result serially costs about as much as producing it on one
/// worker; spreading the copy spreads the faults. With `workers <= 1`
/// (or one part) this is a plain serial `extend_from_slice` per part.
///
/// # Examples
///
/// ```
/// let whole = jportal_par::par_concat(4, &[&[1u32, 2][..], &[], &[3, 4, 5]]);
/// assert_eq!(whole, vec![1, 2, 3, 4, 5]);
/// assert_eq!(whole.capacity(), 5);
/// ```
pub fn par_concat<T: Copy + Send + Sync>(workers: usize, parts: &[&[T]]) -> Vec<T> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut out: Vec<T> = Vec::with_capacity(total);
    if workers <= 1 || parts.len() <= 1 {
        for part in parts {
            out.extend_from_slice(part);
        }
        return out;
    }
    // Partition the first `total` spare slots into one disjoint range
    // per part, in order.
    let mut rest = &mut out.spare_capacity_mut()[..total];
    let mut ranges = Vec::with_capacity(parts.len());
    for part in parts {
        let (range, tail) = std::mem::take(&mut rest).split_at_mut(part.len());
        ranges.push((range, *part));
        rest = tail;
    }
    let written: usize = par_map_owned(workers, ranges, |_, (range, part)| {
        for (slot, &value) in range.iter_mut().zip(part) {
            slot.write(value);
        }
        range.len().min(part.len())
    })
    .into_iter()
    .sum();
    assert_eq!(written, total, "every slot of the result is written once");
    // SAFETY: the first `total` slots of `out`'s capacity were split into
    // disjoint ranges whose lengths sum to `total`, and each range was
    // written in full from its part (the assertion above counts the
    // writes), so all `total` elements are initialized.
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..1000).collect();
        let seq = par_map(1, &items, |i, &x| i * 31 + x);
        for workers in [2, 3, 4, 8, 16] {
            assert_eq!(par_map(workers, &items, |i, &x| i * 31 + x), seq);
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn owned_variant_preserves_order_and_moves() {
        let items: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let seq = par_map_owned(1, items.clone(), |i, s| format!("{i}:{s}"));
        for workers in [2, 4, 8] {
            assert_eq!(
                par_map_owned(workers, items.clone(), |i, s| format!("{i}:{s}")),
                seq
            );
        }
    }

    #[test]
    fn range_variant_matches() {
        let a = par_map_range(4, 257, |i| i * i);
        let b: Vec<usize> = (0..257).map(|i| i * i).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn effective_workers_resolution() {
        assert_eq!(effective_workers(Some(1)), 1);
        assert_eq!(effective_workers(Some(0)), 1);
        assert_eq!(effective_workers(Some(6)), 6);
        assert!(effective_workers(None) >= 1);
    }

    #[test]
    fn metered_fanout_records_queue_and_collect_lock() {
        let reg = MetricsRegistry::new(true);
        let metrics = ParMetrics::register(&reg);
        let items: Vec<usize> = (0..512).collect();
        let out = par_map_metered(4, &items, &metrics, |i, &x| i + x);
        assert_eq!(out, par_map(1, &items, |i, &x| i + x));
        let owned = par_map_owned_metered(4, (0..64u64).collect(), &metrics, |_, x| x * 2);
        assert_eq!(owned, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
        let snap = reg.snapshot();
        let gauge = snap
            .gauges
            .iter()
            .find(|(name, _)| name == "par.queue.pending")
            .expect("queue gauge registered");
        assert_eq!(gauge.1, 0, "gauge returns to zero after the fan-out");
        let acquires = snap
            .counters
            .iter()
            .find(|(name, _)| name == "lock.par.collect.acquires")
            .expect("collect lock accounted");
        // Each worker with a non-empty local batch takes the lock once
        // per fan-out; two fan-outs at 4 workers bound it to 8.
        assert!(acquires.1 >= 2 && acquires.1 <= 8);
    }

    #[test]
    fn concat_is_exact_at_any_worker_count() {
        let parts: Vec<Vec<u64>> = (0..9u64).map(|i| (0..i * 37 % 11).collect()).collect();
        let slices: Vec<&[u64]> = parts.iter().map(|p| &p[..]).collect();
        let expected: Vec<u64> = parts.concat();
        for workers in [1, 2, 4, 16] {
            let whole = par_concat(workers, &slices);
            assert_eq!(whole, expected, "{workers} workers");
            assert_eq!(whole.capacity(), expected.len(), "{workers} workers");
        }
        assert!(par_concat::<u8>(4, &[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(4, &items, |_, &x| {
            assert!(x < 10, "boom");
            x
        });
    }
}
