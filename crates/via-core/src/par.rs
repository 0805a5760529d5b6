//! Deterministic fork–join helpers for the window-parallel replay engine.
//!
//! Everything here preserves a hard invariant: **results are a pure function
//! of the inputs, never of the worker count or thread scheduling**. Work is
//! split into contiguous chunks, each chunk is processed independently, and
//! the per-chunk results are concatenated back in input order. No shared
//! mutable state, no atomics, no channels — determinism by construction.
//!
//! With `workers <= 1` (or trivially small inputs) every helper degrades to a
//! plain sequential loop with zero threading overhead, so the sequential
//! replay path and the sharded path share one implementation.

use crossbeam::thread as cb_thread;

/// Resolves a configured worker count: `0` means "one worker per available
/// core", anything else is taken literally.
pub fn resolve_workers(configured: usize) -> usize {
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Splits `n` items into at most `workers` contiguous chunk ranges of
/// near-equal size. Ranges are returned in order and cover `0..n` exactly.
fn chunk_ranges(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.max(1).min(n.max(1));
    let base = n / workers;
    let extra = n % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning the
/// results **in input order**. `f` receives the item's index and a reference
/// to the item; it must be a pure function of those for the output to be
/// worker-count invariant (the helper guarantees ordering, the closure
/// guarantees purity).
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1);
    if workers == 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ranges = chunk_ranges(items.len(), workers);
    let chunks: Vec<Vec<R>> = cb_thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .cloned()
            .map(|range| {
                let f = &f;
                s.spawn(move |_| {
                    items[range.clone()]
                        .iter()
                        .enumerate()
                        .map(|(off, t)| f(range.start + off, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .unwrap_or_default();
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Consumes `tasks` and runs each on the worker pool. Unlike [`par_map`] the
/// tasks are owned (each shard of the replay engine owns its pair groups),
/// and each worker processes exactly one task — callers shard work into at
/// most `workers` tasks themselves. Task `i` also borrows `slots[i]` and
/// leaves its results there: the slots let callers keep expensive per-worker
/// state — scratch buffers, preallocated metric sinks, result buffers —
/// alive across fork–join rounds instead of reallocating it inside every
/// task. `slots` must be at least as long as `tasks`.
pub fn par_run_with<T, S, F>(workers: usize, tasks: Vec<T>, slots: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(T, &mut S) + Sync,
{
    assert!(
        slots.len() >= tasks.len(),
        "par_run_with: {} tasks but only {} slots",
        tasks.len(),
        slots.len()
    );
    let tasks = tasks.into_iter().zip(slots.iter_mut());
    if workers <= 1 || tasks.len() <= 1 {
        return tasks.for_each(|(task, slot)| f(task, slot));
    }
    cb_thread::scope(|s| {
        let handles: Vec<_> = tasks
            .map(|(task, slot)| {
                let f = &f;
                s.spawn(move |_| f(task, slot))
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    })
    .unwrap_or_default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly() {
        for n in [0usize, 1, 2, 7, 100] {
            for w in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, w);
                let mut covered = 0;
                let mut expect_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect_start);
                    covered += r.len();
                    expect_start = r.end;
                }
                assert_eq!(covered, n, "n={n} w={w}");
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let seq = par_map(1, &items, |i, &x| x * 3 + i as u64);
        for w in [2, 3, 8, 64] {
            assert_eq!(par_map(w, &items, |i, &x| x * 3 + i as u64), seq);
        }
    }

    #[test]
    fn par_run_with_reuses_slots_in_task_order() {
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); 4];
        par_run_with(4, (0..4).collect(), &mut slots, |t: usize, slot| {
            slot.push(t);
        });
        assert_eq!(slots, [[0], [1], [2], [3]]);
        // A second round sees the state the first round left in each slot.
        par_run_with(4, (0..3).collect(), &mut slots, |t: usize, slot| {
            slot.push(t + 100);
        });
        assert_eq!(slots[0], vec![0, 100]);
        assert_eq!(slots[2], vec![2, 102]);
        assert_eq!(slots[3], vec![3], "unused slot untouched in round two");
        // Sequential fallback matches the threaded path.
        let mut seq_slots: Vec<Vec<usize>> = vec![Vec::new(); 4];
        par_run_with(1, (0..4).collect(), &mut seq_slots, |t: usize, slot| {
            slot.push(t);
        });
        assert_eq!(seq_slots, [[0], [1], [2], [3]]);
    }

    #[test]
    fn resolve_workers_passthrough() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }
}
