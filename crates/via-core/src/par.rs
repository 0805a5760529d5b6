//! Deterministic fork–join helpers for the window-parallel replay engine.
//!
//! Everything here preserves a hard invariant: **results are a pure function
//! of the inputs, never of the worker count or thread scheduling**. Each task
//! owns its input and leaves its results in its own slot, so the caller reads
//! them back in task order. No shared mutable state, no atomics, no channels
//! — determinism by construction.
//!
//! With `workers <= 1` (or a single task) [`par_run_with`] degrades to a
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

/// Consumes `tasks` and runs each on the worker pool. The tasks are owned
/// (each shard of the replay engine owns its pair groups), and each worker
/// processes exactly one task — callers shard work into at most `workers`
/// tasks themselves. Task `i` also borrows `slots[i]` and leaves its
/// results there: the slots let callers keep expensive per-worker state —
/// scratch buffers, preallocated metric sinks, result buffers — alive across
/// fork–join rounds instead of reallocating it inside every task. `slots`
/// must be at least as long as `tasks`.
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
