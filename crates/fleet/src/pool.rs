//! The crate's one worker pool: run a closure over every item of a slice
//! on a bounded number of scoped threads, results in item order.
//!
//! Fleet waves (one item per cell) and cluster epochs (one item per host)
//! both need exactly this, and both promise outcomes that are independent
//! of the worker count. The pool keeps that promise structurally: which
//! thread runs an item is scheduling-dependent, but every item is run
//! exactly once, alone, and its result lands in the slot of its index.

use std::sync::Mutex;

/// Applies `work` to every item and returns the results in item order.
///
/// With one worker (or at most one item) everything runs inline on the
/// caller's thread — no thread, lock or slot vector. Otherwise at most
/// `workers` scoped threads claim items one at a time from a shared
/// queue. A panic in `work` propagates to the caller once the remaining
/// workers have drained the queue.
pub(crate) fn map_indexed<T: Send, R: Send>(
    items: &mut [T],
    workers: usize,
    work: impl Fn(&mut T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter_mut().map(work).collect();
    }
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    {
        let queue = Mutex::new(items.iter_mut().zip(results.iter_mut()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Claim under the lock, work outside it: the lock is
                    // never held across `work`, so it cannot be poisoned.
                    let claimed = queue.lock().expect("queue lock is never poisoned").next();
                    let Some((item, slot)) = claimed else {
                        break;
                    };
                    *slot = Some(work(item));
                });
            }
        });
    }
    results
        .into_iter()
        .map(|slot| slot.expect("the queue hands out every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_worker_count() {
        for workers in [0, 1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..17).collect();
            let doubled = map_indexed(&mut items, workers, |item| {
                *item += 100;
                *item * 2
            });
            let expected: Vec<u64> = (0..17).map(|i| (i + 100) * 2).collect();
            assert_eq!(doubled, expected, "{workers} workers");
            // Every item was visited exactly once, in place.
            assert_eq!(items, (100..117).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn empty_and_single_item_slices_run_inline() {
        let caller = std::thread::current().id();
        let mut none: Vec<u8> = Vec::new();
        assert!(map_indexed(&mut none, 4, |_| ()).is_empty());
        let mut one = vec![7u8];
        let ran_on = map_indexed(&mut one, 4, |_| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
        let mut many = vec![0u8; 5];
        let ran_on = map_indexed(&mut many, 1, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|id| *id == caller));
    }

    #[test]
    fn several_workers_do_leave_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 5];
        let ran_on = map_indexed(&mut items, 2, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|id| *id != caller));
    }
}
