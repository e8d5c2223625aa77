//! The workspace's one worker pool and its threading policy: how many
//! workers a `jobs` request means, and the stack every thread that runs
//! rewriting or proof search gets.
//!
//! The prover's obligations, the confluence lint's critical pairs and the
//! explorer's frontier entries all fan out through [`par_map`]. Workers
//! claim items one at a time off a shared index, so one expensive item
//! never holds up a fixed chunk of cheap ones, and the results come back
//! in input order, so what a caller does with them cannot depend on
//! scheduling.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Stack size for every thread that runs rewriting or proof search.
///
/// Normalization recurses over term structure and the prover's case
/// splits recurse on top of it; the TLS obligations overflow the platform
/// default. The size is virtual address space: only the pages a thread
/// touches become resident.
pub const WORKER_STACK_BYTES: usize = 512 * 1024 * 1024;

/// Resolve a `jobs` request: `0` means "use the machine's available
/// parallelism", anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Run `f` on a fresh thread with a [`WORKER_STACK_BYTES`] stack and
/// return its result. A panic in `f` resumes on the caller with its
/// original payload.
pub fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    thread::Builder::new()
        .stack_size(WORKER_STACK_BYTES)
        .spawn(f)
        .expect("spawn a big-stack thread")
        .join()
        .unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// Map `f` over `items` on `jobs` workers (`0` = all cores) and return the
/// results in input order.
///
/// Each worker builds its own state with `init(worker)` and hands it to
/// every `f` call it makes. At most `min(jobs, items.len())` workers run,
/// named `{name}-{worker}`, on [`WORKER_STACK_BYTES`] stacks; with one
/// worker `f` runs inline on the calling thread, and with no items
/// nothing runs. A panic in `f` resumes on the caller with its original
/// payload once the other workers have finished.
pub fn par_map<T, R, S>(
    name: &str,
    jobs: usize,
    items: &[T],
    init: impl Fn(usize) -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = resolve_jobs(jobs).min(items.len());
    if workers == 0 {
        return Vec::new();
    }
    if workers == 1 {
        let mut state = init(0);
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    // The index only hands out claims; each result travels back through
    // its worker's join, which orders it before the caller reads it.
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut state = init(worker);
        std::iter::from_fn(|| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            items.get(i).map(|item| (i, f(&mut state, item)))
        })
        .collect::<Vec<_>>()
    };
    let mut done = Vec::with_capacity(items.len());
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                thread::Builder::new()
                    .name(format!("{name}-{worker}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || work(worker))
                    .expect("spawn a pool worker")
            })
            .collect();
        // A resumed panic still waits for the remaining workers: the
        // scope joins every thread before it unwinds.
        for handle in handles {
            done.extend(handle.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::panic_message;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn resolve_jobs_zero_means_available_parallelism() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    #[test]
    fn results_keep_input_order_when_workers_interleave() {
        // Item 0 waits for item 1 to start and item 1 for item 2, so one
        // worker runs items 0 and 2 while the other is still on item 1.
        let items: Vec<usize> = (0..16).collect();
        let started: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        let wait_for = |i: usize| {
            while !started[i].load(Ordering::SeqCst) {
                thread::yield_now();
            }
        };
        let out = par_map(
            "order",
            2,
            &items,
            |_| (),
            |(), &x| {
                if let Some(flag) = started.get(x) {
                    flag.store(true, Ordering::SeqCst);
                }
                match x {
                    0 => wait_for(1),
                    1 => wait_for(2),
                    _ => {}
                }
                (x * x, thread::current().name().map(str::to_string))
            },
        );
        let squares: Vec<usize> = out.iter().map(|(sq, _)| *sq).collect();
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
        let worker = |i: usize| out[i].1.clone().expect("pool workers are named");
        assert!(worker(0).starts_with("order-"), "{}", worker(0));
        assert_eq!(worker(0), worker(2));
        assert_ne!(worker(0), worker(1));
    }

    #[test]
    fn every_job_count_and_input_size_gives_the_sequential_result() {
        for n in [0, 1, 5] {
            let items: Vec<usize> = (0..n).collect();
            for jobs in [0, 1, 2, 5, 8] {
                let inits = AtomicUsize::new(0);
                let init = |worker| {
                    inits.fetch_add(1, Ordering::SeqCst);
                    worker
                };
                let out = par_map("jobs", jobs, &items, init, |&mut worker, &x| {
                    assert!(worker < resolve_jobs(jobs).min(n));
                    x * 3 + 1
                });
                assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
                let inits = inits.into_inner();
                assert!(inits <= resolve_jobs(jobs).min(n), "jobs {jobs}, n {n}");
                assert_eq!(inits == 0, n == 0, "jobs {jobs}, n {n}");
            }
        }
    }

    #[test]
    fn a_panic_resumes_on_the_caller_with_its_message() {
        let items: Vec<usize> = (0..4).collect();
        for jobs in [1, 2] {
            let payload = panic::catch_unwind(|| {
                par_map(
                    "panic",
                    jobs,
                    &items,
                    |_| (),
                    |(), &x| {
                        assert!(x != 2, "item {x} failed");
                    },
                )
            })
            .expect_err("the panic reaches the caller");
            assert_eq!(panic_message(&*payload), "item 2 failed", "jobs {jobs}");
        }
        let payload = panic::catch_unwind(|| on_big_stack(|| panic!("deep")))
            .expect_err("the panic reaches the caller");
        assert_eq!(panic_message(&*payload), "deep");
        assert_eq!(on_big_stack(|| 6 * 7), 42);
    }
}
