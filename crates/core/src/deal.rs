//! The replica deal: independent jobs spread over per-thread replicas
//! of one warm state, the parallel form of "evaluate one assignment on
//! a warm analysis" that corner sweeps ([`crate::corners::sweep`]) and
//! SERTOPT's batch evaluation share.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Runs `job(replica, item)` for every item, dealing item `i` to
/// replica `i % workers` with `workers = min(replicas.len(),
/// items.len())`, and returns the results in item order.
///
/// One worker runs inline on the calling thread; more run on their own
/// threads in a [`std::thread::scope`]. Each replica sees its items in ascending order, so the results are
/// independent of the replica count whenever a job's result does not
/// depend on its replica's prior state.
///
/// Each job runs under [`catch_unwind`]. When one panics,
/// `on_panic(replica)` repairs that replica and its return value stands
/// in for the item's result; the replica then takes its next item.
///
/// # Panics
///
/// When `replicas` is empty but `items` is not, and when `on_panic`
/// itself panics (re-raised on the calling thread).
pub fn deal<R, T, O>(
    replicas: &mut [R],
    items: &[T],
    job: impl Fn(&mut R, &T) -> O + Sync,
    on_panic: impl Fn(&mut R) -> O + Sync,
) -> Vec<O>
where
    R: Send,
    T: Sync,
    O: Send,
{
    assert!(
        !replicas.is_empty() || items.is_empty(),
        "deal needs at least one replica"
    );
    let workers = replicas.len().min(items.len());
    let run = |w: usize, replica: &mut R| -> Vec<O> {
        items
            .iter()
            .skip(w)
            .step_by(workers)
            .map(|item| {
                catch_unwind(AssertUnwindSafe(|| job(replica, item)))
                    .unwrap_or_else(|_| on_panic(replica))
            })
            .collect()
    };
    match workers {
        0 => return Vec::new(),
        1 => return run(0, &mut replicas[0]),
        _ => {}
    }
    let lanes: Vec<Vec<O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = replicas[..workers]
            .iter_mut()
            .enumerate()
            .map(|(w, replica)| scope.spawn(move || run(w, replica)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    let mut lanes: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .filter_map(|i| lanes[i % workers].next())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A replica that records which items it ran, so the deal itself is
    /// observable.
    #[derive(Clone, Default)]
    struct Log {
        seen: Vec<u32>,
        repairs: usize,
    }

    fn square(log: &mut Log, x: &u32) -> u64 {
        log.seen.push(*x);
        u64::from(*x) * u64::from(*x)
    }

    #[test]
    fn results_match_the_sequential_run_for_any_replica_count() {
        for n in [0u32, 1, 2, 5, 17] {
            let items: Vec<u32> = (0..n).collect();
            let sequential: Vec<u64> = items.iter().map(|x| u64::from(*x).pow(2)).collect();
            for count in [1usize, 2, 3, 8] {
                let mut replicas = vec![Log::default(); count];
                let out = deal(&mut replicas, &items, square, |_| u64::MAX);
                assert_eq!(out, sequential, "{n} items over {count} replicas");
                let workers = count.min(items.len());
                for (w, log) in replicas.iter().enumerate() {
                    let want: Vec<u32> = if w < workers {
                        items.iter().copied().skip(w).step_by(workers).collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(log.seen, want, "replica {w} of {count}, {n} items");
                }
            }
        }
    }

    #[test]
    fn a_panicking_item_fails_alone_and_repairs_its_replica_once() {
        let items: Vec<u32> = (0..9).collect();
        for count in [1usize, 2, 3, 8] {
            let repairs = AtomicUsize::new(0);
            let mut replicas = vec![Log::default(); count];
            let out = deal(
                &mut replicas,
                &items,
                |log, x| {
                    if *x == 4 {
                        panic!("item 4 fails");
                    }
                    square(log, x)
                },
                |log| {
                    repairs.fetch_add(1, Ordering::SeqCst);
                    log.repairs += 1;
                    u64::MAX
                },
            );
            let want: Vec<u64> = items
                .iter()
                .map(|&x| {
                    if x == 4 {
                        u64::MAX
                    } else {
                        u64::from(x).pow(2)
                    }
                })
                .collect();
            assert_eq!(out, want, "{count} replicas");
            assert_eq!(repairs.load(Ordering::SeqCst), 1, "{count} replicas");
            let owner = 4 % count.min(items.len());
            for (w, log) in replicas.iter().enumerate() {
                assert_eq!(log.repairs, usize::from(w == owner), "replica {w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn items_without_replicas_panic() {
        let mut replicas: Vec<Log> = Vec::new();
        deal(&mut replicas, &[1u32], square, |_| 0);
    }
}
