//! The host threads a process spends on simulation.
//!
//! [`budget`] is the one thread count `T`. A sweep runs its cells on up
//! to `T` workers, and a job's [`ShufflePlan`](crate::shuffle::ShufflePlan)
//! draws its map rows on the calling thread plus helpers. Sweep workers
//! past the first and the draw's helpers share one process-wide count,
//! and a draw only adds helpers while that count is below `T − 1`: the
//! helpers use cores no worker is on, and at most `T − 1` are alive at
//! once. Threads change when work runs, never what it computes: every
//! result is bit-identical for any `T`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The process's thread budget `T`: the `MRBENCH_THREADS` environment
/// variable when set to an integer (0 counts as 1), else the machine's
/// available parallelism. Read once per process.
pub fn budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("MRBENCH_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |n| n.max(1),
            )
    })
}

/// Mark `n` threads busy beside the caller's own, e.g. the workers of a
/// sweep past the first, until the returned claim drops or gives them
/// back one by one ([`Claim::release_one`]).
pub fn occupy(n: usize) -> Claim<'static> {
    EXTRA.occupy(n)
}

/// The process's busy threads beside their callers' own.
pub(crate) static EXTRA: Pool = Pool::new();

/// A count of busy threads, shared by every claim on it.
#[derive(Debug)]
pub(crate) struct Pool {
    alive: AtomicUsize,
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Pool {
            alive: AtomicUsize::new(0),
        }
    }

    /// Claim up to `want` threads, so that at most `cap` are alive at
    /// once; the claim may hold none.
    pub(crate) fn claim(&self, want: usize, cap: usize) -> Claim<'_> {
        let mut granted = 0;
        if want > 0 {
            // A failed update (no room) leaves `granted` at 0.
            let _ = self
                .alive
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |alive| {
                    granted = want.min(cap.saturating_sub(alive));
                    (granted > 0).then_some(alive + granted)
                });
        }
        Claim {
            pool: self,
            held: AtomicUsize::new(granted),
        }
    }

    /// Claim `n` threads whatever the count.
    fn occupy(&self, n: usize) -> Claim<'_> {
        self.alive.fetch_add(n, Ordering::AcqRel);
        Claim {
            pool: self,
            held: AtomicUsize::new(n),
        }
    }

    /// Threads claimed and not yet given back.
    #[cfg(test)]
    pub(crate) fn alive(&self) -> usize {
        self.alive.load(Ordering::Acquire)
    }
}

/// Busy threads held on the process-wide count ([`occupy`]); dropping
/// the claim, on a panic too, gives back what it still holds.
#[derive(Debug)]
pub struct Claim<'a> {
    pool: &'a Pool,
    held: AtomicUsize,
}

impl Claim<'_> {
    /// Threads the claim still holds.
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Acquire)
    }

    /// Give one thread back early, if the claim still holds one.
    pub fn release_one(&self) {
        if self
            .held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| h.checked_sub(1))
            .is_ok()
        {
            self.pool.alive.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let held = *self.held.get_mut();
        if held > 0 {
            self.pool.alive.fetch_sub(held, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_share_the_cap_and_give_threads_back() {
        let pool = Pool::new();
        let a = pool.claim(2, 3);
        assert_eq!(a.held(), 2);
        let b = pool.claim(5, 3);
        assert_eq!(b.held(), 1);
        assert_eq!(pool.claim(1, 3).held(), 0);
        drop(a);
        assert_eq!(pool.alive(), 1);
        assert_eq!(pool.claim(9, 3).held(), 2);
        drop(b);
        assert_eq!(pool.alive(), 0);
        assert_eq!(pool.claim(0, 3).held(), 0);
        assert_eq!(pool.claim(4, 0).held(), 0);
    }

    #[test]
    fn occupied_threads_leave_no_room_until_given_back() {
        let pool = Pool::new();
        let workers = pool.occupy(3);
        assert_eq!(pool.claim(2, 3).held(), 0);
        workers.release_one();
        assert_eq!(pool.claim(2, 3).held(), 1);
        workers.release_one();
        workers.release_one();
        workers.release_one();
        assert_eq!(workers.held(), 0);
        assert_eq!(pool.alive(), 0);
        let more = pool.occupy(2);
        drop(more);
        drop(workers);
        assert_eq!(pool.alive(), 0);
    }

    #[test]
    fn the_budget_is_at_least_one() {
        assert!(budget() >= 1);
    }
}
