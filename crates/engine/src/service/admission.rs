//! Admission control: a global memory pool carved into per-query grants.
//!
//! The controller owns the service-wide byte budget for intermediate query
//! state. Every admitted query must hold a [`MemoryGrant`] while it runs;
//! the grant's size becomes the `memory_bytes` of the query's
//! [`ExecBudget`](crate::ExecBudget) — its one limit, whose tuple cap keeps
//! the default — so enforcement stays inside the engine, at batch
//! boundaries, and the controller never has to preempt anything. The grant
//! does not change how the query runs: its join drive fans out as under
//! any budget, and only the drive's merge thread charges the grant, so a
//! trip lands where the serial drive's would.
//!
//! Grant policy (graceful degradation):
//! * pool has a full share free → full grant, error-mode budget;
//! * pool is under pressure but a floor share remains → a **degraded**
//!   grant at the floor size with `partial_results` mode, so the query
//!   returns a truncated prefix with warnings instead of failing;
//! * pool exhausted → the dispatcher waits for a release (admission is
//!   already bounded by the dispatcher count, so the wait is short and
//!   deadlock-free: waiters only exist while other grants are held).

use std::sync::{Condvar, Mutex};

/// A lease on pool memory. Must be handed back via
/// [`AdmissionController::release`]; the service's dispatch loop does this
/// on every path (success, error, panic-caught).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryGrant {
    /// Leased bytes — the admitted query's governor byte budget.
    pub bytes: u64,
    /// True when the pool was under pressure and the grant was cut to the
    /// floor share: the query runs in `partial_results` mode.
    pub degraded: bool,
}

/// The pool is draining; no new grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionClosed;

#[derive(Debug)]
struct PoolState {
    available: u64,
    closed: bool,
}

/// The global memory pool + grant policy.
#[derive(Debug)]
pub struct AdmissionController {
    state: Mutex<PoolState>,
    freed: Condvar,
    total: u64,
    full_grant: u64,
    min_grant: u64,
}

impl AdmissionController {
    /// Creates a pool of `total` bytes handing out `full_grant`-byte
    /// leases, degrading to `min_grant`-byte leases under pressure. Grants
    /// are clamped so a lone query can always be admitted.
    pub fn new(total: u64, full_grant: u64, min_grant: u64) -> Self {
        let total = total.max(1);
        let full_grant = full_grant.clamp(1, total);
        AdmissionController {
            state: Mutex::new(PoolState {
                available: total,
                closed: false,
            }),
            freed: Condvar::new(),
            total,
            full_grant,
            min_grant: min_grant.clamp(1, full_grant),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Leases memory for one query, blocking while the pool is exhausted.
    pub fn acquire(&self) -> Result<MemoryGrant, AdmissionClosed> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(AdmissionClosed);
            }
            if st.available >= self.full_grant {
                st.available -= self.full_grant;
                return Ok(MemoryGrant {
                    bytes: self.full_grant,
                    degraded: false,
                });
            }
            if st.available >= self.min_grant {
                st.available -= self.min_grant;
                return Ok(MemoryGrant {
                    bytes: self.min_grant,
                    degraded: true,
                });
            }
            st = self.freed.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Returns a lease to the pool.
    pub fn release(&self, grant: MemoryGrant) {
        let mut st = self.lock();
        st.available = (st.available + grant.bytes).min(self.total);
        drop(st);
        self.freed.notify_all();
    }

    /// The lease an unpressured query gets.
    pub fn full_grant(&self) -> u64 {
        self.full_grant
    }

    /// Currently unleased bytes.
    pub fn available(&self) -> u64 {
        self.lock().available
    }

    /// Closes the pool: blocked and future acquires fail with
    /// `AdmissionClosed` (releases still work during the drain).
    pub fn close(&self) {
        self.lock().closed = true;
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_then_degraded_then_wait() {
        // Pool fits one full grant plus one floor grant.
        let pool = AdmissionController::new(96, 64, 32);
        let a = pool.acquire().unwrap();
        assert_eq!(
            a,
            MemoryGrant {
                bytes: 64,
                degraded: false
            }
        );
        // Pressure: only 32 left → degraded floor grant, not a failure.
        let b = pool.acquire().unwrap();
        assert_eq!(
            b,
            MemoryGrant {
                bytes: 32,
                degraded: true
            }
        );
        assert_eq!(pool.available(), 0);
        // Exhausted: a third acquire waits until someone releases.
        let pool = Arc::new(pool);
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.acquire().unwrap())
        };
        pool.release(a);
        let c = waiter.join().unwrap();
        assert!(!c.degraded, "released share re-enables full grants");
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.available(), 96);
    }

    #[test]
    fn close_unblocks_waiters() {
        let pool = Arc::new(AdmissionController::new(10, 10, 5));
        let held = pool.acquire().unwrap();
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.acquire())
        };
        pool.close();
        assert_eq!(waiter.join().unwrap(), Err(AdmissionClosed));
        pool.release(held); // release during drain is fine
        assert_eq!(pool.available(), 10);
    }

    #[test]
    fn grants_are_clamped_to_sane_bounds() {
        let pool = AdmissionController::new(8, 100, 200);
        // full_grant clamps to the pool, min_grant to the full grant.
        let g = pool.acquire().unwrap();
        assert_eq!(g.bytes, 8);
        assert!(!g.degraded);
    }
}
