//! The query's limits: the [`ExecBudget`] and the governor that enforces
//! its deadlines, cooperative cancellation, and memory budgets.
//!
//! Interactive attack investigations share one store and one process; a
//! runaway query must not starve the analysts next to it. An
//! [`ExecBudget`] is a query's only limit: a cap on the tuples its join
//! delivers (`max_tuples`, which the join enforces itself, no governor
//! needed), and the governed limits — a wall-clock deadline, a caller-held
//! [`CancelToken`], and a byte budget over the query's intermediate state
//! (candidate batches + the join frontier). Operators poll
//! [`Governor::check`] at batch boundaries — every [`GOV_CHECK_INTERVAL`]
//! tuples in the scan, join probe, and projection loops — so enforcement
//! latency is bounded by a few thousand cheap iterations while the fast
//! path stays branch-cheap.
//!
//! A trip surfaces one of two ways:
//!
//! * **Error mode** (default): the query unwinds cleanly with
//!   `EngineError::{DeadlineExceeded, Cancelled, MemoryBudget}`. The store
//!   and plan cache are untouched.
//! * **Partial mode** (`ExecBudget::partial_results`): the pipeline stops
//!   extending the frontier and the query returns a *prefix-preserving*
//!   truncated table — for queries without `ORDER BY`/aggregation the rows
//!   are a prefix of the untripped result, byte-identical across serial
//!   and parallel join — carrying [`Warning`]s describing what fired.
//!
//! Trips are *sticky*: the first one wins and later polls return it
//! unchanged, so a deadline that fires mid-join reports as a deadline even
//! if the caller also cancels during unwind.
//!
//! Every early stop names its cause: a result table is `truncated` exactly
//! when it carries at least one [`Warning`] — a governor trip in partial
//! mode, or [`Warning::TupleCap`] when the join reached `max_tuples`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::EngineError;

pub use aiql_model::CancelToken;

/// How many tuples an execution loop may process between governor polls.
/// Matches the join budget's refresh stride: coarse enough to keep the
/// `Instant::now()` cost invisible, fine enough to bound cancel latency to
/// well under a millisecond of work.
pub const GOV_CHECK_INTERVAL: usize = 4096;

/// The governor's notion of time. The default [`SystemClock`] reads the
/// monotonic wall clock; tests inject a [`ManualClock`] so deadline and
/// fairness assertions advance time explicitly instead of sleeping —
/// deterministic on arbitrarily slow CI hosts.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant by this clock.
    fn now(&self) -> Instant;
}

/// The real monotonic clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A hand-advanced clock for deterministic tests: time stands still until
/// [`advance`](ManualClock::advance) moves it. Clones share the same time.
#[derive(Debug, Clone)]
pub struct ManualClock {
    anchor: Instant,
    offset_nanos: Arc<AtomicU64>,
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ManualClock {
    /// A clock frozen at its creation instant.
    pub fn new() -> Self {
        ManualClock {
            anchor: Instant::now(),
            offset_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Moves time forward by `d` for every clone of this clock.
    pub fn advance(&self, d: Duration) {
        self.offset_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Release);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        self.anchor + Duration::from_nanos(self.offset_nanos.load(Ordering::Acquire))
    }
}

/// The default [`ExecBudget::max_tuples`]: 4 M joined tuples.
pub const DEFAULT_MAX_TUPLES: usize = 4_000_000;

/// The per-query resource envelope: the query's only limit. `None` fields
/// are unlimited; the tuple cap always applies.
#[derive(Debug, Clone)]
pub struct ExecBudget {
    /// Cap on the tuples the join delivers, and on each intermediate
    /// expansion window (a guard against pattern explosion). Reaching it
    /// truncates the result with [`Warning::TupleCap`] in either mode.
    /// Enforced by the join itself, so it needs no governor.
    pub max_tuples: usize,
    /// Wall-clock deadline, measured from query start.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Byte budget over intermediate state (join arena + frontier).
    pub memory_bytes: Option<u64>,
    /// On a trip, return a prefix-preserving truncated table with
    /// [`Warning`]s instead of an error.
    pub partial_results: bool,
    /// Deadline clock override (`None` = the monotonic wall clock). Tests
    /// and the service's deterministic suites inject a [`ManualClock`].
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for ExecBudget {
    fn default() -> Self {
        ExecBudget {
            max_tuples: DEFAULT_MAX_TUPLES,
            deadline: None,
            cancel: None,
            memory_bytes: None,
            partial_results: false,
            clock: None,
        }
    }
}

impl ExecBudget {
    /// No deadline, cancellation or memory budget (every governor check
    /// passes); the tuple cap keeps its [`DEFAULT_MAX_TUPLES`] default.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the tuple cap.
    pub fn with_max_tuples(mut self, max_tuples: usize) -> Self {
        self.max_tuples = max_tuples;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the intermediate-state byte budget.
    pub fn with_memory_bytes(mut self, bytes: u64) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }

    /// Enables partial-result mode.
    pub fn with_partial_results(mut self, on: bool) -> Self {
        self.partial_results = on;
        self
    }

    /// Injects a deadline clock (tests use [`ManualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Whether any governed limit is set (a budget with none — whatever its
    /// tuple cap — needs no governor at all).
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some() || self.memory_bytes.is_some()
    }
}

/// Which limit fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The wall-clock deadline passed.
    Deadline,
    /// The caller cancelled.
    Cancelled,
    /// The memory budget was exceeded.
    Memory,
}

// Sticky-trip encoding for the atomic slot.
const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_CANCELLED: u8 = 2;
const TRIP_MEMORY: u8 = 3;

/// A non-fatal condition attached to a (possibly truncated) result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Warning {
    /// The deadline fired; rows are a prefix of the full result.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The query was cancelled; rows are a prefix of the full result.
    Cancelled,
    /// The memory budget fired; rows are a prefix of the full result.
    MemoryBudget {
        /// The configured budget, in bytes.
        budget_bytes: u64,
    },
    /// The join reached the tuple cap ([`ExecBudget::max_tuples`]); rows
    /// are the projection of an emission-order prefix of the joined tuples.
    TupleCap {
        /// The configured cap, in tuples.
        cap: usize,
        /// The join level that cut, in join order (0 = the seed pattern):
        /// an intermediate expansion that filled the cap, or the final
        /// level when the output did.
        cut_level: usize,
        /// Seed runs the join drove, the cut one included.
        runs_driven: u64,
        /// Seed runs in the drive.
        runs: u64,
    },
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Warning::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms exceeded; result truncated")
            }
            Warning::Cancelled => write!(f, "query cancelled; result truncated"),
            Warning::MemoryBudget { budget_bytes } => {
                write!(
                    f,
                    "memory budget of {budget_bytes} bytes exceeded; result truncated"
                )
            }
            Warning::TupleCap {
                cap,
                cut_level,
                runs_driven,
                runs,
            } => write!(
                f,
                "tuple cap of {cap} reached at join level {cut_level} after \
                 {runs_driven} of {runs} seed run(s); result truncated"
            ),
        }
    }
}

/// The runtime side of an [`ExecBudget`]: shared by every thread working on
/// one query, polled at batch boundaries.
#[derive(Debug)]
pub struct Governor {
    started: Instant,
    deadline_at: Option<Instant>,
    deadline_ms: u64,
    cancel: Option<CancelToken>,
    memory_bytes: Option<u64>,
    /// Deadline clock; `None` reads the monotonic wall clock directly
    /// (the common case pays no dynamic dispatch).
    clock: Option<Arc<dyn Clock>>,
    /// Bytes of intermediate state currently charged.
    charged: AtomicU64,
    /// First trip, sticky (`TRIP_*` encoding).
    tripped: AtomicU8,
    partial: bool,
}

impl Governor {
    /// Starts governing a query under `budget`; the deadline clock begins
    /// now.
    pub fn new(budget: &ExecBudget) -> Self {
        let started = budget
            .clock
            .as_ref()
            .map(|c| c.now())
            .unwrap_or_else(Instant::now);
        Governor {
            started,
            deadline_at: budget.deadline.map(|d| started + d),
            deadline_ms: budget.deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
            cancel: budget.cancel.clone(),
            memory_bytes: budget.memory_bytes,
            clock: budget.clock.clone(),
            charged: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
            partial: budget.partial_results,
        }
    }

    /// The current instant by the governor's clock.
    #[inline]
    fn now(&self) -> Instant {
        match &self.clock {
            Some(c) => c.now(),
            None => Instant::now(),
        }
    }

    /// Elapsed time since the query started, by the governor's clock.
    pub fn elapsed(&self) -> Duration {
        self.now().saturating_duration_since(self.started)
    }

    /// Polls cancellation and the deadline. Cheap enough for every few
    /// thousand tuples; sticky, so callers may re-check freely.
    pub fn check(&self) -> Result<(), Trip> {
        if let Some(t) = self.trip() {
            return Err(t);
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(self.record(Trip::Cancelled));
            }
        }
        if let Some(at) = self.deadline_at {
            if self.now() >= at {
                return Err(self.record(Trip::Deadline));
            }
        }
        Ok(())
    }

    /// Charges `bytes` of intermediate state against the memory budget,
    /// tripping if the running total exceeds it.
    pub fn charge(&self, bytes: u64) -> Result<(), Trip> {
        let total = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(limit) = self.memory_bytes {
            if total > limit {
                return Err(self.record(Trip::Memory));
            }
        }
        Ok(())
    }

    /// Releases previously charged bytes (a batch freed after its join
    /// step consumed it).
    pub fn uncharge(&self, bytes: u64) {
        // Saturating: a release can never un-trip or underflow.
        let mut cur = self.charged.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.charged.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whether a memory budget is configured at all.
    pub fn has_memory_budget(&self) -> bool {
        self.memory_bytes.is_some()
    }

    /// Bytes that can still be charged without a trip (`u64::MAX` without
    /// a memory budget).
    pub(crate) fn room(&self) -> u64 {
        self.memory_bytes.map_or(u64::MAX, |limit| {
            limit.saturating_sub(self.charged.load(Ordering::Relaxed))
        })
    }

    /// The sticky first trip, if any.
    pub fn trip(&self) -> Option<Trip> {
        match self.tripped.load(Ordering::Acquire) {
            TRIP_DEADLINE => Some(Trip::Deadline),
            TRIP_CANCELLED => Some(Trip::Cancelled),
            TRIP_MEMORY => Some(Trip::Memory),
            _ => None,
        }
    }

    /// Records `t` as the trip unless one is already set; returns the
    /// winning trip either way.
    pub fn record(&self, t: Trip) -> Trip {
        let code = match t {
            Trip::Deadline => TRIP_DEADLINE,
            Trip::Cancelled => TRIP_CANCELLED,
            Trip::Memory => TRIP_MEMORY,
        };
        match self
            .tripped
            .compare_exchange(TRIP_NONE, code, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => t,
            Err(prev) => match prev {
                TRIP_DEADLINE => Trip::Deadline,
                TRIP_CANCELLED => Trip::Cancelled,
                TRIP_MEMORY => Trip::Memory,
                _ => t,
            },
        }
    }

    /// The error a trip maps to in error mode.
    pub fn error(&self, t: Trip) -> EngineError {
        match t {
            Trip::Deadline => EngineError::DeadlineExceeded {
                deadline_ms: self.deadline_ms,
            },
            Trip::Cancelled => EngineError::Cancelled,
            Trip::Memory => EngineError::MemoryBudget {
                budget_bytes: self.memory_bytes.unwrap_or(0),
            },
        }
    }

    /// What trip `t` means for the operator that observed it: error mode
    /// unwinds with the trip's typed error; partial mode returns `Ok` — stop
    /// early and keep what is finished.
    pub fn on_trip(&self, t: Trip) -> Result<(), EngineError> {
        match self.partial {
            true => Ok(()),
            false => Err(self.error(t)),
        }
    }

    /// The warning a trip maps to in partial mode.
    pub fn warning(&self, t: Trip) -> Warning {
        match t {
            Trip::Deadline => Warning::DeadlineExceeded {
                deadline_ms: self.deadline_ms,
            },
            Trip::Cancelled => Warning::Cancelled,
            Trip::Memory => Warning::MemoryBudget {
                budget_bytes: self.memory_bytes.unwrap_or(0),
            },
        }
    }
}

/// Amortized governor polling for hot loops: `tick()` costs one branch and
/// a decrement per tuple, and only every [`GOV_CHECK_INTERVAL`]-th call
/// reaches [`Governor::check`] (the `Instant::now()` syscall). A `None`
/// governor makes every tick free.
pub(crate) struct GovGate<'g> {
    gov: Option<&'g Governor>,
    left: usize,
}

impl<'g> GovGate<'g> {
    pub(crate) fn new(gov: Option<&'g Governor>) -> Self {
        GovGate {
            gov,
            left: GOV_CHECK_INTERVAL,
        }
    }

    /// Polls the governor once every [`GOV_CHECK_INTERVAL`] calls. Returns
    /// the trip when one fired (sticky — keeps returning it).
    #[inline]
    pub(crate) fn tick(&mut self) -> Option<Trip> {
        let g = self.gov?;
        self.left -= 1;
        if self.left == 0 {
            self.left = GOV_CHECK_INTERVAL;
            return g.check().err();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let gov = Governor::new(&ExecBudget::unlimited());
        for _ in 0..1000 {
            gov.check().unwrap();
            gov.charge(1 << 20).unwrap();
        }
        assert_eq!(gov.trip(), None);
        // The tuple cap is no governed limit: it keeps its 4 M default and
        // never asks for a governor.
        let capped = ExecBudget::unlimited();
        assert_eq!(capped.max_tuples, DEFAULT_MAX_TUPLES);
        assert!(!capped.with_max_tuples(1).is_limited());
    }

    #[test]
    fn cancel_trips_and_sticks() {
        let token = CancelToken::new();
        let gov = Governor::new(&ExecBudget::unlimited().with_cancel(token.clone()));
        gov.check().unwrap();
        token.cancel();
        assert_eq!(gov.check(), Err(Trip::Cancelled));
        assert_eq!(gov.trip(), Some(Trip::Cancelled));
        assert_eq!(gov.error(Trip::Cancelled), EngineError::Cancelled);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let gov = Governor::new(&ExecBudget::unlimited().with_deadline(Duration::ZERO));
        assert_eq!(gov.check(), Err(Trip::Deadline));
        assert!(matches!(
            gov.error(Trip::Deadline),
            EngineError::DeadlineExceeded { deadline_ms: 0 }
        ));
        // Error mode: the trip unwinds as its typed error.
        assert_eq!(gov.on_trip(Trip::Deadline), Err(gov.error(Trip::Deadline)));
    }

    #[test]
    fn memory_budget_charges_and_releases() {
        let gov = Governor::new(&ExecBudget::unlimited().with_memory_bytes(100));
        gov.charge(60).unwrap();
        gov.uncharge(30);
        // 30 live + 70 fills the budget exactly; one byte more trips it.
        assert_eq!(gov.room(), 70);
        assert_eq!(gov.charge(70), Ok(()));
        assert_eq!((gov.trip(), gov.room()), (None, 0));
        assert_eq!(gov.charge(1), Err(Trip::Memory));
        assert_eq!(gov.trip(), Some(Trip::Memory));
    }

    #[test]
    fn first_trip_wins() {
        let token = CancelToken::new();
        let gov = Governor::new(
            &ExecBudget::unlimited()
                .with_cancel(token.clone())
                .with_memory_bytes(10),
        );
        assert_eq!(gov.charge(100), Err(Trip::Memory));
        token.cancel();
        // The later cancel does not displace the memory trip.
        assert_eq!(gov.check(), Err(Trip::Memory));
    }

    #[test]
    fn manual_clock_makes_deadlines_deterministic() {
        let clock = ManualClock::new();
        let gov = Governor::new(
            &ExecBudget::unlimited()
                .with_deadline(Duration::from_millis(100))
                .with_clock(Arc::new(clock.clone())),
        );
        // No matter how much real time passes, the deadline holds until the
        // manual clock crosses it.
        gov.check().unwrap();
        clock.advance(Duration::from_millis(99));
        gov.check().unwrap();
        assert_eq!(gov.elapsed(), Duration::from_millis(99));
        clock.advance(Duration::from_millis(1));
        assert_eq!(gov.check(), Err(Trip::Deadline));
        assert_eq!(gov.trip(), Some(Trip::Deadline));
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let clock = ManualClock::new();
        let other = clock.clone();
        let t0 = clock.now();
        other.advance(Duration::from_secs(5));
        assert_eq!(clock.now(), t0 + Duration::from_secs(5));
    }

    #[test]
    fn warnings_render_the_limits() {
        let gov = Governor::new(
            &ExecBudget::unlimited()
                .with_deadline(Duration::from_millis(250))
                .with_memory_bytes(4096)
                .with_partial_results(true),
        );
        assert_eq!(gov.on_trip(Trip::Deadline), Ok(()));
        assert!(gov.warning(Trip::Deadline).to_string().contains("250"));
        assert!(gov.warning(Trip::Memory).to_string().contains("4096"));
        let cap = Warning::TupleCap {
            cap: 7,
            cut_level: 2,
            runs_driven: 3,
            runs: 9,
        };
        assert_eq!(
            cap.to_string(),
            "tuple cap of 7 reached at join level 2 after 3 of 9 seed run(s); result truncated"
        );
    }
}
