//! Pruning-power scheduling.
//!
//! The first key insight of the engine (§2.3): "for a query with multiple
//! event patterns, we prioritize the search of event patterns with higher
//! pruning power, maximizing the reduction of irrelevant events as early as
//! possible." Pruning power is estimated from storage statistics: each
//! pattern's expected match count is computed from per-segment operation
//! counts and the dictionary-resolved entity id sets; patterns with smaller
//! expected counts run first, and their bindings shrink every later scan.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use aiql_model::EntityId;
use aiql_storage::{EventFilter, EventStore, IdSet, PartitionKey};

use crate::analyze::AnalyzedMultievent;

/// Per-variable resolved candidate id sets. `None` = unconstrained;
/// `Some(empty)` = unsatisfiable.
pub type ResolvedVars = Vec<Option<Vec<EntityId>>>;

/// Resolves every variable's entity constraints against the dictionary,
/// memoizing each `find` in `cache` when given.
fn resolve(a: &AnalyzedMultievent, store: &EventStore, cache: Option<&PlanCache>) -> ResolvedVars {
    a.vars
        .iter()
        .map(|v| {
            if v.unsatisfiable {
                return Some(Vec::new());
            }
            if v.constraints.is_empty() {
                return None;
            }
            let compute = || {
                store
                    .entities()
                    .find(v.kind, a.globals.agents.as_deref(), &v.constraints)
            };
            Some(match cache {
                Some(c) => c.resolved_var(store, &var_key(a, v), compute),
                None => compute(),
            })
        })
        .collect()
}

/// The execution plan for a multievent query.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Pattern indices in execution order.
    pub order: Vec<usize>,
    /// Estimated match count per pattern (source order).
    pub estimates: Vec<usize>,
}

/// The base pushdown filter of pattern `i`, before binding propagation.
fn base_filter(a: &AnalyzedMultievent, i: usize, resolved: &ResolvedVars) -> EventFilter {
    let p = &a.patterns[i];
    let ids = |v: usize| {
        resolved[v]
            .as_ref()
            .map(|ids| IdSet::from_iter(ids.iter().copied()))
    };
    EventFilter {
        window: a.globals.window,
        agents: a.globals.agents.clone(),
        ops: p.ops,
        subjects: ids(p.subject),
        objects: ids(p.object),
        ..EventFilter::all()
    }
}

/// The execution order: with `prioritize_pruning`, patterns by estimated
/// match count ascending (ties broken by source order for determinism);
/// otherwise the source order — what a general-purpose engine does when it
/// trusts the textual join order.
fn order_patterns(estimates: &[usize], prioritize_pruning: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..estimates.len()).collect();
    if prioritize_pruning {
        order.sort_by_key(|&i| (estimates[i], i));
    }
    order
}

/// The compiled shared phase of one query execution: resolved variable
/// candidate sets, per-pattern base pushdown filters, and the schedule.
///
/// [`prepare`] is the one place a query is resolved, estimated and
/// ordered — for execution and for `EXPLAIN` alike — and builds each base
/// filter once; with a [`PlanCache`] attached, repeated investigations (the
/// paper's §6 interactive loop) skip dictionary resolution and estimation
/// entirely until the store mutates.
#[derive(Debug, Clone)]
pub struct PlanCtx {
    /// Per-variable resolved candidate id sets.
    pub resolved: ResolvedVars,
    /// Base pushdown filter per pattern (source order), before binding
    /// propagation and temporal narrowing.
    pub filters: Vec<EventFilter>,
    /// The execution schedule.
    pub plan: Schedule,
}

/// Builds the shared phase for one query, consulting `cache` when given.
pub fn prepare(
    a: &AnalyzedMultievent,
    store: &EventStore,
    prioritize_pruning: bool,
    cache: Option<&PlanCache>,
) -> PlanCtx {
    let resolved = resolve(a, store, cache);
    let filters: Vec<EventFilter> = (0..a.patterns.len())
        .map(|i| base_filter(a, i, &resolved))
        .collect();
    let estimates: Vec<usize> = filters
        .iter()
        .enumerate()
        .map(|(i, filter)| match cache {
            Some(c) => c.estimate(store, &estimate_key(a, i, &resolved), filter, || {
                store.estimate(filter)
            }),
            None => store.estimate(filter),
        })
        .collect();
    PlanCtx {
        resolved,
        filters,
        plan: Schedule {
            order: order_patterns(&estimates, prioritize_pruning),
            estimates,
        },
    }
}

/// Cache key of one variable's dictionary resolution: everything `find`
/// reads besides the store contents themselves (which the cache guards via
/// ⟨store id, epoch⟩).
fn var_key(a: &AnalyzedMultievent, v: &crate::analyze::VarInfo) -> String {
    let mut k = String::with_capacity(64);
    let _ = write!(k, "{:?}|{:?}|{:?}", v.kind, a.globals.agents, v.constraints);
    k
}

/// Cache key of one pattern's base-filter estimate: window, agents, op
/// set, and a fingerprint of the *resolved* subject/object id sets. Keying
/// on the resolution output (not the constraint text) makes the entry
/// content-addressed: a dictionary change that leaves this pattern's
/// resolution untouched keeps the key — and therefore the cached estimate —
/// valid, so only the partition dependencies remain to be checked.
fn estimate_key(a: &AnalyzedMultievent, pattern_idx: usize, resolved: &ResolvedVars) -> String {
    let p = &a.patterns[pattern_idx];
    let part = |vi: usize| -> String {
        match &resolved[vi] {
            None => "*".to_string(),
            Some(ids) => format!("{}:{:016x}", ids.len(), ids_fingerprint(ids)),
        }
    };
    format!(
        "{:?}|{:?}|{}|{}|{}",
        a.globals.window,
        a.globals.agents,
        p.ops.0,
        part(p.subject),
        part(p.object),
    )
}

/// FNV-1a over a resolved id list (order-sensitive; resolutions are
/// produced in dictionary order, so equal sets hash equal).
fn ids_fingerprint(ids: &[EntityId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        h ^= u64::from(id.raw());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cross-query plan-resolution cache: memoizes dictionary constraint
/// resolutions and base-filter estimates, keyed by their textual signature.
/// Invalidation is **partition-scoped** rather than wholesale:
///
/// * variable resolutions read only the entity dictionary, so they are
///   guarded by the store's ⟨id, dictionary epoch⟩ — committing events
///   never evicts them;
/// * estimates are content-addressed (their key embeds the resolved id
///   sets) and each entry records the ⟨partition, epoch⟩ dependency list
///   its computation read. An ingest invalidates only the entries whose
///   time buckets actually changed; when a *new* partition appears
///   (tracked by the store's partition-set epoch), the entry's dependency
///   list is recomputed from its filter and compared before reuse.
///
/// Bounded LRU (least-recently-used entry evicted beyond
/// [`PlanCache::CAPACITY`]).
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

/// One cached base-filter estimate with its partition dependencies.
#[derive(Debug)]
struct EstEntry {
    value: usize,
    /// Partition-set epoch the dependency list was computed (or last
    /// revalidated) against.
    pset_epoch: u64,
    /// Every partition the estimate read, with its epoch at compute time.
    deps: Vec<(PartitionKey, u64)>,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    store_id: u64,
    dict_epoch: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    vars: HashMap<String, (Vec<EntityId>, u64)>,
    estimates: HashMap<String, (EstEntry, u64)>,
}

impl PlanCache {
    /// Maximum retained entries per map.
    pub const CAPACITY: usize = 256;

    /// A cached (or freshly computed) variable resolution.
    pub fn resolved_var(
        &self,
        store: &EventStore,
        key: &str,
        compute: impl FnOnce() -> Vec<EntityId>,
    ) -> Vec<EntityId> {
        let mut g = self.lock_valid(store);
        let inner = &mut *g;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((ids, stamp)) = inner.vars.get_mut(key) {
            *stamp = tick;
            inner.hits += 1;
            return ids.clone();
        }
        drop(g);
        // Resolve outside the lock: dictionary scans can be the expensive
        // part, and concurrent queries must not serialize on each other.
        let ids = compute();
        let mut g = self.lock_valid(store);
        g.misses += 1;
        let tick = g.tick;
        g.vars.insert(key.to_string(), (ids.clone(), tick));
        evict_lru(&mut g.vars);
        ids
    }

    /// A cached (or freshly computed) base-filter estimate. `filter` is
    /// the estimated filter itself: it defines the entry's partition
    /// dependencies, and lets a surviving entry re-derive them after the
    /// partition set grows.
    pub fn estimate(
        &self,
        store: &EventStore,
        key: &str,
        filter: &EventFilter,
        compute: impl FnOnce() -> usize,
    ) -> usize {
        let mut g = self.lock_valid(store);
        let inner = &mut *g;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((entry, stamp)) = inner.estimates.get_mut(key) {
            let valid = if entry.pset_epoch == store.partition_set_epoch() {
                // No partition appeared since the entry was (re)validated:
                // the recorded dependencies are exhaustive, so checking
                // their epochs is the whole story.
                entry
                    .deps
                    .iter()
                    .all(|&(k, epoch)| store.partition_epoch(k) == Some(epoch))
            } else {
                // A partition appeared somewhere in the store; it is only
                // fatal if it falls inside this filter's range (or an
                // existing dependency also moved).
                let now = store.partition_deps(filter);
                if now == entry.deps {
                    entry.pset_epoch = store.partition_set_epoch();
                    true
                } else {
                    false
                }
            };
            if valid {
                *stamp = tick;
                inner.hits += 1;
                return entry.value;
            }
            inner.estimates.remove(key);
        }
        drop(g);
        let value = compute();
        // `store` is borrowed shared across compute, so the dependency
        // snapshot cannot race the estimate it guards.
        let entry = EstEntry {
            value,
            pset_epoch: store.partition_set_epoch(),
            deps: store.partition_deps(filter),
        };
        let mut g = self.lock_valid(store);
        g.misses += 1;
        let tick = g.tick;
        g.estimates.insert(key.to_string(), (entry, tick));
        evict_lru(&mut g.estimates);
        value
    }

    /// `(hits, misses)` counters, for tests and diagnostics.
    pub fn counters(&self) -> (u64, u64) {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (g.hits, g.misses)
    }

    /// Locks the cache, scoping invalidation to what actually changed: a
    /// different store clears everything; a dictionary change clears only
    /// the variable resolutions (estimates are content-addressed and carry
    /// their own partition dependencies, so event-side changes never evict
    /// them here).
    fn lock_valid(&self, store: &EventStore) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.store_id != store.store_id() {
            g.vars.clear();
            g.estimates.clear();
            g.store_id = store.store_id();
            g.dict_epoch = store.dict_epoch();
        } else if g.dict_epoch != store.dict_epoch() {
            g.vars.clear();
            g.dict_epoch = store.dict_epoch();
        }
        g
    }
}

fn evict_lru<T>(map: &mut HashMap<String, (T, u64)>) {
    while map.len() > PlanCache::CAPACITY {
        let Some(oldest) = map
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        map.remove(&oldest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_multievent;
    use aiql_lang::parse_query;
    use aiql_model::{AgentId, Operation, Timestamp};
    use aiql_storage::{EntitySpec, EventStore, RawEvent};

    /// A store where writes vastly outnumber `osql.exe` process starts.
    fn skewed_store() -> EventStore {
        let mut s = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..500 {
            raws.push(RawEvent::instant(
                AgentId(1),
                Operation::Write,
                EntitySpec::process(1, "sqlservr.exe", "mssql"),
                EntitySpec::file(&format!("/data/f{i}"), "mssql"),
                Timestamp::from_secs(i),
                100,
            ));
        }
        raws.push(RawEvent::instant(
            AgentId(1),
            Operation::Start,
            EntitySpec::process(2, "cmd.exe", "admin"),
            EntitySpec::process(3, "osql.exe", "admin"),
            Timestamp::from_secs(50),
            0,
        ));
        s.ingest_all(&raws);
        s
    }

    fn analyzed(src: &str, store: &EventStore) -> AnalyzedMultievent {
        let q = parse_query(src).unwrap();
        let aiql_lang::Query::Multievent(m) = q else {
            panic!()
        };
        analyze_multievent(&m, store).unwrap()
    }

    #[test]
    fn selective_pattern_scheduled_first() {
        let store = skewed_store();
        // Source order: the huge write pattern first, the rare start second.
        let a = analyzed(
            r#"proc p3 write file f1 as evt2
               proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
               return p1"#,
            &store,
        );
        let plan = prepare(&a, &store, true, None).plan;
        assert_eq!(plan.order[0], 1, "start pattern must run first");
        assert!(plan.estimates[1] < plan.estimates[0]);
    }

    #[test]
    fn source_order_kept_without_prioritization() {
        let store = skewed_store();
        let a = analyzed(
            r#"proc p3 write file f1 as evt2
               proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
               return p1"#,
            &store,
        );
        let plan = prepare(&a, &store, false, None).plan;
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn unsatisfiable_variable_resolves_to_empty() {
        let store = skewed_store();
        let a = analyzed(
            r#"proc p["not_in_dictionary.exe"] write file f as e return p"#,
            &store,
        );
        let ctx = prepare(&a, &store, true, None);
        assert_eq!(ctx.resolved[0], Some(vec![]));
        // And the estimate reflects maximal pruning.
        assert_eq!(ctx.plan.estimates[0], 0);
    }

    #[test]
    fn unconstrained_variable_resolves_to_none() {
        let store = skewed_store();
        let a = analyzed("proc p write file f as e return p", &store);
        let resolved = prepare(&a, &store, true, None).resolved;
        assert!(resolved.iter().all(Option::is_none));
    }

    #[test]
    fn prepare_matches_uncached_resolution_and_plan() {
        let store = skewed_store();
        let a = analyzed(
            r#"proc p3 write file f1 as evt2
               proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
               return p1"#,
            &store,
        );
        let uncached = prepare(&a, &store, true, None);
        let cache = PlanCache::default();
        for round in 0..3 {
            let ctx = prepare(&a, &store, true, Some(&cache));
            assert_eq!(ctx.resolved, uncached.resolved, "round {round}");
            assert_eq!(ctx.plan.order, uncached.plan.order);
            assert_eq!(ctx.plan.estimates, uncached.plan.estimates);
        }
        let (hits, misses) = cache.counters();
        assert!(hits > 0, "repeat rounds must hit");
        assert!(misses > 0, "first round must miss");
    }

    #[test]
    fn plan_cache_invalidates_on_store_epoch_bump() {
        let mut store = skewed_store();
        let a = analyzed(r#"proc p["%osql.exe"] start proc q as e return p"#, &store);
        let cache = PlanCache::default();
        let before = prepare(&a, &store, true, Some(&cache));
        assert_eq!(before.resolved[0].as_ref().map(Vec::len), Some(1));
        // Ingest a second osql.exe process: the dictionary changes, the
        // epoch bumps, and the cached resolution must not survive.
        store.ingest_all(&[aiql_storage::RawEvent::instant(
            AgentId(1),
            Operation::Start,
            EntitySpec::process(9, "cmd.exe", "admin"),
            EntitySpec::process(10, "/tools/osql.exe", "admin"),
            Timestamp::from_secs(60),
            0,
        )]);
        let after = prepare(&a, &store, true, Some(&cache));
        assert_eq!(after.resolved[0].as_ref().map(Vec::len), Some(2));
        let fresh = prepare(&a, &store, true, None);
        assert_eq!(after.resolved, fresh.resolved);
        assert_eq!(after.plan.estimates, fresh.plan.estimates);
    }

    #[test]
    fn plan_cache_survives_ingest_into_untouched_partition() {
        // All seed events live on day 01/01/1970 (bucket ~0); the query
        // windows itself to that day.
        let mut store = skewed_store();
        let a = analyzed(
            r#"(at "01/01/1970") proc p["%osql.exe"] start proc q as e return p"#,
            &store,
        );
        let cache = PlanCache::default();
        let first = prepare(&a, &store, true, Some(&cache));
        let (h0, m0) = cache.counters();
        assert!(m0 > 0);
        let warm = prepare(&a, &store, true, Some(&cache));
        let (h1, m1) = cache.counters();
        assert!(h1 > h0, "repeat execution must hit");
        assert_eq!(m1, m0);
        // Ingest two days later, reusing existing entity specs: a new
        // partition appears, but the dictionary and the day-0 buckets are
        // untouched — the cached plan must survive.
        store.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(1, "sqlservr.exe", "mssql"),
            EntitySpec::file("/data/f0", "mssql"),
            Timestamp::from_secs(2 * 86_400),
            100,
        )]);
        let after = prepare(&a, &store, true, Some(&cache));
        let (h2, m2) = cache.counters();
        assert!(h2 > h1, "ingest into an untouched partition must not evict");
        assert_eq!(m2, m1, "no entry may be recomputed");
        assert_eq!(after.plan.estimates, warm.plan.estimates);
        assert_eq!(after.resolved, first.resolved);
        // Ingest into the day the query reads: now the estimate must be
        // recomputed (and match a cache-free run).
        store.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Start,
            EntitySpec::process(2, "cmd.exe", "admin"),
            EntitySpec::process(3, "osql.exe", "admin"),
            Timestamp::from_secs(55),
            0,
        )]);
        let touched = prepare(&a, &store, true, Some(&cache));
        let (_, m3) = cache.counters();
        assert!(m3 > m2, "ingest into a read partition must recompute");
        let fresh = prepare(&a, &store, true, None);
        assert_eq!(touched.plan.estimates, fresh.plan.estimates);
    }

    #[test]
    fn estimate_cache_detects_new_partition_inside_range() {
        // Unwindowed query: every partition is in range, so a new time
        // bucket must invalidate the estimate even though no existing
        // partition changed.
        let mut store = skewed_store();
        let a = analyzed(r#"proc p write file f as e return p"#, &store);
        let cache = PlanCache::default();
        let before = prepare(&a, &store, true, Some(&cache));
        store.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(1, "sqlservr.exe", "mssql"),
            EntitySpec::file("/data/f0", "mssql"),
            Timestamp::from_secs(2 * 86_400),
            100,
        )]);
        let after = prepare(&a, &store, true, Some(&cache));
        let fresh = prepare(&a, &store, true, None);
        assert_eq!(after.plan.estimates, fresh.plan.estimates);
        assert!(
            after.plan.estimates[0] > before.plan.estimates[0],
            "the new partition's rows must be counted"
        );
    }

    #[test]
    fn plan_cache_is_store_scoped() {
        let store_a = skewed_store();
        let mut store_b = EventStore::default();
        store_b.ingest_all(&[aiql_storage::RawEvent::instant(
            AgentId(1),
            Operation::Start,
            EntitySpec::process(1, "cmd.exe", "x"),
            EntitySpec::process(2, "osql.exe", "x"),
            Timestamp::from_secs(1),
            0,
        )]);
        let cache = PlanCache::default();
        let qa = analyzed(
            r#"proc p["%sqlservr.exe"] write file f as e return p"#,
            &store_a,
        );
        let ra = prepare(&qa, &store_a, true, Some(&cache));
        // Same constraint text against a different store must not reuse the
        // other store's cached ids.
        let qb = analyzed(
            r#"proc p["%sqlservr.exe"] write file f as e return p"#,
            &store_b,
        );
        let rb = prepare(&qb, &store_b, true, Some(&cache));
        assert_eq!(ra.resolved[0].as_ref().map(Vec::len), Some(1));
        assert_eq!(rb.resolved[0].as_ref().map(Vec::len), Some(0));
    }
}
