//! Property-based validation of the sliding-window anomaly operator
//! against a from-first-principles reference computation.

use std::collections::BTreeMap;

use aiql_engine::{Engine, EngineConfig};
use aiql_model::{AgentId, Operation, Timestamp, Value};
use aiql_storage::{EntitySpec, EventStore, RawEvent, StoreConfig};
use proptest::prelude::*;

/// Transfers of `amount` bytes by process `p{proc_id}` at second `t`.
fn arb_transfer() -> impl Strategy<Value = (u32, i64, u64)> {
    (0u32..4, 0i64..2_000, 1u64..10_000)
}

fn build_store(transfers: &[(u32, i64, u64)]) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        dedup: false,
        ..StoreConfig::default()
    });
    let raws: Vec<RawEvent> = transfers
        .iter()
        .map(|&(p, t, amount)| {
            RawEvent::instant(
                AgentId(1),
                Operation::Write,
                EntitySpec::process(100 + p, &format!("proc{p}.exe"), "u"),
                EntitySpec::tcp(
                    aiql_model::IpV4::from_octets(10, 0, 0, 1),
                    40_000,
                    aiql_model::IpV4::from_octets(10, 0, 4, 129),
                    443,
                ),
                Timestamp::from_secs(t),
                amount,
            )
        })
        .collect();
    store.ingest_all(&raws);
    store
}

/// Reference: per 100s window (step 50s), per process, sum of amounts;
/// report (process, sum) whenever sum > threshold.
fn reference_rows(
    transfers: &[(u32, i64, u64)],
    window_s: i64,
    step_s: i64,
    threshold: u64,
) -> Vec<(String, i64)> {
    if transfers.is_empty() {
        return Vec::new();
    }
    let min_t = transfers.iter().map(|t| t.1).min().unwrap();
    let max_t = transfers.iter().map(|t| t.1).max().unwrap();
    let mut rows = Vec::new();
    let mut w = min_t;
    while w <= max_t {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        // Insertion order by first event time within the window mirrors the
        // engine's group ordering, but we compare as sets anyway.
        for &(p, t, amount) in transfers {
            if t >= w && t < w + window_s {
                *sums.entry(p).or_default() += amount;
            }
        }
        for (p, sum) in sums {
            if sum > threshold {
                rows.push((format!("proc{p}.exe"), sum as i64));
            }
        }
        w += step_s;
    }
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The window operator's (group, sum) rows match the reference for
    /// arbitrary event placements.
    #[test]
    fn window_sums_match_reference(transfers in proptest::collection::vec(arb_transfer(), 1..60),
                                   threshold in 0u64..20_000) {
        let store = build_store(&transfers);
        let engine = Engine::new(EngineConfig::default());
        let src = format!(
            r#"window = 100 sec, step = 50 sec
               proc p write ip i as evt
               return p, sum(evt.amount) as vol
               group by p
               having vol > {threshold}"#
        );
        let table = engine.execute_text(&store, &src).unwrap();
        let mut got: Vec<(String, i64)> = table
            .rows
            .iter()
            .map(|r| {
                let name = r[0].render(store.interner());
                let vol = r[1].as_i64().unwrap();
                (name, vol)
            })
            .collect();
        got.sort();
        let want = reference_rows(&transfers, 100, 50, threshold);
        prop_assert_eq!(got, want);
    }

    /// History access: `vol[1]` equals the previous window's `vol` for the
    /// same group — checked via a query that *requires* the previous-window
    /// value to equal the current one (only constant-rate groups match).
    #[test]
    fn history_lag_semantics(rate in 1u64..100, windows in 2usize..6) {
        // One process transferring `rate` bytes exactly once per step.
        let transfers: Vec<(u32, i64, u64)> = (0..windows as i64 * 2)
            .map(|k| (0, k * 50, rate))
            .collect();
        let store = build_store(&transfers);
        let engine = Engine::new(EngineConfig::default());
        // Tumbling windows (step == window) so each event counts once.
        let src = r#"window = 50 sec, step = 50 sec
               proc p write ip i as evt
               return p, sum(evt.amount) as vol
               group by p
               having vol = vol[1]"#;
        let table = engine.execute_text(&store, src).unwrap();
        // All windows after the first satisfy vol = vol[1] (constant rate);
        // the first window's history is 0 ≠ rate.
        prop_assert_eq!(table.rows.len(), windows * 2 - 1);
        for row in &table.rows {
            prop_assert_eq!(row[1], Value::Int(rate as i64));
        }
    }

    /// One tumbling window that covers every event is the multievent
    /// `group by`: the two query kinds aggregate through one accumulator,
    /// whatever the argument's type (`count` of a string counts it, `min`
    /// of a time is a time).
    #[test]
    fn one_covering_window_equals_multievent_group_by(
        transfers in proptest::collection::vec(arb_transfer(), 1..60),
    ) {
        let store = build_store(&transfers);
        let engine = Engine::new(EngineConfig::default());
        let aggs: Vec<String> = ["count", "min", "max", "sum", "avg"]
            .iter()
            .flat_map(|f| {
                ["p.exe_name", "evt.starttime", "evt.amount"]
                    .iter()
                    .map(move |arg| format!("{f}({arg})"))
            })
            .collect();
        for group in ["p", "i"] {
            let body = format!(
                "proc p write ip i as evt return {group}, count(p), {} group by {group}",
                aggs.join(", ")
            );
            let multievent = engine.execute_text(&store, &body).unwrap().normalized();
            let windowed = engine
                .execute_text(&store, &format!("window = 1 day, step = 1 day {body}"))
                .unwrap()
                .normalized();
            prop_assert_eq!(&windowed.columns, &multievent.columns);
            prop_assert_eq!(windowed.rows, multievent.rows, "group by {}", group);
        }
    }

    /// The naive (baseline) window assignment returns identical rows.
    #[test]
    fn naive_assignment_equivalent(transfers in proptest::collection::vec(arb_transfer(), 1..40)) {
        let store = build_store(&transfers);
        let src = r#"window = 100 sec, step = 30 sec
               proc p write ip i as evt
               return p, count(evt.amount) as n, avg(evt.amount) as m
               group by p
               having n >= 1"#;
        let engine = Engine::new(EngineConfig::default());
        let fast = engine.execute_text(&store, src).unwrap().normalized();
        let slow = aiql_baseline::RelationalEngine::new(false)
            .execute_text(&store, src)
            .unwrap()
            .normalized();
        prop_assert_eq!(fast.rows, slow.rows);
    }
}
