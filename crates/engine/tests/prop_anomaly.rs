//! Property-based validation of the sliding-window anomaly operator
//! against a from-first-principles reference computation.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use aiql_engine::{Engine, EngineConfig, ExecBudget, ResultTable, Rows, Warning};
use aiql_model::{AgentId, Event, Operation, TimeWindow, Timestamp, Value};
use aiql_storage::{EntitySpec, EventFilter, EventStore, RawEvent, StoreConfig};
use proptest::prelude::*;

/// Transfers of `amount` bytes by process `p{proc_id}` at second `t`.
fn arb_transfer() -> impl Strategy<Value = (u32, i64, u64)> {
    (0u32..4, 0i64..2_000, 1u64..10_000)
}

fn build_store(transfers: &[(u32, i64, u64)]) -> EventStore {
    let to_one_host: Vec<_> = transfers.iter().map(|&(p, t, a)| (p, 129, t, a)).collect();
    build_store_to_hosts(&to_one_host)
}

/// Transfers of `amount` bytes by process `p{proc_id}` to host
/// `10.0.4.{host}` at second `t`.
fn build_store_to_hosts(transfers: &[(u32, u8, i64, u64)]) -> EventStore {
    let mut store = EventStore::new(StoreConfig {
        dedup: false,
        ..StoreConfig::default()
    });
    let raws: Vec<RawEvent> = transfers
        .iter()
        .map(|&(p, host, t, amount)| {
            RawEvent::instant(
                AgentId(1),
                Operation::Write,
                EntitySpec::process(100 + p, &format!("proc{p}.exe"), "u"),
                EntitySpec::tcp(
                    aiql_model::IpV4::from_octets(10, 0, 0, 1),
                    40_000,
                    aiql_model::IpV4::from_octets(10, 0, 4, host),
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

/// One windowed group-by: `return [distinct] <group>, <func>(<arg>) as v,
/// count(evt.amount) as n group by <group> having <form>`.
#[derive(Debug, Clone)]
struct Spec {
    length_s: i64,
    step_s: i64,
    /// `(at "…")` day, or `None` for the data's span.
    at: Option<&'static str>,
    func: &'static str,
    arg: &'static str,
    group: &'static [&'static str],
    /// 0 none, 1 `n >= n[lag]`, 2 `v = v[lag]`, 3 `n > c`,
    /// 4 `v > v[lag] or n < n[lag]`, 5 `n[lag] < 1` (quiet back then).
    having: usize,
    lag: u32,
    c: i64,
    distinct: bool,
}

impl Spec {
    fn query(&self) -> String {
        let at = self
            .at
            .map(|d| format!("(at \"{d}\") "))
            .unwrap_or_default();
        let (lag, c) = (self.lag, self.c);
        let having = match self.having {
            1 => format!("having n >= n[{lag}]"),
            2 => format!("having v = v[{lag}]"),
            3 => format!("having n > {c}"),
            4 => format!("having v > v[{lag}] or n < n[{lag}]"),
            5 => format!("having n[{lag}] < 1"),
            _ => String::new(),
        };
        let (keys, group_by) = match self.group.join(", ") {
            g if g.is_empty() => (g, String::new()),
            g => (format!("{g}, "), format!("group by {g}")),
        };
        format!(
            "{at}window = {} sec, step = {} sec proc p write ip i as evt \
             return {}{keys}{}({}) as v, count(evt.amount) as n {group_by} {having}",
            self.length_s,
            self.step_s,
            if self.distinct { "distinct " } else { "" },
            self.func,
            self.arg,
        )
    }
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    const FUNCS: [&str; 5] = ["count", "sum", "avg", "min", "max"];
    const ARGS: [&str; 3] = ["evt.amount", "evt.starttime", "p.exe_name"];
    const GROUPS: [&[&str]; 4] = [&["p"], &["i"], &["p", "i"], &[]];
    (
        (0usize..4, 1i64..40, 1i64..40),
        (0usize..5, 0usize..3, 0usize..4),
        (0usize..6, 0u32..4, 0i64..3, 0u8..2),
    )
        .prop_map(
            |((shape, a, b), (func, arg, group), (having, lag, c, distinct))| {
                let (length_s, step_s) = match shape {
                    0 => (a, a),                           // tumbling
                    1 => (a.min(b), a.max(b) + 1),         // gaps between windows
                    2 => (2 * (a + 1) + 1 + b % a, a + 1), // overlap, not a multiple
                    _ => (a, b),
                };
                Spec {
                    length_s,
                    step_s,
                    at: None,
                    func: FUNCS[func],
                    arg: ARGS[arg],
                    group: GROUPS[group],
                    having,
                    lag,
                    c,
                    distinct: distinct == 1,
                }
            },
        )
}

/// The query's rows by definition, from the store's events and the model
/// alone: events sorted (stably) by start time; windows `[s, s + length)`
/// stepped from the range start (the `at` day, else the first event's
/// start) while `s` is before the range end (the `at` day's end, else just
/// past the last event's start); per window, groups in first-occurrence
/// order; `alias[k]` is the group's value `k` windows earlier, `0.0` when
/// the group had no events there.
fn oracle(store: &EventStore, spec: &Spec) -> Vec<Vec<Value>> {
    let mut events = store.scan_collect(&EventFilter::all());
    if let Some(day) = spec.at {
        let day = TimeWindow::parse_day(day).unwrap();
        events.retain(|e| day.contains(e.start_time));
    }
    events.sort_by_key(|e| e.start_time);
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return Vec::new();
    };
    let (start, end) = match spec.at.map(|d| TimeWindow::parse_day(d).unwrap()) {
        Some(day) => (day.start.micros(), day.end.micros()),
        None => (first.start_time.micros(), last.start_time.micros() + 1),
    };
    let entity = |id| store.entities().get(id).attrs.default_value();
    let arg = |e: &Event| match spec.arg {
        "evt.amount" => Value::Int(e.amount as i64),
        "evt.starttime" => Value::Time(e.start_time),
        _ => store.entities().get(e.subject).get("exe_name").unwrap(),
    };
    let key = |e: &Event| -> Vec<Value> {
        (spec.group.iter())
            .map(|g| entity(if *g == "p" { e.subject } else { e.object }))
            .collect()
    };
    let (length, step) = (spec.length_s * 1_000_000, spec.step_s * 1_000_000);
    let mut history: HashMap<(String, usize), (Value, Value)> = HashMap::new();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for (k, s) in (start..end).step_by(step as usize).enumerate() {
        let mut groups: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
        for e in events
            .iter()
            .filter(|e| (s..s + length).contains(&e.start_time.micros()))
        {
            match groups.iter_mut().find(|(g, _)| *g == key(e)) {
                Some((_, args)) => args.push(arg(e)),
                None => groups.push((key(e), vec![arg(e)])),
            }
        }
        for (group, args) in groups {
            let now = (aggregate(spec.func, &args), Value::Int(args.len() as i64));
            let name = format!("{group:?}");
            let zero = (Value::Float(0.0), Value::Float(0.0));
            let lag = spec.lag as usize;
            let (v_then, n_then) = match k.checked_sub(lag) {
                _ if lag == 0 => now,
                Some(then) => history.get(&(name.clone(), then)).copied().unwrap_or(zero),
                None => zero,
            };
            history.insert((name, k), now);
            let (v, n) = now;
            let is = |x: Value, y: Value, want: &[std::cmp::Ordering]| {
                x.compare(y).is_some_and(|o| want.contains(&o))
            };
            use std::cmp::Ordering::{Equal, Greater, Less};
            let keep = match spec.having {
                1 => is(n, n_then, &[Greater, Equal]),
                2 => is(v, v_then, &[Equal]),
                3 => is(n, Value::Int(spec.c), &[Greater]),
                4 => is(v, v_then, &[Greater]) || is(n, n_then, &[Less]),
                5 => is(n_then, Value::Int(1), &[Less]),
                _ => true,
            };
            if keep {
                rows.push(group.into_iter().chain([v, n]).collect());
            }
        }
    }
    if spec.distinct {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        rows.retain(|r| {
            !seen.contains(r) && {
                seen.push(r.clone());
                true
            }
        });
    }
    rows
}

/// `count` / `sum` / `avg` / `min` / `max` over one group's arguments, in
/// arrival order (an `f64` running sum, as SQL engines keep one).
fn aggregate(func: &str, args: &[Value]) -> Value {
    let sum = args
        .iter()
        .filter_map(|v| v.as_f64())
        .fold(0.0, |a, b| a + b);
    let pick = |want| {
        let better = |x: &Value, y: &Value| x.compare(*y) == Some(want);
        *args
            .iter()
            .reduce(|m, v| if better(v, m) { v } else { m })
            .unwrap()
    };
    match func {
        "count" => Value::Int(args.len() as i64),
        "sum" if args.iter().all(|v| matches!(v, Value::Int(_))) => Value::Int(sum as i64),
        "sum" => Value::Float(sum),
        "avg" => Value::Float(sum / args.len() as f64),
        "min" => pick(std::cmp::Ordering::Less),
        _ => pick(std::cmp::Ordering::Greater),
    }
}

/// Runs `spec` on the engine and checks it returns the oracle's rows, in
/// the oracle's order — row order is what a partial result's prefix is
/// taken from.
fn assert_matches_oracle(store: &EventStore, spec: &Spec) {
    let src = spec.query();
    let table = Engine::new(EngineConfig::default())
        .execute_text(store, &src)
        .unwrap();
    assert!(complete(&table), "{src}");
    assert_eq!(
        table.rows,
        oracle(store, spec).iter().collect::<Rows>(),
        "{src}"
    );
}

/// Neither truncated nor warned (a table is `truncated` exactly when it
/// carries a warning).
fn complete(t: &ResultTable) -> bool {
    !t.truncated && t.warnings.is_empty()
}

/// Runs `spec` with its fetch capped at `cap` tuples: a cut fetch says so
/// with the one warning that names the cap, at the seed level (the only
/// one an anomaly's single pattern has); an uncut one warns nothing.
fn assert_capped_fetch_names_the_cap(store: &EventStore, spec: &Spec, cap: usize) {
    let src = spec.query();
    let budget = ExecBudget::unlimited().with_max_tuples(cap);
    let table = Engine::new(EngineConfig::default())
        .execute_text_with_budget(store, &src, &budget)
        .unwrap();
    match table.warnings[..] {
        [] => assert!(!table.truncated, "{src}"),
        [Warning::TupleCap {
            cap: c,
            cut_level: 0,
            runs_driven,
            runs,
        }] => assert!(
            table.truncated && c == cap && runs_driven <= runs,
            "{src}: {:?}",
            table.warnings
        ),
        ref other => panic!("{src}: a capped fetch warned {other:?}"),
    }
}

/// Transfers by four processes to three hosts over ten minutes (with
/// start-time ties).
fn arb_transfers_to_hosts() -> impl Strategy<Value = Vec<(u32, u8, i64, u64)>> {
    proptest::collection::vec((0u32..4, 1u8..4, 0i64..600, 1u64..10_000), 1..50)
}

/// A whole-day query over a few events near midnight, 1 Jan 1970.
fn day_spec(length_s: i64, step_s: i64, having: usize, lag: u32) -> Spec {
    Spec {
        length_s,
        step_s,
        at: Some("01/01/1970"),
        func: "sum",
        arg: "evt.amount",
        group: &["p"],
        having,
        lag,
        c: 0,
        distinct: false,
    }
}

/// History state is kept per group for the lags the query names: neither a
/// lag of four billion windows nor 86 400 one-second windows over a day
/// makes it allocate per window or per lag.
#[test]
fn history_state_scales_with_neither_lag_nor_window_count() {
    let transfers: Vec<_> = (0..40i64)
        .map(|k| ((k % 3) as u32, 1, (k * 7_919) % 86_400, 1 + k as u64 % 5))
        .collect();
    let store = build_store_to_hosts(&transfers);
    for spec in [
        day_spec(60, 60, 1, 4_000_000_000),
        day_spec(1, 1, 1, 1),
        day_spec(1, 1, 4, 3),
        day_spec(3_600, 1, 0, 0),
    ] {
        let t0 = Instant::now();
        assert_matches_oracle(&store, &spec);
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "{} took {:?}",
            spec.query(),
            t0.elapsed()
        );
    }
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

    /// Any window shape, aggregate, grouping, history lag and `distinct`:
    /// the engine returns the independent oracle's rows in its order.
    #[test]
    fn windowed_group_by_matches_the_oracle_in_order(
        transfers in arb_transfers_to_hosts(),
        spec in arb_spec(),
    ) {
        let store = build_store_to_hosts(&transfers);
        assert_matches_oracle(&store, &spec);
        assert_capped_fetch_names_the_cap(&store, &spec, transfers.len() / 2);
    }

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
        prop_assert!(complete(&table));
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
        prop_assert!(complete(&table));
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
                .unwrap();
            prop_assert!(complete(&windowed));
            let windowed = windowed.normalized();
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
        let fast = engine.execute_text(&store, src).unwrap();
        prop_assert!(complete(&fast));
        let fast = fast.normalized();
        let slow = aiql_baseline::RelationalEngine::new(false)
            .execute_text(&store, src)
            .unwrap()
            .normalized();
        prop_assert_eq!(fast.rows, slow.rows);
    }
}

/// An anomaly query's fetch plans through the engine's plan cache: an
/// identical second run hits the cache and recomputes nothing.
#[test]
fn repeated_anomaly_query_reuses_cached_plans() {
    let transfers: Vec<_> = (0..40i64)
        .map(|k| ((k % 3) as u32, k * 13, 100 + k as u64))
        .collect();
    let store = build_store(&transfers);
    let engine = Engine::new(EngineConfig::default());
    let src = r#"window = 100 sec, step = 50 sec
                 proc p["%proc1.exe"] write ip i as evt
                 return p, sum(evt.amount) as amt
                 group by p"#;
    let first = engine.execute_text(&store, src).unwrap();
    assert!(!first.rows.is_empty(), "the query must find transfers");
    let (hits, misses) = engine.plan_cache_counters();
    assert!(misses > 0, "the first run plans afresh");
    let again = engine.execute_text(&store, src).unwrap();
    let (hits2, misses2) = engine.plan_cache_counters();
    assert!(
        hits2 > hits,
        "a repeated anomaly query must hit the plan cache"
    );
    assert_eq!(misses2, misses, "and recompute nothing");
    assert_eq!(again.rows, first.rows);
}
