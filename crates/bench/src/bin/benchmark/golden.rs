//! The correctness gate: result digests, the golden digests of the default
//! seed, and the comparison against the relational baseline at any other.

use aiql_baseline::RelationalEngine;
use aiql_engine::{Engine, ResultTable};
use aiql_model::{Interner, Value};
use aiql_storage::EventStore;

use crate::workload::{Kind, QueryEntry};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// One row's hash. Strings hash by content, not by interned id, so the
/// digest does not depend on dictionary order; floats hash to four decimal
/// places, the precision results are rendered at.
fn row_hash(row: &[Value], interner: &Interner) -> u64 {
    row.iter().fold(FNV_OFFSET, |h, v| match *v {
        Value::Null => fnv1a(h, b"n"),
        Value::Int(i) => fnv1a(fnv1a(h, b"i"), &i.to_le_bytes()),
        Value::Float(f) => fnv1a(fnv1a(h, b"f"), &((f * 1e4).round() as i64).to_le_bytes()),
        Value::Str(s) => fnv1a(fnv1a(h, b"s"), interner.resolve(s).as_bytes()),
        Value::Ip(ip) => fnv1a(fnv1a(h, b"a"), &ip.0.to_le_bytes()),
        Value::Time(t) => fnv1a(fnv1a(h, b"t"), &t.micros().to_le_bytes()),
        Value::Bool(b) => fnv1a(fnv1a(h, b"b"), &[u8::from(b)]),
    })
}

/// FNV-1a digest of a result: column names, then every row in order.
pub fn digest(table: &ResultTable, interner: &Interner) -> u64 {
    let mut h = FNV_OFFSET;
    for c in &table.columns {
        h = fnv1a(fnv1a(h, c.as_bytes()), &[0x1f]);
    }
    for row in &table.rows {
        h = fnv1a(h, &row_hash(row, interner).to_le_bytes());
    }
    h
}

fn sorted_row_hashes(table: &ResultTable, interner: &Interner) -> Vec<u64> {
    let mut v: Vec<u64> = table.rows.iter().map(|r| row_hash(r, interner)).collect();
    v.sort_unstable();
    v
}

/// Failure messages kept for the report; the count is never capped.
const MAX_MESSAGES: usize = 12;

/// Counts every operation whose answer was checked and every one that
/// failed: an error, a shed or degraded response, a truncated or empty
/// result, or an answer that differs from an earlier run, the golden
/// digest, or the baseline.
#[derive(Debug)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Per query of the list: digest and row count of its first result.
    seen: Vec<Option<(u64, usize)>>,
}

impl Gate {
    pub fn new(queries: usize) -> Self {
        Gate {
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            seen: vec![None; queries],
        }
    }

    /// Counts one checked operation.
    pub fn count(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(message);
            }
        }
    }

    /// Checks query `i`'s result against its first one: by row count, or by
    /// full digest when `full` (hashing every row costs as much as a small
    /// query, so the timed loop checks counts and its edges check digests).
    pub fn observe<E: std::fmt::Display>(
        &mut self,
        i: usize,
        id: &str,
        result: &Result<ResultTable, E>,
        store: &EventStore,
        full: bool,
    ) {
        let outcome = match result {
            Err(e) => Err(format!("{id}: {e}")),
            Ok(t) if t.truncated || !t.warnings.is_empty() => Err(format!("{id}: truncated")),
            Ok(t) if t.rows.is_empty() => Err(format!("{id}: no evidence")),
            Ok(t) => match self.seen[i] {
                None => {
                    self.seen[i] = Some((digest(t, store.interner()), t.rows.len()));
                    Ok(())
                }
                Some((_, rows)) if rows != t.rows.len() => {
                    Err(format!("{id}: {} rows, earlier {rows}", t.rows.len()))
                }
                Some((d, _)) if full && d != digest(t, store.interner()) => {
                    Err(format!("{id}: digest changed between runs"))
                }
                Some(_) => Ok(()),
            },
        };
        self.count(outcome);
    }

    /// The closing check: every query once more by full digest, then against
    /// the golden digests when the run has them, or row for row (as sorted
    /// multisets) against the relational baseline, which shares no executor
    /// with the engine.
    pub fn verify(
        &mut self,
        engine: &Engine,
        store: &EventStore,
        list: &[QueryEntry],
        golden: Option<&[(&str, u64)]>,
    ) {
        let oracle = RelationalEngine::new(true);
        for (i, q) in list.iter().enumerate() {
            let result = engine.execute_text(store, &q.text);
            self.observe(i, q.id, &result, store, true);
            let Ok(table) = result else { continue };
            let outcome = match golden {
                Some(golden) => match golden.iter().find(|(id, _)| *id == q.id) {
                    Some(&(_, want)) if want == digest(&table, store.interner()) => Ok(()),
                    Some(_) => Err(format!("{}: digest differs from golden", q.id)),
                    None => Err(format!("{}: no golden digest", q.id)),
                },
                None => match oracle.execute_text(store, &q.text) {
                    Err(e) => Err(format!("{}: baseline failed: {e}", q.id)),
                    Ok(want) => {
                        let same = want.columns == table.columns
                            && sorted_row_hashes(&want, store.interner())
                                == sorted_row_hashes(&table, store.interner());
                        same.then_some(())
                            .ok_or_else(|| format!("{}: differs from relational baseline", q.id))
                    }
                },
            };
            self.count(outcome);
        }
    }

    /// `(id, digest)` of every query seen, which every report ends with.
    pub fn seen_digests(&self, list: &[QueryEntry]) -> Vec<(&'static str, u64)> {
        list.iter()
            .zip(&self.seen)
            .filter_map(|(q, s)| s.map(|(d, _)| (q.id, d)))
            .collect()
    }
}

/// Golden digests at the default seed and full scale, per workload. The
/// two ingest workloads load the same day, and must answer alike however
/// they batched it. When results change on purpose, every run's report
/// ends with its digests as the rows of these tables.
pub fn golden(kind: Kind) -> &'static [(&'static str, u64)] {
    match kind {
        Kind::Investigate => INVESTIGATE,
        Kind::Hunt => HUNT,
        Kind::ServeUnderIngest | Kind::BulkLoad => DEMO_DAY,
    }
}

const INVESTIGATE: &[(&str, u64)] = &[
    ("a1-1", 0x51178211a2c30a32),
    ("a1-2", 0x98243a6e0e093144),
    ("a1-3", 0xe62a3a63bf948b08),
    ("a1-4", 0xa7a47eee2aee3a5f),
    ("a2-1", 0x54ddc7e1ab102043),
    ("a2-2", 0x26fef9dae2c796f2),
    ("a2-3", 0x659a9f36106cd039),
    ("a3-1", 0xb52754b90a67e2dd),
    ("a3-2", 0xbc7c98a52f9ed99d),
    ("a3-3", 0x0b53d5d58d6caa85),
    ("a4-1", 0x5fa9119eaf7ab870),
    ("a4-2", 0x7df12c2e78e8f968),
    ("a4-3", 0xf6858d53393a92b2),
    ("a4-4", 0xcc8dce9c99abdeea),
    ("a5-1", 0xf7431801fe92e93c),
    ("a5-2", 0x6e947bc0ad36aee5),
    ("a5-3", 0xbf4622790743f99d),
    ("a5-4", 0xc84acb818907cbc8),
    ("a5-5", 0x3083f845b0b4a86b),
    ("c1-1", 0xc581426af5f53d68),
    ("c2-1", 0xe4759a3ce1a52f6c),
    ("c2-2", 0xbf85ac109c5b99a5),
    ("c2-3", 0x26409b458f6629f3),
    ("c2-4", 0x8128811bccacbd36),
    ("c2-5", 0x1c564c59aba031d0),
    ("c2-6", 0xf80de0ad7c3f7594),
    ("c2-7", 0xcb09ab440d06bf7a),
    ("c2-8", 0x3a17979b10e927b4),
    ("c3-1", 0x8fe345411100250c),
    ("c3-2", 0xe00b316d9c4b71b7),
    ("c4-1", 0x5ae02da70956f6dc),
    ("c4-2", 0x2e26ee9e0bd18328),
    ("c4-3", 0x1f9dd502cabece4e),
    ("c4-4", 0x70884dc986a45a40),
    ("c4-5", 0x1a3cc0c84a446668),
    ("c4-6", 0xe618767f442d5a98),
    ("c4-7", 0xec70732ac8a40efd),
    ("c4-8", 0xa4ca78d14e9728a1),
    ("c5-1", 0xcbbb5dce99681869),
    ("c5-2", 0x0960d9a69d2abad6),
    ("c5-3", 0x2b2bc564e7011e19),
    ("c5-4", 0xb93bcddfd6b80172),
    ("c5-5", 0xca728c2d28a3793a),
    ("c5-6", 0x447a59d9bcc3624f),
    ("c5-7", 0x52df9cadb6b2c02e),
];
const HUNT: &[(&str, u64)] = &[
    ("chain4_count", 0xed2bca890ced70a2),
    ("exfil3_rows", 0x8c612affe43e0941),
    ("exfil3_distinct", 0x4acf8afa3202c861),
];
const DEMO_DAY: &[(&str, u64)] = &[
    ("a1-1", 0x51178211a2c30a32),
    ("a1-2", 0x98243a6e0e093144),
    ("a1-3", 0xe62a3a63bf948b08),
    ("a1-4", 0xa7a47eee2aee3a5f),
    ("a2-1", 0x54ddc7e1ab102043),
    ("a2-2", 0x26fef9dae2c796f2),
    ("a2-3", 0x659a9f36106cd039),
    ("a3-1", 0xb52754b90a67e2dd),
    ("a3-2", 0xbc7c98a52f9ed99d),
    ("a3-3", 0x0b53d5d58d6caa85),
    ("a4-1", 0x5fa9119eaf7ab870),
    ("a4-2", 0x7df12c2e78e8f968),
    ("a4-3", 0xf6858d53393a92b2),
    ("a4-4", 0xcc8dce9c99abdeea),
    ("a5-1", 0xf7431801fe92e93c),
    ("a5-2", 0x6e947bc0ad36aee5),
    ("a5-3", 0xbf4622790743f99d),
    ("a5-4", 0xc84acb818907cbc8),
    ("a5-5", 0x3083f845b0b4a86b),
];

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{IpV4, Timestamp};

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn table(interner: &mut Interner, name: &str, rows: &[i64]) -> ResultTable {
        let sym = interner.intern(name);
        let mut t = ResultTable::new(vec!["p".into(), "n".into()]);
        for &n in rows {
            t.rows.push(vec![Value::Str(sym), Value::Int(n)]);
        }
        t
    }

    #[test]
    fn digest_is_stable_across_dictionary_order_and_sensitive_to_rows() {
        // The same strings interned in a different order get different
        // symbols; the digest must not care.
        let mut a = Interner::new();
        a.intern("padding");
        let ta = table(&mut a, "cmd.exe", &[1, 2]);
        let mut b = Interner::new();
        let tb = table(&mut b, "cmd.exe", &[1, 2]);
        assert_ne!(ta.rows[0][0], tb.rows[0][0]);
        assert_eq!(digest(&ta, &a), digest(&tb, &b));
        // Row order, row content and column names all move it.
        assert_ne!(
            digest(&ta, &a),
            digest(&table(&mut a, "cmd.exe", &[2, 1]), &a)
        );
        assert_ne!(
            digest(&ta, &a),
            digest(&table(&mut a, "cmd.exe", &[1, 3]), &a)
        );
        let mut renamed = ta.clone();
        renamed.columns[1] = "m".into();
        assert_ne!(digest(&ta, &a), digest(&renamed, &a));
        // The multiset view ignores order.
        assert_eq!(
            sorted_row_hashes(&ta, &a),
            sorted_row_hashes(&table(&mut a, "cmd.exe", &[2, 1]), &a)
        );
    }

    #[test]
    fn every_value_kind_hashes_and_kinds_do_not_collide() {
        let i = Interner::new();
        let rows = [
            vec![Value::Null],
            vec![Value::Int(1)],
            vec![Value::Float(1.0)],
            vec![Value::Ip(IpV4(1))],
            vec![Value::Time(Timestamp::from_secs(1))],
            vec![Value::Bool(true)],
        ];
        let mut hashes: Vec<u64> = rows.iter().map(|r| row_hash(r, &i)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), rows.len());
        // Floats compare at the rendered precision.
        assert_eq!(
            row_hash(&[Value::Float(0.30000000000000004)], &i),
            row_hash(&[Value::Float(0.3)], &i)
        );
    }

    #[test]
    fn gate_counts_errors_empties_and_changed_answers() {
        let store = EventStore::default();
        let mut gate = Gate::new(1);
        let mut t = ResultTable::new(vec!["n".into()]);
        gate.observe::<String>(0, "q", &Ok(t.clone()), &store, true);
        assert_eq!((gate.attempted, gate.failed), (1, 1), "empty result fails");
        t.rows.push(vec![Value::Int(1)]);
        gate.observe::<String>(0, "q", &Ok(t.clone()), &store, true);
        gate.observe::<String>(0, "q", &Ok(t.clone()), &store, false);
        assert_eq!((gate.attempted, gate.failed), (3, 1));
        let mut changed = t.clone();
        changed.rows[0][0] = Value::Int(2);
        gate.observe::<String>(0, "q", &Ok(changed.clone()), &store, false);
        assert_eq!(gate.failed, 1, "same row count passes the cheap check");
        gate.observe::<String>(0, "q", &Ok(changed), &store, true);
        assert_eq!(gate.failed, 2, "the full check catches it");
        gate.observe(0, "q", &Err::<ResultTable, _>("boom"), &store, false);
        t.truncated = true;
        gate.observe::<String>(0, "q", &Ok(t), &store, false);
        assert_eq!((gate.attempted, gate.failed), (7, 4));
        assert!(gate.messages[0].contains("no evidence"));
    }
}
