//! Differential property test: the dictionary a published snapshot reads
//! is the flat dictionary of the same stream prefix.
//!
//! A random raw stream goes through [`SharedStore::write`] in random batch
//! sizes (1–600) while random snapshots stay pinned for the rest of the run
//! — across every later publish, and across every dictionary fold the
//! stream's novelty triggers. At the end, each pinned snapshot's entity
//! dictionary must answer exactly like a bare [`EntityStore`] that interned
//! the same prefix serially: `find` with equality, every `LIKE` shape (the
//! exact, prefix and trigram paths, the scan fallback for patterns without
//! a trigram-sized literal, rendered IPs), a numeric attribute and agent
//! restrictions (`Some(&[])` and a restriction covering every host
//! included); `get`, `kind_of`, `iter`, `len`, `count_kind`, `ids_of_kind`;
//! and the interner's `get` / `resolve`.
//!
//! The dense kind column `kind_of` reads must never drift from the entity
//! records: it is checked on the writer's live dictionary after every batch
//! (interns into the delta and folds interleave there), on every pinned
//! snapshot, and on the stores a snapshot save/load round trip and a WAL
//! recovery rebuild.

use std::sync::Arc;

use aiql_model::{
    AgentId, Attr, EntityId, EntityKind, IpV4, Operation, StringPattern, Timestamp, Value,
};
use aiql_storage::{
    recover, snapshot, AttrCmp, EntityConstraint, EntitySpec, EntityStore, EventStore, RawEvent,
    SharedStore, StoreConfig, Wal,
};
use proptest::prelude::*;

/// Name fragments that share trigrams (`sql` ⊂ `osql`, two casings of
/// `cmd`) and short ones that have none.
const FRAGS: [&str; 12] = [
    "cmd", "CMD", "osql", "sql", "servr", "sbblv", "backup1", "dmp", "exe", "info", "a", "ab",
];

/// A name from one or two fragments, sometimes tagged with a number so
/// distinct names keep arriving late in the stream.
fn arb_name() -> impl Strategy<Value = String> {
    (
        0usize..FRAGS.len(),
        0usize..FRAGS.len() + 1,
        0usize..3,
        0u32..60,
    )
        .prop_map(|(a, b, sep, tag)| {
            let mut name = FRAGS[a].to_string();
            if let Some(b) = FRAGS.get(b) {
                name.push_str(["", ".", "/"][sep]);
                name.push_str(b);
            }
            if tag < 20 {
                name.push_str(&tag.to_string());
            }
            name
        })
}

/// One observation: a process (pids make most of them novel) acting on a
/// process, a file or a connection, sometimes on another host's object.
fn arb_raw() -> impl Strategy<Value = RawEvent> {
    (
        0u32..3,
        0u32..4,
        0u32..3_000,
        arb_name(),
        arb_name(),
        (0u32..3, 99u32..101, 0u32..256),
        0u32..30_000,
        0u32..8,
    )
        .prop_map(
            |(agent, kind, pid, subject, object, (a, c, d), port, cross)| {
                let subject =
                    EntitySpec::process(pid, &subject, ["alice", "root"][pid as usize % 2]);
                let (op, object) = match kind {
                    0 => (
                        Operation::Start,
                        EntitySpec::process(pid + 1, &object, "alice"),
                    ),
                    1 => (Operation::Write, EntitySpec::file(&object, "root")),
                    2 => (
                        Operation::Read,
                        EntitySpec::file(&format!("/tmp/{object}"), "alice"),
                    ),
                    _ => (
                        Operation::Connect,
                        EntitySpec::tcp(
                            IpV4::from_octets(10, 0, 0, 1),
                            port as u16,
                            IpV4::from_octets(172, a as u8, c as u8, d as u8),
                            443,
                        ),
                    ),
                };
                let raw = RawEvent::instant(
                    AgentId(agent),
                    op,
                    subject,
                    object,
                    Timestamp::from_secs(i64::from(pid)),
                    1,
                );
                if cross == 0 {
                    raw.with_object_agent(AgentId((agent + 1) % 3))
                } else {
                    raw
                }
            },
        )
}

/// What the store does with one observation's entities, in its order:
/// both specs' strings, then the subject, then the object.
fn intern_serially(flat: &mut EntityStore, raw: &RawEvent) {
    let subject = raw.subject.resolve(flat);
    let object = raw.object.resolve(flat);
    flat.intern(raw.agent, subject);
    flat.intern(raw.object_agent.unwrap_or(raw.agent), object);
}

/// `LIKE` patterns of every shape the dictionary index distinguishes.
const NAME_PATTERNS: [&str; 12] = [
    "cmd",       // exact, matches both casings
    "sql.exe",   // exact
    "osql%",     // prefix
    "%",         // prefix "", everything
    "%.exe",     // suffix
    "%backup1%", // infix
    "%sql%",     // infix over several names
    "%o_ql%",    // `_` inside a run
    "%zzz%",     // a trigram nothing contains
    "ab",        // short exact
    "a_",        // no trigram: scan fallback
    "%b1%",      // no trigram: scan fallback
];

const IP_PATTERNS: [&str; 6] = [
    "172.%",
    "%.99.%",
    "172.1.100.1%",
    "%.12",
    "%._",
    "172.2.99.255",
];

/// Every constraint set checked for `kind`, resolved against `flat`'s
/// interner (a name the prefix never saw has no equality probe).
fn constraint_sets(kind: EntityKind, flat: &EntityStore) -> Vec<Vec<EntityConstraint>> {
    let like = |attr: Option<Attr>, p: &str| EntityConstraint {
        attr,
        cmp: AttrCmp::Like(StringPattern::new(p)),
    };
    let mut sets = Vec::new();
    match kind {
        EntityKind::NetConn => {
            for p in IP_PATTERNS {
                sets.push(vec![like(Some(Attr::DstIp), p)]);
            }
            for d in [0u8, 12, 255] {
                let ip = IpV4::from_octets(172, 1, 99, d);
                sets.push(vec![EntityConstraint {
                    attr: Some(Attr::DstIp),
                    cmp: AttrCmp::Eq(Value::Ip(ip)),
                }]);
            }
            let port = EntityConstraint {
                attr: Some(Attr::SrcPort),
                cmp: AttrCmp::Lt(Value::Int(9_000)),
            };
            sets.push(vec![port.clone()]);
            sets.push(vec![like(Some(Attr::DstIp), "%.99.%"), port]);
        }
        _ => {
            for p in NAME_PATTERNS {
                sets.push(vec![EntityConstraint::on_default(AttrCmp::Like(
                    StringPattern::new(p),
                ))]);
            }
            for name in ["cmd", "sql.exe", "osql/dmp", "/tmp/info"] {
                if let Some(sym) = flat.interner().get(name) {
                    sets.push(vec![EntityConstraint::on_default(AttrCmp::Eq(Value::Str(
                        sym,
                    )))]);
                }
            }
            if kind == EntityKind::Process {
                let pid = EntityConstraint {
                    attr: Some(Attr::Pid),
                    cmp: AttrCmp::Ge(Value::Int(1_500)),
                };
                sets.push(vec![pid.clone()]);
                sets.push(vec![like(Some(Attr::ExeName), "%sql%"), pid]);
            } else {
                sets.push(vec![like(Some(Attr::Path), "/tmp/%"), like(None, "%exe%")]);
            }
        }
    }
    sets
}

/// `kind_of` agrees with the entity record for every id.
fn assert_kinds_match_entities(dict: &EntityStore, label: &str) {
    for e in dict.iter() {
        assert_eq!(dict.kind_of(e.id), e.kind(), "{label}: kind_of({:?})", e.id);
    }
}

fn assert_same_dictionary(got: &EntityStore, want: &EntityStore, label: &str) {
    assert_kinds_match_entities(got, label);
    assert_eq!(got.len(), want.len(), "{label}: len");
    assert_eq!(got.is_empty(), want.is_empty(), "{label}: is_empty");
    assert!(
        got.iter().eq(want.iter()),
        "{label}: iter differs from the flat dictionary"
    );
    for e in want.iter() {
        assert_eq!(got.get(e.id), e, "{label}: get({:?})", e.id);
        assert_eq!(got.kind_of(e.id), e.kind(), "{label}: kind_of({:?})", e.id);
    }
    let kinds = [EntityKind::Process, EntityKind::File, EntityKind::NetConn];
    for kind in kinds {
        assert_eq!(
            got.count_kind(kind),
            want.count_kind(kind),
            "{label}: count_kind"
        );
        let ids = |s: &EntityStore| {
            let mut ids: Vec<EntityId> = Vec::new();
            ids.extend(s.ids_of_kind(kind));
            ids
        };
        assert_eq!(ids(got), ids(want), "{label}: ids_of_kind({kind:?})");
    }
    assert_eq!(
        got.interner().len(),
        want.interner().len(),
        "{label}: interner len"
    );
    for (sym, s) in want.interner().iter() {
        assert_eq!(
            got.interner().get(s),
            Some(sym),
            "{label}: interner get {s:?}"
        );
        assert_eq!(got.interner().resolve(sym), s, "{label}: interner resolve");
    }
    assert_eq!(got.interner().get("never interned"), None);

    let restrictions: [Option<&[AgentId]>; 5] = [
        None,
        Some(&[]),
        Some(&[AgentId(1)]),
        Some(&[AgentId(2), AgentId(0)]),
        Some(&[AgentId(7), AgentId(2), AgentId(1), AgentId(0)]),
    ];
    for kind in kinds {
        for (i, constraints) in constraint_sets(kind, want).iter().enumerate() {
            // Every set unrestricted; the restrictions on a rotating one
            // each, so each snapshot costs a bounded number of lookups.
            for (r, agents) in restrictions.iter().enumerate() {
                if r > 0 && (i + r) % 4 != 0 {
                    continue;
                }
                let a = got.find(kind, *agents, constraints);
                let b = want.find(kind, *agents, constraints);
                assert!(
                    a.windows(2).all(|w| w[0] < w[1]),
                    "{label}: find must stay sorted and deduped"
                );
                assert_eq!(a, b, "{label}: find {kind:?} {agents:?} {constraints:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Snapshots pinned at random points of a random stream, and the final
    /// one, read exactly the flat dictionary of their prefix.
    #[test]
    fn pinned_snapshots_read_like_a_flat_dictionary(
        stream in proptest::collection::vec(arb_raw(), 1..9_000),
        sizes in proptest::collection::vec(1usize..601, 1..40),
        pins in proptest::collection::vec(0usize..40, 1..4),
    ) {
        let shared = SharedStore::new(EventStore::default());
        let mut flat = EntityStore::new();
        let mut pinned: Vec<(usize, Arc<EventStore>, EntityStore)> = Vec::new();
        let wal_path = std::env::temp_dir().join(format!(
            "aiql-prop-layered-dict-{}-{}.wal",
            std::process::id(),
            stream.len()
        ));
        let mut wal = Wal::create(&wal_path).unwrap();
        let mut rest = stream.as_slice();
        let mut batch = 0usize;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(sizes[batch % sizes.len()].min(rest.len()));
            shared.write(|s| {
                s.ingest_all(head);
                assert_kinds_match_entities(s.entities(), &format!("writer after batch {batch}"));
            });
            for raw in head {
                intern_serially(&mut flat, raw);
                wal.append(raw).unwrap();
            }
            wal.commit().unwrap();
            if pins.contains(&batch) {
                pinned.push((batch, shared.snapshot(), flat.clone()));
            }
            rest = tail;
            batch += 1;
        }
        drop(wal);
        let last = shared.snapshot();
        pinned.push((batch, last.clone(), flat));
        for (batch, snapshot, flat) in &pinned {
            let label = format!("snapshot after batch {batch} of {}", stream.len());
            assert_same_dictionary(snapshot.entities(), flat, &label);
        }
        let flat = &pinned.last().unwrap().2;

        let snap_path = wal_path.with_extension("snap");
        snapshot::save(&last, &snap_path).unwrap();
        let loaded = snapshot::load(&snap_path).unwrap();
        assert_same_dictionary(loaded.entities(), flat, "snapshot save/load round trip");

        let (recovered, _) = recover(StoreConfig::default(), &wal_path).unwrap();
        assert_same_dictionary(recovered.entities(), flat, "recovered from the WAL");
        let _ = std::fs::remove_file(&snap_path);
        let _ = std::fs::remove_file(&wal_path);
    }
}
