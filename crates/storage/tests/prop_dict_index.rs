//! Differential property tests for the n-gram/prefix dictionary indexes.
//!
//! The trigram-intersection + verify path, the prefix range scan, and the
//! case-folded exact lookup must return *exactly* the id set of the naive
//! `LIKE` — [`naive_like`] below, the pattern matched against every entity
//! one at a time — for every pattern shape — `%`, `_`, prefix, suffix,
//! infix, degenerate — over arbitrary dictionaries.

use aiql_model::{
    AgentId, EntityAttrs, EntityId, EntityKind, FileAttrs, IpV4, NetConnAttrs, ProcessAttrs,
    Protocol, StringPattern,
};
use aiql_storage::{AttrCmp, EntityConstraint, EntityStore};
use proptest::prelude::*;

/// Name fragments that deliberately share trigrams (`sql` ⊂ `osql` ⊂
/// `sqlservr`-style overlaps) so patterns collide with several entries.
fn frag() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("cmd"),
        Just("CMD"),
        Just("osql"),
        Just("sql"),
        Just("servr"),
        Just("sbblv"),
        Just("backup1"),
        Just("dmp"),
        Just("exe"),
        Just("info"),
        Just("stealer"),
        Just("a"),
        Just("ab"),
        Just(""),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    (proptest::collection::vec(frag(), 1..4), 0usize..4).prop_map(|(parts, sep)| {
        let sep = ["", ".", "/", "_"][sep % 4];
        parts.join(sep)
    })
}

/// Pattern pieces: literals sharing the name fragments, plus both wildcards.
fn arb_pattern() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("%"),
        Just("_"),
        Just("cmd"),
        Just("sql"),
        Just("sbblv"),
        Just("exe"),
        Just("backup1"),
        Just("."),
        Just("/"),
        Just("a"),
        Just("b"),
    ];
    proptest::collection::vec(piece, 1..5).prop_map(|ps| ps.concat())
}

/// The reference `LIKE`: walks the dictionary in id order and matches the
/// pattern against each entity's own rendering of its kind's default
/// attribute — no index, no grouping by distinct string. Ascending by
/// construction.
fn naive_like(
    store: &EntityStore,
    kind: EntityKind,
    agents: Option<&[AgentId]>,
    pattern: &StringPattern,
) -> Vec<EntityId> {
    store
        .iter()
        .filter(|e| e.kind() == kind && agents.is_none_or(|a| a.contains(&e.agent)))
        .filter(|e| match e.attrs {
            EntityAttrs::Process(p) => pattern.matches(store.interner().resolve(p.exe_name)),
            EntityAttrs::File(f) => pattern.matches(store.interner().resolve(f.name)),
            EntityAttrs::NetConn(n) => pattern.matches(&n.dst_ip.to_string()),
        })
        .map(|e| e.id)
        .collect()
}

/// A dictionary holding the same names as both processes and files on
/// alternating hosts.
fn store_with(names: &[String]) -> EntityStore {
    let mut store = EntityStore::new();
    for (i, name) in names.iter().enumerate() {
        let agent = AgentId((i % 3) as u32);
        let sym = store.interner_mut().intern(name);
        let user = store.interner_mut().intern("user");
        let empty = store.interner_mut().intern("");
        store.intern(
            agent,
            EntityAttrs::Process(ProcessAttrs {
                pid: i as u32,
                exe_name: sym,
                user,
                cmdline: empty,
            }),
        );
        store.intern(
            agent,
            EntityAttrs::File(FileAttrs {
                name: sym,
                owner: user,
            }),
        );
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed LIKE resolution == naive scan, for processes and files,
    /// with and without agent restrictions.
    #[test]
    fn ngram_like_matches_naive_scan(
        names in proptest::collection::vec(arb_name(), 0..24),
        patterns in proptest::collection::vec(arb_pattern(), 1..8),
        restrict in 0u32..4,
    ) {
        let store = store_with(&names);
        let agents = [AgentId(0), AgentId(1)];
        let restriction: Option<&[AgentId]> = match restrict {
            0 => None,
            1 => Some(&agents[..1]),
            2 => Some(&agents[..2]),
            _ => Some(&[]),
        };
        for pat in &patterns {
            let pattern = StringPattern::new(pat);
            let c = [EntityConstraint::on_default(AttrCmp::Like(pattern.clone()))];
            for kind in [EntityKind::Process, EntityKind::File] {
                let a = store.find(kind, restriction, &c);
                let b = naive_like(&store, kind, restriction, &pattern);
                prop_assert!(
                    a.windows(2).all(|w| w[0] < w[1]),
                    "indexed result must be sorted+deduped for {pat:?}"
                );
                prop_assert_eq!(a, b, "kind {:?} pattern {:?}", kind, pat);
            }
        }
    }

    /// Indexed LIKE over rendered destination IPs == naive rendering scan.
    #[test]
    fn ngram_ip_like_matches_naive_scan(
        octets in proptest::collection::vec((0u32..3, 0u32..3, 99u32..101, 0u32..256), 0..20),
        patterns in proptest::collection::vec(
            prop_oneof![
                Just("%"),
                Just("%.129"),
                Just("172.%"),
                Just("0.%"),
                Just("%.99.%"),
                Just("1.1.99.1"),
                Just("%._"),
                Just("2.2.100.255"),
            ],
            1..6,
        ),
    ) {
        let mut store = EntityStore::new();
        for &(a, b, c, d) in &octets {
            store.intern(
                AgentId(1),
                EntityAttrs::NetConn(NetConnAttrs {
                    src_ip: IpV4::from_octets(10, 0, 0, 1),
                    src_port: 1000,
                    dst_ip: IpV4::from_octets(a as u8, b as u8, c as u8, d as u8),
                    dst_port: 443,
                    protocol: Protocol::Tcp,
                }),
            );
        }
        for pat in &patterns {
            let pattern = StringPattern::new(pat);
            let c = [EntityConstraint::on("dstip", AttrCmp::Like(pattern.clone()))];
            let a = store.find(EntityKind::NetConn, None, &c);
            let b = naive_like(&store, EntityKind::NetConn, None, &pattern);
            prop_assert_eq!(a, b, "pattern {:?}", pat);
        }
    }
}
