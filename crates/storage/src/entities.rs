//! Deduplicated entity dictionary.
//!
//! System monitoring data repeats the same entities (processes, files,
//! connections) across millions of events. The paper's storage layer
//! deduplicates them; we intern every distinct ⟨agent, attributes⟩
//! combination into a dense [`EntityId`] and maintain *dictionary-level*
//! indexes so query constraints are resolved against the (small) entity
//! dictionary instead of the (huge) event table. That asymmetry is the
//! foundation of the engine's pruning-power scheduling: a `LIKE` pattern is
//! evaluated once against a few thousand distinct names, yielding an id set
//! that prunes event scans via posting lists.
//!
//! The dictionary keeps growing while snapshots of it are being read, so it
//! is stored as a shared frozen base plus a small delta (see
//! [`EntityStore`]): publishing a snapshot shares the layers instead of
//! copying them.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use aiql_model::{
    AgentId, Attr, Entity, EntityAttrs, EntityId, EntityKind, Interner, PatternShape,
    StringPattern, Symbol, Value,
};

/// Inserts `key` into a posting list kept in ascending order. Keys arrive
/// mostly ascending (dictionary interning order), so this is an append in
/// the common case and a binary-search insert otherwise.
fn sorted_insert(list: &mut Vec<u32>, key: u32) {
    match list.last() {
        Some(&last) if last < key => list.push(key),
        _ => {
            if let Err(pos) = list.binary_search(&key) {
                list.insert(pos, key);
            }
        }
    }
}

/// Sort-merge intersection of two ascending key lists.
fn intersect_keys(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Candidate keys produced by a [`DictIndex`] pattern lookup.
enum DictCandidates {
    /// Definitive match set — no per-string verification needed.
    Definitive(Vec<u32>),
    /// Superset of the matching keys; verify the pattern per candidate.
    Verify(Vec<u32>),
    /// The index cannot narrow this pattern (no trigram-length literal run);
    /// fall back to scanning the distinct dictionary strings.
    Scan,
}

/// N-gram + prefix index over one dictionary's distinct renderings.
///
/// Maps each distinct (ASCII-lowercased) string to an opaque `u32` key — a
/// [`Symbol`] for name dictionaries, a raw IPv4 for the destination-IP
/// dictionary. `LIKE` patterns resolve by intersecting trigram posting
/// lists (then verifying the survivors) instead of matching the pattern
/// against every distinct string; `prefix%` and wildcard-free patterns
/// resolve definitively from the sorted rendering map.
#[derive(Debug, Default, Clone)]
struct DictIndex {
    /// Lowercased rendering → keys sharing it (distinct original casings of
    /// one name are distinct symbols). Sorted, so prefix lookups are range
    /// scans.
    by_lower: BTreeMap<Box<str>, Vec<u32>>,
    /// Byte trigram of a lowercased rendering → keys containing it.
    trigrams: HashMap<[u8; 3], Vec<u32>>,
}

impl DictIndex {
    /// Indexes one new dictionary entry. Call once per distinct key.
    fn insert(&mut self, key: u32, rendered: &str) {
        let lowered = rendered.to_ascii_lowercase();
        let bytes = lowered.as_bytes();
        let mut grams: Vec<[u8; 3]> = bytes.windows(3).map(|w| [w[0], w[1], w[2]]).collect();
        grams.sort_unstable();
        grams.dedup();
        for g in grams {
            sorted_insert(self.trigrams.entry(g).or_default(), key);
        }
        match self.by_lower.get_mut(lowered.as_str()) {
            Some(keys) => sorted_insert(keys, key),
            None => {
                self.by_lower.insert(lowered.into_boxed_str(), vec![key]);
            }
        }
    }

    /// Resolves a `LIKE` pattern to candidate keys.
    fn resolve(&self, p: &StringPattern) -> DictCandidates {
        match p.shape() {
            PatternShape::Exact => {
                let lowered = p.exact_lowered().expect("exact shape");
                DictCandidates::Definitive(
                    self.by_lower
                        .get(lowered.as_str())
                        .cloned()
                        .unwrap_or_default(),
                )
            }
            PatternShape::Prefix => {
                let prefix = p.literal_prefix().expect("prefix shape");
                let mut keys = Vec::new();
                for (_, k) in self
                    .by_lower
                    .range::<str, _>((
                        std::ops::Bound::Included(prefix.as_str()),
                        std::ops::Bound::Unbounded,
                    ))
                    .take_while(|(s, _)| s.starts_with(prefix.as_str()))
                {
                    keys.extend_from_slice(k);
                }
                keys.sort_unstable();
                keys.dedup();
                DictCandidates::Definitive(keys)
            }
            PatternShape::Suffix | PatternShape::Scan => {
                // Every literal run must appear in a matching string, so each
                // run's trigrams gate the candidate set. Intersect
                // smallest-first and bail as soon as the set empties.
                let mut lists: Vec<&[u32]> = Vec::new();
                for run in p.literal_runs() {
                    for w in run.as_bytes().windows(3) {
                        match self.trigrams.get(&[w[0], w[1], w[2]]) {
                            Some(l) => lists.push(l.as_slice()),
                            // A required trigram no string contains: nothing
                            // can match.
                            None => return DictCandidates::Definitive(Vec::new()),
                        }
                    }
                }
                if lists.is_empty() {
                    return DictCandidates::Scan;
                }
                lists.sort_by_key(|l| l.len());
                let mut keys = lists[0].to_vec();
                for l in &lists[1..] {
                    if keys.is_empty() {
                        break;
                    }
                    keys = intersect_keys(&keys, l);
                }
                DictCandidates::Verify(keys)
            }
        }
    }
}

/// Comparison operator of an entity attribute constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrCmp {
    /// Equality against a value.
    Eq(Value),
    /// Inequality against a value.
    Ne(Value),
    /// Strictly less than.
    Lt(Value),
    /// Less than or equal.
    Le(Value),
    /// Strictly greater than.
    Gt(Value),
    /// Greater than or equal.
    Ge(Value),
    /// SQL-LIKE pattern match (string attributes; IPs match their dotted
    /// rendering so `dstip = "10.0.4.%"`-style investigations work).
    Like(StringPattern),
}

/// A single constraint over one entity attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityConstraint {
    /// The constrained attribute, resolved once (analysis resolves every
    /// name it accepts, the default-attribute shortcut included).
    pub attr: Attr,
    /// The comparison to apply.
    pub cmp: AttrCmp,
}

impl EntityConstraint {
    /// Constraint on `kind`'s default attribute (what a bare
    /// `proc p["cmd.exe"]` constrains).
    pub fn on_default(kind: EntityKind, cmp: AttrCmp) -> Self {
        EntityConstraint {
            attr: kind.default_attr(),
            cmp,
        }
    }

    /// A rough selectivity estimate in `[0, 1]` used by the scheduler.
    pub fn selectivity_hint(&self) -> f64 {
        match &self.cmp {
            AttrCmp::Eq(_) => 0.002,
            AttrCmp::Like(p) => p.selectivity_hint(),
            AttrCmp::Ne(_) => 0.9,
            _ => 0.3,
        }
    }
}

/// The delta folds into a fresh base once it holds this fraction of the
/// base (`1 / FOLD_DIVISOR`), but never below [`FOLD_FLOOR`] entities: the
/// fold copies the base, so spacing folds in proportion to it keeps the
/// copy amortized O(1) per new entity, and the floor keeps a small store
/// from folding every few batches.
const FOLD_DIVISOR: usize = 8;
/// Smallest delta that folds (see [`FOLD_DIVISOR`]).
const FOLD_FLOOR: usize = 4096;

/// One layer of the dictionary: a run of consecutive entity ids and every
/// index a lookup is answered from. The base and the delta are both this,
/// so the delta is indexed exactly like the base.
#[derive(Debug, Default, Clone)]
struct Layer {
    entities: Vec<Entity>,
    /// Each entity's kind, in id order: one byte per entity, so a scan's
    /// kind test reads this dense column instead of the entity records.
    kinds: Vec<EntityKind>,
    by_kind: [Vec<EntityId>; 3],
    /// Process entities grouped by executable-name symbol.
    proc_by_name: HashMap<Symbol, Vec<EntityId>>,
    /// File entities grouped by path symbol.
    file_by_name: HashMap<Symbol, Vec<EntityId>>,
    /// Network connections grouped by destination IP.
    conn_by_dst: HashMap<u32, Vec<EntityId>>,
    /// Trigram/prefix index over the layer's distinct executable names.
    proc_dict: DictIndex,
    /// Trigram/prefix index over the layer's distinct file paths.
    file_dict: DictIndex,
    /// Trigram/prefix index over the layer's rendered destination IPs.
    conn_dict: DictIndex,
}

impl Layer {
    /// Appends an entity whose id is one past the layer's last.
    fn push(&mut self, entity: Entity, interner: &Interner) {
        let id = entity.id;
        self.kinds.push(entity.kind());
        self.by_kind[kind_slot(entity.kind())].push(id);
        // Group the entity under its dictionary key; the first observation
        // of a distinct key in this layer also enters its n-gram/prefix
        // index.
        match entity.attrs {
            EntityAttrs::Process(p) => {
                let ids = self.proc_by_name.entry(p.exe_name).or_default();
                if ids.is_empty() {
                    self.proc_dict
                        .insert(p.exe_name.raw(), interner.resolve(p.exe_name));
                }
                ids.push(id);
            }
            EntityAttrs::File(f) => {
                let ids = self.file_by_name.entry(f.name).or_default();
                if ids.is_empty() {
                    self.file_dict
                        .insert(f.name.raw(), interner.resolve(f.name));
                }
                ids.push(id);
            }
            EntityAttrs::NetConn(n) => {
                let ids = self.conn_by_dst.entry(n.dst_ip.0).or_default();
                if ids.is_empty() {
                    self.conn_dict.insert(n.dst_ip.0, &n.dst_ip.to_string());
                }
                ids.push(id);
            }
        }
        self.entities.push(entity);
    }

    /// A copy with capacity for `extra` more entities in the id-ordered
    /// vectors.
    fn copy_with_room(&self, extra: usize) -> Layer {
        fn with_room<T: Copy>(items: &[T], extra: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(items.len() + extra);
            out.extend_from_slice(items);
            out
        }
        Layer {
            entities: with_room(&self.entities, extra),
            kinds: with_room(&self.kinds, extra),
            by_kind: self.by_kind.each_ref().map(|ids| with_room(ids, extra)),
            proc_by_name: self.proc_by_name.clone(),
            file_by_name: self.file_by_name.clone(),
            conn_by_dst: self.conn_by_dst.clone(),
            proc_dict: self.proc_dict.clone(),
            file_dict: self.file_dict.clone(),
            conn_dict: self.conn_dict.clone(),
        }
    }

    /// Attempts an index-assisted candidate lookup for one constraint over
    /// this layer. The returned id vector is **sorted and deduped**. Whether
    /// it is `None` depends on the constraint alone, never on the layer's
    /// contents.
    fn index_lookup(
        &self,
        kind: EntityKind,
        c: &EntityConstraint,
        interner: &Interner,
    ) -> Option<Vec<EntityId>> {
        match (kind, c.attr) {
            (EntityKind::Process, Attr::ExeName) => {
                dict_lookup(&self.proc_by_name, &self.proc_dict, c, interner)
            }
            (EntityKind::File, Attr::Path) => {
                dict_lookup(&self.file_by_name, &self.file_dict, c, interner)
            }
            (EntityKind::NetConn, Attr::DstIp) => {
                dict_lookup(&self.conn_by_dst, &self.conn_dict, c, interner)
            }
            _ => None,
        }
    }
}

/// The key of one keyed dictionary: a name [`Symbol`] for process names and
/// file paths, a raw IPv4 (`u32`) for destination IPs.
trait DictKey: Copy + Eq + std::hash::Hash {
    /// The key an equality constraint's value names, if it is of this
    /// dictionary's type.
    fn of_value(v: &Value) -> Option<Self>;
    /// The key behind a [`DictIndex`] entry.
    fn of_raw(raw: u32) -> Self;
    /// The rendering a `LIKE` pattern matches.
    fn render(self, interner: &Interner) -> std::borrow::Cow<'_, str>;
}

impl DictKey for Symbol {
    fn of_value(v: &Value) -> Option<Self> {
        match v {
            Value::Str(sym) => Some(*sym),
            _ => None,
        }
    }
    fn of_raw(raw: u32) -> Self {
        Symbol(raw)
    }
    fn render(self, interner: &Interner) -> std::borrow::Cow<'_, str> {
        interner.resolve(self).into()
    }
}

impl DictKey for u32 {
    fn of_value(v: &Value) -> Option<Self> {
        match v {
            Value::Ip(ip) => Some(ip.0),
            _ => None,
        }
    }
    fn of_raw(raw: u32) -> Self {
        raw
    }
    fn render(self, _: &Interner) -> std::borrow::Cow<'_, str> {
        aiql_model::IpV4(self).to_string().into()
    }
}

/// One constraint's lookup in a keyed dictionary: equality reads the key's
/// posting list; `LIKE` resolves through the n-gram/prefix index
/// ([`DictIndex::resolve`]), and evaluates the pattern once per *distinct*
/// key — the core dictionary-vs-events asymmetry — when the index cannot
/// narrow it. Any other comparison has no index path (`None`).
fn dict_lookup<K: DictKey>(
    index: &HashMap<K, Vec<EntityId>>,
    dict: &DictIndex,
    c: &EntityConstraint,
    interner: &Interner,
) -> Option<Vec<EntityId>> {
    let p = match &c.cmp {
        AttrCmp::Eq(v) => {
            let ids = index.get(&K::of_value(v)?).cloned();
            return Some(finish_ids(ids.unwrap_or_default()));
        }
        AttrCmp::Like(p) => p,
        _ => return None,
    };
    let matches = |key: K| p.matches(&key.render(interner));
    let mut ids = Vec::new();
    let keys = match dict.resolve(p) {
        DictCandidates::Definitive(keys) => keys,
        DictCandidates::Verify(mut keys) => {
            keys.retain(|&raw| matches(K::of_raw(raw)));
            keys
        }
        DictCandidates::Scan => {
            for (&key, list) in index {
                if matches(key) {
                    ids.extend_from_slice(list);
                }
            }
            return Some(finish_ids(ids));
        }
    };
    for raw in keys {
        if let Some(list) = index.get(&K::of_raw(raw)) {
            ids.extend_from_slice(list);
        }
    }
    Some(finish_ids(ids))
}

/// `layer`, writable: in place when nothing else holds it, otherwise a copy
/// with room for `extra` more entities — the large vectors are copied once
/// and do not reallocate while the room lasts.
fn writable(layer: &mut Arc<Layer>, extra: usize) -> &mut Layer {
    if Arc::get_mut(layer).is_none() {
        *layer = Arc::new(layer.copy_with_room(extra));
    }
    Arc::make_mut(layer)
}

/// The deduplicating entity dictionary, including the string interner shared
/// by the whole store.
///
/// Entities live in two layers over one dense id space: a frozen, `Arc`-
/// shared **base** and a small **delta** whose ids all follow the base's.
/// Interning goes straight into the base while nothing else holds it (every
/// bare [`EventStore`](crate::EventStore)), so such a store has an empty
/// delta and reads one layer. Once a published snapshot shares the base,
/// new entities go to the delta instead, and the delta folds into a fresh
/// base when it holds `1 / FOLD_DIVISOR` of the base (at least
/// `FOLD_FLOOR` entities). Publishing copies `Arc`s: the base, the delta
/// and the interner are shared copy-on-write, and the writer-only dedup map
/// is never shared.
#[derive(Debug)]
pub struct EntityStore {
    interner: Arc<Interner>,
    base: Arc<Layer>,
    delta: Arc<Layer>,
    /// Writer-only: ⟨agent, attrs⟩ → id. Snapshots leave it empty.
    dedup: HashMap<(AgentId, EntityAttrs), EntityId>,
    /// Distinct hosts observed, ascending (the `find` agent-restriction
    /// fast path: a restriction covering every host is a no-op).
    agents_seen: Vec<AgentId>,
    /// Count of observations that hit an existing entity (dedup savings).
    /// Atomic so the copy-on-write ingest fast path ([`Self::lookup`]) can
    /// record hits through a shared reference without cloning the
    /// dictionary.
    dedup_hits: std::sync::atomic::AtomicU64,
}

impl Clone for EntityStore {
    fn clone(&self) -> Self {
        EntityStore {
            dedup: self.dedup.clone(),
            ..self.share_for_read()
        }
    }
}

impl Default for EntityStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Sorts and dedups an id vector assembled from per-key posting lists.
fn finish_ids(mut ids: Vec<EntityId>) -> Vec<EntityId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Whether sorted `restriction` contains every element of sorted `seen`.
fn covers(restriction: &[AgentId], seen: &[AgentId]) -> bool {
    seen.iter().all(|a| restriction.binary_search(a).is_ok())
}

fn kind_slot(kind: EntityKind) -> usize {
    match kind {
        EntityKind::Process => 0,
        EntityKind::File => 1,
        EntityKind::NetConn => 2,
    }
}

impl EntityStore {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        EntityStore {
            interner: Arc::new(Interner::new()),
            base: Arc::default(),
            delta: Arc::default(),
            dedup: HashMap::new(),
            agents_seen: Vec::new(),
            dedup_hits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The dictionary a published snapshot reads: the base, delta and
    /// interner `Arc`s shared, the writer-only dedup map left empty
    /// (snapshots never ingest).
    pub(crate) fn share_for_read(&self) -> Self {
        EntityStore {
            interner: self.interner.clone(),
            base: self.base.clone(),
            delta: self.delta.clone(),
            dedup: HashMap::new(),
            agents_seen: self.agents_seen.clone(),
            dedup_hits: std::sync::atomic::AtomicU64::new(self.dedup_hits()),
        }
    }

    /// The shared string dictionary.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the string dictionary (copy-on-write: it is first
    /// copied when a published snapshot shares it).
    pub fn interner_mut(&mut self) -> &mut Interner {
        Arc::make_mut(&mut self.interner)
    }

    /// Interns one string, touching the shared interner only when the
    /// string is new — so ingesting known names never copies it.
    pub(crate) fn intern_str(&mut self, s: &str) -> Symbol {
        match self.interner.get(s) {
            Some(sym) => sym,
            None => self.interner_mut().intern(s),
        }
    }

    /// Interns an entity observation, returning its stable id. Repeated
    /// observations of identical attributes on the same host dedup to the
    /// same id.
    pub fn intern(&mut self, agent: AgentId, attrs: EntityAttrs) -> EntityId {
        if let Some(&id) = self.dedup.get(&(agent, attrs)) {
            self.note_dedup_hit();
            return id;
        }
        let id = EntityId(self.len() as u32);
        let entity = Entity { id, agent, attrs };
        self.dedup.insert((agent, attrs), id);
        if let Err(pos) = self.agents_seen.binary_search(&agent) {
            self.agents_seen.insert(pos, agent);
        }
        let fold_at = (self.base.entities.len() / FOLD_DIVISOR).max(FOLD_FLOOR);
        if Arc::get_mut(&mut self.base).is_some() || self.delta.entities.len() >= fold_at {
            // Either way the base is unshared after the fold, so it takes
            // the entity without a copy.
            self.fold();
            writable(&mut self.base, 0).push(entity, &self.interner);
        } else {
            let room = fold_at - self.delta.entities.len();
            writable(&mut self.delta, room).push(entity, &self.interner);
        }
        id
    }

    /// Moves the delta into the base — copying the base first only while a
    /// snapshot still shares it. Ids, lookups and answers are unchanged;
    /// only the layering is.
    pub(crate) fn fold(&mut self) {
        if self.delta.entities.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.delta);
        let base = writable(&mut self.base, delta.entities.len() + FOLD_FLOOR);
        for e in &delta.entities {
            base.push(*e, &self.interner);
        }
    }

    /// Entities in the delta layer: 0 on a dictionary no snapshot shares,
    /// and right after a fold.
    pub fn delta_len(&self) -> usize {
        self.delta.entities.len()
    }

    /// Whether `self` and `other` share their base and their delta `Arc`.
    #[cfg(test)]
    pub(crate) fn shares_layers(&self, other: &EntityStore) -> [bool; 2] {
        [
            Arc::ptr_eq(&self.base, &other.base),
            Arc::ptr_eq(&self.delta, &other.delta),
        ]
    }

    /// Fetches an entity by id.
    ///
    /// # Panics
    /// Panics if the id was not produced by this store.
    #[inline]
    pub fn get(&self, id: EntityId) -> &Entity {
        let base = &self.base.entities;
        match base.get(id.index()) {
            Some(e) => e,
            None => &self.delta.entities[id.index() - base.len()],
        }
    }

    /// The kind of an entity, read from the layers' dense kind columns
    /// without touching the entity record.
    ///
    /// # Panics
    /// Panics if the id was not produced by this store.
    #[inline]
    pub fn kind_of(&self, id: EntityId) -> EntityKind {
        let base = &self.base.kinds;
        match base.get(id.index()) {
            Some(&k) => k,
            None => self.delta.kinds[id.index() - base.len()],
        }
    }

    /// Number of distinct entities.
    pub fn len(&self) -> usize {
        self.base.entities.len() + self.delta.entities.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct entities of one kind.
    pub fn count_kind(&self, kind: EntityKind) -> usize {
        let slot = kind_slot(kind);
        self.base.by_kind[slot].len() + self.delta.by_kind[slot].len()
    }

    /// Read-only dedup probe: the id of an already-interned ⟨agent, attrs⟩
    /// combination, or `None` when the observation is genuinely new. The
    /// copy-on-write ingest fast path probes this through the shared
    /// dictionary `Arc` — an all-hits batch never clones the dictionary.
    pub fn lookup(&self, agent: AgentId, attrs: EntityAttrs) -> Option<EntityId> {
        self.dedup.get(&(agent, attrs)).copied()
    }

    /// Records a dedup hit observed through [`Self::lookup`] (interning
    /// through `intern` records its own hits).
    pub fn note_dedup_hit(&self) {
        self.dedup_hits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Observations that were absorbed by deduplication.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// All entities of a kind, in id order.
    pub fn ids_of_kind(&self, kind: EntityKind) -> impl Iterator<Item = &EntityId> {
        let slot = kind_slot(kind);
        self.base.by_kind[slot]
            .iter()
            .chain(&self.delta.by_kind[slot])
    }

    /// Iterates all entities in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Entity> {
        self.base.entities.iter().chain(&self.delta.entities)
    }

    /// Resolves the set of entity ids of `kind` satisfying all `constraints`
    /// (and, if given, restricted to `agents`). Uses the dictionary indexes
    /// when a constraint targets the kind's indexed attribute; otherwise
    /// falls back to a scan of the (small) per-kind dictionary.
    pub fn find(
        &self,
        kind: EntityKind,
        agents: Option<&[AgentId]>,
        constraints: &[EntityConstraint],
    ) -> Vec<EntityId> {
        // Sort the agent restriction once so the per-candidate test is a
        // binary search; a restriction covering every observed host is a
        // no-op and is dropped entirely.
        let sorted_agents: Option<Vec<AgentId>> = agents.map(|a| {
            let mut v = a.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        });
        let agent_filter: Option<&[AgentId]> = match &sorted_agents {
            Some(v) if covers(v, &self.agents_seen) => None,
            Some(v) => Some(v.as_slice()),
            None => None,
        };
        // Seed the candidate set from the most selective dictionary index
        // hit (every constraint is re-verified below, so any seed is sound).
        let candidates: Option<Vec<EntityId>> = constraints
            .iter()
            .filter_map(|c| self.index_lookup(kind, c))
            .min_by_key(Vec::len);
        let check = |id: &EntityId| -> bool {
            let e = self.get(*id);
            if e.kind() != kind {
                return false;
            }
            if let Some(agents) = agent_filter {
                if agents.binary_search(&e.agent).is_err() {
                    return false;
                }
            }
            constraints.iter().all(|c| self.eval(e, c))
        };
        match candidates {
            Some(seed) => seed.into_iter().filter(|id| check(id)).collect(),
            None => self
                .ids_of_kind(kind)
                .copied()
                .filter(|id| check(id))
                .collect(),
        }
    }

    /// One constraint's index lookup over both layers: the base's ids, then
    /// the delta's — every delta id follows every base id, so the result is
    /// sorted without a merge. An empty delta is not consulted.
    fn index_lookup(&self, kind: EntityKind, c: &EntityConstraint) -> Option<Vec<EntityId>> {
        let mut ids = self.base.index_lookup(kind, c, &self.interner)?;
        if !self.delta.entities.is_empty() {
            ids.extend(self.delta.index_lookup(kind, c, &self.interner)?);
        }
        Some(ids)
    }

    /// Evaluates one constraint against one entity.
    pub fn eval(&self, entity: &Entity, c: &EntityConstraint) -> bool {
        let Some(actual) = entity.value(c.attr) else {
            return false;
        };
        self.eval_value(actual, &c.cmp)
    }

    /// Evaluates a comparison against a concrete attribute value.
    pub fn eval_value(&self, actual: Value, cmp: &AttrCmp) -> bool {
        use std::cmp::Ordering::*;
        match cmp {
            AttrCmp::Eq(v) => actual.compare(*v) == Some(Equal),
            AttrCmp::Ne(v) => matches!(actual.compare(*v), Some(Less) | Some(Greater)),
            AttrCmp::Lt(v) => actual.compare(*v) == Some(Less),
            AttrCmp::Le(v) => matches!(actual.compare(*v), Some(Less) | Some(Equal)),
            AttrCmp::Gt(v) => actual.compare(*v) == Some(Greater),
            AttrCmp::Ge(v) => matches!(actual.compare(*v), Some(Greater) | Some(Equal)),
            AttrCmp::Like(p) => match actual {
                Value::Str(sym) => p.matches(self.interner.resolve(sym)),
                Value::Ip(ip) => p.matches(&ip.to_string()),
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{FileAttrs, IpV4, NetConnAttrs, ProcessAttrs, Protocol};

    fn store_with_procs(names: &[&str]) -> EntityStore {
        let mut s = EntityStore::new();
        for (i, name) in names.iter().enumerate() {
            let exe = s.interner_mut().intern(name);
            let user = s.interner_mut().intern("alice");
            let cmd = s.interner_mut().intern("");
            s.intern(
                AgentId(1),
                EntityAttrs::Process(ProcessAttrs {
                    pid: 1000 + i as u32,
                    exe_name: exe,
                    user,
                    cmdline: cmd,
                }),
            );
        }
        s
    }

    #[test]
    fn interning_dedups_identical_entities() {
        let mut s = EntityStore::new();
        let exe = s.interner_mut().intern("cmd.exe");
        let user = s.interner_mut().intern("bob");
        let cmd = s.interner_mut().intern("");
        let attrs = EntityAttrs::Process(ProcessAttrs {
            pid: 42,
            exe_name: exe,
            user,
            cmdline: cmd,
        });
        let a = s.intern(AgentId(1), attrs);
        let b = s.intern(AgentId(1), attrs);
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dedup_hits(), 1);
        // Same attrs on another host is a different entity.
        let c = s.intern(AgentId(2), attrs);
        assert_ne!(a, c);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn like_lookup_uses_name_dictionary() {
        let s = store_with_procs(&[
            "C:\\Windows\\cmd.exe",
            "C:\\Windows\\powershell.exe",
            "/usr/bin/bash",
        ]);
        let found = s.find(
            EntityKind::Process,
            None,
            &[EntityConstraint::on_default(
                EntityKind::Process,
                AttrCmp::Like(StringPattern::new("%cmd.exe")),
            )],
        );
        assert_eq!(found.len(), 1);
        let e = s.get(found[0]);
        assert_eq!(e.kind(), EntityKind::Process);
    }

    #[test]
    fn agent_filter_applies() {
        let mut s = store_with_procs(&["a.exe"]);
        let exe = s.interner_mut().intern("a.exe");
        let user = s.interner_mut().intern("alice");
        let cmd = s.interner_mut().intern("");
        s.intern(
            AgentId(2),
            EntityAttrs::Process(ProcessAttrs {
                pid: 7,
                exe_name: exe,
                user,
                cmdline: cmd,
            }),
        );
        let only_agent2 = s.find(EntityKind::Process, Some(&[AgentId(2)]), &[]);
        assert_eq!(only_agent2.len(), 1);
        assert_eq!(s.get(only_agent2[0]).agent, AgentId(2));
    }

    #[test]
    fn netconn_dst_ip_index() {
        let mut s = EntityStore::new();
        for d in [1u8, 2, 129] {
            s.intern(
                AgentId(1),
                EntityAttrs::NetConn(NetConnAttrs {
                    src_ip: IpV4::from_octets(10, 0, 0, 5),
                    src_port: 5000,
                    dst_ip: IpV4::from_octets(10, 0, 4, d),
                    dst_port: 443,
                    protocol: Protocol::Tcp,
                }),
            );
        }
        let hit = s.find(
            EntityKind::NetConn,
            None,
            &[EntityConstraint {
                attr: Attr::DstIp,
                cmp: AttrCmp::Eq(Value::Ip(IpV4::from_octets(10, 0, 4, 129))),
            }],
        );
        assert_eq!(hit.len(), 1);
        // LIKE over rendered IPs also works (`%.129`).
        let like = s.find(
            EntityKind::NetConn,
            None,
            &[EntityConstraint {
                attr: Attr::DstIp,
                cmp: AttrCmp::Like(StringPattern::new("%.129")),
            }],
        );
        assert_eq!(like, hit);
    }

    #[test]
    fn numeric_constraints_scan_dictionary() {
        let s = store_with_procs(&["a", "b", "c"]);
        let found = s.find(
            EntityKind::Process,
            None,
            &[EntityConstraint {
                attr: Attr::Pid,
                cmp: AttrCmp::Ge(Value::Int(1001)),
            }],
        );
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn file_name_index() {
        let mut s = EntityStore::new();
        for name in ["/var/www/info_stealer.sh", "/etc/passwd", "/tmp/x"] {
            let n = s.interner_mut().intern(name);
            let o = s.interner_mut().intern("root");
            s.intern(
                AgentId(3),
                EntityAttrs::File(FileAttrs { name: n, owner: o }),
            );
        }
        let found = s.find(
            EntityKind::File,
            None,
            &[EntityConstraint::on_default(
                EntityKind::File,
                AttrCmp::Like(StringPattern::new("%info_stealer%")),
            )],
        );
        assert_eq!(found.len(), 1);
        assert_eq!(s.count_kind(EntityKind::File), 3);
    }

    #[test]
    fn kind_mismatch_yields_empty() {
        let s = store_with_procs(&["x"]);
        assert!(s.find(EntityKind::File, None, &[]).is_empty());
    }

    /// Every pattern shape must resolve through the dictionary indexes to
    /// exactly the ids a per-entity match of the pattern finds, sorted and
    /// deduped.
    #[test]
    fn dictionary_index_agrees_with_per_entity_match() {
        let names = [
            "C:\\Windows\\System32\\cmd.exe",
            "C:\\Windows\\CMD.EXE", // distinct casing, distinct symbol
            "C:\\Windows\\System32\\osql.exe",
            "/usr/sbin/sqlservr.exe",
            "/var/www/uploads/info_stealer.sh",
            "/var/www/uploads/index.php",
            "sbblv.exe",
            "ab", // shorter than a trigram
            "",
        ];
        let indexed = store_with_procs(&names);
        let patterns = [
            "%cmd.exe",       // suffix, matches both casings
            "cmd.exe",        // exact (case-insensitive like)
            "C:\\Windows\\%", // prefix
            "%info_stealer%", // infix
            "%sql%",          // infix hitting two names
            "%o_ql%",         // `_` one-char wildcard inside a run
            "%",              // matches everything
            "ab",             // short exact
            "%zz%",           // no candidate trigram
            "",               // empty exact
            "x_",             // short scan shape, no trigram
        ];
        for pat in patterns {
            let c = [EntityConstraint::on_default(
                EntityKind::Process,
                AttrCmp::Like(StringPattern::new(pat)),
            )];
            let a = indexed.find(EntityKind::Process, None, &c);
            // Reference: the pattern against each entity's own name, in id
            // order — no dictionary index, no distinct-string grouping.
            let like = StringPattern::new(pat);
            let b: Vec<EntityId> = indexed
                .iter()
                .filter(|e| match e.attrs {
                    EntityAttrs::Process(p) => like.matches(indexed.interner().resolve(p.exe_name)),
                    _ => false,
                })
                .map(|e| e.id)
                .collect();
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted: {pat}");
            assert_eq!(a, b, "pattern {pat:?}");
        }
    }

    #[test]
    fn ip_like_resolves_through_trigram_index() {
        let mut s = EntityStore::new();
        for d in [1u8, 2, 129, 130] {
            s.intern(
                AgentId(1),
                EntityAttrs::NetConn(NetConnAttrs {
                    src_ip: IpV4::from_octets(10, 0, 0, 5),
                    src_port: 5000,
                    dst_ip: IpV4::from_octets(172, 16, 99, d),
                    dst_port: 443,
                    protocol: Protocol::Tcp,
                }),
            );
        }
        let like = |pat: &str| {
            s.find(
                EntityKind::NetConn,
                None,
                &[EntityConstraint {
                    attr: Attr::DstIp,
                    cmp: AttrCmp::Like(StringPattern::new(pat)),
                }],
            )
        };
        assert_eq!(like("172.16.99.%").len(), 4);
        assert_eq!(like("%.129").len(), 1);
        assert_eq!(like("172.16.99.129").len(), 1);
        assert!(like("10.0.%").is_empty());
    }

    #[test]
    fn agent_restriction_covering_all_hosts_is_dropped() {
        let mut s = store_with_procs(&["a.exe", "b.exe"]);
        let exe = s.interner_mut().intern("a.exe");
        let user = s.interner_mut().intern("alice");
        let cmd = s.interner_mut().intern("");
        s.intern(
            AgentId(9),
            EntityAttrs::Process(ProcessAttrs {
                pid: 7,
                exe_name: exe,
                user,
                cmdline: cmd,
            }),
        );
        let unrestricted = s.find(EntityKind::Process, None, &[]);
        // A superset of every observed host behaves exactly like `None`
        // (and exercises the unsorted-input path: agents arrive unsorted).
        let all = s.find(
            EntityKind::Process,
            Some(&[AgentId(9), AgentId(1), AgentId(3)]),
            &[],
        );
        assert_eq!(all, unrestricted);
        // A genuine restriction still filters.
        let only9 = s.find(EntityKind::Process, Some(&[AgentId(9)]), &[]);
        assert_eq!(only9.len(), 1);
        assert!(s.find(EntityKind::Process, Some(&[]), &[]).is_empty());
    }

    #[test]
    fn index_lookup_outputs_are_sorted_and_deduped() {
        // Two constraints resolvable by index: find must seed from the
        // smaller and still return ascending ids.
        let s = store_with_procs(&["match.exe", "other.exe", "match.exe2", "MATCH.exe"]);
        let found = s.find(
            EntityKind::Process,
            None,
            &[EntityConstraint::on_default(
                EntityKind::Process,
                AttrCmp::Like(StringPattern::new("%match%")),
            )],
        );
        assert_eq!(found.len(), 3);
        assert!(found.windows(2).all(|w| w[0] < w[1]));
    }
}
