//! Event scan filters (the predicate pushdown surface).
//!
//! An [`EventFilter`] is what an engine hands to the store: the global
//! spatial/temporal constraints plus the per-pattern operation set and
//! (optionally) the already-resolved subject/object entity id sets. The
//! storage layer picks an access path per segment — posting lists when an id
//! set is small, operation postings when the op set is selective, otherwise
//! a column scan.

use aiql_model::{AgentId, EntityId, Event, Operation, TimeWindow, OPERATION_COUNT};

/// A set of operations, encoded as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSet(pub u16);

// The mask math below silently corrupts if operations outgrow the u16; fail
// the build instead of the queries when someone adds a 17th operation.
const _: () = assert!(
    OPERATION_COUNT <= 16,
    "OpSet is a u16 bitmask; widen OpSet before adding more operations"
);

impl OpSet {
    /// The empty set.
    pub const EMPTY: OpSet = OpSet(0);
    /// All operations.
    pub const ALL: OpSet = OpSet((1 << OPERATION_COUNT as u16) - 1);

    /// A singleton set.
    pub fn single(op: Operation) -> Self {
        OpSet(1 << op.index() as u16)
    }

    /// Builds a set from a slice of operations.
    pub fn from_ops(ops: &[Operation]) -> Self {
        let mut s = OpSet::EMPTY;
        for &op in ops {
            s = s.with(op);
        }
        s
    }

    /// Returns the set with `op` added.
    #[must_use]
    pub fn with(self, op: Operation) -> Self {
        OpSet(self.0 | (1 << op.index() as u16))
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, op: Operation) -> bool {
        self.0 & (1 << op.index() as u16) != 0
    }

    /// Number of operations in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether this set covers every operation.
    pub fn is_all(self) -> bool {
        self.0 == Self::ALL.0
    }

    /// Iterates the member operations.
    pub fn iter(self) -> impl Iterator<Item = Operation> {
        (0..OPERATION_COUNT).filter_map(move |i| {
            if self.0 & (1 << i as u16) != 0 {
                Operation::from_index(i)
            } else {
                None
            }
        })
    }
}

/// A set of entity ids used for semi-join pushdown, stored as a dense
/// word-packed bitmap over the raw id space.
///
/// Entity ids are dictionary-assigned dense indices (see
/// `aiql_model::ids`), so a bitmap of `max_id / 64` words is compact, gives
/// O(1) membership inside column predicate loops, and makes the semi-join
/// narrowing of binding propagation a word-wise AND instead of a rebuilt
/// hash set.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    words: Vec<u64>,
    /// Bit `i` is set iff `words[i]` is nonzero. Iteration visits only the
    /// nonempty words, so a sparse set over a large id space iterates in
    /// O(words / 64 + len) instead of testing every word — that word-skip
    /// loop ran once per segment a selective scan reads.
    nonempty: Vec<u64>,
    len: usize,
}

/// Positions of the set bits of `words`, ascending (`word * 64 + bit`).
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(i * 64 + bit)
        })
    })
}

impl IdSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from any id iterator (inherent convenience; the trait impl
    /// below covers generic contexts).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(ids: impl IntoIterator<Item = EntityId>) -> Self {
        let mut s = IdSet::new();
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: EntityId) -> bool {
        let idx = id.index();
        match self.words.get(idx >> 6) {
            Some(w) => w & (1u64 << (idx & 63)) != 0,
            None => false,
        }
    }

    /// Inserts an id.
    pub fn insert(&mut self, id: EntityId) {
        let idx = id.index();
        let word = idx >> 6;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
            self.nonempty.resize((word >> 6) + 1, 0);
        }
        let bit = 1u64 << (idx & 63);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.nonempty[word >> 6] |= 1u64 << (word & 63);
            self.len += 1;
        }
    }

    /// Intersects in place (word-wise AND) — the semi-join narrowing step.
    pub fn intersect_with(&mut self, other: &IdSet) {
        if other.words.len() < self.words.len() {
            self.words.truncate(other.words.len());
        }
        let mut len = 0usize;
        let mut nonempty = vec![0u64; self.words.len().div_ceil(64)];
        for (i, (w, o)) in self.words.iter_mut().zip(&other.words).enumerate() {
            *w &= *o;
            len += w.count_ones() as usize;
            nonempty[i >> 6] |= u64::from(*w != 0) << (i & 63);
        }
        self.nonempty = nonempty;
        self.len = len;
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = EntityId> + '_ {
        set_bits(&self.nonempty).flat_map(move |wi| {
            set_bits(&self.words[wi..=wi]).map(move |bit| EntityId((wi * 64 + bit) as u32))
        })
    }
}

impl PartialEq for IdSet {
    fn eq(&self, other: &Self) -> bool {
        // Logical set equality: ignore trailing zero words.
        if self.len != other.len {
            return false;
        }
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for IdSet {}

impl FromIterator<EntityId> for IdSet {
    fn from_iter<T: IntoIterator<Item = EntityId>>(iter: T) -> Self {
        Self::from_iter(iter)
    }
}

/// A pushed-down event predicate.
#[derive(Debug, Clone)]
pub struct EventFilter {
    /// Temporal constraint (`[start, end)`).
    pub window: TimeWindow,
    /// Spatial constraint; `None` means all hosts.
    pub agents: Option<Vec<AgentId>>,
    /// Operations to match.
    pub ops: OpSet,
    /// If set, the subject must be in this set.
    pub subjects: Option<IdSet>,
    /// If set, the object must be in this set.
    pub objects: Option<IdSet>,
    /// Minimum `amount` (bytes), if any.
    pub min_amount: Option<u64>,
}

impl Default for EventFilter {
    fn default() -> Self {
        Self::all()
    }
}

impl EventFilter {
    /// A filter matching every event.
    pub fn all() -> Self {
        EventFilter {
            window: TimeWindow::ALL,
            agents: None,
            ops: OpSet::ALL,
            subjects: None,
            objects: None,
            min_amount: None,
        }
    }

    /// Restricts the filter to a time window (intersection).
    #[must_use]
    pub fn with_window(mut self, window: TimeWindow) -> Self {
        self.window = self.window.intersect(&window);
        self
    }

    /// Restricts the filter to a set of agents.
    #[must_use]
    pub fn with_agents(mut self, agents: Vec<AgentId>) -> Self {
        self.agents = Some(agents);
        self
    }

    /// Restricts the operation set.
    #[must_use]
    pub fn with_ops(mut self, ops: OpSet) -> Self {
        self.ops = ops;
        self
    }

    /// Restricts subjects to an id set.
    #[must_use]
    pub fn with_subjects(mut self, ids: IdSet) -> Self {
        self.subjects = Some(ids);
        self
    }

    /// Restricts objects to an id set.
    #[must_use]
    pub fn with_objects(mut self, ids: IdSet) -> Self {
        self.objects = Some(ids);
        self
    }

    /// Whether a fully materialized event satisfies every predicate. This is
    /// the reference semantics; the segment scanners must agree with it.
    pub fn matches(&self, e: &Event) -> bool {
        if !self.ops.contains(e.op) {
            return false;
        }
        if !self.window.contains(e.start_time) {
            return false;
        }
        if let Some(agents) = &self.agents {
            if !agents.contains(&e.agent) {
                return false;
            }
        }
        if let Some(s) = &self.subjects {
            if !s.contains(e.subject) {
                return false;
            }
        }
        if let Some(o) = &self.objects {
            if !o.contains(e.object) {
                return false;
            }
        }
        if let Some(min) = self.min_amount {
            if e.amount < min {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{EventId, Timestamp};

    fn ev(op: Operation, agent: u32, t: i64) -> Event {
        Event {
            id: EventId(0),
            agent: AgentId(agent),
            op,
            subject: EntityId(1),
            object: EntityId(2),
            start_time: Timestamp(t),
            end_time: Timestamp(t + 1),
            amount: 10,
        }
    }

    #[test]
    fn opset_membership_and_iter() {
        let s = OpSet::from_ops(&[Operation::Read, Operation::Write]);
        assert!(s.contains(Operation::Read));
        assert!(s.contains(Operation::Write));
        assert!(!s.contains(Operation::Connect));
        assert_eq!(s.len(), 2);
        let ops: Vec<_> = s.iter().collect();
        assert_eq!(ops, vec![Operation::Read, Operation::Write]);
    }

    #[test]
    fn opset_all_contains_everything() {
        for op in aiql_model::event::ALL_OPERATIONS {
            assert!(OpSet::ALL.contains(op));
        }
        assert!(OpSet::ALL.is_all());
        assert!(OpSet::EMPTY.is_empty());
    }

    #[test]
    fn filter_matches_reference_semantics() {
        let f = EventFilter::all()
            .with_ops(OpSet::single(Operation::Read))
            .with_window(TimeWindow::new(Timestamp(0), Timestamp(100)))
            .with_agents(vec![AgentId(1)]);
        assert!(f.matches(&ev(Operation::Read, 1, 50)));
        assert!(!f.matches(&ev(Operation::Write, 1, 50)));
        assert!(!f.matches(&ev(Operation::Read, 2, 50)));
        assert!(!f.matches(&ev(Operation::Read, 1, 150)));
    }

    #[test]
    fn filter_entity_sets() {
        let f = EventFilter::all()
            .with_subjects(IdSet::from_iter([EntityId(1)]))
            .with_objects(IdSet::from_iter([EntityId(9)]));
        let mut e = ev(Operation::Read, 1, 1);
        assert!(!f.matches(&e)); // object 2 not in {9}
        e.object = EntityId(9);
        assert!(f.matches(&e));
        e.subject = EntityId(5);
        assert!(!f.matches(&e));
    }

    #[test]
    fn filter_min_amount() {
        let mut f = EventFilter::all();
        f.min_amount = Some(100);
        let mut e = ev(Operation::Send, 1, 1);
        assert!(!f.matches(&e));
        e.amount = 100;
        assert!(f.matches(&e));
    }

    #[test]
    fn idset_basics() {
        let mut s = IdSet::new();
        assert!(s.is_empty());
        s.insert(EntityId(3));
        assert!(s.contains(EntityId(3)));
        assert!(!s.contains(EntityId(4)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn idset_bitmap_across_words() {
        let ids = [0u32, 1, 63, 64, 65, 127, 128, 1000];
        let s = IdSet::from_iter(ids.iter().map(|&i| EntityId(i)));
        assert_eq!(s.len(), ids.len());
        for &i in &ids {
            assert!(s.contains(EntityId(i)));
        }
        assert!(!s.contains(EntityId(999)));
        assert!(!s.contains(EntityId(100_000)));
        // Iteration is ascending.
        let got: Vec<u32> = s.iter().map(EntityId::raw).collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn idset_duplicate_inserts_counted_once() {
        let mut s = IdSet::new();
        s.insert(EntityId(70));
        s.insert(EntityId(70));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn idset_intersect_in_place() {
        let mut a = IdSet::from_iter([1, 64, 65, 200, 500].map(EntityId));
        let b = IdSet::from_iter([64, 200, 501].map(EntityId));
        a.intersect_with(&b);
        assert_eq!(a.len(), 2);
        let got: Vec<u32> = a.iter().map(EntityId::raw).collect();
        assert_eq!(got, vec![64, 200]);
        // Intersection with a shorter bitmap truncates the tail words.
        let mut c = IdSet::from_iter([5, 100_000].map(EntityId));
        let d = IdSet::from_iter([5].map(EntityId));
        c.intersect_with(&d);
        assert_eq!(c.len(), 1);
        assert!(!c.contains(EntityId(100_000)));
    }

    #[test]
    fn idset_iterates_sparse_sets_in_order_across_intersections() {
        let sorted = |ids: &[u32]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        let items = |s: &IdSet| s.iter().map(EntityId::raw).collect::<Vec<_>>();
        // Sparse over ~2 300 words, so most summary bits are clear.
        let a_ids: Vec<u32> = (0..400).map(|i| (i * 7_919) % 150_000).collect();
        let b_ids: Vec<u32> = (0..600).map(|i| (i * 104_729) % 150_000).collect();
        let mut a = IdSet::from_iter(a_ids.iter().map(|&i| EntityId(i)));
        let b = IdSet::from_iter(b_ids.iter().map(|&i| EntityId(i)));
        assert_eq!(items(&a), sorted(&a_ids));
        a.intersect_with(&b);
        let both: Vec<u32> = sorted(&a_ids)
            .into_iter()
            .filter(|i| b_ids.contains(i))
            .collect();
        assert!(!both.is_empty());
        assert_eq!(items(&a), both);
        assert_eq!(a.len(), both.len());
        // Emptied words drop out of the summary; a truncating intersection
        // keeps only the words both sides have.
        a.intersect_with(&IdSet::from_iter([EntityId(both[0])]));
        assert_eq!(items(&a), vec![both[0]]);
        a.insert(EntityId(149_999));
        assert_eq!(items(&a), vec![both[0], 149_999]);
    }

    #[test]
    fn idset_logical_equality_ignores_capacity() {
        let mut a = IdSet::from_iter([3, 100_000].map(EntityId));
        let b = IdSet::from_iter([3].map(EntityId));
        assert_ne!(a, b);
        let empty = IdSet::from_iter([100_000].map(EntityId));
        a.intersect_with(&b);
        // a now equals b logically even though its word vector is longer.
        assert_eq!(a, b);
        assert_ne!(a, empty);
    }
}
