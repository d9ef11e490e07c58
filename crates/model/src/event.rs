//! System events: the ⟨subject, operation, object⟩ interaction records.
//!
//! Events are the unit of storage and querying. Each event occurred on a
//! particular host (spatial dimension) at a particular time (temporal
//! dimension); the engine's partitioned execution is built on exactly these
//! two properties. Events are categorized into file / process / network
//! events according to their *object* entity, mirroring §2.1 of the paper.

use std::fmt;

use crate::attr::Attr;
use crate::entity::EntityKind;
use crate::error::ModelError;
use crate::ids::{AgentId, EntityId, EventId};
use crate::time::Timestamp;
use crate::value::Value;

/// Operations recorded by the data collection agents.
///
/// The subject of every operation is a process; the legal object kind is
/// determined by the operation (see [`Operation::object_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Operation {
    /// Process reads a file.
    Read = 0,
    /// Process writes a file.
    Write = 1,
    /// Process executes a file (image load / exec).
    Execute = 2,
    /// Process deletes a file.
    Delete = 3,
    /// Process renames a file.
    Rename = 4,
    /// Process starts another process.
    Start = 5,
    /// Process terminates another process.
    End = 6,
    /// Process opens an outbound network connection.
    Connect = 7,
    /// Process accepts an inbound network connection.
    Accept = 8,
    /// Process sends data over a connection.
    Send = 9,
    /// Process receives data over a connection.
    Recv = 10,
}

/// Total number of distinct operations (for dense per-op arrays).
pub const OPERATION_COUNT: usize = 11;

/// All operations in discriminant order.
pub const ALL_OPERATIONS: [Operation; OPERATION_COUNT] = [
    Operation::Read,
    Operation::Write,
    Operation::Execute,
    Operation::Delete,
    Operation::Rename,
    Operation::Start,
    Operation::End,
    Operation::Connect,
    Operation::Accept,
    Operation::Send,
    Operation::Recv,
];

impl Operation {
    /// The AIQL keyword for the operation.
    pub fn keyword(self) -> &'static str {
        match self {
            Operation::Read => "read",
            Operation::Write => "write",
            Operation::Execute => "execute",
            Operation::Delete => "delete",
            Operation::Rename => "rename",
            Operation::Start => "start",
            Operation::End => "end",
            Operation::Connect => "connect",
            Operation::Accept => "accept",
            Operation::Send => "send",
            Operation::Recv => "recv",
        }
    }

    /// Parses an AIQL operation keyword.
    pub fn parse(s: &str) -> Result<Self, ModelError> {
        Ok(match s {
            "read" => Operation::Read,
            "write" => Operation::Write,
            "execute" | "exec" => Operation::Execute,
            "delete" => Operation::Delete,
            "rename" => Operation::Rename,
            "start" => Operation::Start,
            "end" | "terminate" => Operation::End,
            "connect" => Operation::Connect,
            "accept" => Operation::Accept,
            "send" => Operation::Send,
            "recv" | "receive" => Operation::Recv,
            _ => {
                return Err(ModelError::UnknownAttribute {
                    kind: "operation",
                    attr: s.to_string(),
                })
            }
        })
    }

    /// Dense index for per-op arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Reconstructs an operation from its dense index.
    pub fn from_index(i: usize) -> Option<Self> {
        ALL_OPERATIONS.get(i).copied()
    }

    /// The *primary* object entity kind of this operation, used to
    /// categorize events into file/process/network events.
    pub fn object_kind(self) -> EntityKind {
        match self {
            Operation::Read
            | Operation::Write
            | Operation::Execute
            | Operation::Delete
            | Operation::Rename => EntityKind::File,
            Operation::Start | Operation::End => EntityKind::Process,
            Operation::Connect | Operation::Accept | Operation::Send | Operation::Recv => {
                EntityKind::NetConn
            }
        }
    }

    /// All object entity kinds this operation may legally target.
    ///
    /// `read`/`write` move data to files *or* network connections (the
    /// paper's Query 1 and Query 3 both use `proc … read || write ip …`),
    /// and `connect`/`accept` may target processes directly — the
    /// cross-host tracking edges of dependency queries.
    pub fn allowed_object_kinds(self) -> &'static [EntityKind] {
        match self {
            Operation::Read | Operation::Write => &[EntityKind::File, EntityKind::NetConn],
            Operation::Execute | Operation::Delete | Operation::Rename => &[EntityKind::File],
            Operation::Start | Operation::End => &[EntityKind::Process],
            Operation::Connect | Operation::Accept => &[EntityKind::NetConn, EntityKind::Process],
            Operation::Send | Operation::Recv => &[EntityKind::NetConn],
        }
    }

    /// The event type (by object kind).
    pub fn event_type(self) -> EventType {
        match self.object_kind() {
            EntityKind::File => EventType::File,
            EntityKind::Process => EventType::Process,
            EntityKind::NetConn => EventType::Network,
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Event category, determined by the object entity kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventType {
    /// Object is a file.
    File,
    /// Object is a process.
    Process,
    /// Object is a network connection.
    Network,
}

/// A recorded system event: ⟨subject, operation, object⟩ plus spatial and
/// temporal context and the data amount moved (for read/write/send/recv).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Store-assigned id, unique and monotone in commit order.
    pub id: EventId,
    /// Host the event occurred on.
    pub agent: AgentId,
    /// The operation performed.
    pub op: Operation,
    /// Subject process entity.
    pub subject: EntityId,
    /// Object entity (file / process / network connection).
    pub object: EntityId,
    /// Start of the interaction.
    pub start_time: Timestamp,
    /// End of the interaction (>= `start_time`).
    pub end_time: Timestamp,
    /// Bytes transferred (0 when not applicable).
    pub amount: u64,
}

impl Event {
    /// The event category.
    pub fn event_type(&self) -> EventType {
        self.op.event_type()
    }

    /// Event-level attribute lookup used by query evaluation
    /// (`evt.amount`, `evt.starttime`, …); names resolve through
    /// [`Attr::resolve`].
    pub fn get(&self, attr: &str) -> Result<Value, ModelError> {
        Ok(self.value(Attr::resolve(None, attr)?))
    }

    /// The value of an event attribute (`Null` for an entity's, which no
    /// event name resolves to).
    pub fn value(&self, attr: Attr) -> Value {
        match attr {
            Attr::Amount => Value::Int(self.amount as i64),
            Attr::StartTime => Value::Time(self.start_time),
            Attr::EndTime => Value::Time(self.end_time),
            Attr::AgentId => Value::Int(i64::from(self.agent.raw())),
            Attr::Operation => Value::Int(self.op.index() as i64),
            Attr::Id => Value::Int(self.id.raw() as i64),
            _ => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_keyword_roundtrip() {
        for op in ALL_OPERATIONS {
            assert_eq!(Operation::parse(op.keyword()).unwrap(), op);
        }
        assert!(Operation::parse("frobnicate").is_err());
    }

    #[test]
    fn op_index_roundtrip() {
        for (i, op) in ALL_OPERATIONS.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(Operation::from_index(i), Some(*op));
        }
        assert_eq!(Operation::from_index(OPERATION_COUNT), None);
    }

    #[test]
    fn event_types_follow_object_kind() {
        assert_eq!(Operation::Read.event_type(), EventType::File);
        assert_eq!(Operation::Start.event_type(), EventType::Process);
        assert_eq!(Operation::Connect.event_type(), EventType::Network);
        assert_eq!(Operation::Send.object_kind(), EntityKind::NetConn);
    }

    #[test]
    fn allowed_object_kinds_cover_data_transfer_and_tracking() {
        assert!(Operation::Write
            .allowed_object_kinds()
            .contains(&EntityKind::NetConn));
        assert!(Operation::Read
            .allowed_object_kinds()
            .contains(&EntityKind::File));
        assert!(Operation::Connect
            .allowed_object_kinds()
            .contains(&EntityKind::Process));
        assert!(!Operation::Start
            .allowed_object_kinds()
            .contains(&EntityKind::File));
    }

    #[test]
    fn aliases_parse() {
        assert_eq!(Operation::parse("exec").unwrap(), Operation::Execute);
        assert_eq!(Operation::parse("terminate").unwrap(), Operation::End);
        assert_eq!(Operation::parse("receive").unwrap(), Operation::Recv);
    }

    #[test]
    fn event_attribute_lookup() {
        let e = Event {
            id: EventId(5),
            agent: AgentId(3),
            op: Operation::Send,
            subject: EntityId(1),
            object: EntityId(2),
            start_time: Timestamp::from_secs(100),
            end_time: Timestamp::from_secs(101),
            amount: 4096,
        };
        assert_eq!(e.get("amount").unwrap(), Value::Int(4096));
        assert_eq!(e.get("agentid").unwrap(), Value::Int(3));
        assert_eq!(
            e.get("starttime").unwrap(),
            Value::Time(Timestamp::from_secs(100))
        );
        assert!(e.get("bogus").is_err());
    }
}
