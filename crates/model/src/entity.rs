//! System entities: processes, files, and network connections.
//!
//! In the paper's data model, *subjects* are processes originating from
//! software applications and *objects* can be files, processes, or network
//! connections. Each entity carries the critical security-related attributes
//! collected by the agents. Entities are deduplicated by the storage layer:
//! two observations with identical attributes map to the same [`EntityId`].

use crate::attr::{unknown, Attr};
use crate::error::ModelError;
use crate::ids::{AgentId, EntityId};
use crate::interner::Symbol;
use crate::value::{IpV4, Value};

/// The three kinds of system entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// A process (subject of all events; object of process events).
    Process,
    /// A file.
    File,
    /// A network connection endpoint pair.
    NetConn,
}

impl EntityKind {
    /// The AIQL keyword for this kind (`proc` / `file` / `ip`).
    pub fn keyword(self) -> &'static str {
        match self {
            EntityKind::Process => "proc",
            EntityKind::File => "file",
            EntityKind::NetConn => "ip",
        }
    }

    /// The default attribute used by AIQL's context-aware syntax shortcuts:
    /// `proc p["%cmd.exe"]` constrains `exe_name`, `file f["%.dmp"]`
    /// constrains `name`, `ip i` in a return clause projects `dst_ip`.
    pub fn default_attr(self) -> Attr {
        match self {
            EntityKind::Process => Attr::ExeName,
            EntityKind::File => Attr::Path,
            EntityKind::NetConn => Attr::DstIp,
        }
    }
}

/// Transport protocol of a network connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

impl Protocol {
    /// Lowercase protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tcp => "tcp",
            Protocol::Udp => "udp",
        }
    }
}

/// Attributes of a process entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessAttrs {
    /// OS process id.
    pub pid: u32,
    /// Executable path/name (interned).
    pub exe_name: Symbol,
    /// Owning user (interned).
    pub user: Symbol,
    /// Command line (interned).
    pub cmdline: Symbol,
}

/// Attributes of a file entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileAttrs {
    /// Full path (interned).
    pub name: Symbol,
    /// Owning user (interned).
    pub owner: Symbol,
}

/// Attributes of a network connection entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetConnAttrs {
    /// Source address.
    pub src_ip: IpV4,
    /// Source port.
    pub src_port: u16,
    /// Destination address.
    pub dst_ip: IpV4,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

/// Kind-specific attribute payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityAttrs {
    /// Process attributes.
    Process(ProcessAttrs),
    /// File attributes.
    File(FileAttrs),
    /// Network connection attributes.
    NetConn(NetConnAttrs),
}

impl EntityAttrs {
    /// The kind of entity these attributes describe.
    pub fn kind(&self) -> EntityKind {
        match self {
            EntityAttrs::Process(_) => EntityKind::Process,
            EntityAttrs::File(_) => EntityKind::File,
            EntityAttrs::NetConn(_) => EntityKind::NetConn,
        }
    }

    /// The value of an attribute; `None` when these attributes lack it
    /// (`agentid` is the [`Entity`]'s).
    pub fn value(&self, attr: Attr) -> Option<Value> {
        Some(match (self, attr) {
            (EntityAttrs::Process(p), Attr::Pid) => Value::Int(i64::from(p.pid)),
            (EntityAttrs::Process(p), Attr::ExeName) => Value::Str(p.exe_name),
            (EntityAttrs::Process(p), Attr::User) => Value::Str(p.user),
            (EntityAttrs::Process(p), Attr::Cmdline) => Value::Str(p.cmdline),
            (EntityAttrs::File(f), Attr::Path) => Value::Str(f.name),
            (EntityAttrs::File(f), Attr::Owner) => Value::Str(f.owner),
            (EntityAttrs::NetConn(n), Attr::SrcIp) => Value::Ip(n.src_ip),
            (EntityAttrs::NetConn(n), Attr::SrcPort) => Value::Int(i64::from(n.src_port)),
            (EntityAttrs::NetConn(n), Attr::DstIp) => Value::Ip(n.dst_ip),
            (EntityAttrs::NetConn(n), Attr::DstPort) => Value::Int(i64::from(n.dst_port)),
            (EntityAttrs::NetConn(n), Attr::Protocol) => Value::Int(match n.protocol {
                Protocol::Tcp => 6,
                Protocol::Udp => 17,
            }),
            _ => return None,
        })
    }

    /// The value of the kind's default attribute (used by the dictionary
    /// pattern index and the context-aware shortcuts).
    pub fn default_value(&self) -> Value {
        match self {
            EntityAttrs::Process(p) => Value::Str(p.exe_name),
            EntityAttrs::File(f) => Value::Str(f.name),
            EntityAttrs::NetConn(n) => Value::Ip(n.dst_ip),
        }
    }
}

/// A deduplicated system entity: attributes plus the host it was observed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Entity {
    /// Store-local dense id.
    pub id: EntityId,
    /// Host the entity was observed on.
    pub agent: AgentId,
    /// Kind-specific attributes.
    pub attrs: EntityAttrs,
}

impl Entity {
    /// The entity kind.
    pub fn kind(&self) -> EntityKind {
        self.attrs.kind()
    }

    /// Attribute lookup by name ([`Attr::resolve`]): `"name"` on a process
    /// resolves to `exe_name`, so the context-aware shortcut works
    /// uniformly, and `agentid` resolves on any kind because every entity
    /// is host-local.
    pub fn get(&self, attr: &str) -> Result<Value, ModelError> {
        let kind = Some(self.kind());
        let resolved = Attr::resolve(kind, attr)?;
        self.value(resolved).ok_or_else(|| unknown(kind, attr))
    }

    /// The value of an attribute; `None` when the entity's kind lacks it.
    pub fn value(&self, attr: Attr) -> Option<Value> {
        match attr {
            Attr::AgentId => Some(Value::Int(i64::from(self.agent.raw()))),
            _ => self.attrs.value(attr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_entity() -> Entity {
        Entity {
            id: EntityId(1),
            agent: AgentId(7),
            attrs: EntityAttrs::Process(ProcessAttrs {
                pid: 4242,
                exe_name: Symbol(10),
                user: Symbol(11),
                cmdline: Symbol(12),
            }),
        }
    }

    #[test]
    fn default_attrs_per_kind() {
        use EntityKind::{File, NetConn, Process};
        assert_eq!(
            Attr::resolve(Some(Process), "exe_name"),
            Ok(Process.default_attr())
        );
        assert_eq!(Attr::resolve(Some(File), "name"), Ok(File.default_attr()));
        assert_eq!(
            Attr::resolve(Some(NetConn), "dst_ip"),
            Ok(NetConn.default_attr())
        );
    }

    #[test]
    fn process_attribute_lookup() {
        let e = proc_entity();
        assert_eq!(e.get("pid").unwrap(), Value::Int(4242));
        assert_eq!(e.get("exe_name").unwrap(), Value::Str(Symbol(10)));
        // "name" aliases exe_name on processes (context-aware shortcut).
        assert_eq!(e.get("name").unwrap(), Value::Str(Symbol(10)));
        assert_eq!(e.get("agentid").unwrap(), Value::Int(7));
        assert!(e.get("dstip").is_err());
    }

    #[test]
    fn netconn_attribute_lookup() {
        let e = Entity {
            id: EntityId(2),
            agent: AgentId(1),
            attrs: EntityAttrs::NetConn(NetConnAttrs {
                src_ip: IpV4::from_octets(10, 0, 0, 1),
                src_port: 50000,
                dst_ip: IpV4::from_octets(10, 0, 4, 129),
                dst_port: 443,
                protocol: Protocol::Tcp,
            }),
        };
        assert_eq!(
            e.get("dstip").unwrap(),
            Value::Ip(IpV4::from_octets(10, 0, 4, 129))
        );
        assert_eq!(e.get("dst_port").unwrap(), Value::Int(443));
        assert_eq!(e.get("protocol").unwrap(), Value::Int(6));
        assert!(e.get("cmdline").is_err());
    }

    #[test]
    fn file_attribute_lookup() {
        let e = Entity {
            id: EntityId(3),
            agent: AgentId(2),
            attrs: EntityAttrs::File(FileAttrs {
                name: Symbol(20),
                owner: Symbol(21),
            }),
        };
        assert_eq!(e.get("name").unwrap(), Value::Str(Symbol(20)));
        assert_eq!(e.get("path").unwrap(), Value::Str(Symbol(20)));
        assert_eq!(e.get("owner").unwrap(), Value::Str(Symbol(21)));
        assert_eq!(e.kind(), EntityKind::File);
    }

    #[test]
    fn unknown_attribute_error_names_kind() {
        let e = proc_entity();
        let err = e.get("nonsense").unwrap_err();
        assert!(err.to_string().contains("proc"));
    }
}
