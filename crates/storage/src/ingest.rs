//! Ingestion records.
//!
//! Data collection agents report *raw* observations: the entity attributes
//! are inline strings because the agent does not know the store's interned
//! ids. [`RawEvent`] is the wire format (also what the WAL persists); the
//! store resolves it against the entity dictionary at batch commit.

use aiql_model::{
    AgentId, EntityAttrs, FileAttrs, IpV4, NetConnAttrs, Operation, ProcessAttrs, Protocol,
    Timestamp,
};

use crate::entities::EntityStore;

/// Entity attributes as reported by an agent (strings not yet interned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntitySpec {
    /// A process observation.
    Process {
        /// OS pid.
        pid: u32,
        /// Executable path.
        exe_name: String,
        /// Owning user.
        user: String,
        /// Command line.
        cmdline: String,
    },
    /// A file observation.
    File {
        /// Full path.
        name: String,
        /// Owning user.
        owner: String,
    },
    /// A network connection observation.
    NetConn {
        /// Source address.
        src_ip: IpV4,
        /// Source port.
        src_port: u16,
        /// Destination address.
        dst_ip: IpV4,
        /// Destination port.
        dst_port: u16,
        /// Transport protocol.
        protocol: Protocol,
    },
}

impl EntitySpec {
    /// Shorthand for a process spec.
    pub fn process(pid: u32, exe_name: &str, user: &str) -> Self {
        EntitySpec::Process {
            pid,
            exe_name: exe_name.to_string(),
            user: user.to_string(),
            cmdline: String::new(),
        }
    }

    /// Shorthand for a file spec.
    pub fn file(name: &str, owner: &str) -> Self {
        EntitySpec::File {
            name: name.to_string(),
            owner: owner.to_string(),
        }
    }

    /// Shorthand for a TCP connection spec.
    pub fn tcp(src_ip: IpV4, src_port: u16, dst_ip: IpV4, dst_port: u16) -> Self {
        EntitySpec::NetConn {
            src_ip,
            src_port,
            dst_ip,
            dst_port,
            protocol: Protocol::Tcp,
        }
    }

    /// Read-only counterpart of [`EntitySpec::resolve`]: produces storable
    /// attributes when every string is already interned, `None` otherwise.
    /// The copy-on-write ingest fast path uses this so batches made of
    /// already-seen entities never clone the shared dictionary.
    pub fn try_resolve(&self, entities: &EntityStore) -> Option<EntityAttrs> {
        let interner = entities.interner();
        match self {
            EntitySpec::Process {
                pid,
                exe_name,
                user,
                cmdline,
            } => Some(EntityAttrs::Process(ProcessAttrs {
                pid: *pid,
                exe_name: interner.get(exe_name)?,
                user: interner.get(user)?,
                cmdline: interner.get(cmdline)?,
            })),
            EntitySpec::File { name, owner } => Some(EntityAttrs::File(FileAttrs {
                name: interner.get(name)?,
                owner: interner.get(owner)?,
            })),
            EntitySpec::NetConn {
                src_ip,
                src_port,
                dst_ip,
                dst_port,
                protocol,
            } => Some(EntityAttrs::NetConn(NetConnAttrs {
                src_ip: *src_ip,
                src_port: *src_port,
                dst_ip: *dst_ip,
                dst_port: *dst_port,
                protocol: *protocol,
            })),
        }
    }

    /// Interns the spec's strings and produces storable attributes.
    pub fn resolve(&self, entities: &mut EntityStore) -> EntityAttrs {
        match self {
            EntitySpec::Process {
                pid,
                exe_name,
                user,
                cmdline,
            } => {
                let exe_name = entities.intern_str(exe_name);
                let user = entities.intern_str(user);
                let cmdline = entities.intern_str(cmdline);
                EntityAttrs::Process(ProcessAttrs {
                    pid: *pid,
                    exe_name,
                    user,
                    cmdline,
                })
            }
            EntitySpec::File { name, owner } => {
                let name = entities.intern_str(name);
                let owner = entities.intern_str(owner);
                EntityAttrs::File(FileAttrs { name, owner })
            }
            EntitySpec::NetConn {
                src_ip,
                src_port,
                dst_ip,
                dst_port,
                protocol,
            } => EntityAttrs::NetConn(NetConnAttrs {
                src_ip: *src_ip,
                src_port: *src_port,
                dst_ip: *dst_ip,
                dst_port: *dst_port,
                protocol: *protocol,
            }),
        }
    }
}

/// One raw observation from an agent: the SVO triple with inline entities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEvent {
    /// Reporting host.
    pub agent: AgentId,
    /// Operation performed.
    pub op: Operation,
    /// Subject process.
    pub subject: EntitySpec,
    /// Object entity.
    pub object: EntitySpec,
    /// Host the *object* entity lives on, when different from the
    /// reporting host — the cross-host tracking edges of dependency
    /// queries (`p1 ->[connect] p2[agentid = 2]`) record a connection whose
    /// subject runs on the reporting host while the peer process runs on
    /// another host.
    pub object_agent: Option<AgentId>,
    /// Interaction start.
    pub start_time: Timestamp,
    /// Interaction end.
    pub end_time: Timestamp,
    /// Bytes moved (0 when not applicable).
    pub amount: u64,
}

impl RawEvent {
    /// Convenience constructor with `end_time == start_time`.
    pub fn instant(
        agent: AgentId,
        op: Operation,
        subject: EntitySpec,
        object: EntitySpec,
        t: Timestamp,
        amount: u64,
    ) -> Self {
        RawEvent {
            agent,
            op,
            subject,
            object,
            object_agent: None,
            start_time: t,
            end_time: t,
            amount,
        }
    }

    /// Marks the object entity as living on another host.
    #[must_use]
    pub fn with_object_agent(mut self, agent: AgentId) -> Self {
        self.object_agent = Some(agent);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::EntityKind;

    #[test]
    fn resolve_interns_strings_once() {
        let mut store = EntityStore::new();
        let spec = EntitySpec::process(10, "/usr/bin/wget", "www");
        let a = spec.resolve(&mut store);
        let b = spec.resolve(&mut store);
        assert_eq!(a, b);
        assert_eq!(a.kind(), EntityKind::Process);
    }

    #[test]
    fn file_and_conn_specs_resolve() {
        let mut store = EntityStore::new();
        let f = EntitySpec::file("/etc/passwd", "root").resolve(&mut store);
        assert_eq!(f.kind(), EntityKind::File);
        let c = EntitySpec::tcp(
            IpV4::from_octets(10, 0, 0, 1),
            1234,
            IpV4::from_octets(10, 0, 4, 129),
            443,
        )
        .resolve(&mut store);
        assert_eq!(c.kind(), EntityKind::NetConn);
    }
}
