//! The attribute names a query can use, in one table.
//!
//! [`Entity::get`](crate::Entity::get) and [`Event::get`](crate::Event::get)
//! resolve a name through [`Attr::resolve`], and so does the engine's
//! semantic analysis: a name is accepted at analysis exactly when a row can
//! be read by it.

use crate::entity::EntityKind;
use crate::error::ModelError;

/// An attribute of an entity or of an event ([`Attr::resolve`] holds the
/// names of each): a process's (`Pid` … `Cmdline`), a file's (`Path`,
/// `Owner`), a connection's (`SrcIp` … `Protocol`, its IP protocol
/// number), anyone's host (`AgentId`), or an event's (`Amount` … `Id`;
/// `Operation` is the operation's dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attr {
    Pid,
    ExeName,
    User,
    Cmdline,
    Path,
    Owner,
    SrcIp,
    SrcPort,
    DstIp,
    DstPort,
    Protocol,
    AgentId,
    Amount,
    StartTime,
    EndTime,
    Operation,
    Id,
}

impl Attr {
    /// Resolves `name` on an entity of kind `owner`, or on an event
    /// (`None`). The arms are the table: each spelling of an attribute is a
    /// name of its own, and `agentid` belongs to every owner.
    #[inline]
    pub fn resolve(owner: Option<EntityKind>, name: &str) -> Result<Attr, ModelError> {
        use Attr::*;
        let attr = match owner {
            None => match name {
                "amount" => Amount,
                "starttime" | "start_time" => StartTime,
                "endtime" | "end_time" => EndTime,
                "optype" | "operation" => Operation,
                "id" => Id,
                "agentid" => AgentId,
                _ => return Err(unknown(owner, name)),
            },
            Some(EntityKind::Process) => match name {
                "pid" => Pid,
                "exe_name" | "name" => ExeName,
                "user" => User,
                "cmdline" => Cmdline,
                "agentid" => AgentId,
                _ => return Err(unknown(owner, name)),
            },
            Some(EntityKind::File) => match name {
                "name" | "path" => Path,
                "owner" => Owner,
                "agentid" => AgentId,
                _ => return Err(unknown(owner, name)),
            },
            Some(EntityKind::NetConn) => match name {
                "src_ip" | "srcip" => SrcIp,
                "src_port" | "srcport" => SrcPort,
                "dst_ip" | "dstip" => DstIp,
                "dst_port" | "dstport" => DstPort,
                "protocol" => Protocol,
                "agentid" => AgentId,
                _ => return Err(unknown(owner, name)),
            },
        };
        Ok(attr)
    }
}

/// The error of a name that owner lacks.
pub(crate) fn unknown(owner: Option<EntityKind>, name: &str) -> ModelError {
    ModelError::UnknownAttribute {
        kind: owner.map_or("event", EntityKind::keyword),
        attr: name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_per_owner() {
        use EntityKind::{File, NetConn, Process};
        assert_eq!(Attr::resolve(Some(Process), "name"), Ok(Attr::ExeName));
        assert_eq!(Attr::resolve(Some(File), "name"), Ok(Attr::Path));
        assert_eq!(Attr::resolve(Some(NetConn), "dstip"), Ok(Attr::DstIp));
        assert_eq!(Attr::resolve(None, "start_time"), Ok(Attr::StartTime));
        for owner in [None, Some(Process), Some(File), Some(NetConn)] {
            assert_eq!(Attr::resolve(owner, "agentid"), Ok(Attr::AgentId));
        }
    }

    #[test]
    fn unknown_names_name_their_owner() {
        let err = Attr::resolve(Some(EntityKind::File), "pid").unwrap_err();
        assert_eq!(err, unknown(Some(EntityKind::File), "pid"));
        assert!(err.to_string().contains("file"), "{err}");
        let err = Attr::resolve(None, "bogus").unwrap_err();
        assert!(err.to_string().contains("event"), "{err}");
    }
}
