//! Investigation sessions.
//!
//! A session is one analyst's interactive investigation: its own
//! [`Engine`] (and therefore its own plan-resolution cache — repeated
//! queries within an investigation skip the shared phase without cache
//! interference from other tenants), a fairness weight, and named variable
//! bindings that `$name` references in query text expand to before
//! parsing. Sessions are cheap: a session holds no threads, so a thousand
//! sessions still run on the service's dispatchers.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::engine::{Engine, EngineConfig};

/// A session handle. Plain data — safe to log, copy, and send to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

#[derive(Debug)]
struct Session {
    engine: Engine,
    weight: u32,
    /// `$name → value` textual bindings, longest-name-first at expansion
    /// so `$hostname` never partially matches a `$host` binding.
    bindings: BTreeMap<String, String>,
}

/// The session registry.
#[derive(Debug)]
pub struct SessionManager {
    sessions: Mutex<HashMap<u64, Session>>,
    next_id: AtomicU64,
    max_sessions: usize,
}

/// The registry is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimit {
    /// The configured cap.
    pub max: usize,
}

impl SessionManager {
    /// Creates a registry capped at `max_sessions` concurrent sessions.
    pub fn new(max_sessions: usize) -> Self {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions: max_sessions.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Session>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a session with its own engine built from `config`.
    pub fn create(&self, config: EngineConfig, weight: u32) -> Result<SessionId, SessionLimit> {
        let mut sessions = self.lock();
        if sessions.len() >= self.max_sessions {
            return Err(SessionLimit {
                max: self.max_sessions,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            Session {
                engine: Engine::new(config),
                weight: weight.max(1),
                bindings: BTreeMap::new(),
            },
        );
        Ok(SessionId(id))
    }

    /// Closes a session. Returns whether it existed. In-flight queries
    /// keep their engine clone and finish normally.
    pub fn close(&self, id: SessionId) -> bool {
        self.lock().remove(&id.0).is_some()
    }

    /// Number of open sessions.
    pub fn count(&self) -> usize {
        self.lock().len()
    }

    /// The session's fairness weight, if it exists.
    pub fn weight(&self, id: SessionId) -> Option<u32> {
        self.lock().get(&id.0).map(|s| s.weight)
    }

    /// Sets (or replaces) a `$name` binding. Names are identifiers:
    /// `[A-Za-z_][A-Za-z0-9_]*`. Returns false for an unknown session or
    /// an invalid name.
    pub fn bind(&self, id: SessionId, name: &str, value: &str) -> bool {
        if !valid_binding_name(name) {
            return false;
        }
        let mut sessions = self.lock();
        let Some(session) = sessions.get_mut(&id.0) else {
            return false;
        };
        session.bindings.insert(name.to_string(), value.to_string());
        true
    }

    /// Clones the session's engine and expands its bindings into `text`:
    /// the immutable snapshot a dispatcher executes with, so closing the
    /// session mid-flight cannot invalidate running work.
    pub fn prepare(&self, id: SessionId, text: &str) -> Option<(Engine, String)> {
        let sessions = self.lock();
        let session = sessions.get(&id.0)?;
        Some((
            session.engine.clone(),
            expand_bindings(text, &session.bindings),
        ))
    }

    /// `(hits, misses)` of the session's private plan cache.
    pub fn plan_cache_counters(&self, id: SessionId) -> Option<(u64, u64)> {
        self.lock()
            .get(&id.0)
            .map(|s| s.engine.plan_cache_counters())
    }
}

fn valid_binding_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Replaces every `$name` occurrence with its bound value. Longest names
/// win (`$hostname` before `$host`); unbound references pass through and
/// surface as parse errors, which is the right diagnostic for a typo.
fn expand_bindings(text: &str, bindings: &BTreeMap<String, String>) -> String {
    if bindings.is_empty() || !text.contains('$') {
        return text.to_string();
    }
    // BTreeMap iterates name-ascending; collect and sort longest-first.
    let mut names: Vec<&str> = bindings.keys().map(String::as_str).collect();
    names.sort_by_key(|n| std::cmp::Reverse(n.len()));
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    'outer: while let Some(pos) = rest.find('$') {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + 1..];
        for name in &names {
            if let Some(tail) = after.strip_prefix(name) {
                out.push_str(&bindings[*name]);
                rest = tail;
                continue 'outer;
            }
        }
        out.push('$');
        rest = after;
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_open_bind_and_close() {
        let mgr = SessionManager::new(8);
        let s = mgr.create(EngineConfig::default(), 2).unwrap();
        assert_eq!(mgr.count(), 1);
        assert_eq!(mgr.weight(s), Some(2));
        assert!(mgr.bind(s, "host", "1"));
        assert!(!mgr.bind(s, "9bad", "1"), "names must be identifiers");
        assert!(!mgr.bind(SessionId(999), "host", "1"));
        let (_, text) = mgr.prepare(s, "agentid = $host").unwrap();
        assert_eq!(text, "agentid = 1");
        assert!(mgr.close(s));
        assert!(!mgr.close(s));
        assert!(mgr.prepare(s, "x").is_none());
    }

    #[test]
    fn session_cap_is_enforced() {
        let mgr = SessionManager::new(2);
        mgr.create(EngineConfig::default(), 1).unwrap();
        mgr.create(EngineConfig::default(), 1).unwrap();
        assert_eq!(
            mgr.create(EngineConfig::default(), 1),
            Err(SessionLimit { max: 2 })
        );
        // Closing one frees a slot.
        let victim = SessionId(1);
        assert!(mgr.close(victim));
        assert!(mgr.create(EngineConfig::default(), 1).is_ok());
    }

    #[test]
    fn longest_binding_name_wins() {
        let mut b = BTreeMap::new();
        b.insert("host".to_string(), "SHORT".to_string());
        b.insert("hostname".to_string(), "LONG".to_string());
        assert_eq!(
            expand_bindings("$hostname and $host and $unbound", &b),
            "LONG and SHORT and $unbound"
        );
        assert_eq!(expand_bindings("no refs", &b), "no refs");
        assert_eq!(expand_bindings("trailing $", &b), "trailing $");
    }

    #[test]
    fn sessions_get_private_plan_caches() {
        let mgr = SessionManager::new(4);
        let a = mgr.create(EngineConfig::default(), 1).unwrap();
        let b = mgr.create(EngineConfig::default(), 1).unwrap();
        let (ea, _) = mgr.prepare(a, "x").unwrap();
        let (eb, _) = mgr.prepare(b, "x").unwrap();
        // Distinct engines → distinct cache counters (both start at 0/0
        // but are independent objects; same-session clones share).
        assert_eq!(ea.plan_cache_counters(), (0, 0));
        assert_eq!(eb.plan_cache_counters(), (0, 0));
        let (ea2, _) = mgr.prepare(a, "y").unwrap();
        assert_eq!(mgr.plan_cache_counters(a), Some(ea2.plan_cache_counters()));
    }
}
