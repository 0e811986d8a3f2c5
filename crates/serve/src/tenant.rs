//! Per-tenant state: admission limits, cache, accountant, counters.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use tgdkit_chase::{EntailCache, MemoryAccountant, DEFAULT_CACHE_MAX_BYTES};
use tgdkit_store::TenantKb;

use crate::proto::TenantSnapshot;

/// A tenant's durable knowledge base slot: `None` until the tenant's
/// first KB request opens (or recovers) the store. The store is a flat
/// [`DurableKb`](tgdkit_store::DurableKb) directory, or a
/// [`ReplicatedKb`](tgdkit_store::ReplicatedKb) root when the server runs
/// with `--replicas N` (N ≥ 2) — [`TenantKb`] dispatches. The mutex
/// serializes KB operations per tenant — folds are budget-bounded by the
/// server's [`KbConfig`](tgdkit_store::KbConfig), so holding it across
/// one apply is bounded work — and is shared with the shutdown path,
/// which flushes every open WAL through it.
pub type KbSlot = Arc<Mutex<Option<TenantKb>>>;

/// Admission and isolation limits applied to every tenant (tenants are
/// created on first use; a per-tenant config registry can layer on later
/// without changing the wire format).
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Requests a tenant may have queued or running; beyond it, admission
    /// rejects with an error response instead of letting one tenant grow
    /// the server's queues without bound.
    pub max_queue_depth: usize,
    /// Tenant-wide byte cap charged with each request's peak residency.
    /// Sticky: once tripped, further requests are rejected at admission.
    /// `usize::MAX` (the default) disables the cap.
    pub max_bytes: usize,
    /// Entailment-cache entry bound per tenant.
    pub cache_max_entries: usize,
    /// Entailment-cache byte bound per tenant.
    pub cache_max_bytes: usize,
    /// Replica directories for each tenant's store (see
    /// [`KbConfig::replicas`](tgdkit_store::KbConfig)). `1` (the default)
    /// keeps the flat single-directory layout; N ≥ 2 gives each tenant N
    /// byte-identical replica directories with quorum-acknowledged
    /// appends and verified failover.
    pub replicas: usize,
    /// Write quorum when `replicas` ≥ 2: a KB apply is acknowledged only
    /// once its WAL frame is durable on this many replicas; below it the
    /// tenant's store degrades to read-only with typed `QuorumLost`
    /// errors. Clamped to `1..=replicas`.
    pub quorum: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            max_queue_depth: 64,
            max_bytes: usize::MAX,
            cache_max_entries: 4096,
            cache_max_bytes: DEFAULT_CACHE_MAX_BYTES,
            replicas: 1,
            quorum: 1,
        }
    }
}

/// One tenant's server-side state. The cache is per-tenant by design:
/// verdicts are memoized facts about *the request's own tgd set*, so
/// sharing a cache across tenants would be sound, but per-tenant caches
/// bound the blast radius of eviction pressure (and of a poisoned lock) to
/// the tenant that caused it.
pub struct TenantState {
    /// Tenant name (wire identity).
    pub name: String,
    /// The tenant's entailment cache, shared with worker slices.
    pub cache: Arc<EntailCache>,
    /// Tenant-wide byte accounting: each completed request's peak
    /// residency is charged here, and tripping it blocks further
    /// admission for this tenant only.
    pub accountant: MemoryAccountant,
    /// Queued job ids, FIFO within the tenant.
    pub queue: VecDeque<u64>,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests completed (including request-level failures).
    pub completed: u64,
    /// Scheduler quanta consumed.
    pub quanta: u64,
    /// Suspensions across all requests.
    pub suspensions: u64,
    /// The tenant's durable knowledge base, if one has been opened.
    pub kb: KbSlot,
}

impl TenantState {
    /// Fresh state under `config`.
    pub fn new(name: &str, config: &TenantConfig) -> TenantState {
        TenantState {
            name: name.to_string(),
            cache: Arc::new(EntailCache::with_capacity(
                config.cache_max_entries,
                config.cache_max_bytes,
            )),
            accountant: MemoryAccountant::new(config.max_bytes),
            queue: VecDeque::new(),
            admitted: 0,
            rejected: 0,
            completed: 0,
            quanta: 0,
            suspensions: 0,
            kb: Arc::new(Mutex::new(None)),
        }
    }

    /// Current counters as a wire snapshot.
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            tenant: self.name.clone(),
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.completed,
            quanta: self.quanta,
            suspensions: self.suspensions,
            queue_depth: self.queue.len() as u64,
            peak_bytes: self.accountant.peak_bytes() as u64,
            cache_hits: self.cache.hits() as u64,
            cache_misses: self.cache.misses() as u64,
            cache_evictions: self.cache.evictions() as u64,
            poison_recoveries: self.cache.poison_recoveries() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mirrors_counters() {
        let mut t = TenantState::new("acme", &TenantConfig::default());
        t.admitted = 3;
        t.completed = 2;
        t.suspensions = 5;
        t.queue.push_back(7);
        let snap = t.snapshot();
        assert_eq!(snap.tenant, "acme");
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.suspensions, 5);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.poison_recoveries, 0);
    }

    #[test]
    fn tenant_byte_cap_is_sticky() {
        let t = TenantState::new(
            "tiny",
            &TenantConfig {
                max_bytes: 100,
                ..TenantConfig::default()
            },
        );
        assert!(!t.accountant.tripped());
        assert!(t.accountant.charge_to(101));
        assert!(t.accountant.tripped(), "trip is sticky");
        assert!(!TenantState::new("other", &TenantConfig::default())
            .accountant
            .tripped());
    }
}
