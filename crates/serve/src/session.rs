//! The session cache: an LRU of loaded [`Engine`]s keyed by canonical
//! spec hash.
//!
//! Loading a specification is cheap, but the per-property preprocessing
//! an [`Engine`] accumulates (expression universes, compiled symbolic
//! tasks, static-analysis graphs) is not — a tenant re-submitting the
//! same spec must land on the same engine so the second batch pays no
//! setup cost at all.  The key is [`verifas_core::spec_hash`] over the
//! *lowered* `HasSpec`, not the source text: two `.has` files that differ
//! only in formatting or comments lower bit-identically and share one
//! session.
//!
//! Eviction is strict least-recently-used over a recency list, so the
//! order is deterministic: touch order alone decides who goes, never
//! timing.  Besides the entry-count capacity the cache can carry a byte
//! budget ([`SessionCache::with_max_bytes`]): sessions estimate their
//! resident footprint via [`Engine::estimated_bytes`] (deterministic
//! per-artefact constants, not allocator probes), and when the sum
//! exceeds the budget the LRU tail is evicted — always keeping at least
//! one session, since a cache that cannot hold the spec being verified
//! would thrash instead of protect.  Hit/miss/eviction counters feed the
//! server's `/metrics` endpoint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use verifas_core::{DeltaSummary, Engine, ReuseMode, SpecDelta, VerifasError};
use verifas_model::HasSpec;

/// Counters of one [`SessionCache`]'s life so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// Lookups that found a loaded session.
    pub hits: u64,
    /// Lookups that had to load a new session.
    pub misses: u64,
    /// Misses resolved by upgrading a delta-compatible cached session
    /// (a subset of `misses`).
    pub upgrades: u64,
    /// Preprocessing entries those upgrades carried over instead of
    /// rebuilding (summed [`DeltaSummary::preps_carried`]).
    pub preps_carried: u64,
    /// Finished reports those upgrades carried over (summed
    /// [`DeltaSummary::reports_carried`]).
    pub reports_carried: u64,
    /// Sessions evicted to make room.
    pub evictions: u64,
    /// Sessions currently cached.
    pub cached: usize,
}

/// How a [`SessionCache::get_or_upgrade`] lookup was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionReuse {
    /// The exact spec (by canonical hash) was already loaded.
    Hit,
    /// No usable base: a fresh engine was loaded from scratch.
    Cold,
    /// A delta-compatible cached session was upgraded via
    /// [`Engine::load_delta`], carrying the summarised artefacts.
    Delta(DeltaSummary),
}

impl SessionReuse {
    /// The wire name for the `admitted` frame's `reuse` member.
    pub fn wire_name(self) -> &'static str {
        match self {
            SessionReuse::Hit => "session",
            SessionReuse::Cold => "cold",
            SessionReuse::Delta(summary) => summary.mode.name(),
        }
    }

    /// Whether the lookup found the exact session.
    pub fn is_hit(self) -> bool {
        matches!(self, SessionReuse::Hit)
    }
}

/// An LRU cache of loaded verification sessions (see the module docs).
pub struct SessionCache {
    capacity: usize,
    /// Resident-byte budget over all cached engines (0 = entry-count
    /// eviction only).
    max_bytes: usize,
    /// Most-recently-used first.  A `Vec` is the right structure at
    /// session-cache sizes (a handful to a few dozen engines).
    inner: Mutex<Vec<(u64, Arc<Engine>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    upgrades: AtomicU64,
    preps_carried: AtomicU64,
    reports_carried: AtomicU64,
    evictions: AtomicU64,
}

impl SessionCache {
    /// A cache holding at most `capacity` sessions (clamped to ≥ 1),
    /// with no byte budget.
    pub fn new(capacity: usize) -> Self {
        SessionCache::with_max_bytes(capacity, 0)
    }

    /// A cache bounded by both entry count and estimated resident bytes
    /// (0 = unbounded bytes).  The byte bound always keeps at least one
    /// session.
    pub fn with_max_bytes(capacity: usize, max_bytes: usize) -> Self {
        SessionCache {
            capacity: capacity.max(1),
            max_bytes,
            inner: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            upgrades: AtomicU64::new(0),
            preps_carried: AtomicU64::new(0),
            reports_carried: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The estimated resident bytes of every cached session, summed.
    pub fn resident_bytes(&self) -> usize {
        lock_ignoring_poison(&self.inner)
            .iter()
            .map(|(_, engine)| engine.estimated_bytes())
            .sum()
    }

    /// Evict the least-recently-used session right now, regardless of
    /// budgets.  Returns whether anything was evicted.  This is the
    /// `evict-race` fault hook: chaos tests force an eviction between a
    /// request's admission and its session lookup to prove a request
    /// never depends on its session *staying* cached.
    pub fn evict_lru(&self) -> bool {
        let mut inner = lock_ignoring_poison(&self.inner);
        if inner.pop().is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Evict the LRU tail until both the entry-count capacity and the
    /// byte budget hold (the byte budget never evicts the last entry).
    /// Called with the cache lock held.
    fn evict_over_budget(&self, inner: &mut Vec<(u64, Arc<Engine>)>) {
        loop {
            let over_count = inner.len() > self.capacity;
            let over_bytes = self.max_bytes > 0
                && inner.len() > 1
                && inner
                    .iter()
                    .map(|(_, engine)| engine.estimated_bytes())
                    .sum::<usize>()
                    > self.max_bytes;
            if !(over_count || over_bytes) {
                return;
            }
            inner.pop();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look up the session for `hash`; on a miss, try to *upgrade* a
    /// delta-compatible cached session via [`Engine::load_delta`] before
    /// falling back to a cold load.  `spec` must be the lowered spec
    /// whose canonical hash is `hash`.
    ///
    /// Candidate bases are scanned most-recently-used first, and the
    /// first [`SpecDelta::compatible`] one wins — an edit loop touches
    /// the same spec repeatedly, so the freshest session is almost
    /// always the right (and the richest) base.  The upgraded engine is
    /// cached under the *new* hash; the base stays cached under its own,
    /// so further edits can still branch from either.
    ///
    /// The cache lock is held across the load, deliberately: two
    /// concurrent first requests for the same spec must produce *one*
    /// engine — the second caller waits and then hits, instead of both
    /// building and one being thrown away (which would double every
    /// preprocessing the engines later accumulate).
    ///
    /// With [`ReuseMode::Cold`] no upgrade is attempted — every miss
    /// loads from scratch (the PR 6 behaviour).
    pub fn get_or_upgrade(
        &self,
        hash: u64,
        spec: HasSpec,
        mode: ReuseMode,
    ) -> Result<(Arc<Engine>, SessionReuse), VerifasError> {
        let mut inner = lock_ignoring_poison(&self.inner);
        if let Some(position) = inner.iter().position(|(key, _)| *key == hash) {
            let entry = inner.remove(position);
            let engine = Arc::clone(&entry.1);
            inner.insert(0, entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((engine, SessionReuse::Hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut reuse = SessionReuse::Cold;
        let engine = if mode == ReuseMode::Cold {
            Engine::load(spec)?
        } else {
            let base = inner
                .iter()
                .map(|(_, engine)| engine)
                .find(|base| SpecDelta::diff(base.spec(), &spec).compatible());
            match base {
                Some(base) => {
                    let (engine, summary) = Engine::load_delta(base, spec, mode)?;
                    self.upgrades.fetch_add(1, Ordering::Relaxed);
                    self.preps_carried
                        .fetch_add(summary.preps_carried as u64, Ordering::Relaxed);
                    self.reports_carried
                        .fetch_add(summary.reports_carried as u64, Ordering::Relaxed);
                    reuse = SessionReuse::Delta(summary);
                    engine
                }
                // No usable base — but keep the engine in the configured
                // reuse mode, so repeated identical requests against this
                // session answer from its report cache.
                None => {
                    Engine::load_with_reuse(spec, verifas_core::VerifierOptions::default(), mode)?
                }
            }
        };
        let engine = Arc::new(engine);
        inner.insert(0, (hash, Arc::clone(&engine)));
        self.evict_over_budget(&mut inner);
        Ok((engine, reuse))
    }

    /// The cached keys, most-recently-used first (diagnostics and tests —
    /// this *is* the eviction order, reversed).
    pub fn keys_mru(&self) -> Vec<u64> {
        lock_ignoring_poison(&self.inner)
            .iter()
            .map(|(key, _)| *key)
            .collect()
    }

    /// Life-so-far counters plus the current size.
    pub fn stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            preps_carried: self.preps_carried.load(Ordering::Relaxed),
            reports_carried: self.reports_carried.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cached: lock_ignoring_poison(&self.inner).len(),
        }
    }
}

fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_model::schema::attr::data;
    use verifas_model::{Condition, DatabaseSchema, SpecBuilder, TaskBuilder, Term};

    fn tiny_spec(name: &str) -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        root.service_parts(
            "go",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Done")),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new(name, db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    /// Look `key` up, cold-loading the tiny spec on a miss; returns the
    /// engine and whether the lookup hit.
    fn lookup(cache: &SessionCache, key: u64) -> (Arc<Engine>, bool) {
        let (engine, reuse) = cache
            .get_or_upgrade(key, tiny_spec("s"), ReuseMode::Cold)
            .unwrap();
        (engine, reuse.is_hit())
    }

    #[test]
    fn eviction_order_is_deterministic_lru() {
        let cache = SessionCache::new(2);
        for key in [1u64, 2, 3] {
            let (_, hit) = lookup(&cache, key);
            assert!(!hit);
        }
        // Capacity 2: inserting 3 evicted 1 (the least recently used).
        assert_eq!(cache.keys_mru(), vec![3, 2]);
        // Touching 2 protects it; inserting 4 now evicts 3.
        assert!(lookup(&cache, 2).1);
        lookup(&cache, 4);
        assert_eq!(cache.keys_mru(), vec![4, 2]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 4, 2));
        assert_eq!(stats.cached, 2);
    }

    #[test]
    fn hits_share_one_engine() {
        let cache = SessionCache::new(4);
        let (first, _) = lookup(&cache, 7);
        let (second, hit) = lookup(&cache, 7);
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn a_byte_budget_evicts_the_lru_tail_but_keeps_one_session() {
        // Every tiny engine estimates at least its fixed base footprint,
        // so a budget below one base can hold exactly one entry.
        let cache = SessionCache::with_max_bytes(8, 1);
        for key in [1u64, 2, 3] {
            lookup(&cache, key);
        }
        assert_eq!(cache.keys_mru(), vec![3], "budget keeps the MRU entry");
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn forced_eviction_pops_the_lru_entry() {
        let cache = SessionCache::new(4);
        assert!(!cache.evict_lru(), "empty cache has nothing to evict");
        lookup(&cache, 1);
        lookup(&cache, 2);
        assert!(cache.evict_lru());
        assert_eq!(cache.keys_mru(), vec![2]);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted spec simply reloads on its next request.
        let (_, hit) = lookup(&cache, 1);
        assert!(!hit);
    }

    #[test]
    fn failed_loads_cache_nothing() {
        let cache = SessionCache::new(4);
        let mut invalid = tiny_spec("s");
        invalid.tasks.clear();
        let result = cache.get_or_upgrade(9, invalid, ReuseMode::Cold);
        assert!(result.is_err());
        assert!(cache.keys_mru().is_empty());
        // The next lookup for the same key loads again.
        let (_, hit) = lookup(&cache, 9);
        assert!(!hit);
    }
}
