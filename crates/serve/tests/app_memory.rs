//! Per-app memory regression guard. A seeded long-tail population —
//! 2,000 rarely invoked apps over two days, spread over 4 Zipf-skewed
//! hybrid tenants the way `sitw-loadgen --tenants 4:zipf=1` assigns
//! them — is replayed through two `ShardWorker`s, and this binary's own
//! counting global allocator measures the heap the workers hold per
//! served app. Requested sizes are a deterministic function of the
//! stream (the hash maps' growth depends on counts only), so the bound
//! is tight: a change that grows per-app state by more than 5% fails.
//!
//! The file holds a single test so no other test thread allocates while
//! the counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use sitw_core::{HybridConfig, HybridPolicy};
use sitw_fleet::{TenantRegistry, DEFAULT_TENANT};
use sitw_serve::loadgen::{app_name, tenant_of};
use sitw_serve::shard::ShardWorker;
use sitw_serve::{ServedPolicy, TenantRestore};
use sitw_sim::PolicySpec;
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live requested bytes.
struct Counting;

// sitw-lint: allow(unsafe-confinement)
unsafe impl GlobalAlloc for Counting {
    // sitw-lint: allow(unsafe-confinement)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is forwarded unchanged.
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    // sitw-lint: allow(unsafe-confinement)
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // with this `layout`, as the caller guarantees.
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    // sitw-lint: allow(unsafe-confinement)
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is checked by the caller.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap per served app measured on this population: 1,712 B (the
/// §6 histogram's 960 B, up to 512 B of ARIMA history, the app state
/// and its ledger slot).
const BYTES_PER_APP: f64 = 1_712.0;

#[test]
fn per_app_heap_stays_within_five_percent() {
    // Size pins: the shared configuration keeps the policy at its
    // per-app state (histogram and history handles, counters).
    assert!(std::mem::size_of::<HybridPolicy>() <= 128);
    assert!(std::mem::size_of::<ServedPolicy>() <= 128);

    const TENANTS: usize = 4;
    const SHARDS: usize = 2;
    let population = build_population(&PopulationConfig {
        num_apps: 2_000,
        seed: 42,
    });
    let cfg = TraceConfig {
        horizon_ms: 2 * DAY_MS,
        cap_per_day: 50.0,
        seed: 42 ^ 0x10AD,
    };
    let hybrid = PolicySpec::Hybrid(HybridConfig::default());
    let mut registry = TenantRegistry::new(hybrid.clone());
    for k in 0..TENANTS {
        registry
            .register(&format!("t{k}"), hybrid.clone(), 0)
            .unwrap();
    }
    let mut events: Vec<(u16, String, u64, usize)> = Vec::new();
    for app in &population.apps {
        let name = app_name(app.id.0);
        let tenant = tenant_of(app.id.0, TENANTS, 1.0);
        let shard = registry.shard_of(tenant, &name, SHARDS);
        events.extend(
            app_invocations(app, &cfg)
                .into_iter()
                .map(|ts| (tenant, name.clone(), ts, shard)),
        );
    }
    events.sort_by(|a, b| (a.2, &a.1).cmp(&(b.2, &b.1)));
    let mut served: Vec<&str> = events.iter().map(|e| e.1.as_str()).collect();
    served.sort_unstable();
    served.dedup();
    let apps = served.len();
    drop(served);
    assert!(apps > 1_500, "{apps} apps served");

    let mut workers: Vec<ShardWorker> = (0..SHARDS)
        .map(|shard| {
            let tenants = registry
                .tenants()
                .iter()
                .filter(|t| t.id == DEFAULT_TENANT || registry.shard_of(t.id, "", SHARDS) == shard)
                .map(|t| TenantRestore::fresh(t.clone()))
                .collect();
            ShardWorker::new(shard, tenants).unwrap()
        })
        .collect();

    let before = LIVE.load(Ordering::Relaxed);
    for (tenant, app, ts, shard) in &events {
        workers[*shard].invoke(*tenant, app, *ts).unwrap();
    }
    let live = LIVE.load(Ordering::Relaxed) - before;
    let per_app = live as f64 / apps as f64;
    println!(
        "{} events, {apps} apps: {live} B live, {per_app:.0} B/app",
        events.len()
    );
    assert!(
        per_app <= BYTES_PER_APP * 1.05,
        "{per_app:.0} B/app exceeds {BYTES_PER_APP} B/app + 5%"
    );
    drop(workers);
}
