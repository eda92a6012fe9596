//! Simulator throughput: events per second through the §5.1 replay loop,
//! a small end-to-end sweep, and the multi-tenant fleet replay over a
//! long-tail population. Bounds how large a trace the figure harness
//! and the fleet reference can process.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sitw_core::{FixedKeepAlive, HybridConfig, PolicyFactory};
use sitw_fleet::TenantRegistry;
use sitw_serve::loadgen::{app_name, tenant_of};
use sitw_sim::{fleet_verdict_trace, run_sweep, simulate_app, FleetEvent, PolicySpec};
use sitw_trace::{
    app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS, MINUTE_MS,
};

fn event_stream(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i * 3 * MINUTE_MS).collect()
}

fn bench_simulate_app(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_app");
    for n in [1_000usize, 10_000, 100_000] {
        let events = event_stream(n);
        let horizon = *events.last().unwrap() + MINUTE_MS;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fixed", n), &events, |b, ev| {
            b.iter(|| {
                let mut p = FixedKeepAlive::minutes(10).new_policy();
                black_box(simulate_app(ev, horizon, &mut p))
            })
        });
        group.bench_with_input(BenchmarkId::new("hybrid", n), &events, |b, ev| {
            b.iter(|| {
                let mut p = HybridConfig::default().new_policy();
                black_box(simulate_app(ev, horizon, &mut p))
            })
        });
    }
    group.finish();
}

fn bench_small_sweep(c: &mut Criterion) {
    let population = build_population(&PopulationConfig {
        num_apps: 100,
        seed: 1,
    });
    let cfg = TraceConfig {
        horizon_ms: DAY_MS,
        cap_per_day: 1_000.0,
        seed: 2,
    };
    let specs = vec![
        PolicySpec::fixed_minutes(10),
        PolicySpec::Hybrid(HybridConfig::default()),
    ];
    c.bench_function("sweep_100_apps_1_day_2_policies", |b| {
        b.iter(|| black_box(run_sweep(&population, &cfg, &specs, 2)))
    });
}

/// The fleet reference on the paper's long tail: 2,000 rarely invoked
/// apps over two days, merged in time order and spread over 4 unbudgeted
/// hybrid tenants with Zipf skew (the assignment `sitw-loadgen --tenants
/// 4:zipf=1` uses). ns/event = 1e9 / the reported rate.
fn bench_fleet_verdict_trace(c: &mut Criterion) {
    const TENANTS: usize = 4;
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
    let mut events: Vec<FleetEvent> = Vec::new();
    for app in &population.apps {
        let name = app_name(app.id.0);
        let tenant = tenant_of(app.id.0, TENANTS, 1.0);
        events.extend(app_invocations(app, &cfg).into_iter().map(|ts| FleetEvent {
            tenant,
            app: name.clone(),
            ts,
        }));
    }
    events.sort_by(|a, b| (a.ts, &a.app).cmp(&(b.ts, &b.app)));

    let mut group = c.benchmark_group("fleet_verdict_trace");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("longtail_4_zipf_tenants", events.len()),
        &events,
        |b, ev| b.iter(|| black_box(fleet_verdict_trace(ev, &registry))),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_simulate_app,
    bench_small_sweep,
    bench_fleet_verdict_trace
);
criterion_main!(benches);
