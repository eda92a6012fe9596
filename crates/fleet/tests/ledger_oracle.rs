//! Oracle tests for the slot-keyed ledger and the per-tenant parallel
//! fleet replay.
//!
//! [`NaiveLedger`] is the ledger's specification written the obvious
//! way: a `String` map and a linear scan for the minimum
//! `(expiry, app)`. A seeded multi-tenant stream — with expiry ties
//! across several apps, re-charges that move an expiry later and
//! earlier, charges behind the cursor, and an export/restore half-way —
//! is replayed through the naive ledger and through [`TenantLedger`]
//! both by name and by slot; evictions, stats and exports must agree
//! after every charge. The second test pins [`fleet_verdict_trace`] to a
//! sequential [`FleetSim::step`] loop, errors included.

use std::collections::HashMap;

use sitw_core::{PolicySpec, MINUTE_MS};
use sitw_fleet::{
    fleet_verdict_trace, mix64, FleetError, FleetEvent, FleetSim, LedgerExport, LedgerStats,
    TenantLedger, TenantRegistry,
};

/// SplitMix64 stream: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The ledger's semantics with no data structure to get wrong.
struct NaiveLedger {
    budget_mb: u64,
    warm: HashMap<String, (u64, u64)>,
    warm_mb: u64,
    evictions: u64,
    idle_mb_ms: u64,
    cursor_ms: u64,
    /// Most warm apps ever sharing a budget victim's expiry.
    victim_tie: usize,
    /// Re-charges that moved an app's expiry `[later, earlier]`.
    moved: [usize; 2],
}

impl NaiveLedger {
    fn new(budget_mb: u64) -> Self {
        NaiveLedger {
            budget_mb,
            warm: HashMap::new(),
            warm_mb: 0,
            evictions: 0,
            idle_mb_ms: 0,
            cursor_ms: 0,
            victim_tie: 0,
            moved: [0; 2],
        }
    }

    /// The warm app with the smallest `(expiry, app)`.
    fn first(&self) -> Option<(u64, String)> {
        self.warm
            .iter()
            .map(|(app, &(expiry, _))| (expiry, app.clone()))
            .min()
    }

    fn remove(&mut self, app: &str) {
        let (_, mb) = self.warm.remove(app).expect("warm app");
        self.warm_mb -= mb;
    }

    fn advance(&mut self, now_ms: u64) {
        while let Some((expiry, app)) = self.first().filter(|(e, _)| *e < now_ms) {
            let dt = expiry.saturating_sub(self.cursor_ms);
            self.idle_mb_ms = self
                .idle_mb_ms
                .saturating_add(self.warm_mb.saturating_mul(dt));
            self.cursor_ms = self.cursor_ms.max(expiry);
            self.remove(&app);
        }
        let dt = now_ms.saturating_sub(self.cursor_ms);
        self.idle_mb_ms = self
            .idle_mb_ms
            .saturating_add(self.warm_mb.saturating_mul(dt));
        self.cursor_ms = self.cursor_ms.max(now_ms);
    }

    fn charge(&mut self, app: &str, now_ms: u64, expiry_ms: u64, mb: u64) -> Vec<String> {
        self.advance(now_ms);
        let expiry_ms = expiry_ms.max(now_ms);
        if let Some(&(prev_expiry, prev_mb)) = self.warm.get(app) {
            self.warm_mb -= prev_mb;
            if expiry_ms != prev_expiry {
                self.moved[usize::from(expiry_ms < prev_expiry)] += 1;
            }
        }
        self.warm.insert(app.to_owned(), (expiry_ms, mb));
        self.warm_mb += mb;
        let mut evicted = Vec::new();
        while self.budget_mb > 0 && self.warm_mb > self.budget_mb {
            let Some((expiry, victim)) = self.first() else {
                break;
            };
            let tie = self.warm.values().filter(|(e, _)| *e == expiry).count();
            self.victim_tie = self.victim_tie.max(tie);
            self.remove(&victim);
            self.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    fn stats(&self) -> LedgerStats {
        LedgerStats {
            warm_mb: self.warm_mb,
            warm_apps: self.warm.len() as u64,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
        }
    }

    fn export(&self) -> LedgerExport {
        let mut warm: Vec<(String, u64, u64)> = self
            .warm
            .iter()
            .map(|(app, &(expiry, mb))| (app.clone(), expiry, mb))
            .collect();
        warm.sort();
        LedgerExport {
            warm,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
            cursor_ms: self.cursor_ms,
        }
    }
}

/// One charge of the seeded stream.
struct Charge {
    tenant: usize,
    app: String,
    now_ms: u64,
    expiry_ms: u64,
    mb: u64,
}

/// A seeded stream over `tenants` tenants of 12 apps each. Expiries are
/// multiples of 500 ms so three or more apps often share one; an app's
/// window is redrawn every charge, so re-charges move its expiry both
/// later and earlier; one charge in 25 arrives behind its tenant's clock,
/// and one in 40 carries an expiry already in the past.
fn stream(seed: u64, tenants: usize, len: usize) -> Vec<Charge> {
    const WINDOWS_MS: [u64; 6] = [0, 500, 1_000, 1_500, 4_000, 9_000];
    let mut rng = Rng(seed);
    let mut clocks = vec![0u64; tenants];
    (0..len)
        .map(|_| {
            let tenant = rng.below(tenants as u64) as usize;
            let clock = &mut clocks[tenant];
            *clock += rng.below(4) * 250;
            let now_ms = if rng.below(25) == 0 {
                clock.saturating_sub(700)
            } else {
                *clock
            };
            let base = now_ms / 500 * 500;
            let expiry_ms = if rng.below(40) == 0 {
                now_ms.saturating_sub(1)
            } else {
                base + WINDOWS_MS[rng.below(WINDOWS_MS.len() as u64) as usize]
            };
            Charge {
                tenant,
                app: format!("app-{:02}", rng.below(12)),
                now_ms,
                expiry_ms,
                mb: 10 + rng.below(8) * 20,
            }
        })
        .collect()
}

fn ledger_agrees_with_naive_oracle(budget_mb: u64) {
    const TENANTS: usize = 3;
    const LEN: usize = 6_000;
    let charges = stream(0x5EED ^ budget_mb, TENANTS, LEN);
    let mut naive: Vec<NaiveLedger> = (0..TENANTS).map(|_| NaiveLedger::new(budget_mb)).collect();
    let mut by_name: Vec<TenantLedger> =
        (0..TENANTS).map(|_| TenantLedger::new(budget_mb)).collect();
    let mut by_slot: Vec<TenantLedger> =
        (0..TENANTS).map(|_| TenantLedger::new(budget_mb)).collect();
    let mut evictions = 0;

    for (i, c) in charges.iter().enumerate() {
        if i == LEN / 2 {
            // Export and restore mid-stream: the restored ledgers must
            // carry on exactly where the exporting ones left off.
            for t in 0..TENANTS {
                let export = by_name[t].export();
                assert_eq!(export, naive[t].export(), "tenant {t} export at {i}");
                assert_eq!(by_slot[t].export(), export, "tenant {t} slot export at {i}");
                by_name[t] = TenantLedger::restore(budget_mb, export.clone());
                by_slot[t] = TenantLedger::restore(budget_mb, export);
            }
        }
        let t = c.tenant;

        let want = naive[t].charge(&c.app, c.now_ms, c.expiry_ms, c.mb);
        let got = by_name[t].charge(&c.app, c.now_ms, c.expiry_ms, c.mb);
        assert_eq!(got, want, "evictions of charge {i}");
        let slot = by_slot[t].slot(&c.app);
        by_slot[t].charge_slot(slot, c.now_ms, c.expiry_ms, c.mb);
        let got_slot: Vec<&str> = by_slot[t]
            .evicted()
            .iter()
            .map(|&s| by_slot[t].name(s))
            .collect();
        assert_eq!(got_slot, want, "slot evictions of charge {i}");
        assert_eq!(
            by_name[t].stats(),
            naive[t].stats(),
            "stats after charge {i}"
        );
        assert_eq!(
            by_slot[t].stats(),
            naive[t].stats(),
            "slot stats after charge {i}"
        );
        if i % 97 == 0 {
            assert_eq!(by_name[t].export(), naive[t].export(), "export after {i}");
            assert_eq!(
                by_slot[t].export(),
                naive[t].export(),
                "slot export after {i}"
            );
        }
        evictions += want.len();
    }
    for t in 0..TENANTS {
        let end = charges.last().map_or(0, |c| c.now_ms) + 60_000;
        naive[t].advance(end);
        by_name[t].advance(end);
        by_slot[t].advance(end);
        assert_eq!(by_name[t].stats(), naive[t].stats());
        assert_eq!(by_slot[t].stats(), naive[t].stats());
        assert_eq!(by_name[t].export(), naive[t].export());
        assert_eq!(by_slot[t].export(), naive[t].export());
        assert_eq!(naive[t].stats().warm_apps, 0);
    }
    for n in &naive {
        assert!(
            n.moved.iter().all(|&m| m > 0),
            "expiries must move both ways"
        );
    }
    if budget_mb > 0 {
        assert!(evictions > 0, "a budget of {budget_mb} MB must evict");
        let tie = naive.iter().map(|n| n.victim_tie).max();
        assert!(
            tie >= Some(3),
            "a victim must tie with two or more other apps"
        );
    } else {
        assert_eq!(evictions, 0);
    }
}

#[test]
fn unbudgeted_ledger_matches_naive_oracle() {
    ledger_agrees_with_naive_oracle(0);
}

#[test]
fn tight_budget_ledger_matches_naive_oracle() {
    ledger_agrees_with_naive_oracle(150);
}

#[test]
fn medium_budget_ledger_matches_naive_oracle() {
    ledger_agrees_with_naive_oracle(600);
}

#[test]
fn parallel_fleet_trace_matches_sequential_steps() {
    let mut registry = TenantRegistry::new(PolicySpec::parse("hybrid").unwrap());
    registry
        .register("tight", PolicySpec::fixed_minutes(10), 400)
        .unwrap();
    registry
        .register("medium", PolicySpec::parse("hybrid").unwrap(), 2_000)
        .unwrap();
    registry
        .register("prod", PolicySpec::parse("production").unwrap(), 1_500)
        .unwrap();
    registry
        .register("open", PolicySpec::fixed_minutes(20), 0)
        .unwrap();
    let unknown = registry.len() as u16 + 2;

    let mut rng = Rng(0xF1EE7);
    let mut ts = 0u64;
    let events: Vec<FleetEvent> = (0..20_000)
        .map(|i| {
            ts += rng.below(3) * MINUTE_MS / 2;
            // Skewed tenant mix, an occasional unregistered tenant, and
            // every 500th event stamped behind its app's last one.
            let tenant = match rng.below(100) {
                0 => unknown,
                r => [0, 1, 1, 2, 2, 2, 3, 4][(r % 8) as usize],
            };
            let stamp = if i % 500 == 499 {
                ts.saturating_sub(30 * MINUTE_MS)
            } else {
                ts
            };
            FleetEvent {
                tenant,
                app: format!("fn-{}", rng.below(40)),
                ts: stamp,
            }
        })
        .collect();

    let parallel = fleet_verdict_trace(&events, &registry);
    let mut sim = FleetSim::new(&registry);
    let sequential: Vec<_> = events
        .iter()
        .map(|e| sim.step(e.tenant, &e.app, e.ts))
        .collect();
    assert_eq!(parallel, sequential);

    let unknowns = parallel
        .iter()
        .filter(|r| matches!(r, Err(FleetError::UnknownTenant(t)) if *t == unknown))
        .count();
    let out_of_order = parallel
        .iter()
        .filter(|r| matches!(r, Err(FleetError::OutOfOrder { .. })))
        .count();
    let evicted = parallel
        .iter()
        .filter(|r| matches!(r, Ok(v) if v.evicted))
        .count();
    assert!(unknowns > 0, "the stream must reach an unknown tenant");
    assert!(
        out_of_order > 0,
        "the stream must reject out-of-order stamps"
    );
    assert!(evicted > 0, "budgets must force eviction downgrades");
}
