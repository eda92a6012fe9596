//! The three workloads, their generated traces, the offline reference
//! verdicts, and the policy-quality figures of merit.
//!
//! A workload is fully determined by its table entry and the seed: the
//! trace is built with `sitw-trace` exactly as `sitw-loadgen` builds its
//! replays, and the reference is the offline simulator's verdict for
//! every record (`sitw_sim::verdict_trace` per app when untenanted,
//! `sitw_sim::fleet_verdict_trace` over the merged stream otherwise).

use sitw_core::{DecisionKind, PolicySpec, Windows, MINUTE_MS};
use sitw_fleet::{fnv1a, mix64, TenantRegistry};
use sitw_serve::shard::Decision;
use sitw_sim::{fleet_verdict_trace, verdict_trace, FleetEvent};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

use crate::clock::now_ns;

/// How records travel to the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `POST /invoke`, one record per HTTP request.
    Json,
    /// SITW-BIN v2 frames of up to `batch` records.
    Bin {
        /// Records per frame.
        batch: usize,
    },
}

/// One workload: a trace shape, a wire, a topology and its fixed rates.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Applications in the synthetic population.
    pub apps: usize,
    /// Simulated days in the trace.
    pub days: u64,
    /// Per-app daily invocation cap.
    pub cap_per_day: f64,
    /// The trace is cut after this many records, so every seed gives the
    /// set-up and the phases the same amount of work (uncut, the record
    /// count varies by a third between seeds).
    pub max_records: usize,
    /// Zipf(1.0) tenants the apps are spread over; 0 = untenanted.
    pub tenants: usize,
    /// Wire protocol.
    pub wire: Wire,
    /// Through one `sitw-router` to two nodes with warm standbys.
    pub routed: bool,
    /// Leading days replayed during set-up, before the first timed record.
    pub warm_days: u64,
    /// Offered rate of the `lo` phase, records/s (well under the knee).
    pub lo_rate: f64,
    /// Offered rate of the `hi` phase, records/s (near the knee).
    pub hi_rate: f64,
    /// Closed-loop saturation window: units (requests or frames) in
    /// flight per connection.
    pub window: usize,
}

/// The workload table. Rates are absolute numbers, frozen here so that a
/// later change is measured at the same offered load as its parent.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot-json",
        apps: 300,
        days: 9,
        cap_per_day: 1_000.0,
        max_records: 800_000,
        tenants: 0,
        wire: Wire::Json,
        routed: false,
        warm_days: 1,
        lo_rate: 10_000.0,
        hi_rate: 50_000.0,
        window: 128,
    },
    Workload {
        name: "longtail-bin",
        apps: 4_000,
        days: 7,
        cap_per_day: 50.0,
        max_records: 1_700_000,
        tenants: 4,
        wire: Wire::Bin { batch: 128 },
        routed: false,
        warm_days: 2,
        lo_rate: 20_000.0,
        hi_rate: 200_000.0,
        window: 16,
    },
    Workload {
        name: "routed-repl",
        apps: 300,
        days: 16,
        cap_per_day: 1_000.0,
        max_records: 1_400_000,
        tenants: 4,
        wire: Wire::Bin { batch: 16 },
        routed: true,
        warm_days: 1,
        lo_rate: 5_000.0,
        hi_rate: 200_000.0,
        window: 64,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The policy every tenant is served under (the paper's hybrid defaults).
pub fn policy() -> PolicySpec {
    PolicySpec::parse("hybrid").expect("the hybrid policy spec parses")
}

/// One invocation record of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Trace milliseconds.
    pub ts: u64,
    /// Index into [`Trace::names`].
    pub app: u32,
    /// 0 = untenanted; `k + 1` = tenant `tk` (also its registry id and
    /// its wire id at the router).
    pub tenant: u16,
}

/// A generated trace, merged and ordered by `(ts, app)`.
#[derive(Debug)]
pub struct Trace {
    /// App names as they travel on the wire.
    pub names: Vec<String>,
    /// Records in replay order.
    pub recs: Vec<Rec>,
    /// Wall time spent in `app_invocations`, ns.
    pub gen_ns: u64,
}

/// A verdict as a SITW-BIN reply carries it: windows saturate at
/// `u32::MAX` ms.
pub fn on_bin_wire(mut d: Decision) -> Decision {
    d.windows.pre_warm_ms = d.windows.pre_warm_ms.min(u32::MAX as u64);
    d.windows.keep_alive_ms = d.windows.keep_alive_ms.min(u32::MAX as u64);
    d
}

/// Wire name of app `i` (the same names `sitw-loadgen` sends).
fn app_name(i: u32) -> String {
    format!("app-{i:06}")
}

/// Deterministic Zipf(`s`) tenant of an app, as a tenant index `0..n`.
fn tenant_index(name: &str, n: usize, s: f64) -> usize {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let h = mix64(fnv1a(name.as_bytes()));
    let mut u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64 * total;
    for (r, w) in weights.iter().enumerate() {
        if u < *w {
            return r;
        }
        u -= w;
    }
    n - 1
}

/// Builds the workload's trace for `seed`, cut after `max_records`.
pub fn generate(w: &Workload, seed: u64) -> Trace {
    let t0 = now_ns();
    let population = build_population(&PopulationConfig {
        num_apps: w.apps,
        seed,
    });
    let cfg = TraceConfig {
        horizon_ms: w.days * DAY_MS,
        cap_per_day: w.cap_per_day,
        seed: seed ^ 0x10AD,
    };
    let mut names = Vec::with_capacity(population.apps.len());
    let mut recs = Vec::new();
    for profile in &population.apps {
        let id = profile.id.0;
        let name = app_name(id);
        let tenant = if w.tenants > 0 {
            tenant_index(&name, w.tenants, 1.0) as u16 + 1
        } else {
            0
        };
        debug_assert_eq!(id as usize, names.len(), "population ids are dense");
        names.push(name);
        recs.extend(app_invocations(profile, &cfg).into_iter().map(|ts| Rec {
            ts,
            app: id,
            tenant,
        }));
    }
    let gen_ns = now_ns() - t0;
    recs.sort_unstable_by_key(|r| (r.ts, r.app));
    recs.truncate(w.max_records);
    Trace {
        names,
        recs,
        gen_ns,
    }
}

/// The tenant registry of a tenanted workload: `t0..t{n-1}` under the
/// hybrid policy with no memory budget, so ids are `1..=n`.
pub fn registry(tenants: usize) -> TenantRegistry {
    let mut reg = TenantRegistry::new(policy());
    for k in 0..tenants {
        reg.register(&format!("t{k}"), policy(), 0)
            .expect("fresh tenant names register");
    }
    reg
}

/// The offline reference: one verdict per record, in trace order.
pub fn reference(w: &Workload, trace: &Trace) -> Result<Vec<Decision>, String> {
    if w.tenants == 0 {
        let mut by_app: Vec<Vec<usize>> = vec![Vec::new(); trace.names.len()];
        for (i, r) in trace.recs.iter().enumerate() {
            by_app[r.app as usize].push(i);
        }
        let spec = policy();
        let mut out = vec![None; trace.recs.len()];
        let mut ts = Vec::new();
        for idx in &by_app {
            ts.clear();
            ts.extend(idx.iter().map(|&i| trace.recs[i].ts));
            let mut p = spec.new_policy();
            for (&i, v) in idx.iter().zip(verdict_trace(&ts, &mut *p)) {
                out[i] = Some(Decision {
                    cold: v.cold,
                    prewarm_load: v.prewarm_load,
                    evicted: false,
                    kind: v.kind,
                    windows: v.windows,
                });
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every record belongs to one app"))
            .collect())
    } else {
        let reg = registry(w.tenants);
        let events: Vec<FleetEvent> = trace
            .recs
            .iter()
            .map(|r| FleetEvent {
                tenant: r.tenant,
                app: trace.names[r.app as usize].clone(),
                ts: r.ts,
            })
            .collect();
        fleet_verdict_trace(&events, &reg)
            .into_iter()
            .map(|v| {
                v.map(|v| Decision {
                    cold: v.cold,
                    prewarm_load: v.prewarm_load,
                    evicted: v.evicted,
                    kind: v.kind,
                    windows: v.windows,
                })
                .map_err(|e| format!("offline reference rejected a record: {e:?}"))
            })
            .collect()
    }
}

/// Policy quality of a verdict stream (paper Fig. 15 axes) and its
/// decision-kind mix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Decisions counted.
    pub decisions: u64,
    /// Cold verdicts.
    pub cold: u64,
    /// Loaded-but-idle ms over all gaps between an app's invocations.
    pub wasted_ms: u128,
    /// The same under a 10-minute fixed keep-alive.
    pub fixed10_wasted_ms: u128,
    /// Decisions by branch: histogram, standard, ARIMA.
    pub kinds: [u64; 3],
}

impl Quality {
    /// Cold verdicts ÷ decisions, percent.
    pub fn cold_pct(&self) -> f64 {
        100.0 * self.cold as f64 / self.decisions.max(1) as f64
    }

    /// Wasted memory time relative to 10-minute fixed keep-alive, percent.
    pub fn wasted_mem_pct(&self) -> f64 {
        100.0 * self.wasted_ms as f64 / (self.fixed10_wasted_ms.max(1)) as f64
    }
}

/// Index of a decision branch in [`Quality::kinds`].
pub fn kind_index(kind: DecisionKind) -> usize {
    match kind {
        DecisionKind::Histogram => 0,
        DecisionKind::Arima => 2,
        DecisionKind::StandardKeepAlive | DecisionKind::Static => 1,
    }
}

/// Folds a verdict stream (indexed like `trace.recs`; `None` = no reply)
/// into its quality figures. Each gap is classified by the windows the
/// app's previous reply set, through `Windows::classify_gap`.
pub fn quality(trace: &Trace, verdicts: &[Option<Decision>]) -> Quality {
    let fixed = Windows::keep_loaded(10 * MINUTE_MS);
    let mut last: Vec<Option<(u64, Windows)>> = vec![None; trace.names.len()];
    let mut q = Quality::default();
    for (r, v) in trace.recs.iter().zip(verdicts) {
        let Some(v) = v else { continue };
        q.decisions += 1;
        q.cold += u64::from(v.cold);
        q.kinds[kind_index(v.kind)] += 1;
        let slot = &mut last[r.app as usize];
        if let Some((prev_ts, windows)) = *slot {
            let gap = r.ts - prev_ts;
            q.wasted_ms += u128::from(windows.classify_gap(gap).wasted_ms);
            q.fixed10_wasted_ms += u128::from(fixed.classify_gap(gap).wasted_ms);
        }
        *slot = Some((r.ts, v.windows));
    }
    q
}

/// Indices of records whose reply differs from the reference (a missing
/// reply is not a mismatch; it is counted as a failure elsewhere).
pub fn mismatches(reference: &[Decision], got: &[Option<Decision>], bin: bool) -> Vec<usize> {
    reference
        .iter()
        .zip(got)
        .enumerate()
        .filter_map(|(i, (want, got))| {
            let want = if bin { on_bin_wire(*want) } else { *want };
            match got {
                Some(g) if *g != want => Some(i),
                _ => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_a_flipped_verdict_is_caught() {
        let w = find("hot-json").unwrap();
        let small = Workload {
            apps: 20,
            days: 1,
            ..*w
        };
        let trace = generate(&small, 7);
        let a = reference(&small, &trace).unwrap();
        assert_eq!(a, reference(&small, &generate(&small, 7)).unwrap());
        let got: Vec<Option<Decision>> = a.iter().copied().map(Some).collect();
        assert!(mismatches(&a, &got, false).is_empty());
        let mut corrupted = a.clone();
        corrupted[3].cold = !corrupted[3].cold;
        assert_eq!(mismatches(&corrupted, &got, false), vec![3]);
    }

    #[test]
    fn tenanted_reference_matches_untenanted_without_budgets() {
        let w = find("routed-repl").unwrap();
        let small = Workload {
            apps: 30,
            days: 1,
            ..*w
        };
        let trace = generate(&small, 3);
        let fleet = reference(&small, &trace).unwrap();
        let plain = reference(
            &Workload {
                tenants: 0,
                ..small
            },
            &trace,
        )
        .unwrap();
        assert_eq!(fleet, plain);
    }
}
