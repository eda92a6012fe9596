//! Layer replays for the traced run: the workload's own inputs pushed
//! through the public functions of each layer, with a span around each
//! replay and its per-call cost as the layer metric.
//!
//! These run after the system under test has stopped, so they measure
//! each layer alone on an otherwise idle machine.

use std::collections::BTreeMap;
use std::hint::black_box;

use sitw_arima::auto_arima;
use sitw_core::{AppPolicy, HybridConfig, HybridPolicy};
use sitw_fleet::{footprint_mb, TenantLedger, DEFAULT_TENANT_NAME};
use sitw_serve::shard::{BatchItem, Decision, ShardWorker, TenantRestore};
use sitw_serve::snapshot::Snapshot;
use sitw_serve::wire::{self, BinInvoke, BinReply};

use crate::clock::now_ns;
use crate::workload::{kind_index, on_bin_wire, registry, Trace, Wire, Workload};

/// Records the codec replays cover (a prefix of the trace).
const CODEC_RECORDS: usize = 50_000;

/// One replay, as a span: name, interval and calls made.
#[derive(Debug, Clone)]
pub struct LayerSpan {
    /// Replay name (the public function replayed).
    pub name: &'static str,
    /// Start and end, benchmark clock, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Calls made.
    pub calls: u64,
}

/// Layer metrics by name, and the replay spans behind them.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// One span per replay.
    pub spans: Vec<LayerSpan>,
}

impl Layers {
    /// Times `f` as one replay span of `calls` calls and returns its ns.
    fn span(&mut self, name: &'static str, calls: u64, f: impl FnOnce()) -> f64 {
        let start_ns = now_ns();
        f();
        let end_ns = now_ns();
        self.spans.push(LayerSpan {
            name,
            start_ns,
            end_ns,
            calls,
        });
        (end_ns - start_ns) as f64
    }
}

fn tenant_name(tenant: u16) -> String {
    match tenant {
        0 => DEFAULT_TENANT_NAME.to_owned(),
        k => format!("t{}", k - 1),
    }
}

/// Cost of one pair of clock reads, subtracted from per-call timings.
fn clock_overhead_ns() -> f64 {
    let n = 100_000;
    let t0 = now_ns();
    for _ in 0..n {
        black_box(now_ns());
    }
    (now_ns() - t0) as f64 / n as f64
}

/// Runs every layer replay of the workload.
pub fn replay(w: &Workload, trace: &Trace, reference: &[Decision]) -> Result<Layers, String> {
    let mut l = Layers::default();
    let n = trace.recs.len().min(CODEC_RECORDS);
    let recs = &trace.recs[..n];
    let batch = match w.wire {
        Wire::Json => 128,
        Wire::Bin { batch } => batch,
    };

    // serve::wire, JSON.
    let bodies: Vec<Vec<u8>> = recs
        .iter()
        .map(|r| {
            format!(
                "{{\"app\":\"{}\",\"ts\":{}}}",
                trace.names[r.app as usize], r.ts
            )
            .into_bytes()
        })
        .collect();
    let ns = l.span("wire::parse_invoke", n as u64, || {
        for b in &bodies {
            black_box(wire::parse_invoke(black_box(b)).ok());
        }
    });
    l.metrics.insert("wire.json_parse_ns", ns / n as f64);
    let mut out = Vec::with_capacity(256);
    let ns = l.span("wire::render_decision", n as u64, || {
        for d in &reference[..n] {
            out.clear();
            wire::render_decision(&mut out, black_box(d));
            black_box(&out);
        }
    });
    l.metrics.insert("wire.json_render_ns", ns / n as f64);

    // serve::wire, SITW-BIN.
    let frames: Vec<Vec<u8>> = recs
        .chunks(batch)
        .map(|c| {
            let records: Vec<(u16, &str, u64)> = c
                .iter()
                .map(|r| (r.tenant, trace.names[r.app as usize].as_str(), r.ts))
                .collect();
            let mut f = Vec::new();
            wire::encode_request_frame_v2(&mut f, &records);
            f
        })
        .collect();
    let mut decoded: Vec<BinInvoke> = Vec::with_capacity(batch);
    let ns = l.span(
        "wire::decode_request_frame_into",
        frames.len() as u64,
        || {
            for f in &frames {
                black_box(wire::decode_request_frame_into(black_box(f), &mut decoded));
            }
        },
    );
    l.metrics
        .insert("wire.bin_decode_ns_per_rec", ns / n as f64);
    let replies: Vec<Vec<BinReply>> = reference[..n]
        .chunks(batch)
        .map(|c| {
            c.iter()
                .map(|v| {
                    let v = on_bin_wire(*v);
                    BinReply::Verdict {
                        cold: v.cold,
                        prewarm_load: v.prewarm_load,
                        evicted: v.evicted,
                        kind: v.kind,
                        pre_warm_ms: v.windows.pre_warm_ms as u32,
                        keep_alive_ms: v.windows.keep_alive_ms as u32,
                    }
                })
                .collect()
        })
        .collect();
    let ns = l.span("wire::encode_reply_records", replies.len() as u64, || {
        for r in &replies {
            out.clear();
            wire::encode_reply_records(&mut out, wire::BIN_VERSION_2, black_box(r));
            black_box(&out);
        }
    });
    l.metrics
        .insert("wire.bin_encode_ns_per_rec", ns / n as f64);

    // serve::shard: the whole trace through one ShardWorker, in frames.
    let reg = registry(w.tenants);
    let restores = reg
        .tenants()
        .iter()
        .map(|t| TenantRestore::fresh(t.clone()))
        .collect();
    let mut shard = ShardWorker::new(0, restores)?;
    let mut shard_ns = 0u64;
    let start_ns = now_ns();
    for (seq, c) in trace.recs.chunks(128).enumerate() {
        let items: Vec<BatchItem> = c
            .iter()
            .enumerate()
            .map(|(i, r)| BatchItem {
                idx: i as u32,
                tenant: r.tenant,
                app: trace.names[r.app as usize].clone(),
                ts: r.ts,
            })
            .collect();
        let t0 = now_ns();
        black_box(shard.invoke_batch(seq as u64, items));
        shard_ns += now_ns() - t0;
    }
    l.spans.push(LayerSpan {
        name: "ShardWorker::invoke_batch",
        start_ns,
        end_ns: now_ns(),
        calls: trace.recs.len().div_ceil(128) as u64,
    });
    l.metrics.insert(
        "shard.invoke_batch_ns_per_rec",
        shard_ns as f64 / trace.recs.len() as f64,
    );

    decide_and_arima(&mut l, trace);

    // sitw-fleet ledger: every record's charge, in trace order.
    let mut tenant_of = vec![0u16; trace.names.len()];
    for r in &trace.recs {
        tenant_of[r.app as usize] = r.tenant;
    }
    let footprints: Vec<u64> = trace
        .names
        .iter()
        .zip(&tenant_of)
        .map(|(app, &t)| footprint_mb(&tenant_name(t), app))
        .collect();
    let mut ledgers: Vec<TenantLedger> = (0..=w.tenants).map(|_| TenantLedger::new(0)).collect();
    let ns = l.span("TenantLedger::charge", trace.recs.len() as u64, || {
        for (r, v) in trace.recs.iter().zip(reference) {
            let expiry = v.windows.loaded_until(r.ts);
            black_box(ledgers[r.tenant as usize].charge(
                &trace.names[r.app as usize],
                r.ts,
                expiry,
                footprints[r.app as usize],
            ));
        }
    });
    l.metrics
        .insert("ledger.charge_ns", ns / trace.recs.len() as f64);
    l.metrics.insert(
        "ledger.warm_apps",
        ledgers.iter().map(|g| g.stats().warm_apps).sum::<u64>() as f64,
    );
    Ok(l)
}

/// `sitw-core` decide per branch and the `sitw-arima` fits behind the
/// ARIMA branch: every record through a per-app `HybridPolicy`.
fn decide_and_arima(l: &mut Layers, trace: &Trace) {
    let cfg = HybridConfig::default();
    let overhead = clock_overhead_ns();
    let mut policies: Vec<Option<(HybridPolicy, u64)>> = vec![None; trace.names.len()];
    let mut kind_ns = [0f64; 3];
    let mut kind_n = [0u64; 3];
    let (mut fits, mut usable, mut fit_ns) = (0u64, 0u64, 0u64);
    let start_ns = now_ns();
    for r in &trace.recs {
        let slot =
            policies[r.app as usize].get_or_insert_with(|| (HybridPolicy::new(cfg.clone()), r.ts));
        let idle = if slot.0.decisions().total() == 0 {
            None
        } else {
            Some(r.ts - slot.1)
        };
        slot.1 = r.ts;
        let p = &mut slot.0;
        let t0 = now_ns();
        black_box(p.on_invocation(idle));
        let dt = (now_ns() - t0) as f64 - overhead;
        let k = kind_index(p.last_decision());
        kind_ns[k] += dt.max(0.0);
        kind_n[k] += 1;
        // The ARIMA branch was attempted iff the histogram is trusted and
        // too many idle times fell out of its range (hybrid.rs).
        let h = p.histogram();
        if h.total_count() >= cfg.min_samples && h.oob_fraction() > cfg.oob_threshold {
            let history = p.snapshot().history;
            if history.len() >= cfg.arima_min_history {
                let t0 = now_ns();
                let fit = auto_arima(&history, cfg.arima);
                fit_ns += now_ns() - t0;
                fits += 1;
                let ok = fit.is_ok_and(|f| {
                    let m = f.forecast_one();
                    m.is_finite() && m >= 1.0
                });
                usable += u64::from(ok);
            }
        }
    }
    l.spans.push(LayerSpan {
        name: "HybridPolicy::on_invocation",
        start_ns,
        end_ns: now_ns(),
        calls: trace.recs.len() as u64,
    });
    for (k, name) in [
        "decide.histogram_ns",
        "decide.standard_ns",
        "decide.arima_ns",
    ]
    .into_iter()
    .enumerate()
    {
        l.metrics.insert(name, kind_ns[k] / kind_n[k].max(1) as f64);
    }
    l.metrics.insert("arima.fits", fits as f64);
    l.metrics
        .insert("arima.fit_ns", fit_ns as f64 / fits.max(1) as f64);
    l.metrics
        .insert("arima.used_frac", usable as f64 / fits.max(1) as f64);
}

/// `Snapshot::encode_delta` on a node's real end-of-run state, treating
/// every app as dirty; returns ns per app.
pub fn encode_delta_ns_per_app(l: &mut Layers, snap: &Snapshot) -> f64 {
    let apps = snap.apps.len() + snap.tenants.iter().map(|t| t.apps.len()).sum::<usize>();
    let reps = 20;
    let ns = l.span("Snapshot::encode_delta", reps, || {
        for _ in 0..reps {
            black_box(snap.encode_delta());
        }
    });
    ns / (reps as f64 * apps.max(1) as f64)
}
