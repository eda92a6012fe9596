//! Server metrics: per-shard counters, per-tenant fleet gauges,
//! per-stage latency histograms, and reactor introspection, rendered in
//! the Prometheus text exposition format.
//!
//! Latency is captured in [`Log2Histogram`]s on the recording threads
//! and merged exactly at scrape time, so the exported
//! `sitw_serve_decision_latency` histogram's bucket counts equal the
//! sum of the per-shard (and per-reactor) recordings — no estimator
//! drift. The legacy `sitw_serve_decision_latency_us` quantile gauges
//! are kept for dashboard compatibility, derived from the same buckets.

use sitw_telemetry::Log2Histogram;

use crate::wire::{kind_from_bits, kind_str};

/// One declared Prometheus series family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesDecl {
    /// Family name (`sitw_serve_*`, snake_case).
    pub name: &'static str,
    /// Prometheus type: `counter`, `gauge`, or `histogram`.
    pub kind: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
}

/// Every series family this server exports, declared once. `render()`
/// sources its `# HELP`/`# TYPE` lines from here, the
/// `registry_matches_rendered_families` test asserts the exposition and
/// this table stay in lockstep, and `sitw-lint`'s `metrics-registry`
/// rule checks naming, typing, and that no series is used undeclared
/// or declared unused.
// sitw-lint: metrics-registry
pub const REGISTRY: &[SeriesDecl] = &[
    SeriesDecl {
        name: "sitw_serve_apps",
        kind: "gauge",
        help: "Applications with live policy state",
    },
    SeriesDecl {
        name: "sitw_serve_invocations_total",
        kind: "counter",
        help: "Accepted invocations",
    },
    SeriesDecl {
        name: "sitw_serve_cold_total",
        kind: "counter",
        help: "Cold verdicts",
    },
    SeriesDecl {
        name: "sitw_serve_warm_total",
        kind: "counter",
        help: "Warm verdicts",
    },
    SeriesDecl {
        name: "sitw_serve_prewarm_loads_total",
        kind: "counter",
        help: "Pre-warm loads inferred during gaps",
    },
    SeriesDecl {
        name: "sitw_serve_out_of_order_total",
        kind: "counter",
        help: "Rejected out-of-order invocations",
    },
    SeriesDecl {
        name: "sitw_serve_backups_total",
        kind: "counter",
        help: "Hourly histogram backups taken (production mode)",
    },
    SeriesDecl {
        name: "sitw_serve_prewarm_scheduled_total",
        kind: "counter",
        help: "Pre-warm events scheduled 90s early (production mode)",
    },
    SeriesDecl {
        name: "sitw_serve_decision_latency",
        kind: "histogram",
        help: "Request latency by pipeline stage in seconds (log2 buckets)",
    },
    SeriesDecl {
        name: "sitw_serve_decision_latency_us",
        kind: "gauge",
        help: "Decision latency percentiles (derived from the log2 histogram buckets)",
    },
    SeriesDecl {
        name: "sitw_serve_tenant_budget_mb",
        kind: "gauge",
        help: "Configured keep-alive memory budget (0 = unlimited)",
    },
    SeriesDecl {
        name: "sitw_serve_tenant_warm_mb",
        kind: "gauge",
        help: "Warm memory currently charged to the tenant",
    },
    SeriesDecl {
        name: "sitw_serve_tenant_warm_apps",
        kind: "gauge",
        help: "Warm containers currently charged to the tenant",
    },
    SeriesDecl {
        name: "sitw_serve_tenant_evictions_total",
        kind: "counter",
        help: "Budget evictions",
    },
    SeriesDecl {
        name: "sitw_serve_tenant_idle_mb_ms_total",
        kind: "counter",
        help: "Loaded-memory integral in MB*ms (the par.5.3 idle-memory metric)",
    },
    SeriesDecl {
        name: "sitw_serve_tenant_invocations_total",
        kind: "counter",
        help: "Accepted invocations per tenant",
    },
    SeriesDecl {
        name: "sitw_serve_tenant_cold_total",
        kind: "counter",
        help: "Cold verdicts per tenant (incl. eviction downgrades)",
    },
    SeriesDecl {
        name: "sitw_serve_decisions_total",
        kind: "counter",
        help: "Decisions per tenant by the policy branch that served them",
    },
    SeriesDecl {
        name: "sitw_serve_frames_total",
        kind: "counter",
        help: "Complete SITW-BIN request frames served",
    },
    SeriesDecl {
        name: "sitw_serve_batched_decisions_total",
        kind: "counter",
        help: "Decisions delivered through batched binary frames",
    },
    SeriesDecl {
        name: "sitw_serve_proto_errors_total",
        kind: "counter",
        help: "Typed SITW-BIN protocol errors answered",
    },
    SeriesDecl {
        name: "sitw_serve_control_frames_total",
        kind: "counter",
        help: "SITW-BIN control frames served (reports and budget pushes)",
    },
    SeriesDecl {
        name: "sitw_serve_connections_live",
        kind: "gauge",
        help: "Connections currently open",
    },
    SeriesDecl {
        name: "sitw_serve_connections_accepted_total",
        kind: "counter",
        help: "Connections accepted since start",
    },
    SeriesDecl {
        name: "sitw_serve_connections_peak",
        kind: "gauge",
        help: "High-water mark of live connections",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_threads",
        kind: "gauge",
        help: "Reactor (event-loop) threads serving the connections",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_epoll_waits_total",
        kind: "counter",
        help: "epoll_wait calls (blocking and non-blocking)",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_wakeups_total",
        kind: "counter",
        help: "Eventfd waker fires observed",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_backpressure_pauses_total",
        kind: "counter",
        help: "Transitions into the read-paused backpressure state",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_backpressure_resumes_total",
        kind: "counter",
        help: "Transitions out of the read-paused backpressure state",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_queue_depth",
        kind: "gauge",
        help: "Inbox backlog drained at the most recent wave",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_queue_peak",
        kind: "gauge",
        help: "High-water mark of the drain-observed inbox backlog",
    },
    SeriesDecl {
        name: "sitw_serve_reactor_epoll_wait_seconds_total",
        kind: "counter",
        help: "Time spent blocked in epoll_wait",
    },
    SeriesDecl {
        name: "sitw_serve_shard_mailbox_depth",
        kind: "gauge",
        help: "Mailbox backlog drained at the most recent wave",
    },
    SeriesDecl {
        name: "sitw_serve_shard_mailbox_peak",
        kind: "gauge",
        help: "High-water mark of the drain-observed mailbox backlog",
    },
    SeriesDecl {
        name: "sitw_serve_repl_epoch",
        kind: "gauge",
        help: "Replication epoch of the last committed round (0 = no round served)",
    },
    SeriesDecl {
        name: "sitw_serve_repl_rounds_total",
        kind: "counter",
        help: "Replication pulls answered (including empty lone-commit rounds)",
    },
    SeriesDecl {
        name: "sitw_serve_repl_full_syncs_total",
        kind: "counter",
        help: "Pulls answered with a full state sync instead of a delta",
    },
    SeriesDecl {
        name: "sitw_serve_repl_apps_total",
        kind: "counter",
        help: "App records streamed to followers across all rounds",
    },
    SeriesDecl {
        name: "sitw_serve_repl_bytes_total",
        kind: "counter",
        help: "Replication document bytes streamed to followers",
    },
    SeriesDecl {
        name: "sitw_serve_repl_lag_ms",
        kind: "gauge",
        help: "Milliseconds since the last follower pull (0 until first pull)",
    },
    SeriesDecl {
        name: "sitw_serve_uptime_ms",
        kind: "gauge",
        help: "Time since server start",
    },
];

/// Writes the `# HELP`/`# TYPE` preamble for `name` from [`REGISTRY`].
/// Lookups are total by construction: `sitw-lint` and the registry
/// unit test both fail on a rendered family missing from the table.
fn family(out: &mut String, name: &str) {
    use std::fmt::Write as _;
    let decl = REGISTRY.iter().find(|d| d.name == name);
    debug_assert!(decl.is_some(), "family {name} missing from REGISTRY");
    if let Some(d) = decl {
        let _ = writeln!(out, "# HELP {} {}", d.name, d.help);
        let _ = writeln!(out, "# TYPE {} {}", d.name, d.kind);
    }
}

/// A latency histogram split by wire protocol (JSON/HTTP vs SITW-BIN).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtoHists {
    /// Samples from JSON/HTTP requests, nanoseconds.
    pub json: Log2Histogram,
    /// Samples from SITW-BIN frames, nanoseconds.
    pub bin: Log2Histogram,
}

impl ProtoHists {
    /// Adds every bucket of `other` into `self` (exact merge).
    pub fn merge(&mut self, other: &Self) {
        self.json.merge(&other.json);
        self.bin.merge(&other.bin);
    }

    /// Both protocols merged into one histogram.
    pub fn merged(&self) -> Log2Histogram {
        let mut h = self.json.clone();
        h.merge(&self.bin);
        h
    }
}

/// Introspection counters reported by one reactor (event-loop) thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Reactor index.
    pub reactor: usize,
    /// Read-stage latency (socket readable → bytes buffered), ns.
    pub read: ProtoHists,
    /// Decode-stage latency (bytes → parsed and dispatched), ns.
    pub decode: ProtoHists,
    /// Render-stage latency (reply complete → bytes serialized), ns.
    pub render: ProtoHists,
    /// Write-stage latency (bytes serialized → flushed to socket), ns.
    pub write: ProtoHists,
    /// Total `epoll_wait` calls (blocking and non-blocking).
    pub epoll_waits: u64,
    /// Nanoseconds spent inside blocking `epoll_wait` calls.
    pub epoll_wait_ns: u64,
    /// Eventfd waker fires observed.
    pub wakeups: u64,
    /// Events delivered per productive `epoll_wait` wake.
    pub events_per_wake: Log2Histogram,
    /// Bytes per completed coalesced socket write.
    pub write_bursts: Log2Histogram,
    /// Backpressure transitions into the read-paused state.
    pub bp_pauses: u64,
    /// Backpressure transitions out of the read-paused state.
    pub bp_resumes: u64,
    /// Inbox backlog drained at the most recent wave (drain-observed).
    pub queue_depth: u64,
    /// High-water mark of the drain-observed inbox backlog.
    pub queue_peak: u64,
}

/// One tenant's counters as seen by one shard (the default tenant's
/// numbers are per-shard slices; named tenants live whole on one shard).
/// `/metrics` aggregates these by tenant name — the lock-free per-shard
/// sub-ledgers summed into cluster-level accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Registry id.
    pub id: u16,
    /// Tenant name (metrics label).
    pub name: String,
    /// Configured keep-alive memory budget (0 = unlimited).
    pub budget_mb: u64,
    /// Warm memory currently charged, MB.
    pub warm_mb: u64,
    /// Warm containers currently charged.
    pub warm_apps: u64,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms (the §5.3 idle-memory metric).
    pub idle_mb_ms: u64,
    /// Accepted invocations.
    pub invocations: u64,
    /// Cold verdicts (including eviction downgrades).
    pub cold: u64,
    /// Decisions by kind, indexed by the kind's SITW-BIN code
    /// (`wire::kind_to_bits`); they sum to `invocations`.
    pub decisions: [u64; 4],
    /// Decision latency for this tenant's invocations, nanoseconds.
    pub decision_ns: Log2Histogram,
}

/// Counters and latency estimates reported by one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Applications with live state.
    pub apps: u64,
    /// Accepted invocations.
    pub invocations: u64,
    /// Cold verdicts.
    pub cold: u64,
    /// Warm verdicts.
    pub warm: u64,
    /// Pre-warm loads inferred during gaps.
    pub prewarm_loads: u64,
    /// Rejected out-of-order invocations.
    pub out_of_order: u64,
    /// Hourly histogram backups taken (production mode only; 0 for
    /// per-app policies).
    pub backups: u64,
    /// Pre-warm events scheduled 90 s early (production mode only).
    pub prewarm_scheduled: u64,
    /// `(quantile, estimate_in_µs)` pairs derived from the shard's
    /// decision-latency histogram (empty until the shard has observed
    /// at least one decision).
    pub latency_us: Vec<(f64, f64)>,
    /// Mailbox wait (dispatch → dequeue) on this shard, nanoseconds.
    pub queue_ns: ProtoHists,
    /// Policy decision latency on this shard, nanoseconds.
    pub decide_ns: ProtoHists,
    /// Mailbox backlog drained at the most recent wave (drain-observed).
    pub mailbox_depth: u64,
    /// High-water mark of the drain-observed mailbox backlog.
    pub mailbox_peak: u64,
    /// Per-tenant fleet counters on this shard, ordered by tenant id.
    pub tenants: Vec<TenantStats>,
}

/// Server-wide wire-protocol counters (connections are not sharded, so
/// these live next to the per-shard stats, unlabelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtoStats {
    /// Complete SITW-BIN request frames served.
    pub frames: u64,
    /// Decisions delivered through batched binary frames.
    pub batched_decisions: u64,
    /// Typed SITW-BIN protocol errors answered (malformed frames,
    /// oversized batches, bad versions).
    pub proto_errors: u64,
    /// SITW-BIN control frames served (usage reports and budget pushes
    /// from a cluster router's reconciler).
    pub control_frames: u64,
}

/// Connection-level gauges (server-wide; maintained by the acceptor and
/// the reactor pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnStats {
    /// Connections currently open (reactor slab entries plus any still
    /// in flight from the acceptor). Returns to 0 when every client
    /// disconnects — the leak-freedom invariant the churn tests assert.
    pub live: u64,
    /// Connections accepted since start.
    pub accepted: u64,
    /// High-water mark of `live`.
    pub peak: u64,
    /// Reactor threads serving the connections.
    pub reactor_threads: u64,
}

/// Replication-source counters (server-wide: the delta stream is one
/// logical follower, not sharded). All zero until a follower pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplStats {
    /// Epoch of the last committed round (0 = no round served yet).
    pub epoch: u64,
    /// Pulls answered, including empty lone-commit rounds.
    pub rounds: u64,
    /// Pulls answered with a full sync instead of a delta (first
    /// attach, or a follower presenting a stale epoch).
    pub full_syncs: u64,
    /// App records streamed across all rounds.
    pub apps_streamed: u64,
    /// Replication document bytes streamed.
    pub bytes_streamed: u64,
    /// Milliseconds since the last pull (0 until the first pull).
    pub lag_ms: u64,
}

/// A full `/metrics` scrape: one entry per shard, plus uptime.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Per-shard statistics, ordered by shard index.
    pub shards: Vec<ShardStats>,
    /// Per-reactor introspection, ordered by reactor index (empty when
    /// telemetry is disabled).
    pub reactors: Vec<ReactorStats>,
    /// Server-wide SITW-BIN protocol counters.
    pub proto: ProtoStats,
    /// Server-wide connection gauges.
    pub conns: ConnStats,
    /// Server-wide replication-source counters.
    pub repl: ReplStats,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

impl MetricsReport {
    /// Total accepted invocations across shards.
    pub fn invocations(&self) -> u64 {
        self.shards.iter().map(|s| s.invocations).sum()
    }

    /// Total cold verdicts across shards.
    pub fn cold(&self) -> u64 {
        self.shards.iter().map(|s| s.cold).sum()
    }

    /// Total apps with live state across shards.
    pub fn apps(&self) -> u64 {
        self.shards.iter().map(|s| s.apps).sum()
    }

    /// Per-tenant counters aggregated across shards, ordered by id:
    /// the cluster memory ledger as `/metrics` exposes it. The default
    /// tenant sums its per-shard sub-ledgers; named tenants are whole.
    pub fn tenants(&self) -> Vec<TenantStats> {
        let mut merged: Vec<TenantStats> = Vec::new();
        for shard in &self.shards {
            for t in &shard.tenants {
                match merged.iter_mut().find(|m| m.id == t.id) {
                    Some(m) => {
                        m.warm_mb += t.warm_mb;
                        m.warm_apps += t.warm_apps;
                        m.evictions += t.evictions;
                        m.idle_mb_ms = m.idle_mb_ms.saturating_add(t.idle_mb_ms);
                        m.invocations += t.invocations;
                        m.cold += t.cold;
                        for (m, t) in m.decisions.iter_mut().zip(t.decisions) {
                            *m += t;
                        }
                        m.decision_ns.merge(&t.decision_ns);
                    }
                    None => merged.push(t.clone()),
                }
            }
        }
        merged.sort_by_key(|t| t.id);
        merged
    }

    /// Per-stage latency histograms merged exactly across every
    /// recording thread: read/decode/render/write summed over reactors,
    /// queue/decide summed over shards. In pipeline order.
    ///
    /// This is the data `sitw_serve_decision_latency` exports; the
    /// telemetry integration test asserts its bucket counts equal the
    /// sum of the per-shard recordings.
    pub fn stage_hists(&self) -> [(&'static str, ProtoHists); 6] {
        let mut read = ProtoHists::default();
        let mut decode = ProtoHists::default();
        let mut render = ProtoHists::default();
        let mut write = ProtoHists::default();
        for r in &self.reactors {
            read.merge(&r.read);
            decode.merge(&r.decode);
            render.merge(&r.render);
            write.merge(&r.write);
        }
        let mut queue = ProtoHists::default();
        let mut decide = ProtoHists::default();
        for s in &self.shards {
            queue.merge(&s.queue_ns);
            decide.merge(&s.decide_ns);
        }
        [
            ("read", read),
            ("decode", decode),
            ("queue", queue),
            ("decide", decide),
            ("render", render),
            ("write", write),
        ]
    }

    /// Renders the Prometheus text format. Every family's
    /// `# HELP`/`# TYPE` preamble comes from [`REGISTRY`]; this
    /// function only decides layout and sample values.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        /// Name and per-shard value accessor of one metric.
        type MetricRow = (&'static str, fn(&ShardStats) -> u64);
        let mut out = String::with_capacity(1024);
        let counters: [MetricRow; 8] = [
            ("sitw_serve_apps", |s| s.apps),
            ("sitw_serve_invocations_total", |s| s.invocations),
            ("sitw_serve_cold_total", |s| s.cold),
            ("sitw_serve_warm_total", |s| s.warm),
            ("sitw_serve_prewarm_loads_total", |s| s.prewarm_loads),
            ("sitw_serve_out_of_order_total", |s| s.out_of_order),
            ("sitw_serve_backups_total", |s| s.backups),
            ("sitw_serve_prewarm_scheduled_total", |s| {
                s.prewarm_scheduled
            }),
        ];
        for (name, get) in counters {
            family(&mut out, name);
            for s in &self.shards {
                let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", s.shard, get(s));
            }
        }
        let tenants = self.tenants();
        // The per-stage latency histogram: true Prometheus `histogram`
        // series with log2 bucket bounds in seconds, merged exactly
        // across recording threads. One series per stage and protocol,
        // plus per-tenant decide series.
        family(&mut out, "sitw_serve_decision_latency");
        for (stage, hists) in self.stage_hists() {
            for (proto, h) in [("json", &hists.json), ("bin", &hists.bin)] {
                write_hist_series(
                    &mut out,
                    "sitw_serve_decision_latency",
                    &format!("stage=\"{stage}\",proto=\"{proto}\""),
                    h,
                );
            }
        }
        for t in &tenants {
            write_hist_series(
                &mut out,
                "sitw_serve_decision_latency",
                &format!("stage=\"decide\",tenant=\"{}\"", t.name),
                &t.decision_ns,
            );
        }
        // Legacy quantile gauges, now derived from the histogram
        // buckets. Non-finite estimates are suppressed: NaN/inf are not
        // valid Prometheus sample values, and an underfilled estimator
        // must not export garbage.
        family(&mut out, "sitw_serve_decision_latency_us");
        for s in &self.shards {
            for (q, v) in &s.latency_us {
                if !v.is_finite() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "sitw_serve_decision_latency_us{{shard=\"{}\",quantile=\"{q}\"}} {v:.3}",
                    s.shard
                );
            }
        }
        // Per-tenant fleet metrics: the cluster memory ledger.
        type TenantRow = (&'static str, fn(&TenantStats) -> u64);
        let tenant_rows: [TenantRow; 7] = [
            ("sitw_serve_tenant_budget_mb", |t| t.budget_mb),
            ("sitw_serve_tenant_warm_mb", |t| t.warm_mb),
            ("sitw_serve_tenant_warm_apps", |t| t.warm_apps),
            ("sitw_serve_tenant_evictions_total", |t| t.evictions),
            ("sitw_serve_tenant_idle_mb_ms_total", |t| t.idle_mb_ms),
            ("sitw_serve_tenant_invocations_total", |t| t.invocations),
            ("sitw_serve_tenant_cold_total", |t| t.cold),
        ];
        for (name, get) in tenant_rows {
            family(&mut out, name);
            for t in &tenants {
                let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", t.name, get(t));
            }
        }
        family(&mut out, "sitw_serve_decisions_total");
        for t in &tenants {
            for (bits, n) in (0u8..).zip(t.decisions) {
                let _ = writeln!(
                    out,
                    "sitw_serve_decisions_total{{tenant=\"{}\",kind=\"{}\"}} {n}",
                    t.name,
                    kind_str(kind_from_bits(bits))
                );
            }
        }
        let proto: [(&str, u64); 4] = [
            ("sitw_serve_frames_total", self.proto.frames),
            (
                "sitw_serve_batched_decisions_total",
                self.proto.batched_decisions,
            ),
            ("sitw_serve_proto_errors_total", self.proto.proto_errors),
            ("sitw_serve_control_frames_total", self.proto.control_frames),
        ];
        let conns: [(&str, u64); 4] = [
            ("sitw_serve_connections_live", self.conns.live),
            ("sitw_serve_connections_accepted_total", self.conns.accepted),
            ("sitw_serve_connections_peak", self.conns.peak),
            ("sitw_serve_reactor_threads", self.conns.reactor_threads),
        ];
        let repl: [(&str, u64); 6] = [
            ("sitw_serve_repl_epoch", self.repl.epoch),
            ("sitw_serve_repl_rounds_total", self.repl.rounds),
            ("sitw_serve_repl_full_syncs_total", self.repl.full_syncs),
            ("sitw_serve_repl_apps_total", self.repl.apps_streamed),
            ("sitw_serve_repl_bytes_total", self.repl.bytes_streamed),
            ("sitw_serve_repl_lag_ms", self.repl.lag_ms),
        ];
        for (name, value) in proto.into_iter().chain(conns).chain(repl) {
            family(&mut out, name);
            let _ = writeln!(out, "{name} {value}");
        }
        // Reactor introspection: event-loop behaviour per thread (the
        // families render with no samples when telemetry is off).
        type ReactorRow = (&'static str, fn(&ReactorStats) -> u64);
        let reactor_rows: [ReactorRow; 6] = [
            ("sitw_serve_reactor_epoll_waits_total", |r| r.epoll_waits),
            ("sitw_serve_reactor_wakeups_total", |r| r.wakeups),
            ("sitw_serve_reactor_backpressure_pauses_total", |r| {
                r.bp_pauses
            }),
            ("sitw_serve_reactor_backpressure_resumes_total", |r| {
                r.bp_resumes
            }),
            ("sitw_serve_reactor_queue_depth", |r| r.queue_depth),
            ("sitw_serve_reactor_queue_peak", |r| r.queue_peak),
        ];
        for (name, get) in reactor_rows {
            family(&mut out, name);
            for r in &self.reactors {
                let _ = writeln!(out, "{name}{{reactor=\"{}\"}} {}", r.reactor, get(r));
            }
        }
        family(&mut out, "sitw_serve_reactor_epoll_wait_seconds_total");
        for r in &self.reactors {
            let _ = writeln!(
                out,
                "sitw_serve_reactor_epoll_wait_seconds_total{{reactor=\"{}\"}} {:.6}",
                r.reactor,
                r.epoll_wait_ns as f64 / 1e9
            );
        }
        type ShardRow = (&'static str, fn(&ShardStats) -> u64);
        let mailbox_rows: [ShardRow; 2] = [
            ("sitw_serve_shard_mailbox_depth", |s| s.mailbox_depth),
            ("sitw_serve_shard_mailbox_peak", |s| s.mailbox_peak),
        ];
        for (name, get) in mailbox_rows {
            family(&mut out, name);
            for s in &self.shards {
                let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", s.shard, get(s));
            }
        }
        family(&mut out, "sitw_serve_uptime_ms");
        let _ = writeln!(out, "sitw_serve_uptime_ms {}", self.uptime_ms);
        out
    }

    /// Renders the stage histograms as raw bucket vectors — the
    /// federation wire format `GET /debug/hist` serves.
    ///
    /// One line per series, whitespace-separated tokens:
    ///
    /// ```text
    /// stage <name> <proto> <sum_ns> <b0> <b1> ... <b63>
    /// tenant <name> <sum_ns> <b0> <b1> ... <b63>
    /// ```
    ///
    /// Raw buckets (not the `le`-bounded Prometheus projection) so a
    /// scraping router can reconstruct each [`Log2Histogram`] losslessly
    /// with [`Log2Histogram::from_raw`] and merge exactly: federated
    /// bucket counts equal the sum of node counts by construction.
    pub fn render_raw(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut line = |prefix: String, h: &Log2Histogram| {
            out.push_str(&prefix);
            let _ = write!(out, " {}", h.sum());
            for b in h.buckets() {
                let _ = write!(out, " {b}");
            }
            out.push('\n');
        };
        for (stage, hists) in self.stage_hists() {
            for (proto, h) in [("json", &hists.json), ("bin", &hists.bin)] {
                line(format!("stage {stage} {proto}"), h);
            }
        }
        for t in &self.tenants() {
            line(format!("tenant {}", t.name), &t.decision_ns);
        }
        out
    }
}

/// Log2 buckets exported as `le` bounds, as bucket indices into the
/// nanosecond histogram: 255 ns (index 8) up to ~68.7 s (index 36).
/// Samples below the first bound are cumulative in it; samples above
/// the last land only in `+Inf`.
const LE_LO: usize = 8;
const LE_HI: usize = 36;

/// Writes one `histogram` series (`_bucket`/`_sum`/`_count`) for a
/// nanosecond [`Log2Histogram`], bounds converted to seconds.
///
/// Public so the cluster router renders its federated
/// (`/metrics/fleet`) histograms with byte-identical layout.
pub fn write_hist_series(out: &mut String, name: &str, labels: &str, h: &Log2Histogram) {
    use std::fmt::Write as _;
    let buckets = h.buckets();
    let mut cum: u64 = buckets[..LE_LO].iter().sum();
    for (i, &count) in buckets.iter().enumerate().take(LE_HI + 1).skip(LE_LO) {
        cum += count;
        let le = Log2Histogram::bucket_upper(i) as f64 / 1e9;
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum() as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(shard: usize) -> ShardStats {
        let mut decide_ns = ProtoHists::default();
        decide_ns.json.record(1_500);
        decide_ns.bin.record(9_000);
        let mut queue_ns = ProtoHists::default();
        queue_ns.json.record(700);
        let mut tenant_decide = Log2Histogram::new();
        tenant_decide.record(1_500);
        ShardStats {
            shard,
            apps: 3,
            invocations: 100,
            cold: 20,
            warm: 80,
            prewarm_loads: 5,
            out_of_order: 1,
            backups: 7,
            prewarm_scheduled: 11,
            latency_us: vec![(0.5, 1.5), (0.95, 3.0), (0.99, 9.0)],
            queue_ns,
            decide_ns,
            mailbox_depth: 1,
            mailbox_peak: 6,
            tenants: vec![
                TenantStats {
                    id: 0,
                    name: "default".into(),
                    budget_mb: 0,
                    warm_mb: 100,
                    warm_apps: 2,
                    evictions: 0,
                    idle_mb_ms: 1_000,
                    invocations: 90,
                    cold: 15,
                    decisions: [60, 25, 5, 0],
                    decision_ns: tenant_decide,
                },
                TenantStats {
                    id: 1,
                    name: "acme".into(),
                    budget_mb: 512,
                    warm_mb: 300,
                    warm_apps: 1,
                    evictions: 4,
                    idle_mb_ms: 2_000,
                    invocations: 10,
                    cold: 5,
                    decisions: [0, 0, 0, 10],
                    decision_ns: Log2Histogram::new(),
                },
            ],
        }
    }

    #[test]
    fn totals_sum_over_shards() {
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 42,
        };
        assert_eq!(r.invocations(), 200);
        assert_eq!(r.cold(), 40);
        assert_eq!(r.apps(), 6);
    }

    #[test]
    fn tenant_aggregation_sums_sub_ledgers() {
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 42,
        };
        let tenants = r.tenants();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].name, "default");
        assert_eq!(tenants[0].warm_mb, 200, "per-shard sub-ledgers sum");
        assert_eq!(tenants[0].idle_mb_ms, 2_000);
        assert_eq!(tenants[1].evictions, 8);
        assert_eq!(tenants[1].budget_mb, 512, "config gauge, not summed");
        assert_eq!(tenants[0].decisions, [120, 50, 10, 0]);
    }

    #[test]
    fn renders_prometheus_text() {
        let mut reactor = ReactorStats {
            reactor: 0,
            epoll_waits: 500,
            epoll_wait_ns: 2_000_000_000,
            wakeups: 40,
            bp_pauses: 2,
            bp_resumes: 2,
            queue_depth: 0,
            queue_peak: 9,
            ..ReactorStats::default()
        };
        reactor.read.json.record(300);
        reactor.write.bin.record(12_000);
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![reactor],
            proto: ProtoStats {
                frames: 13,
                batched_decisions: 1664,
                proto_errors: 2,
                control_frames: 5,
            },
            conns: ConnStats {
                live: 3,
                accepted: 1200,
                peak: 257,
                reactor_threads: 2,
            },
            repl: ReplStats::default(),
            uptime_ms: 42,
        };
        let text = r.render();
        assert!(text.contains("# TYPE sitw_serve_invocations_total counter"));
        assert!(text.contains("sitw_serve_invocations_total{shard=\"1\"} 100"));
        assert!(text.contains("sitw_serve_backups_total{shard=\"0\"} 7"));
        assert!(text.contains("sitw_serve_prewarm_scheduled_total{shard=\"1\"} 11"));
        assert!(text.contains("sitw_serve_decision_latency_us{shard=\"0\",quantile=\"0.99\"}"));
        assert!(text.contains("# TYPE sitw_serve_frames_total counter"));
        assert!(text.contains("sitw_serve_frames_total 13"));
        assert!(text.contains("sitw_serve_batched_decisions_total 1664"));
        assert!(text.contains("sitw_serve_proto_errors_total 2"));
        assert!(text.contains("sitw_serve_control_frames_total 5"));
        assert!(text.contains("# TYPE sitw_serve_connections_live gauge"));
        assert!(text.contains("sitw_serve_connections_live 3"));
        assert!(text.contains("# TYPE sitw_serve_connections_accepted_total counter"));
        assert!(text.contains("sitw_serve_connections_accepted_total 1200"));
        assert!(text.contains("sitw_serve_connections_peak 257"));
        assert!(text.contains("sitw_serve_reactor_threads 2"));
        assert!(text.contains("sitw_serve_uptime_ms 42"));
        assert!(text.contains("sitw_serve_tenant_warm_mb{tenant=\"default\"} 200"));
        assert!(text.contains("sitw_serve_tenant_warm_mb{tenant=\"acme\"} 600"));
        assert!(text.contains("sitw_serve_tenant_evictions_total{tenant=\"acme\"} 8"));
        assert!(text.contains("sitw_serve_tenant_budget_mb{tenant=\"acme\"} 512"));
        assert!(text.contains("sitw_serve_tenant_idle_mb_ms_total{tenant=\"default\"} 2000"));
        assert!(text.contains("# TYPE sitw_serve_decisions_total counter"));
        assert!(
            text.contains("sitw_serve_decisions_total{tenant=\"default\",kind=\"histogram\"} 120")
        );
        assert!(text.contains("sitw_serve_decisions_total{tenant=\"acme\",kind=\"static\"} 20"));
        // The true histogram family: per stage and protocol, plus
        // per-tenant decide series.
        assert!(text.contains("# TYPE sitw_serve_decision_latency histogram"));
        assert!(text.contains(
            "sitw_serve_decision_latency_bucket{stage=\"decide\",proto=\"json\",le=\"+Inf\"} 2"
        ));
        assert!(
            text.contains("sitw_serve_decision_latency_count{stage=\"decide\",proto=\"bin\"} 2")
        );
        assert!(text
            .contains("sitw_serve_decision_latency_count{stage=\"decide\",tenant=\"default\"} 2"));
        assert!(text.contains("sitw_serve_decision_latency_count{stage=\"read\",proto=\"json\"} 1"));
        assert!(text.contains("sitw_serve_decision_latency_count{stage=\"write\",proto=\"bin\"} 1"));
        // Reactor and shard introspection.
        assert!(text.contains("sitw_serve_reactor_epoll_waits_total{reactor=\"0\"} 500"));
        assert!(
            text.contains("sitw_serve_reactor_epoll_wait_seconds_total{reactor=\"0\"} 2.000000")
        );
        assert!(text.contains("sitw_serve_reactor_wakeups_total{reactor=\"0\"} 40"));
        assert!(text.contains("sitw_serve_reactor_backpressure_pauses_total{reactor=\"0\"} 2"));
        assert!(text.contains("sitw_serve_reactor_queue_peak{reactor=\"0\"} 9"));
        assert!(text.contains("sitw_serve_shard_mailbox_peak{shard=\"1\"} 6"));
        assert!(text.contains("sitw_serve_shard_mailbox_depth{shard=\"0\"} 1"));
    }

    /// Regression (this PR's bugfix satellite): latency quantile gauges
    /// from an empty or underfilled estimator used to leak `NaN`/`inf`
    /// sample values — invalid Prometheus exposition. Non-finite
    /// estimates must be suppressed, finite ones kept.
    #[test]
    fn non_finite_latency_quantiles_are_suppressed() {
        let mut s = stats(0);
        s.latency_us = vec![(0.5, f64::NAN), (0.95, f64::INFINITY), (0.99, 9.0)];
        let r = MetricsReport {
            shards: vec![s],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 0,
        };
        let text = r.render();
        // Every sample value in the whole exposition must parse finite
        // (HELP text may legitimately contain words like "inferred").
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let val = line.rsplit(' ').next().expect("sample line has a value");
            let v: f64 = val
                .parse()
                .unwrap_or_else(|_| panic!("unparsable sample '{val}' in line '{line}'"));
            assert!(v.is_finite(), "non-finite sample leaked: {line}");
        }
        assert!(
            text.contains("sitw_serve_decision_latency_us{shard=\"0\",quantile=\"0.99\"} 9.000")
        );
    }

    /// Shard-merged bucket counts are exactly the sum of per-shard
    /// recordings (the exactness the log2 histograms exist for).
    #[test]
    fn stage_hists_merge_exactly_across_shards() {
        let mut a = stats(0);
        let mut b = stats(1);
        a.decide_ns.json.record(77);
        b.decide_ns.json.record(1_000_000);
        b.decide_ns.bin.record(3);
        let mut expect = a.decide_ns.clone();
        expect.merge(&b.decide_ns);
        let r = MetricsReport {
            shards: vec![a, b],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 0,
        };
        let stages = r.stage_hists();
        let (name, decide) = &stages[3];
        assert_eq!(*name, "decide");
        assert_eq!(decide, &expect);
    }

    /// The declarative [`REGISTRY`] and the rendered exposition are in
    /// exact lockstep: every registered family renders (with the
    /// registered kind and help), every rendered family is registered,
    /// and no name is registered twice. Together with `sitw-lint`'s
    /// static `metrics-registry` rule this makes the registry the
    /// single source of truth.
    #[test]
    fn registry_matches_rendered_families() {
        let r = MetricsReport {
            shards: vec![stats(0)],
            reactors: vec![ReactorStats::default()],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 1,
        };
        let text = r.render();
        let mut rendered: Vec<(&str, &str)> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.splitn(2, ' ');
                rendered.push((it.next().unwrap(), it.next().unwrap()));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for d in REGISTRY {
            assert!(seen.insert(d.name), "duplicate registry entry: {}", d.name);
            assert!(
                rendered.contains(&(d.name, d.kind)),
                "registered family not rendered (or kind mismatch): {} {}",
                d.name,
                d.kind
            );
            assert!(
                text.contains(&format!("# HELP {} {}", d.name, d.help)),
                "help text drifted for {}",
                d.name
            );
        }
        assert_eq!(
            rendered.len(),
            REGISTRY.len(),
            "rendered families not in the registry: {:?}",
            rendered
                .iter()
                .filter(|(n, _)| !seen.contains(n))
                .collect::<Vec<_>>()
        );
    }

    /// Every exported sample belongs to a family announced with
    /// `# HELP` and `# TYPE` lines (the exposition-audit satellite).
    #[test]
    fn every_series_has_help_and_type() {
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![ReactorStats {
                reactor: 0,
                ..ReactorStats::default()
            }],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 1,
        };
        let text = r.render();
        let mut typed = std::collections::HashSet::new();
        let mut helped = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split(' ').next().unwrap().to_owned());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_owned());
            } else if !line.is_empty() {
                let name = line.split(['{', ' ']).next().unwrap();
                // Histogram samples use the family name plus a
                // _bucket/_sum/_count suffix.
                let family = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|f| typed.contains(*f))
                    .unwrap_or(name);
                assert!(typed.contains(family), "sample without # TYPE: {line}");
                assert!(helped.contains(family), "sample without # HELP: {line}");
            }
        }
    }
}
