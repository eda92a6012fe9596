//! Shard workers: each worker thread exclusively owns the per-tenant,
//! per-application policy state for its slice of the fleet.
//!
//! The decision path is lock-free by construction — connection threads
//! route `(tenant, app)` to a shard and exchange messages over `mpsc`
//! channels, so a shard's state is touched by exactly one thread. The
//! fleet extends the PR-1 isolation argument one level up: default-tenant
//! apps spread over shards by app hash (apps are independent, §5.1), and
//! each *named* tenant lands whole on one shard (tenant-name hash), so
//! its memory ledger — whose eviction decisions couple apps to each
//! other — has a single writer and a shard-count-independent event
//! order.
//!
//! Every tenant owns: its [`PolicySpec`]'s per-app policy state (or a
//! tenant-local [`ProductionManager`] in production mode), a
//! [`TenantLedger`] charging each warm container its deterministic Burr
//! footprint, and eviction bookkeeping. When a charge pushes a budgeted
//! tenant over its limit, victims (earliest keep-alive expiry first) are
//! marked evicted; their next invocation is downgraded to a cold start
//! with the `evicted` flag set — the memory-pressure dimension the
//! paper's §3.4 trade-off implies but a stateless verdict oracle cannot
//! express.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use sitw_core::{
    AppKey, AppPolicy, DecisionKind, FixedKeepAlive, HybridConfig, HybridPolicy, NoUnloading,
    ProductionManager, Windows,
};
use sitw_fleet::{footprint_mb, AppSlot, LedgerExport, TenantId, TenantLedger, TenantSpec};
use sitw_sim::PolicySpec;
use sitw_telemetry::{EventKind, LifecycleEvent, Log2Histogram, SpanEvent, Stage};

use crate::metrics::{ShardStats, TenantStats};
use crate::reactor::ReplySink;
use crate::snapshot::{AppRecord, PolicyState, ShardExport, TenantExport};
use crate::telem::ShardTelem;
use crate::wire::kind_to_bits;

/// Latency quantiles `/metrics` exports as compatibility gauges,
/// derived from the shard's decision-latency log2 histogram.
pub const LATENCY_QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Mailbox messages a worker pulls non-blockingly behind each blocking
/// `recv` (one telemetry *drain wave*) — bounds the wave's memory and
/// the reply delay a deep backlog can impose on its first message.
const DRAIN_WAVE: usize = 128;

/// A concrete per-application policy instance.
///
/// An enum rather than `Box<dyn AppPolicy>` for two reasons: decisions
/// dispatch without a vtable on the hot path, and snapshot export can
/// match on the variant instead of downcasting.
// The hybrid variant dominates the size, but hybrid is also the policy
// every realistic deployment serves — boxing it would add a pointer
// chase per decision to shrink the two baseline variants nobody runs.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ServedPolicy {
    /// Fixed keep-alive baseline.
    Fixed(FixedKeepAlive),
    /// Never unload.
    NoUnload(NoUnloading),
    /// The hybrid histogram policy.
    Hybrid(HybridPolicy),
    /// Production-manager mode (§6): the per-app state lives in the
    /// tenant's fleet-wide [`ProductionManager`]; this variant holds the
    /// app's key into it plus the branch that served its last decision.
    Production {
        /// Key of this app inside the tenant's manager.
        key: AppKey,
        /// The branch that produced the most recent decision.
        last: DecisionKind,
    },
}

impl ServedPolicy {
    // sitw-lint: hot-path
    fn on_invocation(&mut self, idle_time_ms: Option<u64>) -> Windows {
        match self {
            ServedPolicy::Fixed(p) => p.on_invocation(idle_time_ms),
            ServedPolicy::NoUnload(p) => p.on_invocation(idle_time_ms),
            ServedPolicy::Hybrid(p) => p.on_invocation(idle_time_ms),
            ServedPolicy::Production { .. } => {
                // Production apps never reach this dispatcher: invoke()
                // matches the Production variant first and routes through
                // the tenant manager. A type-level split would duplicate
                // the whole enum; the invariant is cheaper to state here.
                // sitw-lint: allow(panic-freedom)
                unreachable!("production decisions go through the tenant's manager")
            }
        }
    }

    fn last_decision(&self) -> DecisionKind {
        match self {
            ServedPolicy::Fixed(p) => p.last_decision(),
            ServedPolicy::NoUnload(p) => p.last_decision(),
            ServedPolicy::Hybrid(p) => p.last_decision(),
            ServedPolicy::Production { last, .. } => *last,
        }
    }
}

/// What a tenant builds its apps' policy instances from: its
/// [`PolicySpec`] with a hybrid configuration held once, behind an
/// [`Arc`], and shared by every instance (fresh or restored).
#[derive(Debug, Clone)]
pub(crate) enum PolicyTemplate {
    /// Fixed keep-alive baseline.
    Fixed(FixedKeepAlive),
    /// Never unload.
    NoUnload,
    /// The hybrid histogram policy, one configuration per tenant.
    Hybrid(Arc<HybridConfig>),
    /// Production apps are keys into the tenant's [`ProductionManager`],
    /// which builds and restores their state itself.
    Production,
}

impl PolicyTemplate {
    pub(crate) fn new(spec: &PolicySpec) -> PolicyTemplate {
        match spec {
            PolicySpec::Fixed(f) => PolicyTemplate::Fixed(*f),
            PolicySpec::NoUnloading => PolicyTemplate::NoUnload,
            PolicySpec::Hybrid(cfg) => PolicyTemplate::Hybrid(Arc::new(cfg.clone())),
            PolicySpec::Production(_) => PolicyTemplate::Production,
        }
    }

    /// A fresh instance for a newly seen application.
    ///
    /// # Panics
    ///
    /// Panics for [`PolicyTemplate::Production`]: production apps are
    /// registered with their tenant's manager (see
    /// [`ShardWorker::invoke`]), not built standalone.
    pub(crate) fn fresh(&self) -> ServedPolicy {
        match self {
            PolicyTemplate::Fixed(f) => ServedPolicy::Fixed(*f),
            PolicyTemplate::NoUnload => ServedPolicy::NoUnload(NoUnloading),
            PolicyTemplate::Hybrid(cfg) => {
                ServedPolicy::Hybrid(HybridPolicy::with_config(Arc::clone(cfg)))
            }
            PolicyTemplate::Production => {
                unreachable!("production apps are created by the tenant's manager")
            }
        }
    }

    /// The template's policy family, for error messages.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PolicyTemplate::Fixed(_) => "fixed",
            PolicyTemplate::NoUnload => "no-unloading",
            PolicyTemplate::Hybrid(_) => "hybrid",
            PolicyTemplate::Production => "production",
        }
    }
}

/// Tenant-local production state: one manager covering the tenant's
/// shard slice of the app space, plus §6 bookkeeping counters.
struct ProductionShard {
    manager: ProductionManager,
    /// Next key to hand to a newly seen app. Keys are shard-local and
    /// never serialized — snapshots are app-id-keyed, so a restore (even
    /// with a different shard count) just re-assigns them.
    next_key: AppKey,
    /// Pre-warm events scheduled so far (each one `prewarm_slack_ms`
    /// before the computed window, per §6).
    prewarm_scheduled: u64,
}

impl ProductionShard {
    fn decide(&mut self, key: AppKey, ts: u64, idle: Option<u64>) -> (Windows, DecisionKind) {
        let (windows, kind) = self.manager.on_invocation(key, ts, idle);
        // An unload/pre-warm cycle means a pre-warm event was put on the
        // schedule (fired 90 s early, off the critical path).
        if windows.pre_warm_ms > 0 {
            self.prewarm_scheduled += 1;
        }
        (windows, kind)
    }
}

/// One keep-alive decision, as returned to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The invocation found no loaded image.
    pub cold: bool,
    /// A pre-warm load occurred in the gap ending at this invocation.
    pub prewarm_load: bool,
    /// The image was evicted for memory pressure during the gap: a
    /// would-be warm start was downgraded to cold (the fleet's budget
    /// dimension; always false for unbudgeted tenants).
    pub evicted: bool,
    /// The policy branch that produced the new windows.
    pub kind: DecisionKind,
    /// Windows governing the gap until the app's next invocation.
    pub windows: Windows,
}

/// Why an invocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// The timestamp is older than the app's last accepted one. Policy
    /// state is a function of the ordered idle-time stream, so
    /// out-of-order delivery must be surfaced, not silently folded in.
    OutOfOrder {
        /// The app's last accepted timestamp.
        last_ts: u64,
    },
    /// The tenant id is not registered on this shard. Unreachable from
    /// the daemon's connection path (ids are validated against the
    /// registry before dispatch); kept as a typed error so the shard
    /// never panics on a protocol-level race.
    UnknownTenant,
}

/// A reply to one `Invoke` message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeReply {
    /// Echo of the request's sequence number (responses from different
    /// shards interleave on the reply channel; the connection reorders).
    pub seq: u64,
    /// The decision or the rejection.
    pub result: Result<Decision, InvokeError>,
}

/// One record of a batched invoke: the frame-relative index plus the
/// invocation itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// Position of this record in its frame (replies are reassembled in
    /// frame order across shards).
    pub idx: u32,
    /// Tenant the app belongs to.
    pub tenant: TenantId,
    /// Application id.
    pub app: String,
    /// Invocation timestamp (trace milliseconds).
    pub ts: u64,
}

/// A shard's answers to one [`ShardMsg::InvokeBatch`]: `(idx, result)`
/// pairs in submission order, tagged with the frame they belong to so
/// connections can keep several frames in flight (server-side frame
/// pipelining).
#[derive(Debug)]
pub struct BatchReply {
    /// The connection-local frame sequence this reply answers.
    pub frame_seq: u64,
    /// One result per submitted item, tagged with its frame index.
    pub results: Vec<(u32, Result<Decision, InvokeError>)>,
}

/// Messages a shard worker accepts.
pub enum ShardMsg {
    /// One invocation to classify.
    Invoke {
        /// Tenant the app belongs to.
        tenant: TenantId,
        /// Application id.
        app: String,
        /// Invocation timestamp (trace milliseconds).
        ts: u64,
        /// Connection-local sequence number echoed in the reply.
        seq: u64,
        /// Telemetry span id assigned at parse time (0 when disabled).
        span: u64,
        /// Dispatch timestamp (ns since server start; 0 when disabled).
        /// The shard records dequeue-minus-dispatch as queue wait.
        sent_ns: u64,
        /// Where to send the reply (the owning reactor's queue).
        reply: ReplySink,
    },
    /// A whole frame slice in one mpsc hop: every record of a SITW-BIN
    /// frame that hashed to this shard. Amortizes mailbox and wake costs
    /// across the batch — the point of the binary protocol.
    InvokeBatch {
        /// Connection-local frame sequence (echoed in the reply so the
        /// connection can pipeline frames).
        frame_seq: u64,
        /// The shard's slice of the frame, in frame order.
        items: Vec<BatchItem>,
        /// Telemetry span id of the frame (0 when disabled).
        span: u64,
        /// Dispatch timestamp (ns since server start; 0 when disabled).
        sent_ns: u64,
        /// Where to send the batched reply (the owning reactor's queue).
        reply: ReplySink,
    },
    /// Registers a tenant on this shard (admin path). Acked so the
    /// registry only exposes the tenant once its shard can serve it.
    AddTenant {
        /// The tenant to create (empty state).
        spec: TenantSpec,
        /// Acked once the tenant exists.
        ack: Sender<()>,
    },
    /// Replaces a tenant's memory budget (0 = unlimited). Enforcement is
    /// lazy — the new budget bites on the *next* charge — so applying a
    /// cluster-reconciled share never rewrites verdicts retroactively.
    /// Acked with `true` iff the tenant lives on this shard.
    SetBudget {
        /// The tenant whose budget to replace.
        tenant: TenantId,
        /// The new budget in MB (0 = unlimited).
        budget_mb: u64,
        /// Acked with whether the tenant was found.
        ack: Sender<bool>,
    },
    /// Exports a tenant's complete state and removes it from the shard
    /// (the first half of a cross-node migration). Replies `None` when
    /// the tenant does not live here. Traffic arriving after the take
    /// gets typed `UnknownTenant` errors, never a panic.
    TakeTenant {
        /// The tenant to export and drop.
        tenant: TenantId,
        /// The exported state, or `None` if unknown.
        reply: Sender<Option<TenantExport>>,
    },
    /// Installs a tenant from a migration payload (the second half of a
    /// cross-node migration), replacing any existing state for that id.
    RestoreTenant {
        /// The tenant's spec, apps, and ledger to install.
        restore: Box<TenantRestore>,
        /// `Ok` once installed; `Err` carries the decode failure.
        ack: Sender<Result<(), String>>,
    },
    /// Renders one app's live policy state as JSON — the decision
    /// provenance view behind `GET /debug/policy`. Replies `None` when
    /// the tenant or app has no state on this shard.
    PolicyProbe {
        /// Tenant the app belongs to.
        tenant: TenantId,
        /// Application id.
        app: String,
        /// The rendered JSON body, or `None` if unknown.
        reply: Sender<Option<String>>,
    },
    /// Report counters and latency percentiles.
    Scrape(Sender<ShardStats>),
    /// Export the complete per-app state.
    Snapshot(Sender<ShardExport>),
    /// Export only the state mutated after `since` — one shard's half
    /// of a replication round. The tenant list is always complete
    /// (specs, ledgers, clocks are cheap and carried wholesale every
    /// round); only the per-app records are filtered, so the export
    /// cost scales with the mutation rate, not the fleet size.
    ExportDirty {
        /// The replication frontier: apps stamped at or before this
        /// sequence are skipped (0 exports everything mutated since
        /// the worker started).
        since: u64,
        /// The filtered export plus the new frontier.
        reply: Sender<DirtyShardExport>,
    },
    /// Drain and exit; the worker returns its final state to `join`.
    Shutdown,
}

/// One shard's answer to [`ShardMsg::ExportDirty`]: the state mutated
/// since the requested frontier, plus the frontier to ask from next
/// round.
#[derive(Debug)]
pub struct DirtyShardExport {
    /// The worker's mutation sequence at export time. Feeding it back
    /// as `since` on the next round yields exactly the mutations in
    /// between — a lost round re-sends, never skips.
    pub seq: u64,
    /// The complete tenant list with apps filtered to the dirty set.
    pub export: ShardExport,
}

/// Per-application serving state, stored in its tenant's table at the
/// app's ledger slot.
struct AppState {
    policy: ServedPolicy,
    windows: Windows,
    last_ts: u64,
    /// The image was evicted for memory pressure during the gap in
    /// progress; the next invocation is downgraded to cold.
    evicted: bool,
    /// The app's deterministic Burr footprint, computed once at first
    /// sight — a pure function of `(tenant, app)`, so the hot path
    /// never re-runs the quantile transform.
    footprint_mb: u64,
    /// The most recent verdict served plus its inputs — the provenance
    /// `GET /debug/policy` reports (`None` only for restored apps that
    /// have not been invoked since).
    last_verdict: Option<LastVerdict>,
    /// The worker's mutation sequence when this app's state last
    /// changed (invocation, eviction flag, or migration-restore).
    /// Replication rounds export exactly the apps whose stamp is newer
    /// than the follower's frontier — never the whole map.
    dirty_seq: u64,
}

/// One served verdict with the inputs that produced it, kept per app
/// for decision provenance.
#[derive(Debug, Clone, Copy)]
struct LastVerdict {
    /// Invocation timestamp (trace milliseconds).
    ts: u64,
    /// The idle time classified (`None` for the app's first sight).
    idle_ms: Option<u64>,
    cold: bool,
    prewarm_load: bool,
    evicted: bool,
    kind: DecisionKind,
}

/// One tenant's complete state on this shard.
///
/// The ledger interns every app name once into a dense [`AppSlot`], and
/// that slot is the app's only key here: per-app state is a table
/// indexed by slot, so an app name is hashed once per invocation and
/// stored once per tenant. An entry is `None` for
/// a slot the ledger interned from a restored warm entry that has no
/// app record. A hybrid tenant's apps share one [`HybridConfig`].
struct TenantShard {
    spec: TenantSpec,
    /// Per-app state by ledger slot.
    apps: Vec<Option<AppState>>,
    /// What every app's policy instance is built from.
    template: PolicyTemplate,
    /// `Some` iff the tenant's policy is [`PolicySpec::Production`].
    production: Option<ProductionShard>,
    ledger: TenantLedger,
    invocations: u64,
    cold: u64,
    /// Decisions served, by kind (indexed by [`kind_to_bits`]).
    decisions: [u64; 4],
    /// Decision latency for this tenant's invocations, nanoseconds.
    decide_ns: Log2Histogram,
}

impl TenantShard {
    fn new(spec: TenantSpec, ledger: TenantLedger, prod_clock: Option<u64>) -> TenantShard {
        let production = match &spec.policy {
            PolicySpec::Production(cfg) => {
                let mut manager = ProductionManager::new(*cfg);
                if let Some(at_ms) = prod_clock {
                    manager.set_last_backup_ms(at_ms);
                }
                Some(ProductionShard {
                    manager,
                    next_key: 0,
                    prewarm_scheduled: 0,
                })
            }
            _ => None,
        };
        TenantShard {
            template: PolicyTemplate::new(&spec.policy),
            spec,
            apps: Vec::new(),
            production,
            ledger,
            invocations: 0,
            cold: 0,
            decisions: [0; 4],
            decide_ns: Log2Histogram::new(),
        }
    }
}

/// The table entry of `slot`, growing the table to cover it. The ledger
/// issues slots densely in first-sight order, so a new app grows the
/// table by one entry.
fn app_entry(apps: &mut Vec<Option<AppState>>, slot: AppSlot) -> &mut Option<AppState> {
    let idx = slot as usize;
    if apps.len() <= idx {
        apps.resize_with(idx + 1, || None);
    }
    &mut apps[idx]
}

/// Restore payload for one tenant on one shard: its spec plus the app
/// records and ledger slice routed here.
pub struct TenantRestore {
    /// The tenant's configuration.
    pub spec: TenantSpec,
    /// This shard's app records (tenant-filtered, app-routed).
    pub apps: Vec<AppRecord>,
    /// This shard's slice of the tenant's ledger.
    pub ledger: LedgerExport,
    /// Production backup clock, when the tenant serves production mode.
    pub prod_clock: Option<u64>,
}

impl TenantRestore {
    /// An empty-state restore for `spec`.
    pub fn fresh(spec: TenantSpec) -> TenantRestore {
        TenantRestore {
            spec,
            apps: Vec::new(),
            ledger: LedgerExport::default(),
            prod_clock: None,
        }
    }
}

/// The state owned by one shard worker thread.
pub struct ShardWorker {
    id: usize,
    tenants: HashMap<TenantId, TenantShard>,
    invocations: u64,
    cold: u64,
    prewarm_loads: u64,
    out_of_order: u64,
    /// Bumped on every state mutation (decision, budget change, tenant
    /// add/take/restore); apps are stamped with it so replication
    /// rounds can export the dirty subset without pausing the shard.
    mutation_seq: u64,
    telem: ShardTelem,
    /// Per-frame `(tenant, records)` counts, reused across batches so
    /// per-tenant histogram attribution stays allocation-free.
    tenant_scratch: Vec<(TenantId, u64)>,
    /// Decided-but-unreplied JSON invokes of the current drain wave,
    /// reused across waves (see [`ShardWorker::run`]).
    json_wave: Vec<PendingInvoke>,
}

/// One JSON invocation decided inside a drain wave, awaiting its reply
/// and telemetry records (all of which share the wave's clock pair).
struct PendingInvoke {
    tenant: TenantId,
    span: u64,
    sent_ns: u64,
    seq: u64,
    result: Result<Decision, InvokeError>,
    reply: ReplySink,
}

impl ShardWorker {
    /// Creates a worker for shard `id` serving `tenants` (the default
    /// tenant plus every named tenant routed to this shard), optionally
    /// restoring their state.
    pub fn new(id: usize, tenants: Vec<TenantRestore>) -> Result<Self, String> {
        let mut map = HashMap::with_capacity(tenants.len());
        for restore in tenants {
            // Startup-restored apps stamp dirty sequence 0: a follower
            // attaching to a fresh primary full-syncs anyway, so they
            // need no delta visibility.
            let (tid, shard) = Self::build_tenant(restore, 0)?;
            map.insert(tid, shard);
        }
        Ok(Self {
            id,
            tenants: map,
            invocations: 0,
            cold: 0,
            prewarm_loads: 0,
            out_of_order: 0,
            mutation_seq: 0,
            telem: ShardTelem::default(),
            tenant_scratch: Vec::new(),
            json_wave: Vec::new(),
        })
    }

    /// Replaces the worker's telemetry wiring (recorder, gauge, clock,
    /// enable switch) — the server threads its shared handles in here.
    pub fn with_telem(mut self, telem: ShardTelem) -> Self {
        self.telem = telem;
        self
    }

    /// Builds one tenant's in-memory state from a restore payload — the
    /// shared path behind startup restore and live tenant migration.
    /// Restored apps are stamped `dirty_seq` so a migrated-in tenant is
    /// visible to the next replication round (0 at startup, where the
    /// follower full-syncs regardless).
    fn build_tenant(
        restore: TenantRestore,
        dirty_seq: u64,
    ) -> Result<(TenantId, TenantShard), String> {
        let budget = restore.spec.budget_mb;
        let tid = restore.spec.id;
        let mut shard = TenantShard::new(
            restore.spec,
            TenantLedger::restore(budget, restore.ledger),
            restore.prod_clock,
        );
        for rec in restore.apps {
            let policy = match (rec.state, &mut shard.production) {
                (PolicyState::Production { last, state }, Some(prod)) => {
                    let key = prod.next_key;
                    prod.next_key += 1;
                    prod.manager.import_app(key, state)?;
                    ServedPolicy::Production { key, last }
                }
                (state, _) => state.instantiate(&shard.template)?,
            };
            let footprint_mb = footprint_mb(&shard.spec.name, &rec.app);
            let slot = shard.ledger.slot(&rec.app);
            *app_entry(&mut shard.apps, slot) = Some(AppState {
                policy,
                windows: rec.windows,
                last_ts: rec.last_ts,
                evicted: rec.evicted,
                footprint_mb,
                last_verdict: None,
                dirty_seq,
            });
        }
        Ok((tid, shard))
    }

    /// Registers a fresh tenant (admin path). Bumps the mutation
    /// sequence: the tenant list is part of the replicated state, so
    /// the next round must fire even though no app is dirty yet.
    pub fn add_tenant(&mut self, spec: TenantSpec) {
        let budget = spec.budget_mb;
        self.mutation_seq += 1;
        self.tenants
            .entry(spec.id)
            .or_insert_with(|| TenantShard::new(spec, TenantLedger::new(budget), None));
    }

    /// Classifies one invocation. Mirrors `sitw_sim::fleet_verdict_trace`
    /// exactly: both paths classify through
    /// [`sitw_core::Windows::classify_gap`], apply the same eviction
    /// downgrade, advance the policy, and charge the same ledger.
    // sitw-lint: hot-path
    pub fn invoke(
        &mut self,
        tenant: TenantId,
        app: &str,
        ts: u64,
    ) -> Result<Decision, InvokeError> {
        // The dirty stamp of every state this invocation mutates
        // (committed to `mutation_seq` only on the success path — an
        // out-of-order rejection changes no replicated state).
        let seq = self.mutation_seq + 1;
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or(InvokeError::UnknownTenant)?;
        // The app's one hash: its ledger slot is also its state's index.
        let slot = t.ledger.slot(app);
        let entry = app_entry(&mut t.apps, slot);
        let (decision, mb) = match entry {
            None => {
                // First invocation of this app: cold by definition (§5.1).
                let (policy, windows, kind) = match &mut t.production {
                    Some(prod) => {
                        let key = prod.next_key;
                        prod.next_key += 1;
                        let (windows, kind) = prod.decide(key, ts, None);
                        (ServedPolicy::Production { key, last: kind }, windows, kind)
                    }
                    None => {
                        let mut policy = t.template.fresh();
                        let windows = policy.on_invocation(None);
                        let kind = policy.last_decision();
                        (policy, windows, kind)
                    }
                };
                let mb = footprint_mb(&t.spec.name, app);
                *entry = Some(AppState {
                    policy,
                    windows,
                    last_ts: ts,
                    evicted: false,
                    footprint_mb: mb,
                    last_verdict: Some(LastVerdict {
                        ts,
                        idle_ms: None,
                        cold: true,
                        prewarm_load: false,
                        evicted: false,
                        kind,
                    }),
                    dirty_seq: seq,
                });
                (
                    Decision {
                        cold: true,
                        prewarm_load: false,
                        evicted: false,
                        kind,
                        windows,
                    },
                    mb,
                )
            }
            Some(state) => {
                if ts < state.last_ts {
                    self.out_of_order += 1;
                    return Err(InvokeError::OutOfOrder {
                        last_ts: state.last_ts,
                    });
                }
                let idle = ts - state.last_ts;
                let outcome = state.windows.classify_gap(idle);
                // The memory-pressure downgrade: a gap the policy would
                // have served warm is cold when the budget evicted the
                // image mid-gap (and the phantom pre-warm load with it).
                let was_evicted = state.evicted;
                state.evicted = false;
                state.windows = match (&mut t.production, &mut state.policy) {
                    (Some(prod), ServedPolicy::Production { key, last }) => {
                        let (windows, kind) = prod.decide(*key, ts, Some(idle));
                        *last = kind;
                        windows
                    }
                    (_, policy) => policy.on_invocation(Some(idle)),
                };
                state.last_ts = ts;
                let d = Decision {
                    cold: outcome.cold || was_evicted,
                    prewarm_load: outcome.prewarm_load && !was_evicted,
                    evicted: was_evicted,
                    kind: state.policy.last_decision(),
                    windows: state.windows,
                };
                state.last_verdict = Some(LastVerdict {
                    ts,
                    idle_ms: Some(idle),
                    cold: d.cold,
                    prewarm_load: d.prewarm_load,
                    evicted: d.evicted,
                    kind: d.kind,
                });
                state.dirty_seq = seq;
                (d, state.footprint_mb)
            }
        };

        // Charge the ledger: the app is warm until its windows lapse,
        // holding its deterministic Burr footprint (computed once at
        // first sight, cached in its AppState).
        // Budget overflows evict by earliest expiry — possibly the
        // just-charged app itself, when its footprint cannot fit at all.
        let expiry = decision.windows.loaded_until(ts);
        t.ledger.charge_slot(slot, ts, expiry, mb);
        for &victim in t.ledger.evicted() {
            if let Some(Some(v)) = t.apps.get_mut(victim as usize) {
                v.evicted = true;
                v.dirty_seq = seq;
            }
            // Evictions are rare (budget pressure only), so the event
            // push — try_lock, never blocking the decision path — stays
            // off the common invoke. Stamped with workload time: the
            // ring stays deterministic and costs no clock read.
            if self.telem.enabled {
                if let Ok(mut ring) = self.telem.events.try_lock() {
                    ring.push(LifecycleEvent {
                        ts_ms: ts,
                        kind: EventKind::Eviction,
                        tenant: t.spec.name.clone(), // sitw-lint: allow(hot-path-alloc)
                        app: t.ledger.name(victim).to_owned(),
                        // sitw-lint: allow(hot-path-alloc)
                        detail: format!("budget {} MB", t.spec.budget_mb),
                    });
                }
            }
        }

        t.invocations += 1;
        t.decisions[kind_to_bits(decision.kind) as usize] += 1;
        self.invocations += 1;
        self.mutation_seq = seq;
        if decision.cold {
            t.cold += 1;
            self.cold += 1;
            // Cold starts are off the steady state by definition; the
            // push is enabled-gated and try_lock like the eviction one.
            if self.telem.enabled {
                if let Ok(mut ring) = self.telem.events.try_lock() {
                    ring.push(LifecycleEvent {
                        ts_ms: ts,
                        kind: EventKind::ColdStart,
                        tenant: t.spec.name.clone(), // sitw-lint: allow(hot-path-alloc)
                        app: app.to_owned(),
                        detail: if decision.evicted {
                            "eviction downgrade".to_owned()
                        } else {
                            String::new()
                        },
                    });
                }
            }
        }
        if decision.prewarm_load {
            self.prewarm_loads += 1;
        }
        Ok(decision)
    }

    /// Classifies a whole batch in order. Decisions are identical to
    /// calling [`ShardWorker::invoke`] per item — batching only changes
    /// transport cost, never outcomes. Timing lives in the mailbox loop
    /// (the batch is clocked once and recorded per record at the batch
    /// mean), so this method stays a pure decision function.
    // sitw-lint: hot-path
    pub fn invoke_batch(&mut self, frame_seq: u64, items: Vec<BatchItem>) -> BatchReply {
        let results: Vec<(u32, Result<Decision, InvokeError>)> = items
            .into_iter()
            .map(|item| (item.idx, self.invoke(item.tenant, &item.app, item.ts)))
            .collect();
        BatchReply { frame_seq, results }
    }

    fn stats(&self) -> ShardStats {
        let mut tenants: Vec<TenantStats> = self
            .tenants
            .values()
            .map(|t| {
                let ledger = t.ledger.stats();
                TenantStats {
                    id: t.spec.id,
                    name: t.spec.name.clone(),
                    budget_mb: t.spec.budget_mb,
                    warm_mb: ledger.warm_mb,
                    warm_apps: ledger.warm_apps,
                    evictions: ledger.evictions,
                    idle_mb_ms: ledger.idle_mb_ms,
                    invocations: t.invocations,
                    cold: t.cold,
                    decisions: t.decisions,
                    decision_ns: t.decide_ns.clone(),
                }
            })
            .collect();
        tenants.sort_by_key(|t| t.id);
        ShardStats {
            shard: self.id,
            apps: self
                .tenants
                .values()
                .map(|t| t.apps.iter().flatten().count() as u64)
                .sum(),
            invocations: self.invocations,
            cold: self.cold,
            warm: self.invocations - self.cold,
            prewarm_loads: self.prewarm_loads,
            out_of_order: self.out_of_order,
            backups: self
                .tenants
                .values()
                .filter_map(|t| t.production.as_ref())
                .map(|p| p.manager.backups_taken())
                .sum(),
            prewarm_scheduled: self
                .tenants
                .values()
                .filter_map(|t| t.production.as_ref())
                .map(|p| p.prewarm_scheduled)
                .sum(),
            latency_us: {
                // Compatibility quantile gauges, derived from the same
                // buckets the histogram family exports. Empty until the
                // shard has observed a decision — an empty estimator
                // must not export garbage (the NaN-suppression bugfix).
                let decide = self.telem.decide.merged();
                LATENCY_QUANTILES
                    .iter()
                    .filter_map(|&q| decide.quantile(q).map(|ns| (q, ns / 1_000.0)))
                    .collect()
            },
            queue_ns: self.telem.queue.clone(),
            decide_ns: self.telem.decide.clone(),
            mailbox_depth: self.telem.gauge.read().0,
            mailbox_peak: self.telem.gauge.read().1,
            tenants,
        }
    }

    fn export_tenant(t: &TenantShard) -> TenantExport {
        Self::export_tenant_if(t, |_| true)
    }

    /// Exports one tenant with its app records filtered by `keep` —
    /// the full snapshot keeps everything, a replication round keeps
    /// the dirty subset. Tenant-level state (spec, ledger, production
    /// clock) is always exported whole: it is O(1) per tenant, and
    /// carrying it every round is what lets delta application replace
    /// it wholesale instead of diffing.
    fn export_tenant_if(t: &TenantShard, keep: impl Fn(&AppState) -> bool) -> TenantExport {
        let mut apps: Vec<AppRecord> = (0..)
            .zip(&t.apps)
            .filter_map(|(slot, state)| Some((slot, state.as_ref()?)))
            .filter(|(_, state)| keep(state))
            .map(|(slot, state)| AppRecord {
                app: t.ledger.name(slot).to_owned(),
                last_ts: state.last_ts,
                windows: state.windows,
                evicted: state.evicted,
                state: match (&state.policy, &t.production) {
                    (ServedPolicy::Production { key, last }, Some(prod)) => {
                        PolicyState::Production {
                            last: *last,
                            state: prod.manager.export_app(*key).unwrap_or_default(),
                        }
                    }
                    (policy, _) => PolicyState::export(policy),
                },
            })
            .collect();
        apps.sort_by(|a, b| a.app.cmp(&b.app));
        TenantExport {
            id: t.spec.id,
            name: t.spec.name.clone(),
            policy_label: t.spec.policy.label(),
            spec_str: t.spec.policy.spec_str(),
            budget_mb: t.spec.budget_mb,
            prod_clock: t.production.as_ref().map(|p| p.manager.last_backup_ms()),
            ledger: t.ledger.export(),
            apps,
        }
    }

    fn export(&self) -> ShardExport {
        let mut tenants: Vec<TenantExport> =
            self.tenants.values().map(Self::export_tenant).collect();
        tenants.sort_by_key(|t| t.id);
        ShardExport { tenants }
    }

    /// One shard's half of a replication round: every tenant, with the
    /// app records mutated after `since`. Walks the app tables without
    /// mutating anything — decisions in flight on other shards are
    /// unaffected, and this shard resumes its mailbox immediately
    /// after.
    fn export_dirty(&self, since: u64) -> DirtyShardExport {
        let mut tenants: Vec<TenantExport> = self
            .tenants
            .values()
            .map(|t| Self::export_tenant_if(t, |s| s.dirty_seq > since))
            .collect();
        tenants.sort_by_key(|t| t.id);
        DirtyShardExport {
            seq: self.mutation_seq,
            export: ShardExport { tenants },
        }
    }

    /// Renders one app's live policy state (`GET /debug/policy`), or
    /// `None` when the tenant or app has no state here. The lookup never
    /// interns, so probing an unknown app allocates nothing.
    fn probe(&self, tenant: TenantId, app: &str) -> Option<String> {
        let t = self.tenants.get(&tenant)?;
        let state = t.apps.get(t.ledger.find(app)? as usize)?.as_ref()?;
        Some(render_policy(t, app, state))
    }

    /// Records a tenant migration on the lifecycle event ring (take or
    /// restore). Migrations carry no workload timestamp, so they stamp
    /// domain time 0 and name the direction in `detail`.
    fn push_migration_event(&self, tenant: &str, detail: &str) {
        if !self.telem.enabled {
            return;
        }
        if let Ok(mut ring) = self.telem.events.try_lock() {
            ring.push(LifecycleEvent {
                ts_ms: 0,
                kind: EventKind::Migration,
                tenant: tenant.to_owned(),
                app: String::new(),
                detail: detail.to_owned(),
            });
        }
    }

    /// The worker loop: drains the mailbox until `Shutdown`, then
    /// returns the final per-app state (for the shutdown snapshot).
    ///
    /// With telemetry on, each blocking `recv` starts a *drain wave*:
    /// the backlog behind it is pulled non-blockingly (bounded by
    /// [`DRAIN_WAVE`]), observed once on the mailbox gauge, and a run of
    /// consecutive JSON invokes at the wave front shares one clock pair
    /// and one recorder lock — per-message telemetry cost amortizes over
    /// the backlog instead of taxing every decision. Every decision
    /// still lands in every stage histogram (counts stay exact).
    pub fn run(mut self, mailbox: Receiver<ShardMsg>) -> ShardExport {
        let mut pending: VecDeque<ShardMsg> = VecDeque::new();
        loop {
            let msg = match pending.pop_front() {
                Some(msg) => msg,
                None => {
                    let Ok(msg) = mailbox.recv() else { break };
                    if self.telem.enabled {
                        while pending.len() < DRAIN_WAVE {
                            match mailbox.try_recv() {
                                Ok(m) => pending.push_back(m),
                                Err(_) => break,
                            }
                        }
                        self.telem.gauge.observe(1 + pending.len() as u64);
                    }
                    msg
                }
            };
            match msg {
                ShardMsg::Invoke {
                    tenant,
                    app,
                    ts,
                    seq,
                    span,
                    sent_ns,
                    reply,
                } => {
                    if !self.telem.enabled {
                        // Telemetry off: no clock reads, no histogram
                        // touches — the decision is the whole hot path.
                        let result = self.invoke(tenant, &app, ts);
                        reply.invoke(InvokeReply { seq, result });
                        continue;
                    }
                    let mut wave = std::mem::take(&mut self.json_wave);
                    let t0 = self.telem.clock.now_ns();
                    let result = self.invoke(tenant, &app, ts);
                    wave.push(PendingInvoke {
                        tenant,
                        span,
                        sent_ns,
                        seq,
                        result,
                        reply,
                    });
                    while let Some(ShardMsg::Invoke { .. }) = pending.front() {
                        match pending.pop_front() {
                            Some(ShardMsg::Invoke {
                                tenant,
                                app,
                                ts,
                                seq,
                                span,
                                sent_ns,
                                reply,
                            }) => {
                                let result = self.invoke(tenant, &app, ts);
                                wave.push(PendingInvoke {
                                    tenant,
                                    span,
                                    sent_ns,
                                    seq,
                                    result,
                                    reply,
                                });
                            }
                            // front() just matched Invoke, so these arms
                            // are unreachable in practice — but if they
                            // ever fire, requeue rather than drop a
                            // message on the floor and keep serving.
                            Some(other) => {
                                pending.push_front(other);
                                break;
                            }
                            None => break,
                        }
                    }
                    let t1 = self.telem.clock.now_ns();
                    let k = wave.len() as u64;
                    // The run is clocked once; every decision gets the
                    // run mean (invocation-weighted, exact counts).
                    let mean = t1.saturating_sub(t0).checked_div(k).unwrap_or(0);
                    for p in &wave {
                        self.telem.queue.json.record(t0.saturating_sub(p.sent_ns));
                        if let Some(t) = self.tenants.get_mut(&p.tenant) {
                            t.decide_ns.record(mean);
                        }
                    }
                    self.telem.decide.json.record_n(mean, k);
                    // try_lock: losing the race to a /debug/trace scrape
                    // drops the spans, never blocks the decision path.
                    if let Ok(mut rec) = self.telem.recorder.try_lock() {
                        for p in &wave {
                            rec.push(SpanEvent {
                                span: p.span,
                                stage: Stage::Queue,
                                start_ns: p.sent_ns,
                                end_ns: t0,
                            });
                            rec.push(SpanEvent {
                                span: p.span,
                                stage: Stage::Decide,
                                start_ns: t0,
                                end_ns: t1,
                            });
                        }
                    }
                    // A reply to a connection that died is dropped by
                    // the reactor's slab generation check; the decision
                    // was still applied, which is correct (the
                    // invocation happened).
                    for p in wave.drain(..) {
                        p.reply.invoke(InvokeReply {
                            seq: p.seq,
                            result: p.result,
                        });
                    }
                    self.json_wave = wave;
                }
                ShardMsg::InvokeBatch {
                    frame_seq,
                    items,
                    span,
                    sent_ns,
                    reply,
                } => {
                    if !self.telem.enabled {
                        reply.batch(self.invoke_batch(frame_seq, items));
                        continue;
                    }
                    // Per-tenant record counts, folded before `items`
                    // moves into the decision loop (scratch is reused
                    // across frames — no steady-state allocation).
                    self.tenant_scratch.clear();
                    for item in &items {
                        match self
                            .tenant_scratch
                            .iter_mut()
                            .find(|(tid, _)| *tid == item.tenant)
                        {
                            Some((_, c)) => *c += 1,
                            None => self.tenant_scratch.push((item.tenant, 1)),
                        }
                    }
                    let n = items.len() as u64;
                    let t0 = self.telem.clock.now_ns();
                    let batch = self.invoke_batch(frame_seq, items);
                    let t1 = self.telem.clock.now_ns();
                    // The batch is clocked once; every record gets the
                    // batch mean, keeping the histograms
                    // invocation-weighted without a clock read per
                    // record.
                    let mean = t1.saturating_sub(t0).checked_div(n).unwrap_or(0);
                    self.telem.queue.bin.record_n(t0.saturating_sub(sent_ns), n);
                    self.telem.decide.bin.record_n(mean, n);
                    let scratch = std::mem::take(&mut self.tenant_scratch);
                    for &(tid, c) in &scratch {
                        if let Some(t) = self.tenants.get_mut(&tid) {
                            t.decide_ns.record_n(mean, c);
                        }
                    }
                    self.tenant_scratch = scratch;
                    if let Ok(mut rec) = self.telem.recorder.try_lock() {
                        rec.push(SpanEvent {
                            span,
                            stage: Stage::Queue,
                            start_ns: sent_ns,
                            end_ns: t0,
                        });
                        rec.push(SpanEvent {
                            span,
                            stage: Stage::Decide,
                            start_ns: t0,
                            end_ns: t1,
                        });
                    }
                    reply.batch(batch);
                }
                ShardMsg::AddTenant { spec, ack } => {
                    self.add_tenant(spec);
                    let _ = ack.send(());
                }
                ShardMsg::SetBudget {
                    tenant,
                    budget_mb,
                    ack,
                } => {
                    let found = match self.tenants.get_mut(&tenant) {
                        Some(t) => {
                            t.spec.budget_mb = budget_mb;
                            t.ledger.set_budget(budget_mb);
                            // Specs replicate with the tenant list, so
                            // the bump alone makes the next round carry
                            // the new budget.
                            self.mutation_seq += 1;
                            true
                        }
                        None => false,
                    };
                    let _ = ack.send(found);
                }
                ShardMsg::TakeTenant { tenant, reply } => {
                    let export = self.tenants.remove(&tenant).map(|t| {
                        // Removal replicates through the (authoritative)
                        // tenant list of the next round.
                        self.mutation_seq += 1;
                        self.push_migration_event(&t.spec.name, "take");
                        Self::export_tenant(&t)
                    });
                    let _ = reply.send(export);
                }
                ShardMsg::RestoreTenant { restore, ack } => {
                    let name = restore.spec.name.clone();
                    // Stamp past the frontier: every migrated-in app
                    // must ride the next replication round.
                    let seq = self.mutation_seq + 1;
                    let result = Self::build_tenant(*restore, seq).map(|(tid, shard)| {
                        self.tenants.insert(tid, shard);
                        self.mutation_seq = seq;
                        self.push_migration_event(&name, "restore");
                    });
                    let _ = ack.send(result);
                }
                ShardMsg::PolicyProbe { tenant, app, reply } => {
                    let _ = reply.send(self.probe(tenant, &app));
                }
                ShardMsg::Scrape(reply) => {
                    let _ = reply.send(self.stats());
                }
                ShardMsg::Snapshot(reply) => {
                    let _ = reply.send(self.export());
                }
                ShardMsg::ExportDirty { since, reply } => {
                    let _ = reply.send(self.export_dirty(since));
                }
                ShardMsg::Shutdown => break,
            }
        }
        self.export()
    }
}

/// Stable names for the policy branch behind a verdict.
fn kind_name(kind: DecisionKind) -> &'static str {
    match kind {
        DecisionKind::Histogram => "histogram",
        DecisionKind::StandardKeepAlive => "standard-keep-alive",
        DecisionKind::Arima => "arima",
        DecisionKind::Static => "static",
    }
}

/// Renders one app's live policy state as JSON — the decision
/// provenance view `GET /debug/policy` serves: the current windows,
/// the last verdict with its inputs, and (for hybrid apps) the learned
/// idle-time histogram plus the §4.2 classification the *next* gap
/// would run against, next to the thresholds that gate it.
fn render_policy(t: &TenantShard, app: &str, state: &AppState) -> String {
    use crate::wire::json_escape;
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"tenant\":\"{}\",\"app\":\"{}\",\"policy\":\"{}\",\"last_ts\":{},\
         \"evicted\":{},\"footprint_mb\":{},\
         \"windows\":{{\"pre_warm_ms\":{},\"keep_alive_ms\":{}}}",
        json_escape(&t.spec.name),
        json_escape(app),
        json_escape(&t.spec.policy.label()),
        state.last_ts,
        state.evicted,
        state.footprint_mb,
        state.windows.pre_warm_ms,
        state.windows.keep_alive_ms,
    );
    if let Some(v) = &state.last_verdict {
        let idle = match v.idle_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_owned(),
        };
        let _ = write!(
            out,
            ",\"last_verdict\":{{\"ts\":{},\"idle_ms\":{idle},\"cold\":{},\
             \"prewarm_load\":{},\"evicted\":{},\"branch\":\"{}\"}}",
            v.ts,
            v.cold,
            v.prewarm_load,
            v.evicted,
            kind_name(v.kind),
        );
    }
    if let ServedPolicy::Hybrid(p) = &state.policy {
        let h = p.histogram();
        let cfg = p.config();
        let counts = p.decisions();
        // Mirror of HybridPolicy::on_invocation's branch order: the
        // classification the next observed gap would fall under.
        let class = if h.total_count() < cfg.min_samples {
            "learning"
        } else if h.oob_fraction() > cfg.oob_threshold {
            if cfg.use_arima {
                "out-of-bounds-arima"
            } else {
                "out-of-bounds-standard"
            }
        } else if h.bin_count_cv() < cfg.cv_threshold {
            "not-representative"
        } else {
            "representative"
        };
        let _ = write!(
            out,
            ",\"hybrid\":{{\"classification\":\"{class}\",\"samples\":{},\
             \"oob_count\":{},\"oob_fraction\":{:.4},\"bin_count_cv\":{:.4},\
             \"thresholds\":{{\"min_samples\":{},\"oob_threshold\":{},\"cv_threshold\":{}}},\
             \"cutoffs\":{{\"head_percentile\":{},\"tail_percentile\":{}}},\
             \"decisions\":{{\"histogram\":{},\"standard\":{},\"arima\":{}}},\
             \"bin_width_minutes\":{},\"bins\":[",
            h.total_count(),
            h.oob_count(),
            h.oob_fraction(),
            h.bin_count_cv(),
            cfg.min_samples,
            cfg.oob_threshold,
            cfg.cv_threshold,
            cfg.head_percentile,
            cfg.tail_percentile,
            counts.histogram,
            counts.standard,
            counts.arima,
            h.bin_width(),
        );
        // Sparse export: `[bin, count]` pairs for the non-zero bins
        // only, so a 240-bin histogram stays a small body.
        let mut first = true;
        for (i, &c) in h.bins().iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{i},{c}]");
        }
        out.push_str("]}");
    }
    out.push('}');
    out
}

/// Maps an app id to its shard: FNV-1a over the id bytes, mod `shards`.
/// Stable across restarts (snapshots record app ids, not shard indexes,
/// so a restore can even change the shard count). Default-tenant
/// routing; named tenants route whole via
/// [`sitw_fleet::TenantRegistry::shard_of`].
pub fn shard_of(app: &str, shards: usize) -> usize {
    (sitw_fleet::fnv1a(app.as_bytes()) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::MINUTE_MS;
    use sitw_fleet::{DEFAULT_TENANT, DEFAULT_TENANT_NAME};

    fn default_spec(spec: PolicySpec) -> TenantSpec {
        TenantSpec {
            id: DEFAULT_TENANT,
            name: DEFAULT_TENANT_NAME.to_owned(),
            policy: spec,
            budget_mb: 0,
        }
    }

    fn worker(spec: PolicySpec) -> ShardWorker {
        ShardWorker::new(0, vec![TenantRestore::fresh(default_spec(spec))]).unwrap()
    }

    impl ShardWorker {
        fn invoke0(&mut self, app: &str, ts: u64) -> Result<Decision, InvokeError> {
            self.invoke(DEFAULT_TENANT, app, ts)
        }
    }

    #[test]
    fn first_invocation_cold_then_warm_within_keep_alive() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        let d0 = w.invoke0("a", 0).unwrap();
        assert!(d0.cold);
        let d1 = w.invoke0("a", 5 * MINUTE_MS).unwrap();
        assert!(!d1.cold);
        let d2 = w.invoke0("a", 30 * MINUTE_MS).unwrap();
        assert!(d2.cold, "25-minute gap exceeds the 10-minute keep-alive");
        assert!(!d2.evicted, "keep-alive lapse is not an eviction");
        assert_eq!(w.stats().invocations, 3);
        assert_eq!(w.stats().cold, 2);
    }

    #[test]
    fn apps_are_isolated() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 0).unwrap();
        let db = w.invoke0("b", MINUTE_MS).unwrap();
        assert!(db.cold, "b's first invocation is cold regardless of a");
        assert_eq!(w.stats().apps, 2);
    }

    #[test]
    fn tenants_are_isolated_namespaces() {
        let mut w = ShardWorker::new(
            0,
            vec![
                TenantRestore::fresh(default_spec(PolicySpec::fixed_minutes(10))),
                TenantRestore::fresh(TenantSpec {
                    id: 1,
                    name: "acme".into(),
                    policy: PolicySpec::fixed_minutes(20),
                    budget_mb: 0,
                }),
            ],
        )
        .unwrap();
        // The same app id under two tenants is two independent apps
        // under two different policies.
        let d0 = w.invoke(0, "a", 0).unwrap();
        let d1 = w.invoke(1, "a", 0).unwrap();
        assert!(d0.cold && d1.cold);
        assert_eq!(d0.windows, Windows::keep_loaded(10 * MINUTE_MS));
        assert_eq!(d1.windows, Windows::keep_loaded(20 * MINUTE_MS));
        // 15-minute gap: cold under 10-minute KA, warm under 20.
        assert!(w.invoke(0, "a", 15 * MINUTE_MS).unwrap().cold);
        assert!(!w.invoke(1, "a", 15 * MINUTE_MS).unwrap().cold);
        assert_eq!(w.invoke(7, "a", 0), Err(InvokeError::UnknownTenant));
        let stats = w.stats();
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[1].name, "acme");
        assert_eq!(stats.tenants[1].invocations, 2);
    }

    #[test]
    fn budget_pressure_evicts_and_downgrades() {
        // A budget that holds exactly one of the two apps' footprints.
        let name = "metered";
        let mb_a = footprint_mb(name, "a");
        let mb_b = footprint_mb(name, "b");
        let mut w = ShardWorker::new(
            0,
            vec![TenantRestore::fresh(TenantSpec {
                id: 1,
                name: name.into(),
                policy: PolicySpec::fixed_minutes(10),
                budget_mb: mb_a.max(mb_b),
            })],
        )
        .unwrap();
        assert!(w.invoke(1, "a", 0).unwrap().cold);
        let db = w.invoke(1, "b", 1_000).unwrap();
        assert!(db.cold && !db.evicted);
        // a was evicted to fit b: its return within the keep-alive
        // window is downgraded to cold and flagged.
        let da = w.invoke(1, "a", 2_000).unwrap();
        assert!(da.cold && da.evicted && !da.prewarm_load);
        let stats = w.stats();
        assert!(stats.tenants[0].evictions >= 1);
        assert!(stats.tenants[0].warm_mb <= mb_a.max(mb_b));
    }

    #[test]
    fn out_of_order_rejected_without_state_change() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 10 * MINUTE_MS).unwrap();
        let err = w.invoke0("a", 5 * MINUTE_MS).unwrap_err();
        assert_eq!(
            err,
            InvokeError::OutOfOrder {
                last_ts: 10 * MINUTE_MS
            }
        );
        // Equal timestamps are fine (concurrent arrivals): warm.
        let d = w.invoke0("a", 10 * MINUTE_MS).unwrap();
        assert!(!d.cold);
        assert_eq!(w.stats().out_of_order, 1);
    }

    #[test]
    fn matches_offline_verdict_trace() {
        use sitw_core::{HybridConfig, PolicyFactory};
        let events: Vec<u64> = (0..200u64)
            .map(|i| i * 7 * MINUTE_MS + (i % 3) * 20_000)
            .collect();

        let spec = PolicySpec::Hybrid(HybridConfig::default());
        let mut w = worker(spec);
        let online: Vec<Decision> = events.iter().map(|&t| w.invoke0("x", t).unwrap()).collect();

        let mut policy = HybridConfig::default().new_policy();
        let offline = sitw_sim::verdict_trace(&events, &mut policy);

        assert_eq!(online.len(), offline.len());
        for (on, off) in online.iter().zip(&offline) {
            assert_eq!(on.cold, off.cold);
            assert_eq!(on.prewarm_load, off.prewarm_load);
            assert_eq!(on.kind, off.kind);
            assert_eq!(on.windows, off.windows);
        }
    }

    #[test]
    fn production_mode_matches_offline_production_trace() {
        use sitw_core::ProductionConfig;
        // Multi-day stream with absolute timestamps (day-aware path).
        let events: Vec<u64> = (0..300u64)
            .map(|i| i * 17 * MINUTE_MS + (i % 5) * 11_000)
            .collect();

        let mut w = worker(PolicySpec::Production(ProductionConfig::default()));
        let online: Vec<Decision> = events.iter().map(|&t| w.invoke0("x", t).unwrap()).collect();

        let mut manager = sitw_core::ProductionManager::new(ProductionConfig::default());
        let offline = sitw_sim::production_verdict_trace(&events, &mut manager, 0);

        assert_eq!(online.len(), offline.len());
        for (on, off) in online.iter().zip(&offline) {
            assert_eq!(on.cold, off.cold);
            assert_eq!(on.prewarm_load, off.prewarm_load);
            assert_eq!(on.kind, off.kind);
            assert_eq!(on.windows, off.windows);
        }
        // §6 bookkeeping surfaced by the shard: backups along the
        // advancing clock, pre-warm events for unload/pre-warm windows.
        let stats = w.stats();
        assert_eq!(stats.backups, manager.backups_taken());
        let offline_prewarms = offline.iter().filter(|v| v.windows.pre_warm_ms > 0).count() as u64;
        assert_eq!(stats.prewarm_scheduled, offline_prewarms);
        assert!(stats.backups > 0, "multi-day trace must tick backups");
    }

    #[test]
    fn production_equal_timestamp_invocation_is_warm() {
        use sitw_core::ProductionConfig;
        // Regression: ts == last_ts (concurrent arrivals) must be
        // accepted and classified warm, exactly like per-app policies.
        let mut w = worker(PolicySpec::Production(ProductionConfig::default()));
        w.invoke0("a", 5 * MINUTE_MS).unwrap();
        let d = w.invoke0("a", 5 * MINUTE_MS).unwrap();
        assert!(!d.cold, "zero idle gap is warm by definition");
        assert_eq!(w.stats().out_of_order, 0);
        let err = w.invoke0("a", 5 * MINUTE_MS - 1).unwrap_err();
        assert_eq!(
            err,
            InvokeError::OutOfOrder {
                last_ts: 5 * MINUTE_MS
            }
        );
    }

    #[test]
    fn invoke_batch_matches_sequential_invokes_bit_for_bit() {
        let events: Vec<(String, u64)> = (0..120u64)
            .map(|i| (format!("app-{:02}", i % 7), i * 3 * MINUTE_MS))
            .collect();

        // Sequential reference.
        let mut seq = worker(PolicySpec::Hybrid(sitw_core::HybridConfig::default()));
        let expected: Vec<Result<Decision, InvokeError>> = events
            .iter()
            .map(|(app, ts)| seq.invoke0(app, *ts))
            .collect();

        // The same stream in batches of 33 (crossing app boundaries).
        let mut batched = worker(PolicySpec::Hybrid(sitw_core::HybridConfig::default()));
        let mut got: Vec<Result<Decision, InvokeError>> = Vec::new();
        for (frame_seq, chunk) in events.chunks(33).enumerate() {
            let items: Vec<BatchItem> = chunk
                .iter()
                .enumerate()
                .map(|(i, (app, ts))| BatchItem {
                    idx: i as u32,
                    tenant: DEFAULT_TENANT,
                    app: app.clone(),
                    ts: *ts,
                })
                .collect();
            let reply = batched.invoke_batch(frame_seq as u64, items);
            assert_eq!(reply.frame_seq, frame_seq as u64);
            // Replies come back in submission order.
            for (i, (idx, result)) in reply.results.into_iter().enumerate() {
                assert_eq!(idx as usize, i);
                got.push(result);
            }
        }
        assert_eq!(expected, got);
        assert_eq!(seq.stats().invocations, batched.stats().invocations);
        assert_eq!(seq.stats().cold, batched.stats().cold);
    }

    #[test]
    fn invoke_batch_reports_per_record_errors_and_continues() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 10 * MINUTE_MS).unwrap();
        let reply = w.invoke_batch(
            0,
            vec![
                BatchItem {
                    idx: 0,
                    tenant: DEFAULT_TENANT,
                    app: "a".into(),
                    ts: MINUTE_MS, // Out of order.
                },
                BatchItem {
                    idx: 1,
                    tenant: DEFAULT_TENANT,
                    app: "a".into(),
                    ts: 12 * MINUTE_MS, // Still served.
                },
            ],
        );
        assert_eq!(
            reply.results[0].1,
            Err(InvokeError::OutOfOrder {
                last_ts: 10 * MINUTE_MS
            })
        );
        assert!(reply.results[1].1.as_ref().unwrap().cold.eq(&false));
        assert_eq!(w.stats().out_of_order, 1);
    }

    #[test]
    fn latency_gauges_absent_until_observed() {
        // Regression companion to the render-side NaN guard: a shard
        // that has decided nothing exports no quantile pairs at all.
        let mut w = worker(PolicySpec::fixed_minutes(10));
        assert!(w.stats().latency_us.is_empty());
        // Direct invokes are untimed (timing lives in the mailbox
        // loop), so the quantiles stay absent rather than garbage.
        w.invoke0("a", 0).unwrap();
        assert!(w.stats().latency_us.is_empty());
        // Once the decision histogram has a sample, quantiles appear.
        w.telem.decide.json.record(1_500);
        let lat = w.stats().latency_us;
        assert_eq!(lat.len(), LATENCY_QUANTILES.len());
        assert!(lat.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn dirty_export_tracks_the_mutation_frontier() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 0).unwrap();
        w.invoke0("b", 1_000).unwrap();

        // From frontier 0: both apps are dirty.
        let round1 = w.export_dirty(0);
        let apps: Vec<&str> = round1.export.tenants[0]
            .apps
            .iter()
            .map(|r| r.app.as_str())
            .collect();
        assert_eq!(apps, vec!["a", "b"]);

        // Nothing mutated since: tenant still listed, zero apps.
        let idle = w.export_dirty(round1.seq);
        assert_eq!(idle.seq, round1.seq, "no mutation, no frontier move");
        assert_eq!(idle.export.tenants.len(), 1, "tenant list stays whole");
        assert!(idle.export.tenants[0].apps.is_empty());

        // Only the re-invoked app rides the next round.
        w.invoke0("b", 2_000).unwrap();
        let round2 = w.export_dirty(round1.seq);
        assert!(round2.seq > round1.seq);
        let apps: Vec<&str> = round2.export.tenants[0]
            .apps
            .iter()
            .map(|r| r.app.as_str())
            .collect();
        assert_eq!(apps, vec!["b"]);

        // The full snapshot is unaffected by dirty filtering.
        assert_eq!(w.export().tenants[0].apps.len(), 2);
    }

    #[test]
    fn eviction_victims_are_dirty() {
        let name = "metered";
        let budget = footprint_mb(name, "a").max(footprint_mb(name, "b"));
        let mut w = ShardWorker::new(
            0,
            vec![TenantRestore::fresh(TenantSpec {
                id: 1,
                name: name.into(),
                policy: PolicySpec::fixed_minutes(10),
                budget_mb: budget,
            })],
        )
        .unwrap();
        w.invoke(1, "a", 0).unwrap();
        let frontier = w.export_dirty(0).seq;
        // b's invocation evicts a: *both* must ride the next round —
        // a follower that misses the eviction flag would serve a's
        // next invocation warm where the primary serves it cold.
        w.invoke(1, "b", 1_000).unwrap();
        let round = w.export_dirty(frontier);
        let dirty = &round.export.tenants[0].apps;
        let a = dirty.iter().find(|r| r.app == "a").expect("victim dirty");
        assert!(a.evicted);
        assert!(dirty.iter().any(|r| r.app == "b"));
    }

    #[test]
    fn control_mutations_advance_the_frontier() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        let f0 = w.export_dirty(0).seq;
        // A fresh tenant has no dirty apps, but the tenant list is
        // replicated state — the frontier must move so a round fires.
        w.add_tenant(TenantSpec {
            id: 9,
            name: "fresh".into(),
            policy: PolicySpec::fixed_minutes(5),
            budget_mb: 0,
        });
        let round = w.export_dirty(f0);
        assert!(round.seq > f0);
        assert_eq!(round.export.tenants.len(), 2);
        assert!(round.export.tenants.iter().all(|t| t.apps.is_empty()));
    }

    #[test]
    fn restored_tenants_ride_the_next_round() {
        // Simulates a migration-in mid-replication: the restored apps
        // must be stamped past the current frontier.
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 0).unwrap();
        let frontier = w.export_dirty(0).seq;
        let seq = w.mutation_seq + 1;
        let (tid, shard) = ShardWorker::build_tenant(
            TenantRestore {
                spec: TenantSpec {
                    id: 3,
                    name: "moved".into(),
                    policy: PolicySpec::fixed_minutes(10),
                    budget_mb: 0,
                },
                apps: vec![AppRecord {
                    app: "m".into(),
                    last_ts: 7,
                    windows: Windows::keep_loaded(600_000),
                    evicted: false,
                    state: PolicyState::Stateless,
                }],
                ledger: LedgerExport::default(),
                prod_clock: None,
            },
            seq,
        )
        .unwrap();
        w.tenants.insert(tid, shard);
        w.mutation_seq = seq;
        let round = w.export_dirty(frontier);
        let moved = round
            .export
            .tenants
            .iter()
            .find(|t| t.id == 3)
            .expect("restored tenant exported");
        assert_eq!(moved.apps.len(), 1);
        assert_eq!(moved.apps[0].app, "m");
        // The pre-existing clean app does not ride along.
        let default = round.export.tenants.iter().find(|t| t.id == 0).unwrap();
        assert!(default.apps.is_empty());
    }

    #[test]
    fn app_state_size_is_pinned() {
        // One table entry per app: the shared hybrid configuration keeps
        // the policy at 128 B and the state (with its `None` niche) at
        // 208 B.
        assert!(std::mem::size_of::<Option<AppState>>() <= 208);
    }

    #[test]
    fn fresh_and_restored_hybrid_apps_share_the_tenant_config() {
        use sitw_core::HybridConfig;
        let spec = TenantSpec {
            id: 1,
            name: "acme".into(),
            policy: PolicySpec::Hybrid(HybridConfig::default()),
            budget_mb: 0,
        };
        let mut primary = ShardWorker::new(0, vec![TenantRestore::fresh(spec.clone())]).unwrap();
        for (app, ts) in rhythm_stream(60) {
            primary.invoke(1, &app, ts).unwrap();
        }
        let export = ShardWorker::export_tenant(&primary.tenants[&1]);
        let mut restored = ShardWorker::new(
            0,
            vec![TenantRestore {
                spec,
                apps: export.apps.clone(),
                ledger: export.ledger.clone(),
                prod_clock: export.prod_clock,
            }],
        )
        .unwrap();
        restored.invoke(1, "newcomer", 60 * MINUTE_MS).unwrap();
        for worker in [&primary, &restored] {
            let t = &worker.tenants[&1];
            let PolicyTemplate::Hybrid(shared) = &t.template else {
                panic!("hybrid template expected");
            };
            let mut apps = 0;
            for state in t.apps.iter().flatten() {
                let ServedPolicy::Hybrid(h) = &state.policy else {
                    panic!("hybrid app expected");
                };
                assert!(std::ptr::eq(h.config(), &**shared));
                apps += 1;
            }
            assert!(apps >= 40);
        }
    }

    /// Tenant-1 traffic over 40 apps on rhythms of 2 to 14 minutes,
    /// every fifth app going quiet halfway, in time order.
    fn rhythm_stream(steps: u64) -> Vec<(String, u64)> {
        let mut events = Vec::new();
        for step in 0..steps {
            for i in 0..40u64 {
                let period = 2 * (i % 7 + 1);
                if step % period == i % period && (i % 5 != 0 || step < steps / 2) {
                    events.push((format!("app-{i:02}"), step * MINUTE_MS + i * 1_000));
                }
            }
        }
        events
    }

    #[test]
    fn slot_indexed_restore_is_exact_and_probes_do_not_intern() {
        use crate::snapshot::encode_tenant_section;
        use sitw_core::HybridConfig;
        let name = "acme";
        let total: u64 = (0..40)
            .map(|i| footprint_mb(name, &format!("app-{i:02}")))
            .sum();
        let spec = TenantSpec {
            id: 1,
            name: name.into(),
            policy: PolicySpec::Hybrid(HybridConfig::default()),
            budget_mb: total / 3,
        };
        let events = rhythm_stream(500);
        let cut = 2_000;
        assert!(events.len() >= cut + 1_000);
        let mut primary = ShardWorker::new(0, vec![TenantRestore::fresh(spec.clone())]).unwrap();
        for (app, ts) in &events[..cut] {
            primary.invoke(1, app, *ts).unwrap();
        }
        assert!(primary.stats().tenants[0].evictions > 0);
        let export = ShardWorker::export_tenant(&primary.tenants[&1]);
        let text = encode_tenant_section(&export);
        let restore = |ledger: LedgerExport| {
            let restore = TenantRestore {
                spec: spec.clone(),
                apps: export.apps.clone(),
                ledger,
                prod_clock: export.prod_clock,
            };
            ShardWorker::new(0, vec![restore]).unwrap()
        };

        // The ledger interns its warm entries first, so slot order is
        // not the records' name order.
        let mut restored = restore(export.ledger.clone());
        let t = &restored.tenants[&1];
        let by_slot: Vec<&str> = (0..t.ledger.interned() as AppSlot)
            .map(|slot| t.ledger.name(slot))
            .collect();
        let by_record: Vec<&str> = export.apps.iter().map(|r| r.app.as_str()).collect();
        assert_eq!(by_slot.len(), by_record.len());
        assert_ne!(by_slot, by_record);
        assert_eq!(encode_tenant_section(&ShardWorker::export_tenant(t)), text);
        for (app, ts) in &events[cut..cut + 1_000] {
            assert_eq!(
                restored.invoke(1, app, *ts),
                primary.invoke(1, app, *ts),
                "{app} at {ts}"
            );
        }

        let interned = restored.tenants[&1].ledger.interned();
        assert!(restored.probe(1, "app-99").is_none());
        assert!(restored.probe(7, "app-01").is_none());
        assert_eq!(restored.tenants[&1].ledger.interned(), interned);
        assert!(restored.probe(1, "app-01").is_some());

        // A warm ledger entry with no app record gets a slot but no
        // state: it is neither counted nor probed.
        let mut ledger = export.ledger.clone();
        ledger
            .warm
            .push(("ghost".into(), ledger.cursor_ms + MINUTE_MS, 1));
        let ghost = restore(ledger);
        assert_eq!(ghost.tenants[&1].ledger.interned(), export.apps.len() + 1);
        assert_eq!(ghost.stats().apps, export.apps.len() as u64);
        assert!(ghost.probe(1, "ghost").is_none());
    }

    #[test]
    fn decision_kinds_match_policy_counts_and_sum_to_invocations() {
        use crate::metrics::{ConnStats, MetricsReport, ProtoStats, ReplStats};
        use sitw_core::HybridConfig;
        // One hybrid app learning a 10-minute rhythm, then idling past
        // the histogram range until ARIMA takes over: every branch
        // serves it.
        let mut w = ShardWorker::new(
            0,
            vec![
                TenantRestore::fresh(default_spec(PolicySpec::Hybrid(HybridConfig::default()))),
                TenantRestore::fresh(TenantSpec {
                    id: 1,
                    name: "fixed".into(),
                    policy: PolicySpec::fixed_minutes(10),
                    budget_mb: 0,
                }),
            ],
        )
        .unwrap();
        let mut ts = 0;
        for i in 0..120u64 {
            ts += if i < 40 { 10 } else { 300 } * MINUTE_MS;
            w.invoke0("x", ts).unwrap();
            w.invoke(1, "y", ts).unwrap();
        }
        let counts = match &w.tenants[&DEFAULT_TENANT].apps[..] {
            [Some(AppState {
                policy: ServedPolicy::Hybrid(p),
                ..
            })] => p.decisions(),
            _ => panic!("one hybrid app expected"),
        };
        assert!(counts.histogram > 0 && counts.standard > 0 && counts.arima > 0);
        let stats = w.stats();
        assert_eq!(
            stats.tenants[0].decisions,
            [counts.histogram, counts.standard, counts.arima, 0]
        );
        assert_eq!(stats.tenants[1].decisions, [0, 0, 0, 120]);

        let text = MetricsReport {
            shards: vec![stats],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 0,
        }
        .render();
        let sum = |prefix: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(prefix))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(sum("sitw_serve_invocations_total{"), 240);
        assert_eq!(sum("sitw_serve_decisions_total{"), 240);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for app in ["app-000000", "app-000001", "x", ""] {
                let s = shard_of(app, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(app, shards));
            }
        }
        // Different apps spread over shards (sanity, not uniformity).
        let hits: std::collections::HashSet<usize> = (0..100)
            .map(|i| shard_of(&format!("app-{i:06}"), 4))
            .collect();
        assert!(hits.len() > 1);
    }
}
