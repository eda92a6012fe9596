//! The cluster memory ledger: per-tenant warm-container accounting and
//! budgeted eviction.
//!
//! A [`TenantLedger`] tracks, for one tenant, every application whose
//! image is currently warm: when its keep-alive expires, and how many MB
//! it holds ([`crate::footprint_mb`]). From that it maintains
//!
//! * the current warm memory (`warm_mb`, a gauge),
//! * the exact loaded-memory integral in MB·ms — the §5.3 idle-memory
//!   metric, advanced event-by-event with expiries processed at their
//!   true times (the same bookkeeping `platform::report` derives from
//!   invoker integrals),
//! * and the tenant's eviction stream: when a charge pushes the tenant
//!   over its budget, victims go **by earliest keep-alive expiry**
//!   (ties by app id), through the shared [`crate::evict_until`] engine
//!   ported from `platform::cluster::make_room`.
//!
//! **Layout.** Each app name is interned once into a dense [`AppSlot`];
//! per-app state lives in a `Vec` indexed by slot, so a charge by slot
//! ([`TenantLedger::charge_slot`]) hashes nothing and allocates nothing.
//! The expiry queue holds `(expiry, slot)` with **one entry per warm
//! app**, keyed at or before the app's true expiry:
//!
//! * a re-charge that moves the expiry later leaves the queued entry
//!   alone; when that entry surfaces early it is re-keyed to the true
//!   expiry instead of expiring the app;
//! * only a re-charge that moves the expiry *earlier* queues a new entry,
//!   and the superseded one is skipped when it surfaces.
//!
//! The queue orders by slot within one expiry, not by name, so the
//! budget victim — earliest true expiry, then smallest app id — is
//! picked by comparing names among the equal-expiry candidates when a
//! victim is popped. Expiries at one instant need no tie rule: they
//! leave the integral unchanged whatever their order.
//!
//! Everything is integer-valued and ordered deterministically, so a
//! ledger replayed from the same event stream — online, offline, or
//! across a snapshot/restore with a different shard layout — produces
//! identical charges, identical evictions, and identical integrals.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::evict::evict_until;

/// Dense handle of an app name interned in one [`TenantLedger`]. Slots
/// are assigned in first-sight order and never reused or freed, so a
/// caller may cache one for as long as it holds the ledger.
pub type AppSlot = u32;

/// A point-in-time summary of one ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerStats {
    /// Warm memory currently charged, MB.
    pub warm_mb: u64,
    /// Warm containers currently charged.
    pub warm_apps: u64,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms (saturating).
    pub idle_mb_ms: u64,
}

/// The persistable state of a ledger (snapshot text format payload).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerExport {
    /// Warm entries as `(app, expiry_ms, mb)`, sorted by app id.
    pub warm: Vec<(String, u64, u64)>,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms.
    pub idle_mb_ms: u64,
    /// The integral cursor (last advance time).
    pub cursor_ms: u64,
}

/// One interned app's charge.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    warm: bool,
    /// Absolute time the keep-alive lapses (the image unloads).
    expiry_ms: u64,
    /// Charged footprint in MB.
    mb: u64,
    /// Key of the app's live queue entry (`<= expiry_ms` while warm).
    queued_ms: u64,
}

/// Per-tenant warm-memory ledger with budgeted eviction.
#[derive(Debug)]
pub struct TenantLedger {
    /// Budget in MB; 0 = unlimited (accounting only, never evicts).
    budget_mb: u64,
    warm_mb: u64,
    warm_apps: u64,
    evictions: u64,
    idle_mb_ms: u64,
    cursor_ms: u64,
    /// Slot → app name.
    names: Vec<Box<str>>,
    /// App name → slot.
    index: HashMap<Box<str>, AppSlot>,
    /// Slot → charge.
    slots: Vec<Slot>,
    /// Earliest-expiry queue of `(key, slot)`; an entry is live iff its
    /// slot is warm and queued under that key.
    heap: BinaryHeap<Reverse<(u64, AppSlot)>>,
    /// Victims of the latest charge, in eviction order.
    evicted: Vec<AppSlot>,
    /// Equal-expiry victim candidates (scratch).
    ties: Vec<AppSlot>,
}

impl TenantLedger {
    /// Creates an empty ledger under `budget_mb` (0 = unlimited).
    pub fn new(budget_mb: u64) -> Self {
        Self {
            budget_mb,
            warm_mb: 0,
            warm_apps: 0,
            evictions: 0,
            idle_mb_ms: 0,
            cursor_ms: 0,
            names: Vec::new(),
            index: HashMap::new(),
            slots: Vec::new(),
            heap: BinaryHeap::new(),
            evicted: Vec::new(),
            ties: Vec::new(),
        }
    }

    /// The configured budget (0 = unlimited).
    pub fn budget_mb(&self) -> u64 {
        self.budget_mb
    }

    /// Replaces the budget (0 = unlimited). Enforcement is lazy: the new
    /// budget bites on the *next* charge, never retroactively — so a
    /// cluster reconciler pushing shares mid-stream changes no verdict
    /// that has already been served, and a replay that applies the same
    /// budget updates at the same stream positions stays bit-identical.
    pub fn set_budget(&mut self, budget_mb: u64) {
        self.budget_mb = budget_mb;
    }

    /// The slot of `app`, interning the name on first sight (the only
    /// allocation the ledger makes per app).
    pub fn slot(&mut self, app: &str) -> AppSlot {
        if let Some(&slot) = self.index.get(app) {
            return slot;
        }
        let slot = AppSlot::try_from(self.names.len()).expect("fewer than 2^32 apps per tenant");
        self.names.push(app.into());
        self.index.insert(app.into(), slot);
        self.slots.push(Slot::default());
        slot
    }

    /// The app name interned at `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` was not issued by this ledger.
    pub fn name(&self, slot: AppSlot) -> &str {
        &self.names[slot as usize]
    }

    /// Advances the clock to `now`: processes keep-alive expiries at
    /// their true times (each contributes to the integral up to its
    /// expiry) and extends the integral to `now`.
    ///
    /// An entry expiring exactly at `now` stays warm — mirroring
    /// [`sitw_core::Windows::classify_gap`], where an idle gap equal to
    /// the keep-alive window is still a warm hit.
    pub fn advance(&mut self, now_ms: u64) {
        while let Some(&Reverse((key, slot))) = self.heap.peek() {
            if key >= now_ms {
                break;
            }
            self.heap.pop();
            match self.live(key, slot) {
                Some(true) => {
                    let dt = key.saturating_sub(self.cursor_ms);
                    self.idle_mb_ms = self
                        .idle_mb_ms
                        .saturating_add(self.warm_mb.saturating_mul(dt));
                    self.cursor_ms = self.cursor_ms.max(key);
                    self.release(slot);
                }
                // Re-charged to a later expiry since it was queued.
                Some(false) => self.rekey(slot),
                // Superseded by an earlier-expiring charge.
                None => {}
            }
        }
        let dt = now_ms.saturating_sub(self.cursor_ms);
        self.idle_mb_ms = self
            .idle_mb_ms
            .saturating_add(self.warm_mb.saturating_mul(dt));
        self.cursor_ms = self.cursor_ms.max(now_ms);
    }

    /// Charges `app` as warm from `now_ms` until `expiry_ms` holding
    /// `mb`, then enforces the budget. Returns the apps evicted to make
    /// room, in eviction order — possibly including `app` itself, when
    /// even evicting everything else cannot fit its footprint.
    ///
    /// Two contracts worth stating precisely:
    ///
    /// * **Pre-warm windows are reserved, not free.** For a policy that
    ///   unloads and re-loads (`pre_warm_ms > 0`), the charge spans the
    ///   whole `[now, loaded_until]` interval even though the image is
    ///   unloaded during the pre-warm gap. This is deliberate and
    ///   conservative: the budget reserves the memory a scheduled
    ///   pre-warm will need, so a pre-warm load can never fail for
    ///   capacity; modeling the unloaded gap exactly would need
    ///   future-dated charges and pre-warm cancellation plumbed through
    ///   eviction.
    /// * **Ordering.** The ledger is deterministic in its *arrival
    ///   order*: the same charge sequence always produces the same
    ///   evictions (a `now_ms` behind the cursor saturates to it).
    ///   Bit-for-bit parity with the offline
    ///   [`crate::fleet_verdict_trace`] additionally requires a
    ///   tenant's events to arrive in timestamp order — true for any
    ///   single connection (the parity tests), not guaranteed when one
    ///   tenant's apps are spread across concurrent connections.
    ///
    /// Callers on a hot path intern once with [`TenantLedger::slot`] and
    /// use [`TenantLedger::charge_slot`] instead.
    pub fn charge(&mut self, app: &str, now_ms: u64, expiry_ms: u64, mb: u64) -> Vec<String> {
        let slot = self.slot(app);
        self.charge_slot(slot, now_ms, expiry_ms, mb);
        self.evicted
            .iter()
            .map(|&victim| self.name(victim).to_owned())
            .collect()
    }

    /// [`TenantLedger::charge`] by interned slot: hashes nothing and, once
    /// the queue and scratch buffers have grown, allocates nothing. The
    /// victims are left in [`TenantLedger::evicted`]. A slot this ledger
    /// did not issue is ignored.
    // sitw-lint: hot-path
    pub fn charge_slot(&mut self, slot: AppSlot, now_ms: u64, expiry_ms: u64, mb: u64) {
        self.evicted.clear();
        self.advance(now_ms);
        let expiry_ms = expiry_ms.max(now_ms);
        let Some(s) = self.slots.get_mut(slot as usize) else {
            return;
        };
        if s.warm {
            // Re-charge: the previous interval's integral is already
            // accounted up to `now`; only the footprint swaps. A later
            // expiry keeps its queued entry (re-keyed when it surfaces).
            self.warm_mb -= s.mb;
            if expiry_ms < s.queued_ms {
                s.queued_ms = expiry_ms;
                self.heap.push(Reverse((expiry_ms, slot)));
            }
        } else {
            s.warm = true;
            s.queued_ms = expiry_ms;
            self.warm_apps += 1;
            self.heap.push(Reverse((expiry_ms, slot)));
        }
        s.expiry_ms = expiry_ms;
        s.mb = mb;
        self.warm_mb += mb;

        if self.budget_mb == 0 {
            return;
        }
        // The budgeted-eviction engine shared with the platform's
        // invoker pool: victims by earliest keep-alive expiry.
        evict_until(
            self,
            |l| l.warm_mb <= l.budget_mb,
            TenantLedger::pop_victim,
            |l, victim| {
                l.release(victim);
                l.evictions += 1;
                l.evicted.push(victim);
            },
        );
    }

    /// The victims of the most recent charge, in eviction order.
    pub fn evicted(&self) -> &[AppSlot] {
        &self.evicted
    }

    /// Pops the warm app with the earliest true expiry, ties by smallest
    /// name; `None` when nothing is warm.
    fn pop_victim(&mut self) -> Option<AppSlot> {
        // Pop in key order: drop superseded entries and re-key early
        // ones until the head is live and due, then gather every live
        // entry due at that same expiry.
        self.ties.clear();
        let mut expiry = None;
        while let Some(&Reverse((key, slot))) = self.heap.peek() {
            if expiry.is_some_and(|e| e != key) {
                break;
            }
            self.heap.pop();
            match self.live(key, slot) {
                Some(true) => {
                    expiry = Some(key);
                    self.ties.push(slot);
                }
                Some(false) => self.rekey(slot),
                None => {}
            }
        }
        let expiry = expiry?;
        let names = &self.names;
        let victim = *self
            .ties
            .iter()
            .min_by(|a, b| names[**a as usize].cmp(&names[**b as usize]))?;
        for &slot in &self.ties {
            if slot != victim {
                self.heap.push(Reverse((expiry, slot)));
            }
        }
        Some(victim)
    }

    /// Whether the queue entry `(key, slot)` is live: `None` when
    /// superseded, `Some(true)` when due at `key`, `Some(false)` when the
    /// app was re-charged to a later expiry since it was queued.
    fn live(&self, key: u64, slot: AppSlot) -> Option<bool> {
        let s = self.slots.get(slot as usize)?;
        (s.warm && s.queued_ms == key).then_some(s.expiry_ms == key)
    }

    /// Drops a warm slot's charge (its queue entry is already popped).
    fn release(&mut self, slot: AppSlot) {
        if let Some(s) = self.slots.get_mut(slot as usize) {
            s.warm = false;
            self.warm_mb -= s.mb;
            self.warm_apps -= 1;
        }
    }

    /// Re-queues a popped live entry under its slot's true expiry.
    fn rekey(&mut self, slot: AppSlot) {
        if let Some(s) = self.slots.get_mut(slot as usize) {
            s.queued_ms = s.expiry_ms;
            self.heap.push(Reverse((s.expiry_ms, slot)));
        }
    }

    /// The current summary.
    pub fn stats(&self) -> LedgerStats {
        LedgerStats {
            warm_mb: self.warm_mb,
            warm_apps: self.warm_apps,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
        }
    }

    /// Exports the persistable state (warm set sorted by app id).
    pub fn export(&self) -> LedgerExport {
        let mut warm: Vec<(String, u64, u64)> = self
            .slots
            .iter()
            .zip(&self.names)
            .filter(|(s, _)| s.warm)
            .map(|(s, app)| (app.to_string(), s.expiry_ms, s.mb))
            .collect();
        warm.sort();
        LedgerExport {
            warm,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
            cursor_ms: self.cursor_ms,
        }
    }

    /// Rebuilds a ledger from an export. `warm_mb` is recomputed from
    /// the entries (so a caller may partition an export across shards);
    /// future expiry/eviction order is identical to the exporting
    /// ledger's because ordering depends only on `(expiry, app)`.
    pub fn restore(budget_mb: u64, export: LedgerExport) -> Self {
        let mut ledger = TenantLedger::new(budget_mb);
        ledger.evictions = export.evictions;
        ledger.idle_mb_ms = export.idle_mb_ms;
        ledger.cursor_ms = export.cursor_ms;
        for (app, expiry_ms, mb) in export.warm {
            let slot = ledger.slot(&app);
            ledger.slots[slot as usize] = Slot {
                warm: true,
                expiry_ms,
                mb,
                queued_ms: expiry_ms,
            };
            ledger.warm_mb += mb;
            ledger.warm_apps += 1;
            ledger.heap.push(Reverse((expiry_ms, slot)));
        }
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbudgeted_ledger_accounts_without_evicting() {
        let mut l = TenantLedger::new(0);
        assert!(l.charge("a", 0, 1_000, 100).is_empty());
        assert!(l.charge("b", 0, 2_000, 50).is_empty());
        assert_eq!(l.stats().warm_mb, 150);
        assert_eq!(l.stats().warm_apps, 2);
        // Advance past a's expiry: a contributes 150*1000? No — both warm
        // until 1000 (150 MB·ms per ms), then only b (50) until 1500.
        l.advance(1_500);
        let s = l.stats();
        assert_eq!(s.warm_mb, 50);
        assert_eq!(s.warm_apps, 1);
        assert_eq!(s.idle_mb_ms, 150 * 1_000 + 50 * 500);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn expiry_boundary_is_inclusive_like_classify_gap() {
        let mut l = TenantLedger::new(0);
        l.charge("a", 0, 1_000, 10);
        l.advance(1_000);
        assert_eq!(l.stats().warm_apps, 1, "expiry == now stays warm");
        l.advance(1_001);
        assert_eq!(l.stats().warm_apps, 0);
    }

    #[test]
    fn budget_evicts_earliest_expiry_first_ties_by_app() {
        let mut l = TenantLedger::new(100);
        assert!(l.charge("late", 0, 5_000, 40).is_empty());
        assert!(l.charge("early", 0, 1_000, 40).is_empty());
        // 40+40+40 > 100: the earliest expiry ("early") goes first.
        let evicted = l.charge("new", 10, 9_000, 40);
        assert_eq!(evicted, vec!["early".to_owned()]);
        assert_eq!(l.stats().warm_mb, 80);
        assert_eq!(l.stats().evictions, 1);

        // Tie on expiry: lexicographically smaller app id goes first —
        // the just-charged "a" ties with "b" and evicts itself.
        let mut l = TenantLedger::new(50);
        l.charge("b", 0, 1_000, 30);
        let evicted = l.charge("a", 0, 1_000, 30);
        assert_eq!(evicted, vec!["a".to_owned()]);
        let evicted = l.charge("c", 0, 2_000, 30);
        assert_eq!(evicted, vec!["b".to_owned()]);
    }

    #[test]
    fn oversized_app_evicts_itself() {
        let mut l = TenantLedger::new(100);
        l.charge("small", 0, 10_000, 30);
        let evicted = l.charge("huge", 5, 20_000, 500);
        // Everything goes: "small" first (earlier expiry), then "huge"
        // itself — the tenant cannot hold it at all.
        assert_eq!(evicted, vec!["small".to_owned(), "huge".to_owned()]);
        assert_eq!(l.stats().warm_mb, 0);
        assert_eq!(l.stats().evictions, 2);
    }

    #[test]
    fn recharge_supersedes_stale_heap_entries() {
        let mut l = TenantLedger::new(0);
        l.charge("a", 0, 1_000, 100);
        // Re-invoke before expiry: new expiry, same footprint.
        l.charge("a", 500, 3_000, 100);
        l.advance(1_500);
        // The stale (1_000) heap entry must not expire the live charge.
        assert_eq!(l.stats().warm_apps, 1);
        assert_eq!(l.stats().warm_mb, 100);
        l.advance(3_001);
        assert_eq!(l.stats().warm_apps, 0);
        // Integral: 100 MB × 3000 ms (warm the whole time).
        assert_eq!(l.stats().idle_mb_ms, 100 * 3_000);
    }

    #[test]
    fn export_restore_continues_bit_for_bit() {
        let mut a = TenantLedger::new(120);
        a.charge("x", 0, 1_000, 50);
        a.charge("y", 100, 4_000, 50);
        a.charge("z", 200, 2_000, 50); // Evicts x (earliest expiry).
        let export = a.export();
        let mut b = TenantLedger::restore(120, export.clone());
        assert_eq!(b.export(), export);
        // Drive both forward identically.
        let ea = a.charge("w", 300, 5_000, 60);
        let eb = b.charge("w", 300, 5_000, 60);
        assert_eq!(ea, eb);
        a.advance(10_000);
        b.advance(10_000);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.export(), b.export());
    }

    #[test]
    fn partitioned_restore_recomputes_warm_mb() {
        let mut l = TenantLedger::new(0);
        l.charge("a", 0, 1_000, 10);
        l.charge("b", 0, 2_000, 20);
        let mut export = l.export();
        export.warm.retain(|(app, _, _)| app == "b");
        let part = TenantLedger::restore(0, export);
        assert_eq!(part.stats().warm_mb, 20);
        assert_eq!(part.stats().warm_apps, 1);
    }
}
