//! The compiled FIB: dense label-interned rule tables published as
//! immutable generations (DESIGN.md §14).
//!
//! The compiled FIB is the forwarder's only rule store. Following Active
//! Switching's insight that chain steering should be resolved into flat
//! per-hop state rather than re-looked-up per packet, a [`CompiledFib`]
//! holds:
//!
//! - a **label-interning table**: an open-addressed, power-of-two probe
//!   table mapping a packed `LabelPair` to a small dense row index — a
//!   splitmix-mixed u64 compare per probe, no SipHash, no buckets;
//! - **dense rule rows** ([`FibRow`]): per label pair, the active epoch's
//!   [`RuleSet`] with its Vose alias tables already baked, the active
//!   epoch tag, and the full ascending epoch list — both epochs of a
//!   make-before-break update are present in one generation until the old
//!   one is retired. The rows are exactly what a `.sba` artifact carries;
//! - beside each row, the **rule payloads of its older epochs**, so
//!   retiring the active epoch rolls back to the previous rules. They never
//!   leave the process: an artifact lists older epochs as drain-only tags;
//! - a **chain-fallback table**: reverse-direction packets carry the
//!   opposite egress label, so a miss on the exact pair falls back to the
//!   chain's canonical (smallest) label pair.
//!
//! # Generation lifecycle
//!
//! Compilation happens off the hot path, in the rule mutators
//! (`install_rules_epoch` / `retire_epoch` / `fail_vnf_instance` / ...).
//! Each mutation derives the next [`CompiledFib`] from the current one — a
//! full rebuild when the row set changes, or an in-place single-row patch
//! ([`CompiledFib::patch_row`]) when one existing label pair changed — and
//! the forwarder swaps its `Arc` to it. A published generation is never
//! edited, so the packet path reads one consistent generation per batch
//! without a lock or an atomic.

use crate::forwarder::RuleSet;
use sb_types::LabelPair;

/// Issues a best-effort read prefetch for the cache line holding `p`.
///
/// A pure performance hint: on x86-64 it lowers to `prefetcht0`, elsewhere
/// it compiles to nothing. Prefetching any address — stale, unaligned, or
/// unmapped — is architecturally safe; it can never fault or alter
/// program-visible state, which is why the scoped `unsafe` below is sound.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint instruction with no architectural
    // effect beyond cache state; it is defined for arbitrary addresses.
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Sentinel row index meaning "no FIB row" (lookup miss with no chain
/// fallback). Kept out of the valid range by construction: a FIB can never
/// hold `u32::MAX` rows.
pub const FIB_MISS: u32 = u32::MAX;

/// One compiled rule row: everything the hot path needs for a label pair,
/// laid out contiguously in the row array.
#[derive(Debug, Clone, PartialEq)]
pub struct FibRow {
    /// The label pair this row serves.
    pub labels: LabelPair,
    /// The active (highest installed) epoch tag.
    pub active_epoch: u64,
    /// Every installed epoch, ascending — during a make-before-break
    /// update both the old and new epoch are listed until the retire.
    pub epochs: Vec<u64>,
    /// The active epoch's rule sets, alias tables pre-baked.
    pub rules: RuleSet,
}

/// An immutable compiled snapshot of a forwarder's rule state.
///
/// Built off the hot path by [`CompiledFib::build`] (full rebuild) or
/// [`CompiledFib::patch_row`] (single-row delta) and published by the
/// forwarder as its next generation. Lookups are allocation-free.
#[derive(Debug)]
pub struct CompiledFib {
    generation: u64,
    /// Rule rows, sorted by label pair — deterministic across rebuilds.
    rows: Vec<FibRow>,
    /// `older[i]`: the rule payloads of `rows[i]`'s older epochs, aligned
    /// with `rows[i].epochs` minus the active (last) one. Only the rule
    /// mutators read them; the packet path never does.
    older: Vec<Vec<RuleSet>>,
    /// Interning table: packed label-pair key per slot.
    slot_keys: Box<[u64]>,
    /// Row index per slot; [`FIB_MISS`] marks an empty slot.
    slot_rows: Box<[u32]>,
    mask: usize,
    /// `(chain value, canonical row index)` sorted by chain value; the
    /// canonical row is the chain's smallest label pair.
    chains: Vec<(u32, u32)>,
}

/// Every installed epoch's rule payload for one label pair (DESIGN.md
/// §10), ascending by epoch; the last is the active one. The editable form
/// of a FIB row: mutators take a row's set out
/// ([`CompiledFib::epoch_rules`]), edit it, and compile it back in
/// ([`CompiledFib::with_epoch_rules`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochRules {
    /// `(epoch, rules)` pairs, ascending by epoch; the last is active.
    pub(crate) sets: Vec<(u64, RuleSet)>,
}

impl EpochRules {
    pub(crate) fn install(&mut self, epoch: u64, rules: RuleSet) {
        match self.sets.binary_search_by_key(&epoch, |(ep, _)| *ep) {
            Ok(i) => self.sets[i].1 = rules,
            Err(i) => self.sets.insert(i, (epoch, rules)),
        }
    }

    pub(crate) fn retire(&mut self, epoch: u64) -> bool {
        match self.sets.binary_search_by_key(&epoch, |(ep, _)| *ep) {
            Ok(i) => {
                self.sets.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The row for `labels` plus its older payloads; `None` when no epoch
    /// is left.
    fn into_row(mut self, labels: LabelPair) -> Option<(FibRow, Vec<RuleSet>)> {
        let (active_epoch, rules) = self.sets.pop()?;
        let mut epochs: Vec<u64> = self.sets.iter().map(|(ep, _)| *ep).collect();
        epochs.push(active_epoch);
        let older = self.sets.into_iter().map(|(_, r)| r).collect();
        let row = FibRow {
            labels,
            active_epoch,
            epochs,
            rules,
        };
        Some((row, older))
    }
}

/// The older-epoch payloads of a row given in artifact form: older epochs
/// travel as drain-only tags, so each takes the active payload.
fn drain_payloads(row: &FibRow) -> Vec<RuleSet> {
    vec![row.rules.clone(); row.epochs.len().saturating_sub(1)]
}

/// Packs a label pair into the u64 interning key.
#[inline]
fn pack(labels: LabelPair) -> u64 {
    (u64::from(labels.chain().value()) << 32) | u64::from(labels.egress().value())
}

/// splitmix64 finalizer over the packed key.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl CompiledFib {
    /// An empty FIB at generation 0 (the state of a fresh forwarder).
    #[must_use]
    pub fn empty() -> Self {
        Self::build(0, Vec::new())
    }

    /// Compiles `rows` into a FIB tagged `generation`. Rows are sorted by
    /// label pair, so the layout (and the chain-fallback choice) is
    /// deterministic regardless of input order; of rows sharing a label
    /// pair only the first is kept, so every pair has exactly one row. The
    /// rows are in artifact form — active payload only — so each older
    /// epoch takes the active payload.
    #[must_use]
    pub fn build(generation: u64, rows: Vec<FibRow>) -> Self {
        let entries = rows
            .into_iter()
            .map(|row| {
                let older = drain_payloads(&row);
                (row, older)
            })
            .collect();
        Self::compile(generation, entries)
    }

    /// [`build`](Self::build) over rows paired with their older payloads.
    fn compile(generation: u64, mut entries: Vec<(FibRow, Vec<RuleSet>)>) -> Self {
        entries.sort_by_key(|(row, _)| row.labels);
        entries.dedup_by_key(|(row, _)| row.labels);
        let (rows, older): (Vec<FibRow>, Vec<Vec<RuleSet>>) = entries.into_iter().unzip();
        let buckets = (rows.len() * 2).next_power_of_two().max(8);
        let mut slot_keys = vec![0u64; buckets].into_boxed_slice();
        let mut slot_rows = vec![FIB_MISS; buckets].into_boxed_slice();
        let mask = buckets - 1;
        let mut chains: Vec<(u32, u32)> = Vec::new();
        #[allow(clippy::cast_possible_truncation)]
        for (idx, row) in rows.iter().enumerate() {
            let key = pack(row.labels);
            let mut i = (mix(key) as usize) & mask;
            while slot_rows[i] != FIB_MISS {
                i = (i + 1) & mask;
            }
            slot_keys[i] = key;
            slot_rows[i] = idx as u32;
            // Rows are sorted, so the first row seen per chain is the
            // chain's smallest label pair — the canonical fallback.
            let chain = row.labels.chain().value();
            if chains.last().map(|&(c, _)| c) != Some(chain) {
                chains.push((chain, idx as u32));
            }
        }
        Self {
            generation,
            rows,
            older,
            slot_keys,
            slot_rows,
            mask,
            chains,
        }
    }

    /// A copy of this FIB with one row replaced (or inserted), tagged
    /// `generation`; the row is in artifact form, as for
    /// [`build`](Self::build). A replacement clones the rows and reuses
    /// the interning and fallback tables verbatim; an insert falls back to
    /// a fresh build over the extended row set.
    #[must_use]
    pub fn patch_row(&self, generation: u64, row: FibRow) -> Self {
        let older = drain_payloads(&row);
        self.patch(generation, row, older).0
    }

    /// [`patch_row`](Self::patch_row) with explicit older payloads; also
    /// returns whether the row was replaced in place (`false`: inserted).
    fn patch(&self, generation: u64, row: FibRow, older: Vec<RuleSet>) -> (Self, bool) {
        let Some(i) = self.position(row.labels) else {
            let mut entries = self.entries();
            entries.push((row, older));
            return (Self::compile(generation, entries), false);
        };
        let mut rows = self.rows.clone();
        rows[i] = row;
        let mut all_older = self.older.clone();
        all_older[i] = older;
        let fib = Self {
            generation,
            rows,
            older: all_older,
            slot_keys: self.slot_keys.clone(),
            slot_rows: self.slot_rows.clone(),
            mask: self.mask,
            chains: self.chains.clone(),
        };
        (fib, true)
    }

    /// Every row with its older payloads, cloned: the input of a rebuild.
    fn entries(&self) -> Vec<(FibRow, Vec<RuleSet>)> {
        self.rows
            .iter()
            .cloned()
            .zip(self.older.iter().cloned())
            .collect()
    }

    /// The index of the row for exactly `labels`.
    fn position(&self, labels: LabelPair) -> Option<usize> {
        self.rows.binary_search_by_key(&labels, |r| r.labels).ok()
    }

    /// The row for exactly `labels` (no chain fallback).
    #[must_use]
    pub fn get(&self, labels: LabelPair) -> Option<&FibRow> {
        self.position(labels).map(|i| &self.rows[i])
    }

    /// Every epoch's payload for exactly `labels`, cloned for editing.
    pub(crate) fn epoch_rules(&self, labels: LabelPair) -> Option<EpochRules> {
        let i = self.position(labels)?;
        let row = &self.rows[i];
        let mut sets: Vec<(u64, RuleSet)> = row
            .epochs
            .iter()
            .copied()
            .zip(self.older[i].iter().cloned())
            .collect();
        sets.push((row.active_epoch, row.rules.clone()));
        Some(EpochRules { sets })
    }

    /// The next generation with `labels`' row set to `rules`: replaced in
    /// place when the pair exists, inserted when it is new, removed when
    /// `rules` is empty. Also returns whether it was an in-place patch
    /// (`false`: the row set changed, so the tables were rebuilt).
    pub(crate) fn with_epoch_rules(
        &self,
        generation: u64,
        labels: LabelPair,
        rules: EpochRules,
    ) -> (Self, bool) {
        match rules.into_row(labels) {
            Some((row, older)) => self.patch(generation, row, older),
            None => {
                let mut entries = self.entries();
                entries.retain(|(row, _)| row.labels != labels);
                (Self::compile(generation, entries), false)
            }
        }
    }

    /// The next generation with `f` applied to every rule payload of every
    /// row, active and older (a rebuild).
    pub(crate) fn map_rules(&self, generation: u64, mut f: impl FnMut(&mut RuleSet)) -> Self {
        let mut entries = self.entries();
        for (row, older) in &mut entries {
            f(&mut row.rules);
            older.iter_mut().for_each(&mut f);
        }
        Self::compile(generation, entries)
    }

    /// This snapshot's generation number.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of rule rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the FIB holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The compiled rows, sorted by label pair.
    #[must_use]
    pub fn rows(&self) -> &[FibRow] {
        &self.rows
    }

    /// Resolves a label pair to its row index: exact match through the
    /// interning table, else the chain's canonical row (reverse-direction
    /// packets carry the opposite egress label but belong to the same
    /// chain), else `None`.
    #[inline]
    #[must_use]
    pub fn lookup_index(&self, labels: LabelPair) -> Option<u32> {
        let key = pack(labels);
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let row = self.slot_rows[i];
            if row == FIB_MISS {
                break;
            }
            if self.slot_keys[i] == key {
                return Some(row);
            }
            i = (i + 1) & self.mask;
        }
        self.chains
            .binary_search_by_key(&labels.chain().value(), |&(c, _)| c)
            .ok()
            .map(|j| self.chains[j].1)
    }

    /// The row at `idx` (from [`lookup_index`](Self::lookup_index)).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (in particular [`FIB_MISS`]).
    #[inline]
    #[must_use]
    pub fn row(&self, idx: u32) -> &FibRow {
        &self.rows[idx as usize]
    }

    /// Prefetches the row at `idx` ahead of [`row`](Self::row).
    #[inline]
    pub fn prefetch_row(&self, idx: u32) {
        if let Some(r) = self.rows.get(idx as usize) {
            prefetch_read(std::ptr::from_ref(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalancer::WeightedChoice;
    use crate::packet::Addr;
    use sb_types::{ChainLabel, EgressLabel, EdgeInstanceId, ForwarderId, InstanceId};

    fn pair(chain: u32, egress: u32) -> LabelPair {
        LabelPair::new(ChainLabel::new(chain), EgressLabel::new(egress))
    }

    fn ruleset(inst: u64) -> RuleSet {
        RuleSet {
            to_vnf: WeightedChoice::single(Addr::Vnf(InstanceId::new(inst))),
            to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(9))),
            to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(0))),
        }
    }

    fn row(chain: u32, egress: u32, inst: u64) -> FibRow {
        FibRow {
            labels: pair(chain, egress),
            active_epoch: 0,
            epochs: vec![0],
            rules: ruleset(inst),
        }
    }

    #[test]
    fn exact_lookup_and_miss() {
        let fib = CompiledFib::build(1, vec![row(1, 2, 10), row(3, 4, 11)]);
        assert_eq!(fib.len(), 2);
        let idx = fib.lookup_index(pair(1, 2)).unwrap();
        assert_eq!(fib.row(idx).labels, pair(1, 2));
        assert!(fib.lookup_index(pair(9, 9)).is_none());
    }

    #[test]
    fn duplicate_pairs_compile_to_one_row() {
        let fib = CompiledFib::build(1, vec![row(1, 2, 10), row(3, 4, 11), row(1, 2, 12)]);
        assert_eq!(fib.len(), 2);
        let idx = fib.lookup_index(pair(1, 2)).unwrap();
        assert_eq!(fib.get(pair(1, 2)), Some(fib.row(idx)));
        assert_eq!(
            fib.row(idx).rules.to_vnf.targets(),
            ruleset(10).to_vnf.targets(),
            "the first row of a repeated pair wins"
        );
    }

    #[test]
    fn chain_fallback_resolves_smallest_pair() {
        // Two pairs of chain 1: the canonical fallback is the smallest.
        let fib = CompiledFib::build(1, vec![row(1, 7, 20), row(1, 2, 10)]);
        let idx = fib.lookup_index(pair(1, 99)).unwrap();
        assert_eq!(fib.row(idx).labels, pair(1, 2), "fallback must be canonical");
        // Exact matches still win over the fallback.
        let idx = fib.lookup_index(pair(1, 7)).unwrap();
        assert_eq!(fib.row(idx).labels, pair(1, 7));
    }

    #[test]
    fn empty_fib_misses_everything() {
        let fib = CompiledFib::empty();
        assert!(fib.is_empty());
        assert_eq!(fib.generation(), 0);
        assert!(fib.lookup_index(pair(1, 1)).is_none());
    }

    #[test]
    fn patch_replaces_in_place_and_insert_rebuilds() {
        let fib = CompiledFib::build(1, vec![row(1, 2, 10), row(2, 2, 11)]);
        // Replace: layout identical, payload swapped, generation bumped.
        let patched = fib.patch_row(2, row(1, 2, 42));
        assert_eq!(patched.generation(), 2);
        assert_eq!(patched.len(), 2);
        let idx = patched.lookup_index(pair(1, 2)).unwrap();
        assert_eq!(
            patched.row(idx).rules.to_vnf.targets(),
            ruleset(42).to_vnf.targets()
        );
        // The untouched row survives.
        let idx = patched.lookup_index(pair(2, 2)).unwrap();
        assert_eq!(patched.row(idx).labels, pair(2, 2));
        // Insert: a brand-new pair lands in sorted position and is found.
        let grown = patched.patch_row(3, row(1, 1, 50));
        assert_eq!(grown.len(), 3);
        let idx = grown.lookup_index(pair(1, 1)).unwrap();
        assert_eq!(grown.row(idx).labels, pair(1, 1));
        // ...and becomes the chain's new canonical fallback.
        let idx = grown.lookup_index(pair(1, 77)).unwrap();
        assert_eq!(grown.row(idx).labels, pair(1, 1));
    }

    #[test]
    fn prefetch_is_a_safe_noop_hint() {
        let fib = CompiledFib::build(1, vec![row(1, 2, 10)]);
        fib.prefetch_row(0);
        fib.prefetch_row(FIB_MISS); // out of range: ignored
        prefetch_read(std::ptr::null::<u64>()); // any address is fine
    }
}
