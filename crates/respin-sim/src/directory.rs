//! MESI directory controller.
//!
//! One instance lives at each shared level that keeps private children
//! coherent: the cluster L2 tracks its private L1s (in the `Private` L1
//! organisation), and the chip L3 tracks the four cluster L2s. Each entry
//! holds a sharer bitmask and an optional owner (the single child holding
//! the line Modified).
//!
//! The directory decides *protocol outcomes*; the caller applies them to the
//! child tag arrays and charges the latency/energy adders from
//! [`crate::consts`].
//!
//! # Storage: dense open addressing, canonical order at boundaries
//!
//! Entries live in an open-addressed table keyed by block address (linear
//! probing with backward-shift deletion), not in a `BTreeMap`: the lookup
//! on every miss/upgrade is a single multiply-shift hash plus a short
//! probe over a contiguous slot array, instead of a pointer chase through
//! tree nodes, and steady-state traffic allocates nothing.
//!
//! The *physical* slot order is history-dependent (it depends on the
//! insertion/removal sequence), so it is never allowed to escape: every
//! observable traversal — [`Directory::check_invariants`] witnesses,
//! `Debug` — first materialises the entries in ascending address order,
//! and equality compares entries by address. That is the same
//! canonical-order-at-boundaries argument the determinism lint (D001)
//! encodes for maps: internal layout may be anything, but anything
//! *reported* must be a pure function of the map contents.
//!
//! The old tree-backed implementation is retained, in tests only, as
//! `reference::BTreeDirectory`, the oracle for differential tests.

use crate::cache::LineState;
use crate::journal::{Journal, Journaled};
use std::fmt;

/// Outcome of a read request at the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The line had to be fetched from a Modified sibling (who is
    /// downgraded to Shared).
    pub remote_fetch_from: Option<u8>,
    /// State the requesting child should install the line in.
    pub fill_state: LineState,
    /// Children that already held the line before this read (they may hold
    /// it Exclusive and must be downgraded to Shared).
    pub prior_sharers: u64,
}

/// Outcome of a write (ownership) request at the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Bitmask of children whose copies must be invalidated.
    pub invalidate_mask: u64,
    /// The line had to be fetched from a Modified sibling first.
    pub remote_fetch_from: Option<u8>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DirEntry {
    sharers: u64,
    owner: Option<u8>,
}

/// One open-addressing slot: a key/entry pair plus liveness. A dead slot
/// carries stale key/entry bytes that are never read.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    key: u64,
    entry: DirEntry,
    used: bool,
}

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    entry: DirEntry {
        sharers: 0,
        owner: None,
    },
    used: false,
};

/// Fibonacci multiplier for the multiply-shift hash (2^64 / φ, odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest table allocated once the directory is non-empty.
const MIN_CAPACITY: usize = 64;

/// Directory over up to 64 children.
///
/// Backed by a dense open-addressed table (see the module docs for the
/// canonical-order-at-boundaries determinism argument). The table grows at
/// 3/4 load and uses backward-shift deletion, so probe chains stay short
/// and no tombstones accumulate.
#[derive(Default)]
pub struct Directory {
    /// Power-of-two slot array (empty until the first insertion).
    slots: Vec<Slot>,
    /// Number of live entries.
    live: usize,
    /// Slots written since the oracle's last rebase (bookkeeping only:
    /// outside equality and `Debug`).
    journal: Journal,
}

// `clone_from` keeps the slot array's allocation. Between two
// directories that share a journal base it copies only the slots either
// journal lists (see `crate::journal`); a table that grew since the base
// has an "all" journal and is copied in full.
impl Clone for Directory {
    fn clone(&self) -> Self {
        let Self {
            slots,
            live,
            journal,
        } = self;
        Self {
            slots: slots.clone(),
            live: *live,
            journal: journal.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            slots,
            live,
            journal,
        } = source;
        if self.slots.len() == slots.len() && self.journal.shares_base_with(journal) {
            let dst = &mut self.slots;
            self.journal.for_each_dirty(journal, |i| dst[i] = slots[i]);
            self.journal.adopt(journal);
            debug_assert!(self.slots == *slots, "journaled slot copy diverged");
        } else {
            self.slots.clone_from(slots);
            self.journal.clone_from(journal);
        }
        self.live = *live;
    }
}

impl Journaled for Directory {
    fn pair_journals(
        &mut self,
        base: Option<&Self>,
        f: &mut dyn FnMut(&mut Journal, Option<&Journal>),
    ) {
        f(&mut self.journal, base.map(|b| &b.journal));
    }
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Home slot index for `key` (table must be non-empty).
    #[inline]
    fn home(&self, key: u64) -> usize {
        // Multiply-shift: the high bits of key * 2^64/φ, folded down to
        // the table size. Block addresses share low zero bits; the
        // multiply diffuses them across the whole word.
        (key.wrapping_mul(HASH_MUL) >> 32) as usize & (self.slots.len() - 1)
    }

    /// Index of `key`'s live slot, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = &self.slots[i];
            if !s.used {
                return None;
            }
            if s.key == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Mutable entry for `key`, inserted (default) if absent.
    fn entry_mut(&mut self, key: u64) -> &mut DirEntry {
        if self.slots.len() * 3 < (self.live + 1) * 4 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            if !self.slots[i].used {
                self.slots[i] = Slot {
                    key,
                    entry: DirEntry::default(),
                    used: true,
                };
                self.live += 1;
                self.journal.record(i);
                return &mut self.slots[i].entry;
            }
            if self.slots[i].key == key {
                // The caller writes the entry through the reference.
                self.journal.record(i);
                return &mut self.slots[i].entry;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (or allocates the first one) and re-homes every
    /// live entry. Amortised over insertions; steady-state traffic never
    /// gets here.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        self.journal.relayout(new_cap);
        let mask = new_cap - 1;
        for s in old.into_iter().filter(|s| s.used) {
            let mut i = self.home(s.key);
            while self.slots[i].used {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Removes the live slot at `i`, backward-shifting the probe chain so
    /// no tombstone is left behind.
    fn remove_at(&mut self, i: usize) {
        let mask = self.slots.len() - 1;
        self.live -= 1;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if !self.slots[j].used {
                self.slots[hole].used = false;
                self.journal.record(hole);
                return;
            }
            let home = self.home(self.slots[j].key);
            // `j` may fill the hole iff its probe distance reaches back to
            // (or past) the hole; otherwise moving it would place it
            // before its home slot.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                self.journal.record(hole);
                hole = j;
            }
        }
    }

    /// Live entries in ascending address order — the canonical traversal
    /// every reported view (invariant witnesses, `Debug`) goes through.
    fn sorted_entries(&self) -> Vec<(u64, DirEntry)> {
        let mut v: Vec<(u64, DirEntry)> = self
            .slots
            .iter()
            .filter(|s| s.used)
            .map(|s| (s.key, s.entry))
            .collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Child `child` wants to read `line` (block-aligned address).
    pub fn read(&mut self, line: u64, child: u8) -> ReadOutcome {
        let e = self.entry_mut(line);
        let prior = e.sharers & !(1 << child);
        let remote = match e.owner {
            Some(o) if o != child => {
                // Downgrade the owner; both end up Shared.
                e.owner = None;
                Some(o)
            }
            _ => None,
        };
        e.sharers |= 1 << child;
        let alone = e.sharers == 1 << child && e.owner.is_none();
        ReadOutcome {
            remote_fetch_from: remote,
            fill_state: if alone {
                LineState::Exclusive
            } else {
                LineState::Shared
            },
            prior_sharers: prior,
        }
    }

    /// Child `child` wants ownership of `line` to write it.
    pub fn write(&mut self, line: u64, child: u8) -> WriteOutcome {
        let e = self.entry_mut(line);
        let remote = match e.owner {
            Some(o) if o != child => Some(o),
            _ => None,
        };
        let invalidate = e.sharers & !(1 << child);
        e.sharers = 1 << child;
        e.owner = Some(child);
        WriteOutcome {
            invalidate_mask: invalidate,
            remote_fetch_from: remote,
        }
    }

    /// Child `child` evicted its copy of `line`.
    pub fn evict(&mut self, line: u64, child: u8) {
        if let Some(i) = self.find(line) {
            self.journal.record(i);
            let e = &mut self.slots[i].entry;
            e.sharers &= !(1 << child);
            if e.owner == Some(child) {
                e.owner = None;
            }
            if e.sharers == 0 {
                self.remove_at(i);
            }
        }
    }

    /// Current sharer mask (testing/diagnostics).
    pub fn sharers(&self, line: u64) -> u64 {
        self.find(line).map_or(0, |i| self.slots[i].entry.sharers)
    }

    /// Current owner (testing/diagnostics).
    pub fn owner(&self, line: u64) -> Option<u8> {
        self.find(line).and_then(|i| self.slots[i].entry.owner)
    }

    /// Number of tracked lines.
    pub fn tracked_lines(&self) -> usize {
        self.live
    }

    /// Protocol invariant: an owner is always the sole sharer. Witnesses
    /// are reported in ascending address order (canonical, never layout
    /// order).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (line, e) in self.sorted_entries() {
            if let Some(o) = e.owner {
                if e.sharers != 1 << o {
                    return Err(format!(
                        "line {line:#x}: owner {o} but sharers {:#b}",
                        e.sharers
                    ));
                }
            }
            if e.sharers == 0 {
                return Err(format!("line {line:#x} tracked with no sharers"));
            }
        }
        Ok(())
    }
}

/// Equality is over map contents, not slot layout: two directories that
/// hold the same entries compare equal regardless of the operation
/// histories that produced them.
impl PartialEq for Directory {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live
            && self
                .slots
                .iter()
                .filter(|s| s.used)
                .all(|s| other.find(s.key).map(|i| other.slots[i].entry) == Some(s.entry))
    }
}

/// Debug shows the canonical (address-ordered) view, so diagnostics that
/// embed a directory — proptest failure messages, invariant reports — are
/// pure functions of the state.
impl fmt::Debug for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Directory")
            .field("entries", &self.sorted_entries())
            .finish()
    }
}

/// The retained `BTreeMap` implementation: the differential-test oracle
/// the dense table is checked against (same protocol logic, tree-backed
/// storage whose iteration order is trivially canonical).
#[cfg(test)]
mod reference {
    use super::{DirEntry, LineState, ReadOutcome, WriteOutcome};
    use std::collections::BTreeMap;

    /// Tree-backed directory with the exact pre-dense-table behaviour.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct BTreeDirectory {
        entries: BTreeMap<u64, DirEntry>,
    }

    impl BTreeDirectory {
        /// Empty directory.
        pub fn new() -> Self {
            Self::default()
        }

        /// Child `child` wants to read `line`.
        pub fn read(&mut self, line: u64, child: u8) -> ReadOutcome {
            let e = self.entries.entry(line).or_default();
            let prior = e.sharers & !(1 << child);
            let remote = match e.owner {
                Some(o) if o != child => {
                    e.owner = None;
                    Some(o)
                }
                _ => None,
            };
            e.sharers |= 1 << child;
            let alone = e.sharers == 1 << child && e.owner.is_none();
            ReadOutcome {
                remote_fetch_from: remote,
                fill_state: if alone {
                    LineState::Exclusive
                } else {
                    LineState::Shared
                },
                prior_sharers: prior,
            }
        }

        /// Child `child` wants ownership of `line` to write it.
        pub fn write(&mut self, line: u64, child: u8) -> WriteOutcome {
            let e = self.entries.entry(line).or_default();
            let remote = match e.owner {
                Some(o) if o != child => Some(o),
                _ => None,
            };
            let invalidate = e.sharers & !(1 << child);
            e.sharers = 1 << child;
            e.owner = Some(child);
            WriteOutcome {
                invalidate_mask: invalidate,
                remote_fetch_from: remote,
            }
        }

        /// Child `child` evicted its copy of `line`.
        pub fn evict(&mut self, line: u64, child: u8) {
            if let Some(e) = self.entries.get_mut(&line) {
                e.sharers &= !(1 << child);
                if e.owner == Some(child) {
                    e.owner = None;
                }
                if e.sharers == 0 {
                    self.entries.remove(&line);
                }
            }
        }

        /// Current sharer mask.
        pub fn sharers(&self, line: u64) -> u64 {
            self.entries.get(&line).map_or(0, |e| e.sharers)
        }

        /// Current owner.
        pub fn owner(&self, line: u64) -> Option<u8> {
            self.entries.get(&line).and_then(|e| e.owner)
        }

        /// Number of tracked lines.
        pub fn tracked_lines(&self) -> usize {
            self.entries.len()
        }

        /// Entry lines in ascending order.
        pub fn lines(&self) -> impl Iterator<Item = u64> + '_ {
            self.entries.keys().copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reader_gets_exclusive() {
        let mut d = Directory::new();
        let o = d.read(0x100, 3);
        assert_eq!(o.fill_state, LineState::Exclusive);
        assert_eq!(o.remote_fetch_from, None);
        assert_eq!(d.sharers(0x100), 1 << 3);
    }

    #[test]
    fn second_reader_gets_shared() {
        let mut d = Directory::new();
        d.read(0x100, 0);
        let o = d.read(0x100, 1);
        assert_eq!(o.fill_state, LineState::Shared);
        assert_eq!(d.sharers(0x100), 0b11);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.read(0x100, 0);
        d.read(0x100, 1);
        d.read(0x100, 2);
        let o = d.write(0x100, 1);
        assert_eq!(o.invalidate_mask, 0b101);
        assert_eq!(o.remote_fetch_from, None);
        assert_eq!(d.owner(0x100), Some(1));
        assert_eq!(d.sharers(0x100), 0b10);
    }

    #[test]
    fn read_after_modified_downgrades_owner() {
        let mut d = Directory::new();
        d.write(0x100, 0);
        let o = d.read(0x100, 1);
        assert_eq!(o.remote_fetch_from, Some(0));
        assert_eq!(o.fill_state, LineState::Shared);
        assert_eq!(d.owner(0x100), None);
        assert_eq!(d.sharers(0x100), 0b11);
    }

    #[test]
    fn write_after_remote_modified_fetches_and_invalidates() {
        let mut d = Directory::new();
        d.write(0x100, 0);
        let o = d.write(0x100, 1);
        assert_eq!(o.remote_fetch_from, Some(0));
        assert_eq!(o.invalidate_mask, 0b01);
        assert_eq!(d.owner(0x100), Some(1));
    }

    #[test]
    fn own_write_upgrade_is_free() {
        let mut d = Directory::new();
        d.read(0x100, 2);
        let o = d.write(0x100, 2);
        assert_eq!(o.invalidate_mask, 0);
        assert_eq!(o.remote_fetch_from, None);
    }

    #[test]
    fn debug_form_is_independent_of_construction_order() {
        // The D001 regression this module was converted for: with a
        // HashMap, two directories holding the *same* entries print (and
        // report invariant witnesses) in hasher order, which varies per
        // process. The dense table's slot layout *does* depend on the op
        // order, but `Debug` is materialised in canonical order at the
        // boundary, so it must be identical however the state was
        // reached.
        let build = |lines: &[u64]| {
            let mut d = Directory::new();
            for &line in lines {
                d.read(line, 1);
                d.read(line, 2);
            }
            d
        };
        let a = build(&[0x100, 0x240, 0x080, 0x5c0]);
        let b = build(&[0x5c0, 0x080, 0x100, 0x240]);
        assert_eq!(a, b);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "a directory's Debug must not depend on op order"
        );
    }

    #[test]
    fn entries_iterate_in_address_order() {
        // check_invariants walks the entries, so its first witness (and
        // any future diagnostic traversal) must be a pure function of the
        // state: ascending line address, never slot-layout order.
        let mut d = Directory::new();
        for line in [0x400u64, 0x100, 0x7c0, 0x240] {
            d.read(line, 0);
        }
        let walked: Vec<u64> = d.sorted_entries().iter().map(|&(k, _)| k).collect();
        assert_eq!(walked, vec![0x100, 0x240, 0x400, 0x7c0]);
    }

    #[test]
    fn eviction_untracks_empty_lines() {
        let mut d = Directory::new();
        d.read(0x100, 0);
        d.read(0x100, 1);
        d.evict(0x100, 0);
        assert_eq!(d.sharers(0x100), 0b10);
        d.evict(0x100, 1);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn a_table_that_grew_falls_back_to_a_full_copy_until_the_next_rebase() {
        let mut base = Directory::new();
        for i in 0..40u64 {
            base.read(i << 6, 0);
        }
        crate::journal::rebase(&mut base, []);
        let mut trial = base.clone();
        trial.evict(3 << 6, 0);
        assert!(trial.journal.shares_base_with(&base.journal));
        trial.clone_from(&base);
        assert_eq!(trial.slots, base.slots);
        // Past 3/4 load the base's table doubles and re-homes every slot.
        for i in 40..60u64 {
            base.write(i << 6, 1);
        }
        assert_eq!(base.slots.len(), 128);
        assert!(!trial.journal.shares_base_with(&base.journal));
        trial.clone_from(&base);
        assert_eq!(trial.slots, base.slots);
        // The trial's copy adopted the grown base's "all" journal, so the
        // rebase cannot vouch for it: one more full copy, then journaled.
        crate::journal::rebase(&mut base, [&mut trial]);
        assert!(!trial.journal.shares_base_with(&base.journal));
        trial.clone_from(&base);
        trial.read(7 << 6, 2);
        assert!(trial.journal.shares_base_with(&base.journal));
        trial.clone_from(&base);
        assert_eq!(
            (trial.slots.as_slice(), trial.live),
            (base.slots.as_slice(), base.live)
        );
    }

    #[test]
    fn table_grows_and_shrunken_chains_stay_consistent() {
        // Push well past the initial capacity, then evict everything:
        // growth re-homing and backward-shift deletion must preserve
        // every entry and leave no tombstone artefacts behind.
        let mut d = Directory::new();
        for i in 0..500u64 {
            d.read(i << 6, (i % 8) as u8);
        }
        assert_eq!(d.tracked_lines(), 500);
        for i in 0..500u64 {
            assert_eq!(d.sharers(i << 6), 1 << (i % 8), "line {i} after growth");
        }
        for i in (0..500u64).rev() {
            d.evict(i << 6, (i % 8) as u8);
        }
        assert_eq!(d.tracked_lines(), 0);
        assert!(d.check_invariants().is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::BTreeDirectory;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn invariants_hold_under_random_traffic(
            ops in proptest::collection::vec(
                (0u64..8, 0u8..8, 0u8..3), 1..500),
        ) {
            let mut d = Directory::new();
            for (line, child, kind) in ops {
                let line = line << 6;
                match kind {
                    0 => { d.read(line, child); }
                    1 => { d.write(line, child); }
                    _ => { d.evict(line, child); }
                }
                prop_assert!(d.check_invariants().is_ok(), "{:?}", d);
            }
        }

        #[test]
        fn writer_is_always_sole_sharer(
            readers in proptest::collection::vec(0u8..16, 0..16),
            writer in 0u8..16,
        ) {
            let mut d = Directory::new();
            for r in readers {
                d.read(0x40, r);
            }
            d.write(0x40, writer);
            prop_assert_eq!(d.sharers(0x40), 1u64 << writer);
            prop_assert_eq!(d.owner(0x40), Some(writer));
        }

        /// Three directories driven through the oracle's rebase → mutate
        /// → `clone_from` → swap protocol. A wide line space and a
        /// random prefill make tables grow (the copy then falls back to
        /// a full one) and evictions backward-shift probe chains; every
        /// re-sync must equal a full clone slot for slot.
        #[test]
        fn journaled_resync_matches_a_full_clone(
            prefill in 0u64..400,
            steps in proptest::collection::vec(
                (0u8..16, (0u64..640, 0u8..8, 0u8..3)), 1..600),
        ) {
            let mut init = Directory::new();
            for line in 0..prefill {
                init.read(line << 6, (line % 8) as u8);
            }
            let (journaled, resyncs) = crate::journal::drive_protocol(
                init,
                &steps,
                |d| &d.journal,
                |d, &(line, child, kind)| match kind {
                    0 => { d.read(line << 6, child); }
                    1 => { d.write(line << 6, child); }
                    _ => { d.evict(line << 6, child); }
                },
                |a, b| a.slots == b.slots && a.live == b.live,
            )?;
            prop_assert!(journaled <= resyncs);
            prop_assert!(journaled > 0 || resyncs < 4, "no re-sync was journaled");
        }

        /// The dense table against the retained BTreeMap oracle: every
        /// protocol outcome, every observable query, and the address-ordered
        /// entries must agree op-for-op under random traffic (including the
        /// growth and backward-shift-deletion paths — a wide line space
        /// forces both).
        #[test]
        fn dense_table_matches_btreemap_reference(
            ops in proptest::collection::vec(
                (0u64..512, 0u8..8, 0u8..3), 1..1000),
        ) {
            let mut dense = Directory::new();
            let mut oracle = BTreeDirectory::new();
            for (i, (line, child, kind)) in ops.into_iter().enumerate() {
                let line = line << 6;
                match kind {
                    0 => {
                        prop_assert_eq!(
                            dense.read(line, child),
                            oracle.read(line, child),
                            "read outcome diverged at op {}", i
                        );
                    }
                    1 => {
                        prop_assert_eq!(
                            dense.write(line, child),
                            oracle.write(line, child),
                            "write outcome diverged at op {}", i
                        );
                    }
                    _ => {
                        dense.evict(line, child);
                        oracle.evict(line, child);
                    }
                }
                prop_assert_eq!(dense.sharers(line), oracle.sharers(line));
                prop_assert_eq!(dense.owner(line), oracle.owner(line));
                prop_assert_eq!(dense.tracked_lines(), oracle.tracked_lines());
            }
            let canonical: Vec<u64> =
                dense.sorted_entries().iter().map(|&(k, _)| k).collect();
            let oracle_lines: Vec<u64> = oracle.lines().collect();
            prop_assert_eq!(canonical, oracle_lines);
            prop_assert!(dense.check_invariants().is_ok());
        }
    }
}
