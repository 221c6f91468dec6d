//! The on-line reorganizer: the three-pass algorithm of the paper.
//!
//! Pass 1 (§6, Figure 2) walks the leaves in key order, compacting groups of
//! leaves under one base page into one destination filled to the target fill
//! factor `f2` — `Copying-Switching` into a well-placed empty page when
//! `Find-Free-Space` finds one, `In-Place-Reorg` otherwise. Pass 2
//! (`Swapping-Moving`, optional) swaps/moves the compacted leaves into
//! physically contiguous key order. Pass 3 (§7) rebuilds the upper levels
//! new-place behind a side file and switches trees.
//!
//! Each unit follows the §4.1.1 reorganizer protocol: IX on the tree lock,
//! S then R on the base page(s), RX on the unit's leaves (and X on
//! side-pointer neighbours under other parents, acquired *before* moving
//! records so deadlock-induced undo is rare), move records, upgrade the base
//! locks to X for the short MODIFY, release. Units log
//! BEGIN/MOVE/MODIFY/END per §5; at a deadlock the reorganizer is the
//! victim and the unit is undone via compensating moves (§5.2).

use obr_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obr_sync::Mutex;

use obr_btree::leaf::LEAF_BODY;
use obr_btree::{LeafRef, LeafView, NodeRef, NodeView, SmoGuard};
use obr_lock::{LockError, LockMode, OwnerId, ResourceId};
use obr_obs::TraceKind;
use obr_storage::{Lsn, Page, PageId, PageType, PAGE_SIZE};
use obr_wal::{LogRecord, MovePayload, ReorgKind, UnitId};

use crate::db::Database;
use crate::error::{CoreError, CoreResult};

/// What a MOVE record carries (§5; experiment E6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogStrategy {
    /// Keys only; the buffer pool's careful-writing constraints make this
    /// safe (the paper's preferred mode).
    KeysOnly,
    /// Full record bodies (no careful writing assumed).
    FullRecords,
}

/// Empty-page placement policy for `Find-Free-Space` (experiment E3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementPolicy {
    /// §6.1: the first empty page after the largest finished leaf L and
    /// before the current leaf C.
    Heuristic,
    /// First free page anywhere (naive baseline).
    FirstFree,
    /// A random free page (worst-case baseline); the seed keeps runs
    /// reproducible.
    Random(u64),
    /// Never use new-place copy: always compact in place.
    InPlaceOnly,
}

/// Injected failure sites for crash experiments (E5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailSite {
    /// Right after a unit's BEGIN record.
    AfterUnitBegin,
    /// After the first MOVE of a unit was logged and applied.
    AfterFirstMove,
    /// After all moves, before the base-page MODIFY.
    BeforeModify,
    /// After MODIFY, before END.
    BeforeEnd,
    /// After a pass-3 stable point.
    Pass3AfterStable,
    /// Just before the pass-3 switch.
    Pass3BeforeSwitch,
}

/// A one-shot fail point: fires (returns an error) the `countdown`-th time
/// its site is reached.
#[derive(Debug)]
pub struct FailPoint {
    site: FailSite,
    countdown: AtomicU64,
}

impl FailPoint {
    /// Fire the `nth` time `site` is reached (0 = first).
    pub fn new(site: FailSite, nth: u64) -> FailPoint {
        FailPoint {
            site,
            countdown: AtomicU64::new(nth),
        }
    }

    fn check(&self, site: FailSite) -> CoreResult<()> {
        if site == self.site && self.countdown.fetch_sub(1, Ordering::SeqCst) == 0 {
            return Err(CoreError::InjectedCrash(match site {
                FailSite::AfterUnitBegin => "after-unit-begin",
                FailSite::AfterFirstMove => "after-first-move",
                FailSite::BeforeModify => "before-modify",
                FailSite::BeforeEnd => "before-end",
                FailSite::Pass3AfterStable => "pass3-after-stable",
                FailSite::Pass3BeforeSwitch => "pass3-before-switch",
            }));
        }
        Ok(())
    }
}

/// Reorganizer configuration.
#[derive(Clone, Debug)]
pub struct ReorgConfig {
    /// Target leaf fill factor `f2` (§6).
    pub target_fill: f64,
    /// MOVE logging strategy.
    pub log_strategy: LogStrategy,
    /// Empty-page placement policy.
    pub placement: PlacementPolicy,
    /// Run pass 2 (the paper makes it optional).
    pub swap_pass: bool,
    /// Run pass 3.
    pub shrink_pass: bool,
    /// Pass-3 stable point interval, in base pages read (§7.3 "say 5").
    pub stable_interval: usize,
    /// Fill factor for new internal pages (pass 3).
    pub node_fill: f64,
    /// Give up on a unit after this many deadlock retries.
    pub max_unit_retries: u32,
}

impl Default for ReorgConfig {
    fn default() -> Self {
        ReorgConfig {
            target_fill: 0.9,
            log_strategy: LogStrategy::KeysOnly,
            placement: PlacementPolicy::Heuristic,
            swap_pass: true,
            shrink_pass: true,
            stable_interval: 5,
            node_fill: 0.9,
            max_unit_retries: 10,
        }
    }
}

/// When to reorganize (§6: "choosing to do swapping only when range query
/// performance falls below some acceptable level"). Checked by
/// [`Reorganizer::run_if_needed`].
#[derive(Clone, Copy, Debug)]
pub struct ReorgTrigger {
    /// Compact (pass 1) when the average leaf fill drops below this.
    pub min_fill: f64,
    /// Swap (pass 2) when more than this fraction of key-adjacent leaf
    /// pairs are physically non-adjacent.
    pub max_disorder: f64,
    /// Never run pass 2 on trees smaller than this many leaves: a couple
    /// of leaves interleaved with immovable internal pages (no §6 region
    /// split) would otherwise re-trigger forever without any gain.
    pub min_leaves_for_swap: usize,
    /// Shrink (pass 3) when the upper levels could lose a level at the
    /// configured node fill.
    pub shrink: bool,
}

impl Default for ReorgTrigger {
    fn default() -> Self {
        ReorgTrigger {
            min_fill: 0.5,
            max_disorder: 0.25,
            min_leaves_for_swap: 8,
            shrink: true,
        }
    }
}

/// What [`Reorganizer::run_if_needed`] decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorgDecision {
    /// Pass 1 ran.
    pub compacted: bool,
    /// Pass 2 ran.
    pub swapped: bool,
    /// Pass 3 ran.
    pub shrunk: bool,
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorgStats {
    /// Reorganization units completed.
    pub units: u64,
    /// Pass-1 in-place compactions.
    pub inplace_units: u64,
    /// Pass-1 new-place copy-and-switch units.
    pub copy_switch_units: u64,
    /// Pass-2 swaps (expensive: full-page logging, two parents).
    pub swaps: u64,
    /// Pass-2 moves to empty pages (cheap).
    pub moves: u64,
    /// Records moved across all units.
    pub records_moved: u64,
    /// Leaf pages freed by compaction.
    pub pages_freed: u64,
    /// Units retried after a deadlock (reorganizer is the victim, §4.1).
    pub deadlock_retries: u64,
    /// Units undone after records had already moved (§5.2).
    pub units_undone: u64,
    /// Pass-3 base pages read.
    pub base_pages_read: u64,
    /// Pass-3 stable points taken.
    pub stable_points: u64,
    /// Side-file entries applied during catch-up and switch.
    pub side_entries_applied: u64,
    /// Pass-2 placements skipped after repeated deadlocks (the paper
    /// tolerates an imperfectly ordered result).
    pub skipped_placements: u64,
}

struct MoveJournal {
    org: PageId,
    dest: PageId,
    records: Vec<(u64, Vec<u8>)>,
}

/// One planned pass-1 unit: the base page, the `(entry key, leaf)` group,
/// the group's total record bytes, and the largest record key covered.
type PlannedGroup = (PageId, Vec<(u64, PageId)>, usize, Option<u64>);

/// The reorganizer. One instance runs the whole three-pass algorithm as a
/// single background process (the paper's design: less overhead than one
/// transaction per block operation as in \[Smi90\]).
///
/// ```
/// use std::sync::Arc;
/// use obr_core::{Database, ReorgConfig, Reorganizer};
/// use obr_btree::SidePointerMode;
/// use obr_storage::InMemoryDisk;
///
/// let disk = Arc::new(InMemoryDisk::new(4096));
/// let db = Database::create(disk, 4096, SidePointerMode::TwoWay).unwrap();
/// // Bulk-load a deliberately sparse tree (fill 0.25)...
/// let records: Vec<(u64, Vec<u8>)> = (0..500).map(|k| (k, vec![0; 64])).collect();
/// db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
/// // ...and reorganize it on-line.
/// let reorg = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
/// reorg.run().unwrap();
/// assert!(db.tree().stats().unwrap().avg_leaf_fill > 0.7);
/// assert_eq!(db.tree().validate().unwrap(), 500);
/// ```
pub struct Reorganizer {
    db: Arc<Database>,
    cfg: ReorgConfig,
    owner: OwnerId,
    next_unit: AtomicU64,
    fail: Option<FailPoint>,
    rng: Mutex<u64>,
    pub(crate) stats: Mutex<ReorgStats>,
}

fn image_of(page: &Page) -> Box<[u8; PAGE_SIZE]> {
    Box::new(*page.bytes())
}

impl Drop for Reorganizer {
    fn drop(&mut self) {
        // Keep the lock manager's victim-preference set tidy across
        // repeated daemon cycles.
        self.db.locks().unregister_reorganizer(self.owner);
        self.db.locks().release_all(self.owner);
    }
}

impl Reorganizer {
    /// Create a reorganizer over `db`.
    pub fn new(db: Arc<Database>, cfg: ReorgConfig) -> Reorganizer {
        let owner = db.new_owner();
        db.locks().register_reorganizer(owner);
        Reorganizer {
            db,
            cfg,
            owner,
            next_unit: AtomicU64::new(1),
            fail: None,
            rng: Mutex::named(0x9E37_79B9_7F4A_7C15, "reorg.rng"),
            stats: Mutex::named(ReorgStats::default(), "reorg.stats"),
        }
    }

    /// Install a fail point (crash experiments).
    pub fn with_fail_point(mut self, fp: FailPoint) -> Reorganizer {
        self.fail = Some(fp);
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> ReorgStats {
        *self.stats.lock()
    }

    /// The reorganizer's lock-owner id.
    pub fn owner(&self) -> OwnerId {
        self.owner
    }

    pub(crate) fn db_handle(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    pub(crate) fn config(&self) -> &ReorgConfig {
        &self.cfg
    }

    pub(crate) fn check_fail(&self, site: FailSite) -> CoreResult<()> {
        match &self.fail {
            Some(fp) => fp.check(site),
            None => Ok(()),
        }
    }

    fn next_unit_id(&self) -> UnitId {
        UnitId(self.next_unit.fetch_add(1, Ordering::Relaxed))
    }

    /// Inspect the tree and run only the passes the trigger calls for.
    /// Returns which passes ran.
    pub fn run_if_needed(&self, trigger: ReorgTrigger) -> CoreResult<ReorgDecision> {
        let stats = self.db.tree().stats()?;
        let mut decision = ReorgDecision::default();
        if stats.leaf_pages == 0 {
            return Ok(decision);
        }
        if stats.avg_leaf_fill < trigger.min_fill {
            self.pass1_compact()?;
            decision.compacted = true;
        }
        let stats = self.db.tree().stats()?;
        let disorder = stats.leaf_discontinuities() as f64 / (stats.leaf_pages.max(2) - 1) as f64;
        if stats.leaf_pages >= trigger.min_leaves_for_swap && disorder > trigger.max_disorder {
            self.pass2_swap_move()?;
            decision.swapped = true;
        }
        if trigger.shrink {
            // Worth shrinking when the rebuilt upper level would be at
            // least one level flatter: compare the current height with the
            // height a bottom-up build at node_fill would produce.
            let stats = self.db.tree().stats()?;
            let per_page =
                ((obr_btree::node::NODE_CAPACITY as f64 * self.cfg.node_fill) as usize).max(2);
            let mut pages = stats.leaf_pages;
            let mut ideal_height = 0u8;
            while pages > 1 {
                pages = pages.div_ceil(per_page);
                ideal_height += 1;
            }
            if stats.height > ideal_height {
                self.pass3_shrink()?;
                decision.shrunk = true;
            }
        }
        Ok(decision)
    }

    /// Run all configured passes.
    pub fn run(&self) -> CoreResult<ReorgStats> {
        self.pass1_compact()?;
        if self.cfg.swap_pass {
            self.pass2_swap_move()?;
        }
        if self.cfg.shrink_pass {
            self.pass3_shrink()?;
        }
        Ok(self.stats())
    }

    // ------------------------------------------------------------------
    // Pass 1: compact leaves (Figure 2).
    // ------------------------------------------------------------------

    /// Pass 1: compact groups of same-parent leaves to the target fill.
    /// Restartable: begins after LK, the largest key of the last finished
    /// unit (§5). On successful completion LK is cleared, so the *next*
    /// reorganization sweeps the whole tree again.
    pub fn pass1_compact(&self) -> CoreResult<()> {
        let units_before = self.db.core_metrics().units_completed.get();
        self.db.tracer().emit(TraceKind::PassEnter, 0, 1, 0, 0, 0);
        self.pass1_compact_inner()?;
        self.db.reorg_table().clear_lk();
        let units = self.db.core_metrics().units_completed.get() - units_before;
        self.db
            .tracer()
            .emit(TraceKind::PassExit, 0, 1, 0, units, 0);
        Ok(())
    }

    fn pass1_compact_inner(&self) -> CoreResult<()> {
        let tree = self.db.tree();
        let mut cur_key = self
            .db
            .reorg_table()
            .lk()
            .map(|k| k.saturating_add(1))
            .unwrap_or(0);
        // Largest finished leaf page id L (§6.1): new pages always land
        // after it, so compacted data migrates toward the start of the leaf
        // region.
        let mut largest_done: Option<PageId> = None;
        let budget = (LEAF_BODY as f64 * self.cfg.target_fill) as usize;
        loop {
            let (_, height) = tree.anchor()?;
            if height == 0 {
                return Ok(()); // a root leaf has nothing to compact
            }
            // Snapshot the base page and its candidate entries.
            let Some((base, group, group_bytes, last_key)) = self.plan_group(cur_key, budget)?
            else {
                return Ok(()); // past the last key: pass 1 done
            };
            if group.len() < 2 {
                // A single leaf is as compact as the same-parent constraint
                // allows; pass 2 may still move it.
                let next = match last_key {
                    Some(k) => k.saturating_add(1),
                    None => return Ok(()),
                };
                if next <= cur_key {
                    return Ok(()); // frontier cannot advance: done
                }
                cur_key = next;
                continue;
            }
            let first_leaf = group[0].1;
            let dest = match self.find_free_space(largest_done, first_leaf, group_bytes) {
                Some(empty) => empty,
                None => first_leaf,
            };
            let largest_key = match self.run_unit_with_retries(base, &group, dest) {
                Ok(k) => k,
                Err(e) => {
                    // Return the reserved empty page on give-up; skip for
                    // injected crashes (which model power loss, where the
                    // page may already hold moved records on disk).
                    if dest != first_leaf && !matches!(e, CoreError::InjectedCrash(_)) {
                        self.db.fsm().free(dest);
                    }
                    return Err(e);
                }
            };
            largest_done = Some(match largest_done {
                Some(l) => l.max(dest),
                None => dest,
            });
            let next = largest_key.saturating_add(1);
            if next <= cur_key {
                return Ok(()); // frontier cannot advance: done
            }
            cur_key = next;
        }
    }

    /// `Find-Free-Space` (§6.1 / Figure 2) under the configured policy.
    /// Returns a *reserved* empty page, or `None` for in-place compaction.
    fn find_free_space(
        &self,
        largest_done: Option<PageId>,
        current: PageId,
        _bytes: usize,
    ) -> Option<PageId> {
        let fsm = self.db.fsm();
        match self.cfg.placement {
            PlacementPolicy::InPlaceOnly => None,
            PlacementPolicy::Heuristic => {
                // The open interval starts after the largest finished leaf,
                // but never below the leaf region (§6 two-region layout):
                // placing a leaf among the internal pages would undo the
                // ordering the heuristic exists to create.
                let floor = PageId(fsm.leaf_boundary().0.saturating_sub(1));
                let after = largest_done.unwrap_or(floor).max(floor);
                fsm.allocate_in(after, current)
            }
            PlacementPolicy::FirstFree => fsm.allocate(),
            PlacementPolicy::Random(_) => {
                let free = fsm.free_pages();
                if free.is_empty() {
                    return None;
                }
                let mut rng = self.rng.lock();
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                let pick = free[(*rng as usize) % free.len()];
                fsm.allocate_specific(pick).then_some(pick)
            }
        }
    }

    /// Choose the next group of same-parent leaves starting at `cur_key`.
    /// Returns `(base, [(entry_key, leaf)], total_bytes, last_record_key)`.
    fn plan_group(&self, cur_key: u64, budget: usize) -> CoreResult<Option<PlannedGroup>> {
        let tree = self.db.tree();
        let pool = self.db.pool();
        // Descend for cur_key; if this base has no entry at/after cur_key,
        // hop to the next base page by probing with the base's largest key.
        let mut probe = cur_key;
        for _ in 0..1_000_000 {
            let path = tree.path_for(probe)?;
            if path.len() < 2 {
                return Ok(None);
            }
            let base = path[path.len() - 2];
            let entries = tree.base_entries(base)?;
            // Candidate entries: those covering keys >= cur_key. An entry
            // covers cur_key if its successor's key > cur_key.
            let mut candidates: Vec<(u64, PageId)> = Vec::new();
            for (i, &(k, leaf)) in entries.iter().enumerate() {
                let next_key = entries.get(i + 1).map(|e| e.0);
                let covers_future = next_key.map(|nk| nk > cur_key).unwrap_or(true);
                if k >= cur_key || covers_future {
                    candidates.push((k, leaf));
                }
            }
            if candidates.is_empty() {
                // cur_key is past this base's range; probe the next base.
                let Some(&(last_key, _)) = entries.last() else {
                    return Ok(None);
                };
                let (_, tree_last) = self.tree_key_bounds()?;
                if probe >= tree_last {
                    return Ok(None);
                }
                probe = last_key.max(probe).saturating_add(1);
                continue;
            }
            // Greedily take leaves while they fit the byte budget.
            let mut group = Vec::new();
            let mut bytes = 0usize;
            let mut last_rec_key: Option<u64> = None;
            for (k, leaf) in candidates {
                let g = pool.fetch(leaf)?;
                let page = g.read();
                if page.page_type() != Some(PageType::Leaf) {
                    continue;
                }
                let r = LeafRef::new(&page);
                // A leaf whose records all precede the frontier was already
                // handled by an earlier unit (e.g. it *is* a previous dest).
                match r.last_key() {
                    Some(last) if last >= cur_key => {}
                    _ => continue,
                }
                let used = r.used_bytes();
                // Greedy fill: keep adding while below the f2 budget and the
                // group still fits one page (slight overshoot of f2 beats
                // the quantization undershoot).
                if !group.is_empty() && (bytes >= budget || bytes + used > LEAF_BODY) {
                    break;
                }
                if group.is_empty() && used >= budget {
                    // Already at/above target fill: nothing to gain.
                    return Ok(Some((base, vec![(k, leaf)], used, r.last_key())));
                }
                bytes += used;
                if let Some(lk) = r.last_key() {
                    last_rec_key = Some(lk);
                }
                group.push((k, leaf));
            }
            if group.is_empty() {
                // Everything under this base precedes the frontier: hop to
                // the next base page (or finish).
                let Some(&(last_key, _)) = entries.last() else {
                    return Ok(None);
                };
                let (_, tree_last) = self.tree_key_bounds()?;
                if cur_key > tree_last {
                    return Ok(None);
                }
                probe = last_key.max(probe).saturating_add(1);
                continue;
            }
            return Ok(Some((base, group, bytes, last_rec_key)));
        }
        Err(CoreError::TooManyRetries("plan_group probing".into()))
    }

    fn tree_key_bounds(&self) -> CoreResult<(u64, u64)> {
        let tree = self.db.tree();
        let leaves = tree.leaves_in_key_order()?;
        let pool = self.db.pool();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for l in leaves {
            let g = pool.fetch(l)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Leaf) {
                continue;
            }
            let r = LeafRef::new(&page);
            if let (Some(f), Some(la)) = (r.first_key(), r.last_key()) {
                lo = lo.min(f);
                hi = hi.max(la);
            }
        }
        Ok((lo, hi))
    }

    fn run_unit_with_retries(
        &self,
        base: PageId,
        group: &[(u64, PageId)],
        dest: PageId,
    ) -> CoreResult<u64> {
        let mut attempt = 0;
        loop {
            match self.compaction_unit(base, group, dest) {
                Ok(k) => return Ok(k),
                Err(CoreError::Lock(LockError::Deadlock))
                | Err(CoreError::Lock(LockError::Timeout)) => {
                    attempt += 1;
                    self.stats.lock().deadlock_retries += 1;
                    self.db.core_metrics().deadlock_retries.inc();
                    self.db.locks().release_all(self.owner);
                    if attempt > self.cfg.max_unit_retries {
                        return Err(CoreError::TooManyRetries(format!(
                            "unit on base {base} after {attempt} deadlocks"
                        )));
                    }
                    // The reorganizer is always the victim (§4.1); back off
                    // so user transactions can drain before the retry.
                    std::thread::sleep(std::time::Duration::from_millis(2 * attempt as u64));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Lock (X) the side-pointer neighbours of `[first..last]` and verify
    /// they did not change between the read and the lock grant (a
    /// concurrent split can otherwise slip a new leaf in between). Pages in
    /// `skip` (the unit's own leaves, already RX-locked) are not locked;
    /// pages recorded in `held` stay locked across retries.
    fn lock_chain_neighbours(
        &self,
        first: PageId,
        last: PageId,
        skip: &[PageId],
        held: &mut Vec<PageId>,
    ) -> CoreResult<(PageId, PageId)> {
        let locks = self.db.locks();
        let owner = self.owner;
        for _ in 0..1000 {
            let (l, r) = self.chain_neighbours(first, last)?;
            let mut this_round: Vec<PageId> = Vec::new();
            for n in [l, r] {
                if n.is_valid() && !skip.contains(&n) && !held.contains(&n) {
                    locks.lock(owner, ResourceId::Page(n.0), LockMode::X)?;
                    this_round.push(n);
                }
            }
            let (l2, r2) = self.chain_neighbours(first, last)?;
            if (l2, r2) == (l, r) {
                held.extend(this_round);
                return Ok((l, r));
            }
            for n in this_round {
                locks.unlock(owner, ResourceId::Page(n.0));
            }
        }
        Err(CoreError::TooManyRetries(
            "chain neighbours would not stabilize".into(),
        ))
    }

    /// Neighbours of the unit in the side-pointer chain: the leaf left of
    /// `first` and the leaf right of `last`.
    fn chain_neighbours(&self, first: PageId, last: PageId) -> CoreResult<(PageId, PageId)> {
        let pool = self.db.pool();
        let left = {
            let g = pool.fetch(first)?;
            let page = g.read();
            page.left_sibling()
        };
        let right = {
            let g = pool.fetch(last)?;
            let page = g.read();
            page.right_sibling()
        };
        Ok((left, right))
    }

    /// One pass-1 reorganization unit: compact `group` (children of `base`,
    /// in key order) into `dest`. `dest` is either `group[0].1` (in-place)
    /// or a reserved empty page (copy-and-switch). Returns the largest key
    /// processed.
    fn compaction_unit(
        &self,
        base: PageId,
        group: &[(u64, PageId)],
        dest: PageId,
    ) -> CoreResult<u64> {
        let db = &self.db;
        let tree = db.tree();
        let locks = db.locks();
        let owner = self.owner;
        let in_place = group.iter().any(|&(_, l)| l == dest);
        let kind = if in_place {
            ReorgKind::Compact
        } else {
            ReorgKind::Move
        };
        // --- Locking (§4.1.1), all before any record moves. ---
        let gen = tree.generation()?;
        locks.lock(owner, ResourceId::Tree(gen), LockMode::IX)?;
        locks.lock(owner, ResourceId::Page(base.0), LockMode::S)?;
        locks.lock(owner, ResourceId::Page(base.0), LockMode::R)?;
        for &(_, leaf) in group {
            locks.lock(owner, ResourceId::Page(leaf.0), LockMode::RX)?;
        }
        if !in_place {
            locks.lock(owner, ResourceId::Page(dest.0), LockMode::RX)?;
        }
        // Re-measure under RX (updaters are now blocked from these leaves):
        // concurrent inserts since planning may have grown the group past
        // one page, in which case the tail of the group is dropped (those
        // leaves are simply re-planned by the next unit).
        let mut trimmed: Vec<(u64, PageId)> = Vec::new();
        {
            let pool = db.pool();
            let mut bytes = 0usize;
            for &(k, leaf) in group {
                let usable = {
                    let g = pool.fetch(leaf)?;
                    let page = g.read();
                    if page.page_type() == Some(PageType::Leaf) {
                        Some(LeafRef::new(&page).used_bytes())
                    } else {
                        None // deallocated since planning
                    }
                };
                match usable {
                    Some(used) if trimmed.is_empty() || bytes + used <= LEAF_BODY => {
                        bytes += used;
                        trimmed.push((k, leaf));
                    }
                    _ => {
                        locks.unlock(owner, ResourceId::Page(leaf.0));
                    }
                }
            }
        }
        if trimmed.len() < 2 {
            // Nothing left worth compacting under this parent right now.
            let last = trimmed.first().map(|&(_, l)| l);
            let largest = match last {
                Some(l) => {
                    let g = db.pool().fetch(l)?;
                    let page = g.read();
                    if page.page_type() == Some(PageType::Leaf) {
                        LeafRef::new(&page).last_key().unwrap_or(0)
                    } else {
                        0
                    }
                }
                None => 0,
            };
            locks.release_all(owner);
            if !in_place {
                db.fsm().free(dest); // return the reserved empty page
            }
            return Ok(largest.max(group.iter().map(|&(k, _)| k).max().unwrap_or(0)));
        }
        let group: &[(u64, PageId)] = &trimmed;
        let in_place = group.iter().any(|&(_, l)| l == dest);
        // Side-pointer neighbours (§4.3): may be children of other base
        // pages, so X rather than RX; locked and re-verified so no split
        // slips a leaf in between.
        let mut skip: Vec<PageId> = group.iter().map(|&(_, l)| l).collect();
        skip.push(dest);
        let mut held_neighbours: Vec<PageId> = Vec::new();
        let (left_n, right_n) = self.lock_chain_neighbours(
            group[0].1,
            group[group.len() - 1].1,
            &skip,
            &mut held_neighbours,
        )?;
        // --- BEGIN (only after all locks are held, §5). ---
        let unit = self.next_unit_id();
        let mut leaf_pages: Vec<PageId> = group.iter().map(|&(_, l)| l).collect();
        if !in_place {
            leaf_pages.push(dest); // convention: Move units list dest last
        }
        let begin_lsn = db.log().append(&LogRecord::ReorgBegin {
            unit,
            kind,
            base_pages: vec![base],
            leaf_pages,
        });
        db.reorg_table().begin_unit(begin_lsn);
        db.core_metrics().units_started.inc();
        db.tracer().emit(
            TraceKind::UnitBegin,
            unit.0,
            1,
            u64::from(base.0),
            if in_place { 0 } else { u64::from(dest.0) },
            group.len() as u64,
        );
        self.check_fail(FailSite::AfterUnitBegin)?;
        // --- Move records (under the tree's SMO guard). ---
        let mut journal: Vec<MoveJournal> = Vec::new();
        let mut largest_key = 0u64;
        let move_result: CoreResult<()> = (|| {
            let _g = tree.smo_guard();
            let pool = db.pool();
            if !in_place {
                // Initialize the destination as a fresh leaf.
                let dg = pool.fetch_new(dest)?;
                let mut dpage = dg.write();
                LeafView::init(&mut dpage);
                dpage.set_low_mark(group[0].0);
            }
            let mut first_move = true;
            for &(_, org) in group {
                if org == dest {
                    let g = pool.fetch(org)?;
                    let page = g.read();
                    if let Some(k) = LeafRef::new(&page).last_key() {
                        largest_key = largest_key.max(k);
                    }
                    continue;
                }
                let og = pool.fetch(org)?;
                let dg = pool.fetch(dest)?;
                let mut opage = og.write();
                let mut dpage = dg.write();
                let records = LeafRef::new(&opage).records();
                if let Some((k, _)) = records.last() {
                    largest_key = largest_key.max(*k);
                }
                let payload = match self.cfg.log_strategy {
                    LogStrategy::KeysOnly => {
                        MovePayload::Keys(records.iter().map(|(k, _)| *k).collect())
                    }
                    LogStrategy::FullRecords => MovePayload::Records(records.clone()),
                };
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgMove {
                    unit,
                    org,
                    dest,
                    payload,
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                {
                    let mut dleaf = LeafView::new(&mut dpage);
                    dleaf.extend(&records)?;
                }
                {
                    let mut oleaf = LeafView::new(&mut opage);
                    oleaf.take_all();
                }
                opage.set_lsn(lsn);
                dpage.set_lsn(lsn);
                if self.cfg.log_strategy == LogStrategy::KeysOnly {
                    // Careful writing: org may not reach disk before dest.
                    pool.add_write_dependency(org, dest);
                }
                self.stats.lock().records_moved += records.len() as u64;
                db.core_metrics().records_moved.add(records.len() as u64);
                db.tracer().emit(
                    TraceKind::UnitMove,
                    unit.0,
                    1,
                    u64::from(org.0),
                    u64::from(dest.0),
                    records.len() as u64,
                );
                journal.push(MoveJournal { org, dest, records });
                if first_move {
                    first_move = false;
                    self.check_fail(FailSite::AfterFirstMove)?;
                }
            }
            // Side pointers around the new chain position of dest.
            self.fix_chain_after_compact(unit, group, dest, left_n, right_n)?;
            Ok(())
        })();
        if let Err(e) = move_result {
            if matches!(e, CoreError::InjectedCrash(_)) {
                return Err(e); // the "crash" leaves everything in place
            }
            self.undo_moves(&tree.smo_guard(), unit, &journal)?;
            self.close_undone_unit(unit);
            return Err(e);
        }
        self.check_fail(FailSite::BeforeModify)?;
        // --- Upgrade the base lock to X for the short MODIFY (§4.1.1). ---
        if let Err(e) = locks.lock(owner, ResourceId::Page(base.0), LockMode::X) {
            // §5.2: deadlock after records moved — undo the moves and
            // restore the side-pointer chain through the group, all before
            // END so every SIDEPTR stays inside the unit's chain, and all
            // in one SMO so no scan walks a chain that skips the refilled
            // sources.
            {
                let smo = tree.smo_guard();
                self.undo_moves(&smo, unit, &journal)?;
                let mut prev = left_n;
                for &(_, leaf) in group {
                    self.stitch(unit, prev, leaf)?;
                    prev = leaf;
                }
                self.stitch(unit, prev, right_n)?;
            }
            self.close_undone_unit(unit);
            return Err(e.into());
        }
        {
            let _g = tree.smo_guard();
            let pool = db.pool();
            let bg = pool.fetch(base)?;
            let mut bpage = bg.write();
            // Derive the MODIFY from the live base contents: remove every
            // entry still pointing at an emptied source, register dest under
            // the smallest of those keys unless it is already present.
            let entries = NodeRef::new(&bpage).entries();
            let sources: Vec<PageId> = group
                .iter()
                .map(|&(_, l)| l)
                .filter(|&l| l != dest)
                .collect();
            let old_entries: Vec<(u64, PageId)> = entries
                .iter()
                .copied()
                .filter(|(_, c)| sources.contains(c))
                .collect();
            let has_dest = entries.iter().any(|(_, c)| *c == dest);
            let entry_key = old_entries
                .iter()
                .map(|(k, _)| *k)
                .min()
                .unwrap_or(group[0].0);
            let new_entries = if has_dest {
                Vec::new()
            } else {
                vec![(entry_key, dest)]
            };
            let prev = db.reorg_table().recent_lsn();
            let lsn = db.log().append(&LogRecord::ReorgModify {
                unit,
                base_page: base,
                old_entries: old_entries.clone(),
                new_entries: new_entries.clone(),
                prev_lsn: prev,
            });
            db.reorg_table().advance(lsn);
            let mut node = NodeView::new(&mut bpage);
            for (k, _) in &old_entries {
                node.remove_entry(*k);
            }
            for (k, c) in &new_entries {
                node.insert_entry(*k, *c)
                    .map_err(|e| CoreError::Recovery(format!("MODIFY insert failed: {e}")))?;
            }
            bpage.set_lsn(lsn);
            db.tracer().emit(
                TraceKind::UnitModify,
                unit.0,
                1,
                u64::from(base.0),
                old_entries.len() as u64,
                new_entries.len() as u64,
            );
        }
        self.check_fail(FailSite::BeforeEnd)?;
        // --- Deallocate emptied sources (careful writing: dest first). ---
        let pool = db.pool();
        pool.flush_page(dest)?;
        let mut freed = 0;
        for &(_, org) in group {
            if org != dest {
                pool.discard(org);
                db.fsm().free(org);
                freed += 1;
            }
        }
        // --- END. ---
        #[cfg(debug_assertions)]
        self.debug_assert_unit_outcome(&[base], &[dest]);
        db.log().append(&LogRecord::ReorgEnd { unit, largest_key });
        db.reorg_table().finish_unit(largest_key);
        locks.release_all(owner);
        {
            let mut st = self.stats.lock();
            st.units += 1;
            st.pages_freed += freed;
            if in_place {
                st.inplace_units += 1;
            } else {
                st.copy_switch_units += 1;
            }
        }
        let cm = db.core_metrics();
        cm.units_completed.inc();
        cm.pages_freed.add(freed);
        if in_place {
            cm.units_inplace.inc();
        } else {
            cm.units_copy_switch.inc();
        }
        db.tracer().emit(
            TraceKind::UnitEnd,
            unit.0,
            1,
            u64::from(base.0),
            largest_key,
            freed,
        );
        Ok(largest_key)
    }

    /// Debug-build invariant hook, called at a unit boundary: END is about
    /// to be logged and every unit lock is still held, so the pages the
    /// unit rewrote are stable. Each base page must hold a valid sorted
    /// entry list and each surviving leaf a valid sorted record list —
    /// the same local invariants `obr-check`'s fsck verifies offline.
    /// Release builds compile this away.
    #[cfg(debug_assertions)]
    fn debug_assert_unit_outcome(&self, bases: &[PageId], leaves: &[PageId]) {
        let pool = self.db.pool();
        for &id in bases {
            let g = pool.fetch(id).expect("unit base page unreadable at END");
            let mut page = g.read().clone();
            NodeView::new(&mut page)
                .validate()
                .expect("reorganization unit left an invalid base page");
        }
        for &id in leaves {
            let g = pool.fetch(id).expect("unit leaf unreadable at END");
            let mut page = g.read().clone();
            LeafView::new(&mut page)
                .validate()
                .expect("reorganization unit left an invalid leaf");
        }
    }

    /// Stitch the side-pointer chain after compaction: `left_n <-> dest <->
    /// right_n`, logging one SIDEPTR record per changed page.
    fn fix_chain_after_compact(
        &self,
        unit: UnitId,
        group: &[(u64, PageId)],
        dest: PageId,
        left_n: PageId,
        right_n: PageId,
    ) -> CoreResult<()> {
        let db = &self.db;
        let pool = db.pool();
        let log_side =
            |page: PageId, old: (PageId, PageId), new: (PageId, PageId)| -> CoreResult<Lsn> {
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgSidePtr {
                    unit,
                    page,
                    old_left: old.0,
                    old_right: old.1,
                    new_left: new.0,
                    new_right: new.1,
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                Ok(lsn)
            };
        {
            let dg = pool.fetch(dest)?;
            let mut dpage = dg.write();
            let old = (dpage.left_sibling(), dpage.right_sibling());
            let new = (left_n, right_n);
            if old != new {
                let lsn = log_side(dest, old, new)?;
                dpage.set_left_sibling(left_n);
                dpage.set_right_sibling(right_n);
                dpage.set_lsn(lsn);
            }
        }
        if left_n.is_valid() {
            let g = pool.fetch(left_n)?;
            let mut page = g.write();
            let old = (page.left_sibling(), page.right_sibling());
            if old.1 != dest {
                let lsn = log_side(left_n, old, (old.0, dest))?;
                page.set_right_sibling(dest);
                page.set_lsn(lsn);
            }
        }
        if right_n.is_valid() {
            let g = pool.fetch(right_n)?;
            let mut page = g.write();
            let old = (page.left_sibling(), page.right_sibling());
            if old.0 != dest {
                let lsn = log_side(right_n, old, (dest, old.1))?;
                page.set_left_sibling(dest);
                page.set_lsn(lsn);
            }
        }
        let _ = group;
        Ok(())
    }

    /// Point `left.right = right` and `right.left = left` (when valid),
    /// logging SIDEPTR records — chain restoration after an undo.
    fn stitch(&self, unit: UnitId, left: PageId, right: PageId) -> CoreResult<()> {
        let db = &self.db;
        let pool = db.pool();
        if left.is_valid() {
            let g = pool.fetch(left)?;
            let mut page = g.write();
            let old = (page.left_sibling(), page.right_sibling());
            if old.1 != right {
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgSidePtr {
                    unit,
                    page: left,
                    old_left: old.0,
                    old_right: old.1,
                    new_left: old.0,
                    new_right: right,
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                page.set_right_sibling(right);
                page.set_lsn(lsn);
            }
        }
        if right.is_valid() {
            let g = pool.fetch(right)?;
            let mut page = g.write();
            let old = (page.left_sibling(), page.right_sibling());
            if old.0 != left {
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgSidePtr {
                    unit,
                    page: right,
                    old_left: old.0,
                    old_right: old.1,
                    new_left: left,
                    new_right: old.1,
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                page.set_left_sibling(left);
                page.set_lsn(lsn);
            }
        }
        Ok(())
    }

    /// §5.2: undo a unit's moves via compensating MOVE records. The unit
    /// stays open so callers can log chain repairs (SIDEPTR) inside it;
    /// follow with [`Self::close_undone_unit`]. The caller passes its SMO
    /// guard so that it can make those repairs under the same one: between
    /// SMOs the side chain has to be whole.
    fn undo_moves(
        &self,
        _smo: &SmoGuard<'_>,
        unit: UnitId,
        journal: &[MoveJournal],
    ) -> CoreResult<()> {
        let db = &self.db;
        let pool = db.pool();
        for m in journal.iter().rev() {
            let og = pool.fetch(m.org)?;
            let dg = pool.fetch(m.dest)?;
            let mut opage = og.write();
            let mut dpage = dg.write();
            let prev = db.reorg_table().recent_lsn();
            let lsn = db.log().append(&LogRecord::ReorgMove {
                unit,
                org: m.dest,
                dest: m.org,
                payload: MovePayload::Records(m.records.clone()),
                prev_lsn: prev,
            });
            db.reorg_table().advance(lsn);
            {
                let mut dleaf = LeafView::new(&mut dpage);
                for (k, _) in &m.records {
                    dleaf.remove(*k);
                }
            }
            {
                let mut oleaf = LeafView::new(&mut opage);
                for (k, v) in &m.records {
                    oleaf.upsert(k.to_owned(), v)?;
                }
            }
            opage.set_lsn(lsn);
            dpage.set_lsn(lsn);
        }
        Ok(())
    }

    /// END an undone unit: it completed with net-zero effect; largest_key 0
    /// cannot regress LK (finish keeps the max).
    fn close_undone_unit(&self, unit: UnitId) {
        self.db.log().append(&LogRecord::ReorgEnd {
            unit,
            largest_key: 0,
        });
        self.db.reorg_table().abandon_unit();
        self.stats.lock().units_undone += 1;
        self.db.core_metrics().units_undone.inc();
        self.db
            .tracer()
            .emit(TraceKind::UnitUndo, unit.0, 0, 0, 0, 0);
    }

    // ------------------------------------------------------------------
    // Pass 2: Swapping-Moving (§6, Figure 2).
    // ------------------------------------------------------------------

    /// Pass 2: place leaves contiguously in key order, preferring moves to
    /// empty pages over swaps.
    pub fn pass2_swap_move(&self) -> CoreResult<()> {
        let units_before = self.db.core_metrics().units_completed.get();
        self.db.tracer().emit(TraceKind::PassEnter, 0, 2, 0, 0, 0);
        self.pass2_swap_move_inner()?;
        let units = self.db.core_metrics().units_completed.get() - units_before;
        self.db
            .tracer()
            .emit(TraceKind::PassExit, 0, 2, 0, units, 0);
        Ok(())
    }

    fn pass2_swap_move_inner(&self) -> CoreResult<()> {
        let tree = self.db.tree();
        let fsm = self.db.fsm();
        let mut leaves = tree.leaves_in_key_order()?;
        if leaves.is_empty() {
            return Ok(());
        }
        // Target region: the configured leaf region (§6 two-region layout)
        // or, without one, the lowest current leaf position.
        let boundary = fsm.leaf_boundary();
        let start = if boundary.0 > 0 {
            boundary.0
        } else {
            leaves.iter().min().copied().unwrap_or(PageId(0)).0
        };
        for i in 0..leaves.len() {
            let target = PageId(start + i as u32);
            let leaf = leaves[i];
            if leaf == target {
                continue;
            }
            if fsm.allocate_specific(target) {
                match self.move_unit_with_retries(leaf, target) {
                    Ok(()) => leaves[i] = target,
                    Err(CoreError::TooManyRetries(_)) => {
                        // Leave this leaf where it is; §3 allows "not
                        // necessarily a perfectly ordered" result.
                        fsm.free(target);
                        self.stats.lock().skipped_placements += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                // Occupied: swap if it holds another leaf of this tree.
                let occupant_is_leaf = {
                    let g = self.db.pool().fetch(target)?;
                    let page = g.read();
                    page.page_type() == Some(PageType::Leaf)
                };
                let occupied_by_ours = leaves.iter().position(|&l| l == target);
                match (occupant_is_leaf, occupied_by_ours) {
                    (true, Some(j)) if j > i => match self.swap_unit_with_retries(leaf, target) {
                        Ok(()) => {
                            leaves[j] = leaf;
                            leaves[i] = target;
                        }
                        Err(CoreError::TooManyRetries(_)) => {
                            self.stats.lock().skipped_placements += 1;
                            continue;
                        }
                        Err(e) => return Err(e),
                    },
                    _ => {
                        // An internal/meta page sits in the leaf region (or
                        // a foreign leaf): leave this leaf where it is.
                        continue;
                    }
                }
            }
        }
        Ok(())
    }

    fn move_unit_with_retries(&self, src: PageId, target: PageId) -> CoreResult<()> {
        let mut attempt = 0;
        loop {
            match self.move_leaf_unit(src, target) {
                Ok(()) => return Ok(()),
                Err(CoreError::Lock(LockError::Deadlock))
                | Err(CoreError::Lock(LockError::Timeout)) => {
                    attempt += 1;
                    self.stats.lock().deadlock_retries += 1;
                    self.db.core_metrics().deadlock_retries.inc();
                    self.db.locks().release_all(self.owner);
                    if attempt > self.cfg.max_unit_retries {
                        return Err(CoreError::TooManyRetries(format!(
                            "move {src}->{target} after {attempt} deadlocks"
                        )));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2 * attempt as u64));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn swap_unit_with_retries(&self, a: PageId, b: PageId) -> CoreResult<()> {
        let mut attempt = 0;
        loop {
            match self.swap_leaf_unit(a, b) {
                Ok(()) => return Ok(()),
                Err(CoreError::Lock(LockError::Deadlock))
                | Err(CoreError::Lock(LockError::Timeout)) => {
                    attempt += 1;
                    self.stats.lock().deadlock_retries += 1;
                    self.db.core_metrics().deadlock_retries.inc();
                    self.db.locks().release_all(self.owner);
                    if attempt > self.cfg.max_unit_retries {
                        return Err(CoreError::TooManyRetries(format!(
                            "swap {a}<->{b} after {attempt} deadlocks"
                        )));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2 * attempt as u64));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn base_of_leaf(&self, leaf: PageId) -> CoreResult<PageId> {
        let tree = self.db.tree();
        let pool = self.db.pool();
        let key = {
            let g = pool.fetch(leaf)?;
            let page = g.read();
            LeafRef::new(&page).first_key().unwrap_or(page.low_mark())
        };
        let path = tree.path_for(key)?;
        if path.len() < 2 {
            return Err(CoreError::Recovery(format!("leaf {leaf} has no base page")));
        }
        // The descent is by key; verify it actually reached this leaf (the
        // low mark is historical, so a probe may land left of it).
        Ok(path[path.len() - 2])
    }

    /// Pass-2 move: copy one leaf to a reserved empty `target` and repoint
    /// its parent (a `Move` unit, §5).
    fn move_leaf_unit(&self, src: PageId, target: PageId) -> CoreResult<()> {
        let db = &self.db;
        let tree = db.tree();
        let locks = db.locks();
        let owner = self.owner;
        let gen = tree.generation()?;
        let base = self.base_of_leaf(src)?;
        locks.lock(owner, ResourceId::Tree(gen), LockMode::IX)?;
        locks.lock(owner, ResourceId::Page(base.0), LockMode::S)?;
        locks.lock(owner, ResourceId::Page(base.0), LockMode::R)?;
        locks.lock(owner, ResourceId::Page(src.0), LockMode::RX)?;
        locks.lock(owner, ResourceId::Page(target.0), LockMode::RX)?;
        let mut held_neighbours: Vec<PageId> = Vec::new();
        let (left_n, right_n) =
            self.lock_chain_neighbours(src, src, &[src, target], &mut held_neighbours)?;
        let unit = self.next_unit_id();
        let begin_lsn = db.log().append(&LogRecord::ReorgBegin {
            unit,
            kind: ReorgKind::Move,
            base_pages: vec![base],
            leaf_pages: vec![src, target],
        });
        db.reorg_table().begin_unit(begin_lsn);
        db.core_metrics().units_started.inc();
        db.tracer().emit(
            TraceKind::UnitBegin,
            unit.0,
            2,
            u64::from(base.0),
            u64::from(src.0),
            u64::from(target.0),
        );
        self.check_fail(FailSite::AfterUnitBegin)?;
        let largest_key;
        let mut journal: Vec<MoveJournal> = Vec::new();
        {
            let _g = tree.smo_guard();
            let pool = db.pool();
            let sg = pool.fetch(src)?;
            let tg = pool.fetch_new(target)?;
            let mut spage = sg.write();
            let mut tpage = tg.write();
            let records = LeafRef::new(&spage).records();
            largest_key = records.last().map(|(k, _)| *k).unwrap_or(0);
            let payload = match self.cfg.log_strategy {
                LogStrategy::KeysOnly => {
                    MovePayload::Keys(records.iter().map(|(k, _)| *k).collect())
                }
                LogStrategy::FullRecords => MovePayload::Records(records.clone()),
            };
            let prev = db.reorg_table().recent_lsn();
            let lsn = db.log().append(&LogRecord::ReorgMove {
                unit,
                org: src,
                dest: target,
                payload,
                prev_lsn: prev,
            });
            db.reorg_table().advance(lsn);
            let low_mark = spage.low_mark();
            {
                let mut tleaf = LeafView::init(&mut tpage);
                tleaf.extend(&records)?;
                tleaf.page_mut().set_low_mark(low_mark);
            }
            {
                let mut sleaf = LeafView::new(&mut spage);
                sleaf.take_all();
            }
            spage.set_lsn(lsn);
            tpage.set_lsn(lsn);
            if self.cfg.log_strategy == LogStrategy::KeysOnly {
                pool.add_write_dependency(src, target);
            }
            self.stats.lock().records_moved += records.len() as u64;
            db.core_metrics().records_moved.add(records.len() as u64);
            db.tracer().emit(
                TraceKind::Pass2Move,
                unit.0,
                2,
                u64::from(src.0),
                u64::from(target.0),
                records.len() as u64,
            );
            journal.push(MoveJournal {
                org: src,
                dest: target,
                records,
            });
            drop(spage);
            drop(tpage);
            self.fix_chain_after_compact(unit, &[], target, left_n, right_n)?;
        }
        // MODIFY: repoint the parent entry from src to target.
        if let Err(e) = locks.lock(owner, ResourceId::Page(base.0), LockMode::X) {
            // §5.2: deadlock after the records moved — undo the moves and
            // repair the chain before END so the SIDEPTRs stay in-unit, in
            // one SMO so no scan sees the chain skip the refilled source.
            {
                let smo = tree.smo_guard();
                self.undo_moves(&smo, unit, &journal)?;
                self.fix_chain_after_compact(unit, &[], src, left_n, right_n)?;
            }
            self.close_undone_unit(unit);
            return Err(e.into());
        }
        {
            let _g = tree.smo_guard();
            let pool = db.pool();
            let bg = pool.fetch(base)?;
            let mut bpage = bg.write();
            let entry_key = {
                let node = NodeRef::new(&bpage);
                node.entries()
                    .iter()
                    .find(|(_, c)| *c == src)
                    .map(|(k, _)| *k)
                    .ok_or_else(|| {
                        CoreError::Recovery(format!("leaf {src} not under base {base}"))
                    })?
            };
            let prev = db.reorg_table().recent_lsn();
            let lsn = db.log().append(&LogRecord::ReorgModify {
                unit,
                base_page: base,
                old_entries: vec![(entry_key, src)],
                new_entries: vec![(entry_key, target)],
                prev_lsn: prev,
            });
            db.reorg_table().advance(lsn);
            let mut node = NodeView::new(&mut bpage);
            node.set_child(entry_key, target)
                .map_err(CoreError::Storage)?;
            bpage.set_lsn(lsn);
        }
        self.check_fail(FailSite::BeforeEnd)?;
        let pool = db.pool();
        pool.flush_page(target)?;
        pool.discard(src);
        db.fsm().free(src);
        #[cfg(debug_assertions)]
        self.debug_assert_unit_outcome(&[base], &[target]);
        db.log().append(&LogRecord::ReorgEnd { unit, largest_key });
        db.reorg_table().finish_unit(largest_key);
        locks.release_all(owner);
        {
            let mut st = self.stats.lock();
            st.units += 1;
            st.moves += 1;
            st.pages_freed += 1;
        }
        let cm = db.core_metrics();
        cm.units_completed.inc();
        cm.pass2_moves.inc();
        cm.pages_freed.inc();
        db.tracer().emit(
            TraceKind::UnitEnd,
            unit.0,
            2,
            u64::from(base.0),
            largest_key,
            1,
        );
        Ok(())
    }

    /// Exchange the contents of `a` and `b` under the SMO guard, logging
    /// one full page image, remapping self-referencing side pointers, and
    /// patching the external neighbours. Self-inverse, which is what makes
    /// the §5.2 undo of a swap trivial.
    fn apply_swap(
        &self,
        unit: UnitId,
        a: PageId,
        b: PageId,
        neighbours: [PageId; 4],
    ) -> CoreResult<()> {
        let db = &self.db;
        let tree = db.tree();
        let _g = tree.smo_guard();
        let pool = db.pool();
        let remap = |p: PageId| {
            if p == a {
                b
            } else if p == b {
                a
            } else {
                p
            }
        };
        {
            let ag = pool.fetch(a)?;
            let bg = pool.fetch(b)?;
            let mut apage = ag.write();
            let mut bpage = bg.write();
            let image_a_old = image_of(&apage);
            let prev = db.reorg_table().recent_lsn();
            let lsn = db.log().append(&LogRecord::ReorgSwap {
                unit,
                page_a: a,
                page_b: b,
                image_a_old,
                prev_lsn: prev,
            });
            db.reorg_table().advance(lsn);
            // Exchange the full images (headers — low marks, side pointers —
            // travel with the content), then remap self-references.
            std::mem::swap(apage.bytes_mut(), bpage.bytes_mut());
            for page in [&mut apage, &mut bpage] {
                let (l, r) = (page.left_sibling(), page.right_sibling());
                page.set_left_sibling(remap(l));
                page.set_right_sibling(remap(r));
            }
            apage.set_lsn(lsn);
            bpage.set_lsn(lsn);
            // Careful writing: the unlogged side (b's old image, now in a)
            // must not be overwritten on disk before `a` is durable.
            pool.add_write_dependency(b, a);
        }
        // External neighbours now point at swapped positions. Each is
        // visited once, even when it neighbours both swapped pages.
        let mut seen: Vec<PageId> = Vec::with_capacity(4);
        for n in neighbours {
            if !n.is_valid() || n == a || n == b || seen.contains(&n) {
                continue;
            }
            seen.push(n);
            let g = pool.fetch(n)?;
            let mut page = g.write();
            let old = (page.left_sibling(), page.right_sibling());
            let new = (remap(old.0), remap(old.1));
            if old != new {
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgSidePtr {
                    unit,
                    page: n,
                    old_left: old.0,
                    old_right: old.1,
                    new_left: new.0,
                    new_right: new.1,
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                page.set_left_sibling(new.0);
                page.set_right_sibling(new.1);
                page.set_lsn(lsn);
            }
        }
        Ok(())
    }

    /// Pass-2 swap: exchange the contents of two leaves, logging one full
    /// page image (the paper's unavoidable cost, §5) and repointing both
    /// parents.
    fn swap_leaf_unit(&self, a: PageId, b: PageId) -> CoreResult<()> {
        let db = &self.db;
        let tree = db.tree();
        let locks = db.locks();
        let owner = self.owner;
        let gen = tree.generation()?;
        let base_a = self.base_of_leaf(a)?;
        let base_b = self.base_of_leaf(b)?;
        locks.lock(owner, ResourceId::Tree(gen), LockMode::IX)?;
        for base in [base_a, base_b] {
            locks.lock(owner, ResourceId::Page(base.0), LockMode::S)?;
            locks.lock(owner, ResourceId::Page(base.0), LockMode::R)?;
        }
        locks.lock(owner, ResourceId::Page(a.0), LockMode::RX)?;
        locks.lock(owner, ResourceId::Page(b.0), LockMode::RX)?;
        let mut held_neighbours: Vec<PageId> = Vec::new();
        let (a_left, a_right) = self.lock_chain_neighbours(a, a, &[a, b], &mut held_neighbours)?;
        let (b_left, b_right) = self.lock_chain_neighbours(b, b, &[a, b], &mut held_neighbours)?;
        let unit = self.next_unit_id();
        let begin_lsn = db.log().append(&LogRecord::ReorgBegin {
            unit,
            kind: ReorgKind::Swap,
            base_pages: vec![base_a, base_b],
            leaf_pages: vec![a, b],
        });
        db.reorg_table().begin_unit(begin_lsn);
        db.core_metrics().units_started.inc();
        db.tracer().emit(
            TraceKind::UnitBegin,
            unit.0,
            2,
            u64::from(base_a.0),
            u64::from(a.0),
            u64::from(b.0),
        );
        self.check_fail(FailSite::AfterUnitBegin)?;
        self.apply_swap(unit, a, b, [a_left, a_right, b_left, b_right])?;
        db.tracer().emit(
            TraceKind::Pass2Swap,
            unit.0,
            2,
            u64::from(a.0),
            u64::from(b.0),
            0,
        );
        // MODIFY both parents (upgrade R -> X). When the two leaves share a
        // parent, it is updated exactly once.
        let bases: Vec<PageId> = if base_a == base_b {
            vec![base_a]
        } else {
            vec![base_a, base_b]
        };
        let mut upgrade_err = None;
        for &base in &bases {
            if let Err(e) = locks.lock(owner, ResourceId::Page(base.0), LockMode::X) {
                upgrade_err = Some(e);
                break;
            }
        }
        if let Some(e) = upgrade_err {
            // §5.2: deadlock after the contents were exchanged. The swap is
            // self-inverse: apply it again (with fresh log records) to undo,
            // then abandon the unit without advancing LK.
            let (na_l, na_r) = self.chain_neighbours(a, a)?;
            let (nb_l, nb_r) = self.chain_neighbours(b, b)?;
            self.apply_swap(unit, a, b, [na_l, na_r, nb_l, nb_r])?;
            db.log().append(&LogRecord::ReorgEnd {
                unit,
                largest_key: 0,
            });
            db.reorg_table().abandon_unit();
            self.stats.lock().units_undone += 1;
            db.core_metrics().units_undone.inc();
            db.tracer().emit(TraceKind::UnitUndo, unit.0, 2, 0, 0, 0);
            return Err(e.into());
        }
        {
            let _g = tree.smo_guard();
            let pool = db.pool();
            for &base in &bases {
                let bg = pool.fetch(base)?;
                let mut bpage = bg.write();
                let entries = NodeRef::new(&bpage).entries();
                let mut old_entries = Vec::new();
                let mut new_entries = Vec::new();
                for (k, c) in entries {
                    let mapped = if c == a {
                        b
                    } else if c == b {
                        a
                    } else {
                        continue;
                    };
                    old_entries.push((k, c));
                    new_entries.push((k, mapped));
                }
                if old_entries.is_empty() {
                    continue;
                }
                let prev = db.reorg_table().recent_lsn();
                let lsn = db.log().append(&LogRecord::ReorgModify {
                    unit,
                    base_page: base,
                    old_entries: old_entries.clone(),
                    new_entries: new_entries.clone(),
                    prev_lsn: prev,
                });
                db.reorg_table().advance(lsn);
                let mut node = NodeView::new(&mut bpage);
                for ((k, _), (_, c)) in old_entries.iter().zip(new_entries.iter()) {
                    node.set_child(*k, *c).map_err(CoreError::Storage)?;
                }
                bpage.set_lsn(lsn);
            }
        }
        self.check_fail(FailSite::BeforeEnd)?;
        // Make the logged side durable so the careful-writing chain is
        // short-lived, then END.
        db.pool().flush_page(a)?;
        let largest_key = {
            let g = db.pool().fetch(a)?;
            let page = g.read();
            LeafRef::new(&page).last_key().unwrap_or(0)
        };
        #[cfg(debug_assertions)]
        self.debug_assert_unit_outcome(&bases, &[a, b]);
        db.log().append(&LogRecord::ReorgEnd { unit, largest_key });
        db.reorg_table().finish_unit(largest_key);
        locks.release_all(owner);
        {
            let mut st = self.stats.lock();
            st.units += 1;
            st.swaps += 1;
        }
        let cm = db.core_metrics();
        cm.units_completed.inc();
        cm.pass2_swaps.inc();
        db.tracer().emit(
            TraceKind::UnitEnd,
            unit.0,
            2,
            u64::from(base_a.0),
            largest_key,
            0,
        );
        Ok(())
    }
}
