//! The on-line reorganizer: the three-pass algorithm of the paper.
//!
//! Pass 1 (§6, Figure 2) walks the leaves in key order, compacting groups of
//! leaves under one base page into one destination filled to the target fill
//! factor `f2` — `Copying-Switching` into a well-placed empty page when
//! `Find-Free-Space` finds one, `In-Place-Reorg` otherwise. Pass 2
//! (`Swapping-Moving`, optional) puts the compacted leaves into physically
//! contiguous key order with one-leaf Move units — the very unit pass 1
//! runs for copy-and-switch. Long runs of leaves already on consecutive
//! pages stay where they are; only the leaves between them move. Where the paper swaps two leaves, pass 2 moves
//! a chain of them, each straight into its target, after parking one leaf
//! past the leaf region when the chain is a cycle; no unit logs a page
//! image. Pass 3 (§7) rebuilds the upper levels new-place behind a side
//! file and switches trees.
//!
//! Each unit follows the §4.1.1 reorganizer protocol: IX on the tree lock,
//! S then R on the base page(s), RX on the unit's leaves (and X on
//! side-pointer neighbours under other parents, acquired *before* moving
//! records so deadlock-induced undo is rare), move records, upgrade the base
//! locks to X for the short MODIFY, release. Units log
//! BEGIN/MOVE/MODIFY/END per §5; at a deadlock the reorganizer is the
//! victim and the unit is undone via compensating moves (§5.2), then
//! retried. Each step is written once, and Forward Recovery shares it:
//! every unit record is appended and then applied by `log_and_apply`
//! through the record's one `obr_btree::apply::apply`, every side-pointer
//! change goes through `set_siblings`, and the MODIFY is `modify_base`.

use obr_sync::atomic::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use obr_sync::Mutex;

use obr_btree::apply::{apply, shadow_before, shadow_check};
use obr_btree::leaf::LEAF_BODY;
use obr_btree::{LeafView, NodeView, SmoGuard};
use obr_lock::{LockError, LockMode, OwnerId, ResourceId};
use obr_obs::TraceKind;
use obr_storage::{Lsn, Page, PageId, PageType};
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
    /// Order the leaves (pass 2) when more than this fraction of
    /// key-adjacent leaf pairs are physically non-adjacent.
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

/// Counters the experiments report: a read of the registry's `reorg_*`
/// counters (see [`Reorganizer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorgStats {
    /// Reorganization units completed.
    pub units: u64,
    /// Pass-1 in-place compactions.
    pub inplace_units: u64,
    /// Pass-1 new-place copy-and-switch units.
    pub copy_switch_units: u64,
    /// Pass-2 parks: leaves moved past the leaf region to break a cycle of
    /// occupied targets (the paper would swap there). Each is also a move.
    pub swaps: u64,
    /// Pass-2 one-leaf Move units, parks included.
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
/// and the largest record key covered.
type PlannedGroup = (PageId, Vec<(u64, PageId)>, Option<u64>);

/// What one Compact or Move unit did.
struct UnitDone {
    /// The largest key the unit covered: pass 1 resumes after it.
    largest_key: u64,
    /// Source leaves emptied and freed; 0 when the re-measure under the
    /// unit's locks left nothing to do, and the unit logged nothing.
    freed: u64,
    /// The destination was one of the group's own leaves.
    in_place: bool,
}

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
    /// The database's reorganizer counters when this instance was built.
    base: ReorgStats,
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
        let base = db.core_metrics().reorg_stats_since(&ReorgStats::default());
        Reorganizer {
            db,
            cfg,
            owner,
            next_unit: AtomicU64::new(1),
            fail: None,
            rng: Mutex::named(0x9E37_79B9_7F4A_7C15, "reorg.rng"),
            base,
        }
    }

    /// Install a fail point (crash experiments).
    pub fn with_fail_point(mut self, fp: FailPoint) -> Reorganizer {
        self.fail = Some(fp);
        self
    }

    /// What the database did since this reorganizer was built: the
    /// registry's reorganizer counters minus their values at
    /// [`Reorganizer::new`]. A second reorganizer running on the same
    /// database at the same time would be counted here too; no reader does
    /// that (the daemon and the server's `REORG` discard their stats).
    pub fn stats(&self) -> ReorgStats {
        self.db.core_metrics().reorg_stats_since(&self.base)
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
            let Some((base, group, last_key)) = self.plan_group(cur_key, budget)? else {
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
            let dest = self
                .find_free_space(largest_done, first_leaf)
                .unwrap_or(first_leaf);
            let unit = self.with_retries(format_args!("unit on base {base}"), || {
                self.move_unit(1, base, &group, dest)
            });
            let done = match unit {
                Ok(done) => done,
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
            if done.freed > 0 {
                let cm = self.db.core_metrics();
                if done.in_place {
                    cm.units_inplace.inc();
                } else {
                    cm.units_copy_switch.inc();
                }
            }
            largest_done = Some(match largest_done {
                Some(l) => l.max(dest),
                None => dest,
            });
            let next = done.largest_key.saturating_add(1);
            if next <= cur_key {
                return Ok(()); // frontier cannot advance: done
            }
            cur_key = next;
        }
    }

    /// `Find-Free-Space` (§6.1 / Figure 2) under the configured policy.
    /// Returns a *reserved* empty page, or `None` for in-place compaction.
    fn find_free_space(&self, largest_done: Option<PageId>, current: PageId) -> Option<PageId> {
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
                let tree_last = self.tree_last_key()?;
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
                let r = LeafView::of(&page);
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
                    return Ok(Some((base, vec![(k, leaf)], r.last_key())));
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
                let tree_last = self.tree_last_key()?;
                if cur_key > tree_last {
                    return Ok(None);
                }
                probe = last_key.max(probe).saturating_add(1);
                continue;
            }
            return Ok(Some((base, group, last_rec_key)));
        }
        Err(CoreError::TooManyRetries("plan_group probing".into()))
    }

    /// The largest key in the tree; 0 when it is empty.
    fn tree_last_key(&self) -> CoreResult<u64> {
        let mut last = 0u64;
        for l in self.db.tree().leaves_in_key_order()? {
            last = last.max(last_key_of(&self.db, l)?);
        }
        Ok(last)
    }

    /// Run `unit` until it gets through without losing a deadlock. The
    /// reorganizer is always the victim (§4.1): after each deadlock or lock
    /// timeout it drops every lock, backs off so user transactions can
    /// drain, and tries again; after `max_unit_retries` retries it gives up
    /// with `TooManyRetries`, naming the unit as `what`.
    fn with_retries<T>(
        &self,
        what: std::fmt::Arguments<'_>,
        mut unit: impl FnMut() -> CoreResult<T>,
    ) -> CoreResult<T> {
        let mut attempt = 0;
        loop {
            match unit() {
                Err(CoreError::Lock(LockError::Deadlock | LockError::Timeout)) => {
                    attempt += 1;
                    self.db.core_metrics().deadlock_retries.inc();
                    self.db.locks().release_all(self.owner);
                    if attempt > self.cfg.max_unit_retries {
                        return Err(CoreError::TooManyRetries(format!(
                            "{what} after {attempt} deadlocks"
                        )));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2 * attempt as u64));
                }
                done => return done,
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

    /// One Compact or Move unit (§5): move the records of `group` (children
    /// of `base`, in key order) into `dest` and repoint `base`. `dest` is
    /// `group[0].1` for pass 1's in-place compaction, or a reserved empty
    /// page for pass 1's copy-and-switch and for pass 2's move of a
    /// one-leaf group. `pass` labels the trace events.
    fn move_unit(
        &self,
        pass: u8,
        base: PageId,
        group: &[(u64, PageId)],
        dest: PageId,
    ) -> CoreResult<UnitDone> {
        let db = &self.db;
        let tree = db.tree();
        let pool = db.pool();
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
        // keep the prefix of the group whose leaves are still leaves, still
        // named by the locked base, and still fit one page together. The
        // rest is left to a later unit.
        let named = {
            let g = pool.fetch(base)?;
            let page = g.read();
            if page.page_type() == Some(PageType::Internal) {
                NodeView::of(&page).entries()
            } else {
                Vec::new()
            }
        };
        let mut kept = 0;
        let mut bytes = 0usize;
        for &(_, leaf) in group {
            if !named.iter().any(|&(_, c)| c == leaf) {
                break;
            }
            let g = pool.fetch(leaf)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Leaf) {
                break;
            }
            let used = LeafView::of(&page).used_bytes();
            if kept > 0 && bytes + used > LEAF_BODY {
                break;
            }
            bytes += used;
            kept += 1;
        }
        for &(_, leaf) in &group[kept..] {
            locks.unlock(owner, ResourceId::Page(leaf.0));
        }
        if kept < group.len().min(2) {
            // Nothing left worth moving under this base right now.
            let mut largest_key = group.iter().map(|&(k, _)| k).max().unwrap_or(0);
            if kept > 0 {
                largest_key = largest_key.max(last_key_of(db, group[0].1)?);
            }
            locks.release_all(owner);
            if !in_place {
                db.fsm().free(dest); // return the reserved empty page
            }
            return Ok(UnitDone {
                largest_key,
                freed: 0,
                in_place,
            });
        }
        let group = &group[..kept];
        let sources: Vec<PageId> = group
            .iter()
            .map(|&(_, l)| l)
            .filter(|&l| l != dest)
            .collect();
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
            pass,
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
            for &(_, org) in group {
                if org == dest {
                    largest_key = largest_key.max(last_key_of(db, org)?);
                    continue;
                }
                let og = pool.fetch(org)?;
                // The first MOVE formats a new-place dest: its old bytes
                // need not be read.
                let fresh = !in_place && journal.is_empty();
                let dg = if fresh {
                    pool.fetch_new(dest)?
                } else {
                    pool.fetch(dest)?
                };
                let mut opage = og.write();
                let mut dpage = dg.write();
                let records = LeafView::of(&opage).records();
                if let Some((k, _)) = records.last() {
                    largest_key = largest_key.max(*k);
                }
                let payload = match self.cfg.log_strategy {
                    LogStrategy::KeysOnly => {
                        MovePayload::Keys(records.iter().map(|(k, _)| *k).collect())
                    }
                    LogStrategy::FullRecords => MovePayload::Records(records.clone()),
                };
                log_and_apply(db, &mut [&mut opage, &mut dpage], |prev_lsn| {
                    LogRecord::ReorgMove {
                        unit,
                        org,
                        dest,
                        payload,
                        fresh_dest: fresh.then_some(group[0].0),
                        prev_lsn,
                    }
                })?;
                if self.cfg.log_strategy == LogStrategy::KeysOnly {
                    // Careful writing: org may not reach disk before dest.
                    pool.add_write_dependency(org, dest);
                }
                db.core_metrics().records_moved.add(records.len() as u64);
                db.tracer().emit(
                    TraceKind::UnitMove,
                    unit.0,
                    pass,
                    u64::from(org.0),
                    u64::from(dest.0),
                    records.len() as u64,
                );
                let first_move = journal.is_empty();
                journal.push(MoveJournal { org, dest, records });
                if first_move {
                    self.check_fail(FailSite::AfterFirstMove)?;
                }
            }
            // Side pointers around the new chain position of dest:
            // `left_n <-> dest <-> right_n`.
            set_siblings(db, unit, dest, |_, _| (left_n, right_n))?;
            set_siblings(db, unit, left_n, |l, _| (l, dest))?;
            set_siblings(db, unit, right_n, |_, r| (dest, r))
        })();
        if let Err(e) = move_result {
            if matches!(e, CoreError::InjectedCrash(_)) {
                return Err(e); // the "crash" leaves everything in place
            }
            self.undo_moves(&tree.smo_guard(), unit, &journal)?;
            self.close_undone_unit(unit, pass);
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
                let chain: Vec<PageId> = std::iter::once(left_n)
                    .chain(group.iter().map(|&(_, l)| l))
                    .chain(std::iter::once(right_n))
                    .collect();
                for pair in chain.windows(2) {
                    let (left, right) = (pair[0], pair[1]);
                    set_siblings(db, unit, left, |l, _| (l, right))?;
                    set_siblings(db, unit, right, |_, r| (left, r))?;
                }
            }
            self.close_undone_unit(unit, pass);
            return Err(e.into());
        }
        {
            let _g = tree.smo_guard();
            let bg = pool.fetch(base)?;
            let mut bpage = bg.write();
            // The re-measure saw every source named by the locked base.
            let (dropped, added) = modify_base(db, unit, base, &mut bpage, &sources, dest)?
                .ok_or_else(|| {
                    CoreError::Recovery(format!("base {base} names no source of {unit:?}"))
                })?;
            db.tracer().emit(
                TraceKind::UnitModify,
                unit.0,
                pass,
                u64::from(base.0),
                dropped as u64,
                added as u64,
            );
        }
        self.check_fail(FailSite::BeforeEnd)?;
        // --- Deallocate emptied sources (careful writing: dest first). ---
        pool.flush_page(dest)?;
        for &org in &sources {
            pool.discard(org);
            db.fsm().free(org);
        }
        let freed = sources.len() as u64;
        // --- END. ---
        #[cfg(debug_assertions)]
        self.debug_assert_unit_outcome(&[base], &[dest]);
        // LK is pass 1's restart position (§5). A pass-2 move leaves it
        // where pass 1 put it, and its END carries that LK, so recovery,
        // which rebuilds LK from the ENDs, rebuilds the same value.
        let table = db.reorg_table();
        let end_key = match pass {
            1 => largest_key,
            _ => table.lk().unwrap_or(0),
        };
        db.log().append(&LogRecord::ReorgEnd {
            unit,
            largest_key: end_key,
        });
        match pass {
            1 => table.finish_unit(largest_key),
            _ => table.abandon_unit(),
        }
        locks.release_all(owner);
        let cm = db.core_metrics();
        cm.units_completed.inc();
        cm.pages_freed.add(freed);
        db.tracer().emit(
            TraceKind::UnitEnd,
            unit.0,
            pass,
            u64::from(base.0),
            largest_key,
            freed,
        );
        Ok(UnitDone {
            largest_key,
            freed,
            in_place,
        })
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
            NodeView::of(&g.read())
                .validate()
                .expect("reorganization unit left an invalid base page");
        }
        for &id in leaves {
            let g = pool.fetch(id).expect("unit leaf unreadable at END");
            LeafView::of(&g.read())
                .validate()
                .expect("reorganization unit left an invalid leaf");
        }
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
            log_and_apply(db, &mut [&mut dpage, &mut opage], |prev_lsn| {
                LogRecord::ReorgMove {
                    unit,
                    org: m.dest,
                    dest: m.org,
                    payload: MovePayload::Records(m.records.clone()),
                    fresh_dest: None,
                    prev_lsn,
                }
            })?;
        }
        Ok(())
    }

    /// END an undone unit: it completed with net-zero effect; largest_key 0
    /// cannot regress LK (finish keeps the max).
    fn close_undone_unit(&self, unit: UnitId, pass: u8) {
        self.db.log().append(&LogRecord::ReorgEnd {
            unit,
            largest_key: 0,
        });
        self.db.reorg_table().abandon_unit();
        self.db.core_metrics().units_undone.inc();
        self.db
            .tracer()
            .emit(TraceKind::UnitUndo, unit.0, pass, 0, 0, 0);
    }

    // ------------------------------------------------------------------
    // Pass 2: Swapping-Moving (§6, Figure 2).
    // ------------------------------------------------------------------

    /// Pass 2: place leaves contiguously in key order. Runs of at least
    /// `KEEP_RUN` leaves on consecutive pages stay where they are, and only
    /// the leaves between them get new pages (`Placement::new`). A leaf
    /// whose target is held by a later leaf starts a chain of occupants
    /// (leaves whose target is not their page) that ends at a
    /// free page; the chain moves tail first, each leaf straight into its
    /// target. When the chain instead returns to the leaf (a cycle) or meets
    /// a page pass 2 cannot move, the leaf first parks past the leaf region
    /// and its vacated page ends the chain.
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
        let leaves = tree.leaves_in_key_order()?;
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
        let mut free = vec![false; fsm.num_pages() as usize];
        for p in fsm.free_pages() {
            free[p.index()] = true;
        }
        let mut plan = Placement::new(leaves, start, boundary.0, &free);
        let region_end = plan.target.iter().max().map_or(start, |t| t.0 + 1);
        for i in 0..plan.at.len() {
            if plan.at[i] == plan.target[i] {
                continue;
            }
            // Follow the occupants: `chain[k + 1]` holds `chain[k]`'s
            // target, until a target is free (and now reserved).
            let mut chain = vec![i];
            let end = loop {
                let want = plan.target[chain[chain.len() - 1]];
                if fsm.allocate_specific(want) {
                    break Some(want);
                }
                match self.occupant(want, &plan)? {
                    Some(j) if j > i => chain.push(j),
                    // Back at leaf i (a cycle), or at a page pass 2 leaves
                    // where it is.
                    _ => break None,
                }
            };
            let end = match end {
                Some(free) => free,
                // Leaf i's own target holds an internal page or a foreign
                // leaf: leave leaf i where it is.
                None if chain.len() == 1 => continue,
                None => {
                    // Park leaf i past the region; its page ends the chain.
                    let vacated = plan.at[i];
                    let Some(park) = fsm.allocate_in(PageId(region_end - 1), PageId(u32::MAX))
                    else {
                        self.db.core_metrics().pass2_skipped.inc();
                        continue;
                    };
                    if !self.place(&mut plan, i, park)? {
                        continue;
                    }
                    self.db.core_metrics().pass2_parks.inc();
                    if !fsm.allocate_specific(vacated) {
                        continue; // a split took it: leaf i stays parked
                    }
                    vacated
                }
            };
            // Tail first: each move vacates the target of the leaf before
            // it in the chain.
            let mut dest = end;
            for (n, &c) in chain.iter().enumerate().rev() {
                if n + 1 < chain.len() {
                    dest = plan.target[c];
                    if !fsm.allocate_specific(dest) {
                        break;
                    }
                }
                if !self.place(&mut plan, c, dest)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// The index of the leaf that occupies `page` while its target is
    /// elsewhere, if any.
    fn occupant(&self, page: PageId, plan: &Placement) -> CoreResult<Option<usize>> {
        let g = self.db.pool().fetch(page)?;
        if g.read().page_type() != Some(PageType::Leaf) {
            return Ok(None);
        }
        Ok(plan
            .index
            .get(&page)
            .copied()
            .filter(|&j| plan.target[j] != page))
    }

    /// Move leaf `plan.at[i]` into the reserved page `dest` with a one-leaf
    /// Move unit. Returns whether it moved; when it did not, `dest` is free
    /// again and the leaf stays where it is — §3 allows "not necessarily a
    /// perfectly ordered" result.
    fn place(&self, plan: &mut Placement, i: usize, dest: PageId) -> CoreResult<bool> {
        let leaf = plan.at[i];
        let moved = self.with_retries(format_args!("move {leaf}->{dest}"), || {
            let (base, entry_key) = self.base_of_leaf(leaf)?;
            self.move_unit(2, base, &[(entry_key, leaf)], dest)
        });
        match moved {
            Ok(done) if done.freed > 0 => {
                plan.moved(i, dest);
                self.db.core_metrics().pass2_moves.inc();
                Ok(true)
            }
            // The leaf was not under the base its key led to; the unit
            // logged nothing and returned `dest`.
            Ok(_) => Ok(false),
            Err(CoreError::TooManyRetries(_)) => {
                self.db.fsm().free(dest);
                self.db.core_metrics().pass2_skipped.inc();
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// The base page a descent by `leaf`'s first key (its low mark when it
    /// is empty) reaches, and the key of that base's entry for `leaf` (the
    /// probe key when it has none). Neither is verified — the low mark is
    /// historical, so the descent may land left of the leaf — and the unit
    /// re-checks both under its locks.
    fn base_of_leaf(&self, leaf: PageId) -> CoreResult<(PageId, u64)> {
        let tree = self.db.tree();
        let key = {
            let g = self.db.pool().fetch(leaf)?;
            let page = g.read();
            LeafView::of(&page).first_key().unwrap_or(page.low_mark())
        };
        let path = tree.path_for(key)?;
        if path.len() < 2 {
            return Err(CoreError::Recovery(format!("leaf {leaf} has no base page")));
        }
        let base = path[path.len() - 2];
        let entry_key = tree
            .base_entries(base)?
            .into_iter()
            .find(|&(_, c)| c == leaf)
            .map_or(key, |(k, _)| k);
        Ok((base, entry_key))
    }
}

/// The shortest run of key-adjacent leaves on consecutive pages that pass 2
/// leaves where it is. A scan pays one seek per run it crosses, so a kept
/// run costs at most one seek per `KEEP_RUN` leaves; and a plan that keeps
/// `R` runs ends with at most `2R + 1` runs over at least `9R + 1` leaves,
/// a disorder of at most 2/9, under [`ReorgTrigger::max_disorder`]'s
/// default 0.25 (DESIGN.md, "Which leaves move: runs, not slots").
const KEEP_RUN: usize = 8;

/// Pass 2's plan: for each leaf in key order, the page it is on and the
/// page it goes to.
struct Placement {
    at: Vec<PageId>,
    target: Vec<PageId>,
    /// Page → index into `at`.
    index: HashMap<PageId, usize>,
}

impl Placement {
    /// Plan `leaves` (key order). A maximal run of at least [`KEEP_RUN`]
    /// leaves on consecutive pages at or above `floor` (the leaf region)
    /// keeps its pages. Each stretch of leaves between two kept runs gets
    /// consecutive pages: right after the run on its left, else right
    /// before the run on its right, else its own pages when they are
    /// already consecutive, else the lowest extent at or above `floor`
    /// that it can take; a stretch that fits nowhere stays where it is. A
    /// stretch can take a page that `free` marks free or that a leaf of
    /// itself or of an earlier stretch holds, since those leaves leave it.
    /// Without a kept run, leaf `i` goes to `start + i`.
    fn new(leaves: Vec<PageId>, start: u32, floor: u32, free: &[bool]) -> Placement {
        let mut kept = Vec::new();
        let mut from = 0;
        for run in leaves.chunk_by(|a, b| a.0.checked_add(1) == Some(b.0)) {
            if run.len() >= KEEP_RUN && run[0].0 >= floor {
                kept.push(from..from + run.len());
            }
            from += run.len();
        }
        let target: Vec<PageId> = if kept.is_empty() {
            (0..leaves.len())
                .map(|i| PageId(start + i as u32))
                .collect()
        } else {
            plan_stretches(&leaves, &kept, floor, free)
        };
        let index = leaves.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        Placement {
            at: leaves,
            target,
            index,
        }
    }

    /// Leaf `i` now lives on `dest`.
    fn moved(&mut self, i: usize, dest: PageId) {
        self.index.remove(&self.at[i]);
        self.index.insert(dest, i);
        self.at[i] = dest;
    }
}

/// Targets for a plan that keeps the runs `kept` (ascending, disjoint):
/// their leaves stay, and the stretches between them are placed as
/// [`Placement::new`] says.
fn plan_stretches(
    leaves: &[PageId],
    kept: &[Range<usize>],
    floor: u32,
    free: &[bool],
) -> Vec<PageId> {
    // Each stretch: its leaves, the last page of the kept run on its left
    // and the first page of the one on its right.
    let mut stretches = Vec::new();
    let mut from = 0;
    let mut left = None;
    for r in kept {
        if from < r.start {
            stretches.push((from..r.start, left, Some(leaves[r.start].0)));
        }
        from = r.end;
        left = Some(leaves[r.end - 1].0);
    }
    if from < leaves.len() {
        stretches.push((from..leaves.len(), left, None));
    }
    let mut owner = vec![usize::MAX; free.len()];
    for (s, (range, ..)) in stretches.iter().enumerate() {
        for leaf in &leaves[range.clone()] {
            owner[leaf.index()] = s;
        }
    }
    let mut claimed = vec![false; free.len()];
    for leaf in kept.iter().flat_map(|r| &leaves[r.clone()]) {
        claimed[leaf.index()] = true;
    }
    let mut target = leaves.to_vec();
    for (s, (range, left, right)) in stretches.into_iter().enumerate() {
        let m = range.len() as u32;
        let usable = |p: u32| {
            let p = p as usize;
            p >= floor as usize && p < free.len() && !claimed[p] && (free[p] || owner[p] <= s)
        };
        let fits = |base: u32| (base..base + m).all(usable);
        let in_place = leaves[range.clone()]
            .windows(2)
            .all(|w| w[0].0 + 1 == w[1].0);
        let lowest = || {
            let mut run = 0;
            (floor..free.len() as u32).find_map(|p| {
                run = if usable(p) { run + 1 } else { 0 };
                (run == m).then(|| p + 1 - m)
            })
        };
        let base = left
            .map(|l| l + 1)
            .filter(|&b| fits(b))
            .or_else(|| right.and_then(|r| r.checked_sub(m)).filter(|&b| fits(b)))
            .or_else(|| Some(leaves[range.start].0).filter(|&b| in_place && fits(b)))
            .or_else(lowest);
        for (k, i) in range.enumerate() {
            if let Some(b) = base {
                target[i] = PageId(b + k as u32);
            }
            claimed[target[i].index()] = true;
        }
    }
    target
}

/// Set `page`'s side pointers to `links(old_left, old_right)` inside
/// `unit`, logging one SIDEPTR when they change — the one logged
/// side-pointer write of the reorganizer and of Forward Recovery. Invalid
/// ids and pages that are not leaves are left alone: only leaves carry the
/// chain.
pub(crate) fn set_siblings(
    db: &Database,
    unit: UnitId,
    page: PageId,
    links: impl FnOnce(PageId, PageId) -> (PageId, PageId),
) -> CoreResult<()> {
    if !page.is_valid() {
        return Ok(());
    }
    let g = db.pool().fetch(page)?;
    let mut p = g.write();
    if p.page_type() != Some(PageType::Leaf) {
        return Ok(());
    }
    let (old_left, old_right) = (p.left_sibling(), p.right_sibling());
    let (new_left, new_right) = links(old_left, old_right);
    if (old_left, old_right) != (new_left, new_right) {
        log_and_apply(db, &mut [&mut p], |prev_lsn| LogRecord::ReorgSidePtr {
            unit,
            page,
            old_left,
            old_right,
            new_left,
            new_right,
            prev_lsn,
        })?;
    }
    Ok(())
}

/// The largest key on `page`; 0 when it is empty or not a leaf.
pub(crate) fn last_key_of(db: &Database, page: PageId) -> CoreResult<u64> {
    let g = db.pool().fetch(page)?;
    let p = g.read();
    let is_leaf = p.page_type() == Some(PageType::Leaf);
    Ok(if is_leaf {
        LeafView::of(&p).last_key()
    } else {
        None
    }
    .unwrap_or(0))
}

/// The MODIFY of a Compact or Move unit (§5), shared by the live unit and
/// Forward Recovery: drop the entries of `base` (latched as `bpage`) that
/// name one of `sources`, and register `dest` under the smallest dropped
/// key unless `base` already names it. Logs and applies the change and
/// returns the (dropped, added) entry counts; `None`, with nothing logged,
/// when no entry names a source.
pub(crate) fn modify_base(
    db: &Database,
    unit: UnitId,
    base: PageId,
    bpage: &mut Page,
    sources: &[PageId],
    dest: PageId,
) -> CoreResult<Option<(usize, usize)>> {
    let entries = NodeView::of(bpage).entries();
    let old_entries: Vec<(u64, PageId)> = entries
        .iter()
        .copied()
        .filter(|(_, c)| sources.contains(c))
        .collect();
    let Some(entry_key) = old_entries.iter().map(|&(k, _)| k).min() else {
        return Ok(None);
    };
    let new_entries = if entries.iter().any(|&(_, c)| c == dest) {
        Vec::new()
    } else {
        vec![(entry_key, dest)]
    };
    let counts = (old_entries.len(), new_entries.len());
    log_and_apply(db, &mut [bpage], |prev_lsn| LogRecord::ReorgModify {
        unit,
        base_page: base,
        old_entries,
        new_entries,
        prev_lsn,
    })?;
    Ok(Some(counts))
}

/// The one way a reorganization unit changes pages, live, in compensation
/// or in Forward Recovery: append the record `record` builds from the
/// unit's prev-LSN, apply it to `pages` (its roles, in
/// [`obr_btree::apply::roles`] order), and stamp them with its LSN.
pub(crate) fn log_and_apply(
    db: &Database,
    pages: &mut [&mut Page],
    record: impl FnOnce(Lsn) -> LogRecord,
) -> CoreResult<Lsn> {
    let before = shadow_before(pages);
    let (lsn, rec) = db.reorg_table().append_to_unit(db.log(), |prev_lsn| {
        let mut rec = record(prev_lsn);
        if let LogRecord::ReorgMove { fresh_dest, .. } = &mut rec {
            if let Some(low) = fresh_dest.take_if(|_| old_move_dest()) {
                LeafView::init(pages[1]).page_mut().set_low_mark(low);
            }
        }
        rec
    });
    let mut slots: Vec<Option<&mut Page>> = pages.iter_mut().map(|p| Some(&mut **p)).collect();
    apply(&rec, &mut slots)?;
    for p in pages.iter_mut() {
        p.set_lsn(lsn);
    }
    shadow_check(before, &rec, lsn, pages);
    Ok(lsn)
}

/// Test-only sabotage switch: when `OBR_BUG_OLD_MOVE_DEST=1` in a debug
/// build, a unit handles its new-place destination as it did before the
/// MOVE record named it fresh: the unit formats the page itself, under the
/// base entry key, and logs the MOVE without `fresh_dest`. The apply
/// shadow check must catch it (`tests/apply_teeth.rs`); release builds
/// never read the switch.
fn old_move_dest() -> bool {
    cfg!(debug_assertions) && std::env::var_os("OBR_BUG_OLD_MOVE_DEST").is_some_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pass 2's targets for leaves on `leaves` (key order) over 64 pages of
    /// which `free` are free.
    fn plan(leaves: &[u32], start: u32, floor: u32, free: &[u32]) -> Vec<u32> {
        let mut map = vec![false; 64];
        for &p in free {
            map[p as usize] = true;
        }
        let leaves = leaves.iter().map(|&p| PageId(p)).collect();
        let plan = Placement::new(leaves, start, floor, &map);
        plan.target.iter().map(|p| p.0).collect()
    }

    fn run(from: u32) -> Vec<u32> {
        (from..from + KEEP_RUN as u32).collect()
    }

    #[test]
    fn without_a_long_run_leaf_i_goes_to_start_plus_i() {
        assert_eq!(plan(&[7, 3, 5, 4], 3, 0, &[]), vec![3, 4, 5, 6]);
        // A long run below the leaf region is not kept.
        assert_eq!(plan(&run(2), 10, 10, &[]), run(10));
    }

    #[test]
    fn a_stretch_goes_after_its_left_run_else_before_its_right_run() {
        let leaves = [run(10), vec![40, 41], run(21)].concat();
        let placed = |pages: [u32; 2]| [run(10), pages.to_vec(), run(21)].concat();
        assert_eq!(plan(&leaves, 10, 0, &[18, 19, 20]), placed([18, 19]));
        assert_eq!(plan(&leaves, 10, 0, &[19, 20]), placed([19, 20]));
        // Neither: a stretch on consecutive pages stays there, any other
        // goes to the lowest extent at or above the floor.
        assert_eq!(plan(&leaves, 10, 2, &[3, 4, 19]), leaves);
        let scattered = [run(10), vec![40, 42], run(21)].concat();
        assert_eq!(plan(&scattered, 10, 2, &[0, 1, 3, 4, 19]), placed([3, 4]));
    }

    #[test]
    fn a_stretch_that_fits_nowhere_stays_where_it_is() {
        let leaves = [run(10), vec![40, 42], run(21)].concat();
        assert_eq!(plan(&leaves, 10, 0, &[19]), leaves);
    }
}
