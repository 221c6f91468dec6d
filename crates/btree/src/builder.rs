//! Bottom-up tree construction (\[Sal88\] ch. 5 §5), as used by bulk loading
//! and by pass 3 of the reorganization.
//!
//! "Essentially, the records are copied to newly allocated empty pages as
//! they arrive. When a new page is added, no splitting is necessary. The
//! first page is filled to a pre-assigned fill factor, and then the next
//! records go in the next page. Each new page requires a new entry in the
//! level above. At all levels, when a page is filled to the fill factor, a
//! new empty page is allocated and the next record or pointer to a record is
//! entered there."
//!
//! [`UpperBuilder`] is the *incremental* form pass 3 needs: entries stream
//! in one base page at a time while the reorganizer holds only one S lock,
//! and the set of pages dirtied since the last stable point can be drained
//! for the §7.3 force-writes.

use std::collections::BTreeSet;
use std::sync::Arc;

use obr_storage::{BufferPool, FreeSpaceMap, PageId, StorageError};

use crate::error::{BTreeError, BTreeResult};
use crate::leaf::{LeafView, LEAF_BODY};
use crate::node::{NodeView, NODE_CAPACITY};

/// Result of a bottom-up build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltTree {
    /// Root of the new (sub)tree.
    pub root: PageId,
    /// Height of the new tree (0 = root is a leaf).
    pub height: u8,
}

struct LevelState {
    page: PageId,
    low_key: u64,
    count: usize,
    /// Whether this page already has an entry in the level above.
    registered: bool,
}

/// Incremental bottom-up builder for the internal levels of a tree, fed
/// `(low_key, child)` entries in ascending key order.
pub struct UpperBuilder {
    pool: Arc<BufferPool>,
    fsm: Arc<FreeSpaceMap>,
    /// Target entries per page: `fill × NODE_CAPACITY`, at least 2.
    fill_entries: usize,
    /// The tree level of the children being pushed (0 when building above
    /// leaves).
    child_level: u8,
    /// `levels[i]` builds pages at level `child_level + 1 + i`.
    levels: Vec<LevelState>,
    /// Pages dirtied since the last [`Self::take_touched`] (stable points).
    touched: BTreeSet<PageId>,
    /// Every page this builder allocated (for cleanup on abandon).
    all_pages: Vec<PageId>,
    last_key: Option<u64>,
    entries_pushed: u64,
}

impl UpperBuilder {
    /// Start building internal levels above children at `child_level`,
    /// filling pages to `node_fill` (clamped to `[2, NODE_CAPACITY]`
    /// entries).
    pub fn new(
        pool: Arc<BufferPool>,
        fsm: Arc<FreeSpaceMap>,
        child_level: u8,
        node_fill: f64,
    ) -> UpperBuilder {
        let fill_entries = ((NODE_CAPACITY as f64 * node_fill) as usize).clamp(2, NODE_CAPACITY);
        UpperBuilder {
            pool,
            fsm,
            fill_entries,
            child_level,
            levels: Vec::new(),
            touched: BTreeSet::new(),
            all_pages: Vec::new(),
            last_key: None,
            entries_pushed: 0,
        }
    }

    /// Resume a builder from a partially-built tree that reached disk at a
    /// pass-3 stable point (§7.3): the force-writes guarantee a durable path
    /// from `root` down its rightmost spine, which is exactly the builder's
    /// in-flight state.
    pub fn resume(
        pool: Arc<BufferPool>,
        fsm: Arc<FreeSpaceMap>,
        child_level: u8,
        node_fill: f64,
        root: PageId,
    ) -> BTreeResult<UpperBuilder> {
        let mut b = UpperBuilder::new(pool, fsm, child_level, node_fill);
        // Walk the rightmost spine top-down, then reverse into level order.
        let mut spine: Vec<LevelState> = Vec::new();
        let mut cur = root;
        let mut parent_last_child: Option<PageId> = None;
        let bottom_last_key;
        loop {
            let g = b.pool.fetch(cur)?;
            let page = g.read();
            if page.page_type() != Some(obr_storage::PageType::Internal) {
                return Err(BTreeError::Inconsistent(format!(
                    "resume: {cur} is not internal"
                )));
            }
            let node = NodeView::of(&page);
            let (first_key, _) = node
                .first_entry()
                .ok_or_else(|| BTreeError::Inconsistent(format!("resume: {cur} empty")))?;
            let (last_key, last_child) = node.last_entry().expect("non-empty");
            let level = page.level();
            spine.push(LevelState {
                page: cur,
                low_key: first_key,
                count: node.count(),
                registered: parent_last_child == Some(cur),
            });
            b.all_pages.push(cur);
            if level == child_level + 1 {
                bottom_last_key = Some(last_key);
                break;
            }

            parent_last_child = Some(last_child);
            cur = last_child;
        }
        spine.reverse(); // levels[0] = just above the children
        b.levels = spine;
        b.last_key = bottom_last_key;
        Ok(b)
    }

    /// Entries pushed so far.
    pub fn entries_pushed(&self) -> u64 {
        self.entries_pushed
    }

    /// The last (largest) low key pushed, if any.
    pub fn last_key(&self) -> Option<u64> {
        self.last_key
    }

    /// Pages dirtied since the last call; used by pass-3 stable points to
    /// know which new-tree pages (and ancestors) to force to disk.
    pub fn take_touched(&mut self) -> Vec<PageId> {
        let v: Vec<PageId> = self.touched.iter().copied().collect();
        self.touched.clear();
        v
    }

    /// The current top-level page (the §7.3 "concurrent root" hint logged
    /// at stable points). `None` before the first push.
    pub fn top_page(&self) -> Option<PageId> {
        self.levels.last().map(|l| l.page)
    }

    /// Every page allocated by this builder so far (cleanup on abandon, and
    /// the §7.3 rule that space allocated after the last force-write is
    /// deallocated during recovery).
    pub fn pages_allocated(&self) -> Vec<PageId> {
        self.all_pages.clone()
    }

    /// Feed the next child entry, in ascending `low_key` order.
    pub fn push(&mut self, low_key: u64, child: PageId) -> BTreeResult<()> {
        if let Some(last) = self.last_key {
            if low_key <= last {
                return Err(BTreeError::Inconsistent(format!(
                    "builder keys must ascend: {low_key} after {last}"
                )));
            }
        }
        self.last_key = Some(low_key);
        self.entries_pushed += 1;
        self.push_at(0, low_key, child)
    }

    fn start_page(&mut self, idx: usize, low_key: u64, child: PageId) -> BTreeResult<LevelState> {
        let level = self.child_level + 1 + idx as u8;
        let id = self
            .fsm
            .allocate_internal()
            .ok_or(StorageError::NoFreePage)?;
        let g = self.pool.fetch_new(id)?;
        let mut page = g.write();
        let mut node = NodeView::init(&mut page, level);
        node.insert_entry(low_key, child)?;
        node.page_mut().set_low_mark(low_key);
        self.touched.insert(id);
        self.all_pages.push(id);
        Ok(LevelState {
            page: id,
            low_key,
            count: 1,
            registered: false,
        })
    }

    fn push_at(&mut self, idx: usize, low_key: u64, child: PageId) -> BTreeResult<()> {
        if idx == self.levels.len() {
            let st = self.start_page(idx, low_key, child)?;
            self.levels.push(st);
            return Ok(());
        }
        if self.levels[idx].count < self.fill_entries {
            let page = self.levels[idx].page;
            let g = self.pool.fetch(page)?;
            let mut p = g.write();
            NodeView::new(&mut p).insert_entry(low_key, child)?;
            drop(p);
            self.touched.insert(page);
            self.levels[idx].count += 1;
            return Ok(());
        }
        // Current page filled to the fill factor: start a new one and make
        // sure both it and (lazily) the old first page are registered above.
        let fresh = self.start_page(idx, low_key, child)?;
        let old = std::mem::replace(&mut self.levels[idx], fresh);
        if !old.registered {
            self.push_at(idx + 1, old.low_key, old.page)?;
        }
        let (new_low, new_page) = (self.levels[idx].low_key, self.levels[idx].page);
        self.levels[idx].registered = true;
        self.push_at(idx + 1, new_low, new_page)?;
        Ok(())
    }

    /// Finish the build. With no entries pushed this fails; with entries it
    /// returns the new root and its height.
    pub fn finish(mut self) -> BTreeResult<BuiltTree> {
        if self.levels.is_empty() {
            return Err(BTreeError::Inconsistent(
                "builder finished with no entries".into(),
            ));
        }
        // Register any still-unregistered non-top pages upward.
        let mut idx = 0;
        while idx + 1 < self.levels.len() {
            if !self.levels[idx].registered {
                let (low, page) = (self.levels[idx].low_key, self.levels[idx].page);
                self.levels[idx].registered = true;
                self.push_at(idx + 1, low, page)?;
            }
            idx += 1;
        }
        let top = self.levels.last().expect("non-empty");
        Ok(BuiltTree {
            root: top.page,
            height: self.child_level + self.levels.len() as u8,
        })
    }
}

/// Build a complete tree (leaves + upper levels) from sorted unique
/// records. Pages come from `fsm` in ascending order, so a fresh region
/// yields physically contiguous leaves.
// protocol: no-wal bulk-load writes fresh pages and is made durable by the explicit flush_all barrier, not by logging
pub fn bulk_build(
    pool: &Arc<BufferPool>,
    fsm: &Arc<FreeSpaceMap>,
    records: &[(u64, Vec<u8>)],
    leaf_fill: f64,
    node_fill: f64,
) -> BTreeResult<BuiltTree> {
    let leaf_budget = ((LEAF_BODY as f64 * leaf_fill) as usize).clamp(64, LEAF_BODY);
    // Cut records into leaves by the byte budget.
    let mut leaves: Vec<(u64, PageId)> = Vec::new();
    let mut i = 0usize;
    let mut prev_leaf: Option<PageId> = None;
    while i < records.len() {
        let mut used = 0usize;
        let start = i;
        while i < records.len() {
            let need = 10 + records[i].1.len();
            if (used + need > leaf_budget && i > start) || used + need > LEAF_BODY {
                break;
            }
            used += need;
            i += 1;
        }
        let id = fsm.allocate_leaf().ok_or(StorageError::NoFreePage)?;
        let g = pool.fetch_new(id)?;
        let mut page = g.write();
        let mut leaf = LeafView::init(&mut page);
        leaf.extend(&records[start..i])?;
        leaf.page_mut().set_low_mark(records[start].0);
        if let Some(prev) = prev_leaf {
            page.set_left_sibling(prev);
        }
        drop(page);
        if let Some(prev) = prev_leaf {
            let pg = pool.fetch(prev)?;
            pg.write().set_right_sibling(id);
        }
        prev_leaf = Some(id);
        leaves.push((records[start].0, id));
    }
    match leaves.len() {
        0 => {
            // Empty tree: a single empty leaf is the root.
            let id = fsm.allocate_leaf().ok_or(StorageError::NoFreePage)?;
            let g = pool.fetch_new(id)?;
            let mut page = g.write();
            LeafView::init(&mut page);
            Ok(BuiltTree {
                root: id,
                height: 0,
            })
        }
        1 => Ok(BuiltTree {
            root: leaves[0].1,
            height: 0,
        }),
        _ => {
            let mut upper = UpperBuilder::new(Arc::clone(pool), Arc::clone(fsm), 0, node_fill);
            for (low, id) in &leaves {
                upper.push(*low, *id)?;
            }
            upper.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_storage::{DiskManager, InMemoryDisk};

    fn env(pages: u32) -> (Arc<BufferPool>, Arc<FreeSpaceMap>) {
        let disk = Arc::new(InMemoryDisk::new(pages));
        let pool = Arc::new(BufferPool::new(
            disk as Arc<dyn DiskManager>,
            pages as usize,
        ));
        let fsm = Arc::new(FreeSpaceMap::new_all_free(pages));
        (pool, fsm)
    }

    #[test]
    fn builder_single_page_becomes_root() {
        let (pool, fsm) = env(64);
        let mut b = UpperBuilder::new(pool, fsm, 0, 0.9);
        for k in 0..5u64 {
            b.push(k * 10, PageId(k as u32 + 50)).unwrap();
        }
        let built = b.finish().unwrap();
        assert_eq!(built.height, 1);
    }

    #[test]
    fn builder_overflow_creates_levels() {
        let (pool, fsm) = env(4096);
        // Tiny fill: 2 entries per page forces many levels.
        let mut b = UpperBuilder::new(Arc::clone(&pool), fsm, 0, 0.0);
        let n = 64u64;
        for k in 0..n {
            b.push(k, PageId(1000 + k as u32)).unwrap();
        }
        let built = b.finish().unwrap();
        // 64 children / 2 per page = 32 -> 16 -> 8 -> 4 -> 2 -> 1: height 6.
        assert_eq!(built.height, 6);
        let g = pool.fetch(built.root).unwrap();
        let page = g.read();
        assert_eq!(page.level(), 6);
        assert_eq!(page.low_mark(), 0);
    }

    #[test]
    fn builder_rejects_unsorted_input() {
        let (pool, fsm) = env(64);
        let mut b = UpperBuilder::new(pool, fsm, 0, 0.9);
        b.push(10, PageId(1)).unwrap();
        assert!(b.push(10, PageId(2)).is_err());
        assert!(b.push(5, PageId(3)).is_err());
    }

    #[test]
    fn builder_empty_finish_is_error() {
        let (pool, fsm) = env(64);
        let b = UpperBuilder::new(pool, fsm, 0, 0.9);
        assert!(b.finish().is_err());
    }

    #[test]
    fn touched_pages_drain_for_stable_points() {
        let (pool, fsm) = env(256);
        let mut b = UpperBuilder::new(pool, fsm, 0, 0.0);
        b.push(1, PageId(100)).unwrap();
        let t1 = b.take_touched();
        assert!(!t1.is_empty());
        assert!(b.take_touched().is_empty());
        b.push(2, PageId(101)).unwrap();
        assert!(!b.take_touched().is_empty());
        assert_eq!(b.entries_pushed(), 2);
        assert!(b.top_page().is_some());
        assert!(!b.pages_allocated().is_empty());
    }

    #[test]
    fn bulk_build_empty_records_gives_single_leaf() {
        let (pool, fsm) = env(64);
        let built = bulk_build(&pool, &fsm, &[], 0.9, 0.9).unwrap();
        assert_eq!(built.height, 0);
    }
}
