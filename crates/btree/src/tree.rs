//! The B+-tree proper: search, insert with splits, free-at-empty deletes,
//! range scans over side pointers, bulk loading, and introspection for the
//! reorganizer.
//!
//! ## Physical synchronization
//!
//! Record operations take a short write latch on one leaf. Structure
//! modifications (splits, root growth, free-at-empty deallocation, and every
//! reorganization unit) take the write side of a single SMO latch and bump
//! an *SMO epoch*. Descents are optimistic: read the epoch, navigate with
//! brief read latches, latch the target leaf, and re-check the epoch — if
//! any SMO ran meanwhile, retry. Once the leaf is latched with a stable
//! epoch, its key range cannot move (anything that would move it must
//! write-latch the leaf). A descent that keeps losing that race, and every
//! range scan, takes the read side of the SMO latch instead: it excludes
//! structure modifications without bumping the epoch, so it always
//! finishes and other readers stay optimistic.
//!
//! Logical locking (S/X/R/RX of §4) lives in `obr-txn`/`obr-core` above
//! this layer.

use obr_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obr_sync::{RwLock, RwLockWriteGuard};

use obr_storage::{BufferPool, FreeSpaceMap, Lsn, Page, PageId, PageType, StorageError, PAGE_SIZE};
use obr_wal::{LogManager, LogRecord, TxnId};

use crate::error::{BTreeError, BTreeResult};
use crate::leaf::{LeafRef, LeafView};
use crate::meta::{MetaRef, MetaView};
use crate::node::{NodeRef, NodeView, NODE_CAPACITY};
use crate::stats::TreeStats;

/// Side-pointer configuration (§4.3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SidePointerMode {
    /// No leaf side pointers; range scans re-descend per leaf.
    None,
    /// Right-pointing chain only.
    OneWay,
    /// Doubly-linked leaves.
    TwoWay,
}

/// Observer of base-page (parent-of-leaf) changes, installed by the
/// reorganizer during pass 3 (§7.2 of the paper).
///
/// `gate` runs *before* the structure modification, outside any latch or
/// SMO lock — this is where the updater's IX request on the side file
/// blocks while the switch holds its X lock. `ungate` runs after the SMO.
/// The upsert/remove notifications fire while the SMO is applied, for every
/// `(low_key -> leaf)` mapping change on a base page; the observer decides
/// (by comparing with `Get_Current()`) whether a side-file entry is needed.
pub trait SmoObserver: Send + Sync {
    /// Called before an SMO that may change base entries; returns a token.
    fn gate(&self) -> u64;
    /// Called after the SMO with the token from [`Self::gate`].
    fn ungate(&self, token: u64);
    /// A base-page `(key -> leaf)` mapping was added or repointed.
    fn base_entry_upserted(&self, key: u64, leaf: PageId);
    /// A base-page entry was removed.
    fn base_entry_removed(&self, key: u64);
}

/// The B+-tree.
pub struct BTree {
    pool: Arc<BufferPool>,
    fsm: Arc<FreeSpaceMap>,
    log: Arc<LogManager>,
    meta_id: PageId,
    /// Write side: one structure modification at a time. Read side: the
    /// structure holds still (scans, and descents that lost the optimistic
    /// race too often).
    smo: RwLock<()>,
    /// Even = quiescent; odd = an SMO is mutating the structure.
    epoch: AtomicU64,
    side: SidePointerMode,
    observer: RwLock<Option<Arc<dyn SmoObserver>>>,
}

/// Optimistic attempts a descent makes before it takes the read side of
/// the SMO latch. Each failed attempt yields, so this is on the order of
/// one structure modification's duration: the common loser still never
/// sleeps on the latch, and a reader facing a descheduled SMO holder or a
/// burst of units blocks instead of spinning its way to an error.
const OPTIMISTIC_DESCENTS: u32 = 64;

/// RAII guard for a structure modification: holds the write side of the
/// SMO latch and keeps the epoch odd for its lifetime. The reorganizer
/// takes one per unit application.
pub struct SmoGuard<'a> {
    _latch: RwLockWriteGuard<'a, ()>,
    epoch: &'a AtomicU64,
}

impl Drop for SmoGuard<'_> {
    fn drop(&mut self) {
        self.epoch.fetch_add(1, Ordering::Release); // odd -> even
    }
}

fn image_of(page: &Page) -> Box<[u8; PAGE_SIZE]> {
    Box::new(*page.bytes())
}

impl BTree {
    /// Create a brand-new tree: a meta page and one empty root leaf,
    /// durable on return.
    // protocol: no-wal bootstrap: the tree is created before any log exists and made durable by flushing
    pub fn create(
        pool: Arc<BufferPool>,
        fsm: Arc<FreeSpaceMap>,
        log: Arc<LogManager>,
        side: SidePointerMode,
    ) -> BTreeResult<BTree> {
        let meta_id = fsm.allocate_internal().ok_or(StorageError::NoFreePage)?;
        let root_id = fsm.allocate_leaf().ok_or(StorageError::NoFreePage)?;
        {
            let mg = pool.fetch_new(meta_id)?;
            let mut page = mg.write();
            let mut meta = MetaView::init(&mut page);
            meta.set_root(root_id);
            meta.set_height(0);
        }
        {
            let rg = pool.fetch_new(root_id)?;
            let mut page = rg.write();
            LeafView::init(&mut page);
        }
        pool.flush_page(meta_id)?;
        pool.flush_page(root_id)?;
        Ok(BTree {
            pool,
            fsm,
            log,
            meta_id,
            smo: RwLock::named((), "tree.smo"),
            epoch: AtomicU64::new(0),
            side,
            observer: RwLock::named(None, "tree.observer"),
        })
    }

    /// Open an existing tree from its meta page.
    pub fn open(
        pool: Arc<BufferPool>,
        fsm: Arc<FreeSpaceMap>,
        log: Arc<LogManager>,
        meta_id: PageId,
        side: SidePointerMode,
    ) -> BTreeResult<BTree> {
        {
            let mg = pool.fetch(meta_id)?;
            let mut page = mg.write();
            MetaView::new(&mut page)?; // validates magic
        }
        Ok(BTree {
            pool,
            fsm,
            log,
            meta_id,
            smo: RwLock::named((), "tree.smo"),
            epoch: AtomicU64::new(0),
            side,
            observer: RwLock::named(None, "tree.observer"),
        })
    }

    /// The buffer pool backing this tree.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The free-space map.
    pub fn fsm(&self) -> &Arc<FreeSpaceMap> {
        &self.fsm
    }

    /// The log manager.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The meta page id.
    pub fn meta_id(&self) -> PageId {
        self.meta_id
    }

    /// The side-pointer configuration.
    pub fn side_mode(&self) -> SidePointerMode {
        self.side
    }

    /// `(root, height)` as currently anchored.
    pub fn anchor(&self) -> BTreeResult<(PageId, u8)> {
        let mg = self.pool.fetch(self.meta_id)?;
        let page = mg.read();
        let meta = MetaRef::new(&page)?;
        Ok((meta.root(), meta.height()))
    }

    /// Point the tree at a new root (used by recovery and the pass-3
    /// switch). The caller is responsible for logging.
    pub fn set_anchor(&self, root: PageId, height: u8, lsn: Lsn) -> BTreeResult<()> {
        let mg = self.pool.fetch(self.meta_id)?;
        let mut page = mg.write();
        {
            let mut meta = MetaView::new(&mut page)?;
            meta.set_root(root);
            meta.set_height(height);
        }
        page.set_lsn(lsn);
        Ok(())
    }

    /// Tree generation (the tree's lock name; §7.4 requires old and new
    /// trees to have distinct names).
    pub fn generation(&self) -> BTreeResult<u32> {
        let mg = self.pool.fetch(self.meta_id)?;
        let page = mg.read();
        Ok(MetaRef::new(&page)?.generation())
    }

    /// Bump the generation (on switch).
    pub fn set_generation(&self, g: u32) -> BTreeResult<()> {
        let mg = self.pool.fetch(self.meta_id)?;
        let mut page = mg.write();
        MetaView::new(&mut page)?.set_generation(g);
        Ok(())
    }

    /// The §7.2 reorganization bit.
    pub fn reorg_bit(&self) -> BTreeResult<bool> {
        let mg = self.pool.fetch(self.meta_id)?;
        let page = mg.read();
        Ok(MetaRef::new(&page)?.reorg_bit())
    }

    /// Set/clear the reorganization bit.
    pub fn set_reorg_bit(&self, on: bool) -> BTreeResult<()> {
        let mg = self.pool.fetch(self.meta_id)?;
        let mut page = mg.write();
        MetaView::new(&mut page)?.set_reorg_bit(on);
        Ok(())
    }

    /// Install the pass-3 base-change observer (§7.2).
    pub fn set_observer(&self, obs: Arc<dyn SmoObserver>) {
        *self.observer.write() = Some(obs);
    }

    /// Remove the observer (pass 3 finished).
    pub fn clear_observer(&self) {
        *self.observer.write() = None;
    }

    fn observer(&self) -> Option<Arc<dyn SmoObserver>> {
        self.observer.read().clone()
    }

    fn notify_upsert(&self, parent_level: u8, key: u64, leaf: PageId) {
        if parent_level == 1 {
            if let Some(o) = self.observer() {
                o.base_entry_upserted(key, leaf);
            }
        }
    }

    fn notify_remove(&self, parent_level: u8, key: u64) {
        if parent_level == 1 {
            if let Some(o) = self.observer() {
                o.base_entry_removed(key);
            }
        }
    }

    /// Enter a structure modification: serializes against all other SMOs and
    /// makes concurrent descents retry. Used internally and by the
    /// reorganizer for each unit application.
    pub fn smo_guard(&self) -> SmoGuard<'_> {
        let g = self.smo.write();
        self.epoch.fetch_add(1, Ordering::Release); // even -> odd
        SmoGuard {
            _latch: g,
            epoch: &self.epoch,
        }
    }

    /// The SMO epoch: it changes when a structure modification starts and
    /// again when it ends. A caller that read it before [`Self::path_for`]
    /// and reads the same value later knows no SMO started in between, so
    /// the path is still the tree's routing for that key.
    pub fn structure_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn epoch_stable(&self) -> Option<u64> {
        let e = self.structure_epoch();
        e.is_multiple_of(2).then_some(e)
    }

    /// True when no SMO started since `epoch` was read stable; `None`
    /// stands for "the caller holds the SMO latch", which nothing can
    /// invalidate.
    fn unchanged_since(&self, epoch: Option<u64>) -> bool {
        epoch.is_none_or(|e| self.structure_epoch() == e)
    }

    /// Raw root-to-leaf descent with no epoch validation. Correct only when
    /// the structure cannot change underneath — i.e. while holding either
    /// side of the SMO latch. Public for the reorganizer, which calls it
    /// under its [`SmoGuard`].
    pub fn path_for_locked(&self, key: u64) -> BTreeResult<Vec<PageId>> {
        let (root, height) = self.anchor()?;
        let mut path = Vec::with_capacity(height as usize + 1);
        let mut cur = root;
        let mut level = height;
        loop {
            path.push(cur);
            if level == 0 {
                return Ok(path);
            }
            let g = self.pool.fetch(cur)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Internal) {
                return Err(BTreeError::Inconsistent(format!(
                    "expected internal page at {cur} (level {level})"
                )));
            }
            match NodeRef::new(&page).child_for(key) {
                Some(c) => cur = c,
                None => {
                    return Err(BTreeError::Inconsistent(format!(
                        "empty internal page {cur} on descent"
                    )))
                }
            }
            level -= 1;
        }
    }

    /// Descend to the leaf for `key` and hand the path to `visit` at a
    /// moment the structure provably holds still. The first
    /// [`OPTIMISTIC_DESCENTS`] attempts are optimistic: `visit` gets the
    /// epoch the descent started at and answers `Ok(None)` when
    /// [`Self::unchanged_since`] fails after it has taken its latch. After
    /// that the descent runs under the read side of the SMO latch, where no
    /// SMO can interfere, so it makes progress however busy the reorganizer
    /// is; a failure there is a malformed tree, not a race.
    fn descend<T>(
        &self,
        key: u64,
        mut visit: impl FnMut(Vec<PageId>, Option<u64>) -> BTreeResult<Option<T>>,
    ) -> BTreeResult<T> {
        for _ in 0..OPTIMISTIC_DESCENTS {
            if let Some(e1) = self.epoch_stable() {
                match self
                    .path_for_locked(key)
                    .and_then(|path| visit(path, Some(e1)))
                {
                    Ok(Some(t)) => return Ok(t),
                    Ok(None) => {}
                    // Transient inconsistency caused by a concurrent SMO.
                    Err(_) if !self.unchanged_since(Some(e1)) => {}
                    Err(e) => return Err(e),
                }
            }
            std::thread::yield_now();
        }
        // The read side blocks while an SMO runs and keeps the next one out.
        let _frozen = self.smo.read();
        let path = self.path_for_locked(key)?;
        let end = *path.last().expect("path never empty");
        visit(path, None)?.ok_or_else(|| {
            BTreeError::Inconsistent(format!(
                "descent for key {key} ends at {end}, which is not a leaf"
            ))
        })
    }

    /// Path of page ids from the root to the leaf for `key`, validated
    /// against concurrent structure modifications (retried around SMOs).
    pub fn path_for(&self, key: u64) -> BTreeResult<Vec<PageId>> {
        self.descend(key, |path, epoch| {
            Ok(self.unchanged_since(epoch).then_some(path))
        })
    }

    /// The leaf currently responsible for `key`.
    pub fn leaf_for(&self, key: u64) -> BTreeResult<PageId> {
        Ok(*self.path_for(key)?.last().expect("path never empty"))
    }

    /// The base page (parent-of-leaf) for `key`, `None` when the root is a
    /// leaf.
    pub fn base_for(&self, key: u64) -> BTreeResult<Option<PageId>> {
        let path = self.path_for(key)?;
        Ok(if path.len() >= 2 {
            Some(path[path.len() - 2])
        } else {
            None
        })
    }

    /// Latch the leaf for `key` with a shared latch and run `f` on it,
    /// retrying around SMOs. The epoch is validated *while the latch is
    /// held*, so `f` never observes a leaf whose key range has moved.
    fn with_leaf_read<T>(&self, key: u64, mut f: impl FnMut(PageId, &Page) -> T) -> BTreeResult<T> {
        self.descend(key, |path, epoch| {
            let leaf_id = *path.last().expect("path never empty");
            let g = self.pool.fetch(leaf_id)?;
            let page = g.read();
            if !self.unchanged_since(epoch) || page.page_type() != Some(PageType::Leaf) {
                return Ok(None);
            }
            Ok(Some(f(leaf_id, &page)))
        })
    }

    /// Exclusive-latch counterpart of [`Self::with_leaf_read`].
    fn with_leaf_write<T>(
        &self,
        key: u64,
        mut f: impl FnMut(PageId, &mut Page) -> BTreeResult<T>,
    ) -> BTreeResult<T> {
        self.descend(key, |path, epoch| {
            let leaf_id = *path.last().expect("path never empty");
            let g = self.pool.fetch(leaf_id)?;
            let mut page = g.write();
            if !self.unchanged_since(epoch) || page.page_type() != Some(PageType::Leaf) {
                return Ok(None);
            }
            // `f`'s own verdict is final: only the descent is retried.
            Ok(Some(f(leaf_id, &mut page)))
        })?
    }

    /// Point lookup.
    pub fn search(&self, key: u64) -> BTreeResult<Option<Vec<u8>>> {
        self.with_leaf_read(key, |_, page| LeafRef::new(page).get(key))
    }

    /// Insert a record. Returns the LSN of the insert log record; `prev` is
    /// the owning transaction's previous LSN (its undo chain).
    pub fn insert(&self, txn: TxnId, prev: Lsn, key: u64, value: &[u8]) -> BTreeResult<Lsn> {
        if value.len() > crate::leaf::MAX_VALUE {
            return Err(BTreeError::RecordTooLarge(value.len()));
        }
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 64 {
                return Err(BTreeError::Inconsistent(
                    "insert did not converge after 64 split rounds".into(),
                ));
            }
            let r = self.with_leaf_write(key, |leaf_id, page| {
                let mut leaf = LeafView::new(page);
                if leaf.contains(key) {
                    return Ok(Err(InsertBlock::Duplicate));
                }
                if !leaf.fits(value.len()) {
                    return Ok(Err(InsertBlock::Full));
                }
                leaf.insert(key, value)?;
                let lsn = self.log.append(&LogRecord::TxnInsert {
                    txn,
                    page: leaf_id,
                    key,
                    value: value.to_vec(),
                    prev_lsn: prev,
                });
                page.set_lsn(lsn);
                Ok(Ok(lsn))
            })?;
            match r {
                Ok(lsn) => return Ok(lsn),
                Err(InsertBlock::Duplicate) => return Err(BTreeError::KeyExists(key)),
                Err(InsertBlock::Full) => self.split_one(key, value.len())?,
            }
        }
    }

    /// Delete a record (free-at-empty: an emptied leaf is deallocated, never
    /// merged). Returns the delete record's LSN and the old value.
    pub fn delete(&self, txn: TxnId, prev: Lsn, key: u64) -> BTreeResult<(Lsn, Vec<u8>)> {
        let (lsn, old, emptied) = self.with_leaf_write(key, |leaf_id, page| {
            let mut leaf = LeafView::new(page);
            match leaf.remove(key) {
                None => Ok((Lsn::ZERO, None, false)),
                Some(old) => {
                    let emptied = leaf.is_empty();
                    let lsn = self.log.append(&LogRecord::TxnDelete {
                        txn,
                        page: leaf_id,
                        key,
                        old_value: old.clone(),
                        prev_lsn: prev,
                    });
                    page.set_lsn(lsn);
                    Ok((lsn, Some(old), emptied))
                }
            }
        })?;
        let Some(old) = old else {
            return Err(BTreeError::KeyNotFound(key));
        };
        if emptied {
            self.free_at_empty(key)?;
        }
        Ok((lsn, old))
    }

    /// Undo of an insert during recovery/rollback: remove `key` wherever it
    /// now lives and log a redo-only compensation record.
    pub fn undo_insert(&self, txn: TxnId, key: u64, undo_next: Lsn) -> BTreeResult<Lsn> {
        self.with_leaf_write(key, |leaf_id, page| {
            let mut leaf = LeafView::new(page);
            leaf.remove(key); // absent is fine: the insert never reached disk
            let lsn = self.log.append(&LogRecord::Clr {
                txn,
                page: leaf_id,
                reinsert: false,
                key,
                value: Vec::new(),
                undo_next,
            });
            page.set_lsn(lsn);
            Ok(lsn)
        })
    }

    /// Undo of a delete: re-insert the old value with a compensation record.
    pub fn undo_delete(
        &self,
        txn: TxnId,
        key: u64,
        old_value: &[u8],
        undo_next: Lsn,
    ) -> BTreeResult<Lsn> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 64 {
                return Err(BTreeError::Inconsistent(
                    "undo_delete did not converge".into(),
                ));
            }
            let done = self.with_leaf_write(key, |leaf_id, page| {
                let mut leaf = LeafView::new(page);
                if !leaf.contains(key) && !leaf.fits(old_value.len()) {
                    return Ok(None); // needs a split round
                }
                leaf.upsert(key, old_value)?;
                let lsn = self.log.append(&LogRecord::Clr {
                    txn,
                    page: leaf_id,
                    reinsert: true,
                    key,
                    value: old_value.to_vec(),
                    undo_next,
                });
                page.set_lsn(lsn);
                Ok(Some(lsn))
            })?;
            match done {
                Some(lsn) => return Ok(lsn),
                None => self.split_one(key, old_value.len())?,
            }
        }
    }

    /// Undo of an update: restore the old value with a compensation record.
    pub fn undo_update(
        &self,
        txn: TxnId,
        key: u64,
        old_value: &[u8],
        undo_next: Lsn,
    ) -> BTreeResult<Lsn> {
        self.undo_delete(txn, key, old_value, undo_next)
    }

    /// One structure modification round for `key`: grows the root, splits
    /// the shallowest full node on the path, or splits the leaf.
    fn split_one(&self, key: u64, value_len: usize) -> BTreeResult<()> {
        let gate = self.observer().map(|o| {
            let t = o.gate();
            (o, t)
        });
        let result = self.split_one_gated(key, value_len);
        if let Some((o, t)) = gate {
            o.ungate(t);
        }
        result
    }

    fn split_one_gated(&self, key: u64, value_len: usize) -> BTreeResult<()> {
        let _g = self.smo_guard();
        let (root, height) = self.anchor()?;
        // Root is a leaf that is full: grow the tree first.
        if height == 0 {
            let needs = {
                let g = self.pool.fetch(root)?;
                let page = g.read();
                let leaf = LeafRef::new(&page);
                leaf.free_bytes() < 10 + value_len
            };
            if needs {
                self.grow_root(root)?;
            }
            return Ok(());
        }
        let path = self.path_for_locked(key)?;
        // Shallowest full internal node splits first (so its parent has
        // room when children split later).
        for (i, &id) in path.iter().enumerate().take(path.len() - 1) {
            let full = {
                let g = self.pool.fetch(id)?;
                let page = g.read();
                NodeRef::new(&page).count() >= NODE_CAPACITY
            };
            if full {
                if i == 0 {
                    self.grow_root(root)?;
                } else {
                    self.split_internal(path[i - 1], id)?;
                }
                return Ok(());
            }
        }
        // All internal nodes have room: split the leaf if still needed.
        let leaf_id = *path.last().expect("path never empty");
        let parent_id = path[path.len() - 2];
        let needs = {
            let g = self.pool.fetch(leaf_id)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Leaf) {
                return Ok(()); // raced; caller retries
            }
            LeafRef::new(&page).free_bytes() < 10 + value_len
        };
        if needs {
            self.split_leaf(parent_id, leaf_id, key)?;
        }
        Ok(())
    }

    /// Debug-build invariant hook: validate the pages an SMO just rewrote,
    /// while their latches are still held (so the check races with
    /// nothing). Each page must be self-consistent, and a parent page must
    /// actually route to every child the SMO registered. Release builds
    /// compile this away.
    #[cfg(debug_assertions)]
    fn debug_assert_smo_pages(parent: Option<(&mut Page, &[PageId])>, leaves: &mut [&mut Page]) {
        for page in leaves.iter_mut() {
            match page.page_type() {
                Some(PageType::Leaf) => LeafView::new(page)
                    .validate()
                    .expect("SMO produced an invalid leaf"),
                _ => NodeView::new(page)
                    .validate()
                    .expect("SMO produced an invalid node"),
            }
        }
        if let Some((ppage, children)) = parent {
            NodeView::new(ppage)
                .validate()
                .expect("SMO produced an invalid parent");
            let routed = NodeRef::new(ppage).children();
            for child in children {
                assert!(
                    routed.contains(child),
                    "SMO left child {child} unrouted in its parent"
                );
            }
        }
    }

    /// Replace the root with a new internal root holding one entry for the
    /// old root. Height grows by one.
    fn grow_root(&self, old_root: PageId) -> BTreeResult<()> {
        let (_, height) = self.anchor()?;
        let new_root = self
            .fsm
            .allocate_internal()
            .ok_or(StorageError::NoFreePage)?;
        let ng = self.pool.fetch_new(new_root)?;
        let og = self.pool.fetch(old_root)?;
        let mut npage = ng.write();
        let opage = og.read();
        let low = opage.low_mark();
        let low = if low == u64::MAX { 0 } else { low };
        {
            let mut node = NodeView::init(&mut npage, height + 1);
            node.insert_entry(low, old_root)?;
        }
        let lsn = self.log.append(&LogRecord::Smo {
            images: vec![(new_root, image_of(&npage))],
            new_anchor: Some((new_root, height + 1)),
        });
        npage.set_lsn(lsn);
        #[cfg(debug_assertions)]
        Self::debug_assert_smo_pages(Some((&mut npage, &[old_root])), &mut []);
        drop(npage);
        drop(opage);
        self.set_anchor(new_root, height + 1, lsn)?;
        Ok(())
    }

    /// Split a full internal node `node_id` under `parent_id` (which is
    /// guaranteed to have room).
    fn split_internal(&self, parent_id: PageId, node_id: PageId) -> BTreeResult<()> {
        let new_id = self
            .fsm
            .allocate_internal()
            .ok_or(StorageError::NoFreePage)?;
        let pg = self.pool.fetch(parent_id)?;
        let ng = self.pool.fetch(node_id)?;
        let sg = self.pool.fetch_new(new_id)?;
        let mut ppage = pg.write();
        let mut npage = ng.write();
        let mut spage = sg.write();
        let level = npage.level();
        let entries = NodeRef::new(&npage).entries();
        let split_at = entries.len() / 2;
        let (keep, moved) = entries.split_at(split_at);
        {
            // Rebuild the left node with the kept entries.
            let low_mark = npage.low_mark();
            let mut node = NodeView::init(&mut npage, level);
            for (k, c) in keep {
                node.insert_entry(*k, *c)?;
            }
            node.page_mut().set_low_mark(low_mark);
        }
        {
            let mut sib = NodeView::init(&mut spage, level);
            for (k, c) in moved {
                sib.insert_entry(*k, *c)?;
            }
        }
        let sib_low = moved[0].0;
        {
            let mut parent = NodeView::new(&mut ppage);
            parent.insert_entry(sib_low, new_id)?;
        }
        let lsn = self.log.append(&LogRecord::Smo {
            images: vec![
                (node_id, image_of(&npage)),
                (new_id, image_of(&spage)),
                (parent_id, image_of(&ppage)),
            ],
            new_anchor: None,
        });
        npage.set_lsn(lsn);
        spage.set_lsn(lsn);
        ppage.set_lsn(lsn);
        #[cfg(debug_assertions)]
        Self::debug_assert_smo_pages(
            Some((&mut ppage, &[node_id, new_id])),
            &mut [&mut npage, &mut spage],
        );
        Ok(())
    }

    /// Split a leaf under `parent_id` (which has room). `key` is the
    /// incoming key that triggered the split.
    fn split_leaf(&self, parent_id: PageId, leaf_id: PageId, key: u64) -> BTreeResult<()> {
        let new_id = self.fsm.allocate_leaf().ok_or(StorageError::NoFreePage)?;
        // One-way chains have no back pointer; find the left neighbour via a
        // tree walk *before* taking latches (the SMO mutex keeps it stable).
        let one_way_prev = if self.side == SidePointerMode::OneWay {
            self.find_left_neighbour(leaf_id)?
        } else {
            None
        };
        let pg = self.pool.fetch(parent_id)?;
        let lg = self.pool.fetch(leaf_id)?;
        let sg = self.pool.fetch_new(new_id)?;
        let mut ppage = pg.write();
        let mut lpage = lg.write();
        let mut spage = sg.write();
        if lpage.page_type() != Some(PageType::Leaf) {
            return Ok(()); // raced with another SMO round
        }
        let recs = LeafRef::new(&lpage).records();
        let old_right = lpage.right_sibling();
        let old_left = lpage.left_sibling();
        // The parent's routing entry for `key` (it points at this leaf).
        let l_entry_key = NodeRef::new(&ppage)
            .entry_for(key)
            .ok_or_else(|| BTreeError::Inconsistent("parent has no routing entry".into()))?
            .0;
        // Decide how to split. A >=2-record leaf splits down the middle and
        // the new sibling goes to the *right*; a 1-record leaf (giant
        // records) splits around the incoming key, possibly putting the new
        // (empty) sibling on the left.
        enum Plan {
            /// New sibling on the right: (records moved, its parent key).
            Right(Vec<(u64, Vec<u8>)>, u64),
            /// New empty sibling on the left, taking over the low range.
            Left,
        }
        let plan = if recs.len() >= 2 {
            let at = recs.len() / 2;
            Plan::Right(recs[at..].to_vec(), recs[at].0)
        } else if recs.len() == 1 && key > recs[0].0 {
            Plan::Right(Vec::new(), key)
        } else if recs.len() == 1 {
            Plan::Left
        } else {
            return Ok(()); // empty leaf always fits; nothing to do
        };
        let mut images: Vec<(PageId, Box<[u8; PAGE_SIZE]>)> = Vec::with_capacity(4);
        let mut extra_lsn_pages: Vec<PageId> = Vec::new();
        let mut base_upserts: Vec<(u64, PageId)> = Vec::new();
        match plan {
            Plan::Right(moved, sib_low) => {
                let keep_n = recs.len() - moved.len();
                {
                    let low_mark = lpage.low_mark();
                    let mut leaf = LeafView::init(&mut lpage);
                    leaf.extend(&recs[..keep_n])?;
                    leaf.page_mut().set_low_mark(low_mark);
                    leaf.page_mut().set_left_sibling(old_left);
                }
                {
                    let mut sib = LeafView::init(&mut spage);
                    sib.extend(&moved)?;
                    sib.page_mut().set_low_mark(sib_low);
                }
                match self.side {
                    SidePointerMode::None => {}
                    SidePointerMode::OneWay => {
                        lpage.set_right_sibling(new_id);
                        spage.set_right_sibling(old_right);
                    }
                    SidePointerMode::TwoWay => {
                        lpage.set_right_sibling(new_id);
                        spage.set_left_sibling(leaf_id);
                        spage.set_right_sibling(old_right);
                        if old_right.is_valid() {
                            let rg = self.pool.fetch(old_right)?;
                            let mut rpage = rg.write();
                            rpage.set_left_sibling(new_id);
                            images.push((old_right, image_of(&rpage)));
                            extra_lsn_pages.push(old_right);
                        }
                    }
                }
                base_upserts.push((sib_low, new_id));
                let mut parent = NodeView::new(&mut ppage);
                if sib_low == l_entry_key {
                    // The leaf held clamped keys below its own entry key, so
                    // the split point collides with the existing entry. The
                    // entry's range now belongs to the new sibling; the left
                    // leaf is re-registered under its first record key
                    // (strictly smaller, and unique because only the
                    // parent's first entry can be clamped into).
                    parent.set_child(l_entry_key, new_id)?;
                    parent.insert_entry(recs[0].0, leaf_id)?;
                    base_upserts.push((recs[0].0, leaf_id));
                } else {
                    parent.insert_entry(sib_low, new_id)?;
                }
            }
            Plan::Left => {
                // L keeps its single record; N (empty) takes the low range
                // [min(key, l_entry_key), rec_key).
                let rec_key = recs[0].0;
                {
                    let mut sib = LeafView::init(&mut spage);
                    sib.page_mut().set_low_mark(key.min(l_entry_key));
                }
                match self.side {
                    SidePointerMode::None => {}
                    SidePointerMode::OneWay => {
                        spage.set_right_sibling(leaf_id);
                        if let Some(prev) = one_way_prev {
                            let ng = self.pool.fetch(prev)?;
                            let mut npage = ng.write();
                            npage.set_right_sibling(new_id);
                            images.push((prev, image_of(&npage)));
                            extra_lsn_pages.push(prev);
                        }
                    }
                    SidePointerMode::TwoWay => {
                        spage.set_left_sibling(old_left);
                        spage.set_right_sibling(leaf_id);
                        lpage.set_left_sibling(new_id);
                        if old_left.is_valid() {
                            let lg2 = self.pool.fetch(old_left)?;
                            let mut l2 = lg2.write();
                            l2.set_right_sibling(new_id);
                            images.push((old_left, image_of(&l2)));
                            extra_lsn_pages.push(old_left);
                        }
                    }
                }
                let mut parent = NodeView::new(&mut ppage);
                if l_entry_key <= key {
                    // N takes over the old routing entry; L is re-registered
                    // under its record's key (distinct: l_entry_key <= key
                    // < rec_key).
                    parent.set_child(l_entry_key, new_id)?;
                    parent.insert_entry(rec_key, leaf_id)?;
                    base_upserts.push((l_entry_key, new_id));
                    base_upserts.push((rec_key, leaf_id));
                } else {
                    // Clamped leftmost descent: key < l_entry_key; N becomes
                    // the new first entry.
                    parent.insert_entry(key, new_id)?;
                    base_upserts.push((key, new_id));
                }
            }
        }
        images.push((leaf_id, image_of(&lpage)));
        images.push((new_id, image_of(&spage)));
        images.push((parent_id, image_of(&ppage)));
        let lsn = self.log.append(&LogRecord::Smo {
            images,
            new_anchor: None,
        });
        lpage.set_lsn(lsn);
        spage.set_lsn(lsn);
        ppage.set_lsn(lsn);
        #[cfg(debug_assertions)]
        Self::debug_assert_smo_pages(
            Some((&mut ppage, &[leaf_id, new_id])),
            &mut [&mut lpage, &mut spage],
        );
        let parent_level = ppage.level();
        for p in extra_lsn_pages {
            let g = self.pool.fetch(p)?;
            g.write().set_lsn(lsn);
        }
        for (k, c) in base_upserts {
            self.notify_upsert(parent_level, k, c);
        }
        Ok(())
    }

    /// Free-at-empty: deallocate the (still) empty leaf responsible for
    /// `key`, removing its parent entry and patching side pointers; cascade
    /// upward through emptied internal nodes.
    fn free_at_empty(&self, key: u64) -> BTreeResult<()> {
        let gate = self.observer().map(|o| {
            let t = o.gate();
            (o, t)
        });
        let result = self.free_at_empty_gated(key);
        if let Some((o, t)) = gate {
            o.ungate(t);
        }
        result
    }

    fn free_at_empty_gated(&self, key: u64) -> BTreeResult<()> {
        let _g = self.smo_guard();
        let path = self.path_for_locked(key)?;
        if path.len() < 2 {
            return Ok(()); // the root leaf is never deallocated
        }
        let leaf_id = *path.last().expect("non-empty");
        let parent_id = path[path.len() - 2];
        // Never empty the root entirely: keep the last leaf.
        {
            let pg = self.pool.fetch(parent_id)?;
            let ppage = pg.read();
            if NodeRef::new(&ppage).count() <= 1 && path.len() == 2 {
                return Ok(());
            }
        }
        let one_way_prev = if self.side == SidePointerMode::OneWay {
            self.find_left_neighbour(leaf_id)?
        } else {
            None
        };
        let lg = self.pool.fetch(leaf_id)?;
        let pg = self.pool.fetch(parent_id)?;
        let mut lpage = lg.write();
        let mut ppage = pg.write();
        if lpage.page_type() != Some(PageType::Leaf) || !LeafRef::new(&lpage).is_empty() {
            return Ok(()); // raced: someone inserted meanwhile
        }
        let (left, right) = (lpage.left_sibling(), lpage.right_sibling());
        let mut images: Vec<(PageId, Box<[u8; PAGE_SIZE]>)> = Vec::new();
        // Unlink from the side-pointer chain.
        let mut neighbour_lsns: Vec<PageId> = Vec::new();
        match self.side {
            SidePointerMode::None => {}
            SidePointerMode::OneWay => {
                if let Some(prev) = one_way_prev {
                    let ng = self.pool.fetch(prev)?;
                    let mut npage = ng.write();
                    npage.set_right_sibling(right);
                    images.push((prev, image_of(&npage)));
                    neighbour_lsns.push(prev);
                }
            }
            SidePointerMode::TwoWay => {
                if left.is_valid() {
                    let ng = self.pool.fetch(left)?;
                    let mut npage = ng.write();
                    npage.set_right_sibling(right);
                    images.push((left, image_of(&npage)));
                    neighbour_lsns.push(left);
                }
                if right.is_valid() {
                    let ng = self.pool.fetch(right)?;
                    let mut npage = ng.write();
                    npage.set_left_sibling(left);
                    images.push((right, image_of(&npage)));
                    neighbour_lsns.push(right);
                }
            }
        }
        // Remove the parent entry pointing at this leaf.
        let removed_low = {
            let mut parent = NodeView::new(&mut ppage);
            let low = parent
                .repoint_child(leaf_id, leaf_id)
                .ok_or_else(|| BTreeError::Inconsistent(format!("leaf {leaf_id} not in parent")))?;
            parent.remove_entry(low);
            low
        };
        lpage.format(PageType::Free, 0);
        images.push((leaf_id, image_of(&lpage)));
        images.push((parent_id, image_of(&ppage)));
        let lsn = self.log.append(&LogRecord::Smo {
            images,
            new_anchor: None,
        });
        lpage.set_lsn(lsn);
        ppage.set_lsn(lsn);
        for n in neighbour_lsns {
            let g = self.pool.fetch(n)?;
            g.write().set_lsn(lsn);
        }
        let parent_level = ppage.level();
        drop(lpage);
        drop(ppage);
        self.notify_remove(parent_level, removed_low);
        self.pool.flush_page(leaf_id)?; // the Free image must reach disk
        self.pool.discard(leaf_id);
        self.fsm.free(leaf_id);
        // Cascade: if the parent is now empty, free it too (never the root).
        self.cascade_free_internal(&path, path.len() - 2)?;
        Ok(())
    }

    fn cascade_free_internal(&self, path: &[PageId], idx: usize) -> BTreeResult<()> {
        if idx == 0 {
            return Ok(()); // the root shrinks only in pass 3
        }
        let node_id = path[idx];
        let parent_id = path[idx - 1];
        let ng = self.pool.fetch(node_id)?;
        let pg = self.pool.fetch(parent_id)?;
        let mut npage = ng.write();
        let mut ppage = pg.write();
        if npage.page_type() != Some(PageType::Internal) || !NodeRef::new(&npage).is_empty() {
            return Ok(());
        }
        if NodeRef::new(&ppage).count() <= 1 && idx == 1 {
            return Ok(()); // keep the last subtree of the root
        }
        {
            let mut parent = NodeView::new(&mut ppage);
            let low = parent
                .repoint_child(node_id, node_id)
                .ok_or_else(|| BTreeError::Inconsistent(format!("node {node_id} not in parent")))?;
            parent.remove_entry(low);
        }
        npage.format(PageType::Free, 0);
        let lsn = self.log.append(&LogRecord::Smo {
            images: vec![(node_id, image_of(&npage)), (parent_id, image_of(&ppage))],
            new_anchor: None,
        });
        npage.set_lsn(lsn);
        ppage.set_lsn(lsn);
        drop(npage);
        drop(ppage);
        self.pool.flush_page(node_id)?;
        self.pool.discard(node_id);
        self.fsm.free(node_id);
        self.cascade_free_internal(path, idx - 1)
    }

    /// The leaf immediately left (in key order) of `leaf_id`, found via a
    /// tree walk (one-way side-pointer maintenance; call with no latches
    /// held, under the SMO mutex).
    fn find_left_neighbour(&self, leaf_id: PageId) -> BTreeResult<Option<PageId>> {
        let leaves = self.leaves_in_key_order()?;
        Ok(leaves
            .iter()
            .position(|&l| l == leaf_id)
            .and_then(|i| i.checked_sub(1).map(|j| leaves[j])))
    }

    /// Inclusive range scan.
    ///
    /// The whole walk runs under the read side of the SMO latch. Every
    /// structure modification re-stitches the side chain before it lets go
    /// of the write side, so a walk that starts at the right leaf meets
    /// every record exactly once — also while a reorganization unit sits
    /// between its MOVE and its base-page MODIFY, when the chain is already
    /// whole and only the base page is behind. Starting at the right leaf
    /// is the caller's part: in that window the base page may still route
    /// `lo` to an emptied source, which is why `Txn::scan` first takes a
    /// validated S lock on the first leaf. Without side pointers the walk
    /// goes through the base pages themselves and has no such guarantee.
    pub fn range_scan(&self, lo: u64, hi: u64) -> BTreeResult<Vec<(u64, Vec<u8>)>> {
        let _frozen = self.smo.read();
        let mut out = Vec::new();
        match self.side {
            SidePointerMode::None => {
                // No chain: walk leaves via the internal structure.
                for leaf in self.leaves_in_key_order()? {
                    let g = self.pool.fetch(leaf)?;
                    let page = g.read();
                    if page.page_type() != Some(PageType::Leaf) {
                        continue;
                    }
                    let r = LeafRef::new(&page);
                    if r.first_key().map(|k| k > hi).unwrap_or(false) {
                        break;
                    }
                    out.extend(r.range(lo, hi));
                }
            }
            _ => {
                let path = self.path_for_locked(lo)?;
                let mut cur = *path.last().expect("path never empty");
                let mut hops = 0usize;
                let bound = self.fsm.num_pages() as usize + 1;
                while cur.is_valid() {
                    hops += 1;
                    if hops > bound {
                        return Err(BTreeError::Inconsistent(
                            "side-pointer chain does not terminate (cycle)".into(),
                        ));
                    }
                    let g = self.pool.fetch(cur)?;
                    let page = g.read();
                    if page.page_type() != Some(PageType::Leaf) {
                        break;
                    }
                    let r = LeafRef::new(&page);
                    out.extend(r.range(lo, hi));
                    if r.last_key().map(|k| k >= hi).unwrap_or(false) {
                        break;
                    }
                    cur = page.right_sibling();
                }
            }
        }
        Ok(out)
    }

    /// Base pages (level-1 internal pages) in key order. When the root is a
    /// leaf there are none.
    pub fn base_pages(&self) -> BTreeResult<Vec<PageId>> {
        let (root, height) = self.anchor()?;
        if height == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        self.collect_level(root, height, 1, &mut out)?;
        Ok(out)
    }

    fn collect_level(
        &self,
        page_id: PageId,
        level: u8,
        target: u8,
        out: &mut Vec<PageId>,
    ) -> BTreeResult<()> {
        if level == target {
            out.push(page_id);
            return Ok(());
        }
        let children = {
            let g = self.pool.fetch(page_id)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Internal) {
                return Err(BTreeError::Inconsistent(format!(
                    "expected internal page at level {level}, got {:?} at {page_id}",
                    page.page_type()
                )));
            }
            NodeRef::new(&page).children()
        };
        for c in children {
            self.collect_level(c, level - 1, target, out)?;
        }
        Ok(())
    }

    /// `(low_key, child)` entries of a base page.
    pub fn base_entries(&self, base: PageId) -> BTreeResult<Vec<(u64, PageId)>> {
        let g = self.pool.fetch(base)?;
        let page = g.read();
        if page.page_type() != Some(PageType::Internal) {
            return Err(BTreeError::Inconsistent(format!("{base} is not internal")));
        }
        Ok(NodeRef::new(&page).entries())
    }

    /// Leaf page ids in key order.
    pub fn leaves_in_key_order(&self) -> BTreeResult<Vec<PageId>> {
        let (root, height) = self.anchor()?;
        if height == 0 {
            return Ok(vec![root]);
        }
        let mut out = Vec::new();
        self.collect_level(root, height, 0, &mut out)?;
        Ok(out)
    }

    /// Every page reachable from the meta page (meta, internal, leaves).
    /// Recovery rebuilds the free-space map from this set.
    pub fn reachable_pages(&self) -> BTreeResult<Vec<PageId>> {
        let (root, height) = self.anchor()?;
        let mut out = vec![self.meta_id];
        for lvl in (0..=height).rev() {
            let mut pages = Vec::new();
            self.collect_level(root, height, lvl, &mut pages)?;
            out.extend(pages);
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Physical shape snapshot.
    pub fn stats(&self) -> BTreeResult<TreeStats> {
        let (root, height) = self.anchor()?;
        let leaves = self.leaves_in_key_order()?;
        let mut records = 0u64;
        let mut fill_sum = 0.0;
        for &l in &leaves {
            let g = self.pool.fetch(l)?;
            let page = g.read();
            let r = LeafRef::new(&page);
            records += r.count() as u64;
            fill_sum += r.fill_fraction();
        }
        let mut internal = 0usize;
        for lvl in 1..=height {
            let mut pages = Vec::new();
            self.collect_level(root, height, lvl, &mut pages)?;
            internal += pages.len();
        }
        Ok(TreeStats {
            height,
            leaf_pages: leaves.len(),
            internal_pages: internal,
            records,
            avg_leaf_fill: if leaves.is_empty() {
                0.0
            } else {
                fill_sum / leaves.len() as f64
            },
            leaves_in_key_order: leaves,
        })
    }

    /// Every record in key order (test/diagnostic helper).
    pub fn collect_all(&self) -> BTreeResult<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        for leaf in self.leaves_in_key_order()? {
            let g = self.pool.fetch(leaf)?;
            let page = g.read();
            out.extend(LeafRef::new(&page).records());
        }
        Ok(out)
    }

    /// Full structural validation. Returns the record count.
    ///
    /// Checks: page types per level, per-page invariants, global key order
    /// across the in-order leaf walk, and (when side pointers are on) that
    /// the chain visits exactly the in-order leaves.
    pub fn validate(&self) -> BTreeResult<u64> {
        let (root, height) = self.anchor()?;
        // Per-level page checks.
        for lvl in (0..=height).rev() {
            let mut pages = Vec::new();
            self.collect_level(root, height, lvl, &mut pages)?;
            for p in pages {
                let g = self.pool.fetch(p)?;
                let mut page = g.write();
                if lvl == 0 {
                    if page.page_type() != Some(PageType::Leaf) {
                        return Err(BTreeError::Inconsistent(format!("{p} should be a leaf")));
                    }
                    LeafView::new(&mut page).validate()?;
                } else {
                    if page.page_type() != Some(PageType::Internal) {
                        return Err(BTreeError::Inconsistent(format!("{p} should be internal")));
                    }
                    if page.level() != lvl {
                        return Err(BTreeError::Inconsistent(format!(
                            "{p} level byte {} but depth says {lvl}",
                            page.level()
                        )));
                    }
                    NodeView::new(&mut page).validate()?;
                }
            }
        }
        // Global key order over the in-order leaf walk.
        let leaves = self.leaves_in_key_order()?;
        let mut prev: Option<u64> = None;
        let mut records = 0u64;
        for &l in &leaves {
            let g = self.pool.fetch(l)?;
            let page = g.read();
            for k in LeafRef::new(&page).keys() {
                if let Some(p) = prev {
                    if k <= p {
                        return Err(BTreeError::Inconsistent(format!(
                            "global key order broken: {k} after {p} (leaf {l})"
                        )));
                    }
                }
                prev = Some(k);
                records += 1;
            }
        }
        // Side-pointer chain must equal the in-order walk.
        if self.side != SidePointerMode::None && !leaves.is_empty() {
            let mut chain = Vec::with_capacity(leaves.len());
            let mut cur = leaves[0];
            while cur.is_valid() && chain.len() <= leaves.len() {
                chain.push(cur);
                let g = self.pool.fetch(cur)?;
                cur = g.read().right_sibling();
            }
            if chain != leaves {
                return Err(BTreeError::Inconsistent(format!(
                    "side chain {chain:?} != in-order leaves {leaves:?}"
                )));
            }
            if self.side == SidePointerMode::TwoWay {
                for w in leaves.windows(2) {
                    let g = self.pool.fetch(w[1])?;
                    let left = g.read().left_sibling();
                    if left != w[0] {
                        return Err(BTreeError::Inconsistent(format!(
                            "left pointer of {} is {left}, expected {}",
                            w[1], w[0]
                        )));
                    }
                }
            }
        }
        Ok(records)
    }

    /// Replace the tree contents by bulk-loading `records` (sorted by key,
    /// unique) at the given leaf/node fill fractions (\[Sal88\] ch. 5 §5).
    /// An offline operation: pages are written directly and flushed.
    pub fn bulk_load(
        &self,
        records: &[(u64, Vec<u8>)],
        leaf_fill: f64,
        node_fill: f64,
    ) -> BTreeResult<()> {
        let _g = self.smo_guard();
        // Free the old tree.
        for p in self.reachable_pages()? {
            if p != self.meta_id {
                self.pool.discard(p);
                self.fsm.free(p);
            }
        }
        let built = crate::builder::bulk_build(
            &self.pool, &self.fsm, records, leaf_fill, node_fill, self.side,
        )?;
        self.set_anchor(built.root, built.height, Lsn::ZERO)?;
        self.pool.flush_all()?;
        Ok(())
    }
}

enum InsertBlock {
    Duplicate,
    Full,
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_storage::{DiskManager, InMemoryDisk};

    fn setup(pages: u32) -> BTree {
        let disk = Arc::new(InMemoryDisk::new(pages));
        let pool = Arc::new(BufferPool::new(
            disk as Arc<dyn DiskManager>,
            pages as usize,
        ));
        let fsm = Arc::new(FreeSpaceMap::new_all_free(pages));
        let log = Arc::new(LogManager::new());
        BTree::create(pool, fsm, log, SidePointerMode::TwoWay).unwrap()
    }

    fn val(k: u64, len: usize) -> Vec<u8> {
        let mut v = k.to_le_bytes().to_vec();
        v.resize(len, 0xAB);
        v
    }

    #[test]
    fn insert_search_small() {
        let t = setup(64);
        for k in [5u64, 1, 9, 3] {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 16)).unwrap();
        }
        assert_eq!(t.search(3).unwrap().unwrap(), val(3, 16));
        assert_eq!(t.search(4).unwrap(), None);
        assert_eq!(t.validate().unwrap(), 4);
    }

    #[test]
    fn duplicate_insert_errors() {
        let t = setup(64);
        t.insert(TxnId(1), Lsn::ZERO, 1, b"a").unwrap();
        assert!(matches!(
            t.insert(TxnId(1), Lsn::ZERO, 1, b"b"),
            Err(BTreeError::KeyExists(1))
        ));
    }

    #[test]
    fn splits_grow_the_tree() {
        let t = setup(256);
        let n = 500u64;
        for k in 0..n {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 64)).unwrap();
        }
        let stats = t.stats().unwrap();
        assert!(stats.height >= 1, "tree should have split");
        assert_eq!(stats.records, n);
        assert_eq!(t.validate().unwrap(), n);
        for k in (0..n).step_by(37) {
            assert_eq!(t.search(k).unwrap().unwrap(), val(k, 64));
        }
    }

    #[test]
    fn descending_inserts_also_work() {
        let t = setup(256);
        for k in (0..400u64).rev() {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 64)).unwrap();
        }
        assert_eq!(t.validate().unwrap(), 400);
        assert_eq!(t.search(0).unwrap().unwrap(), val(0, 64));
    }

    #[test]
    fn delete_and_free_at_empty() {
        let t = setup(256);
        for k in 0..300u64 {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 64)).unwrap();
        }
        let before = t.stats().unwrap();
        assert!(before.leaf_pages > 2);
        // Delete everything: free-at-empty must deallocate leaves.
        for k in 0..300u64 {
            t.delete(TxnId(1), Lsn::ZERO, k).unwrap();
        }
        let after = t.stats().unwrap();
        assert_eq!(after.records, 0);
        assert!(
            after.leaf_pages < before.leaf_pages,
            "emptied leaves must be deallocated ({} -> {})",
            before.leaf_pages,
            after.leaf_pages
        );
        t.validate().unwrap();
        assert!(matches!(
            t.delete(TxnId(1), Lsn::ZERO, 0),
            Err(BTreeError::KeyNotFound(0))
        ));
    }

    #[test]
    fn sparse_leaves_are_never_merged() {
        // Free-at-empty [JS93]: delete most but not all records of each
        // leaf; page count must not shrink.
        let t = setup(256);
        for k in 0..300u64 {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 64)).unwrap();
        }
        let before = t.stats().unwrap();
        for k in 0..300u64 {
            if k % 5 != 0 {
                t.delete(TxnId(1), Lsn::ZERO, k).unwrap();
            }
        }
        let after = t.stats().unwrap();
        assert_eq!(after.leaf_pages, before.leaf_pages);
        assert!(after.avg_leaf_fill < before.avg_leaf_fill / 2.0);
        t.validate().unwrap();
    }

    #[test]
    fn range_scan_via_side_pointers() {
        let t = setup(256);
        for k in 0..300u64 {
            t.insert(TxnId(1), Lsn::ZERO, k * 2, &val(k, 64)).unwrap();
        }
        let r = t.range_scan(100, 140).unwrap();
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (50..=70).map(|k| k * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_without_side_pointers() {
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(BufferPool::new(disk as Arc<dyn DiskManager>, 256));
        let fsm = Arc::new(FreeSpaceMap::new_all_free(256));
        let log = Arc::new(LogManager::new());
        let t = BTree::create(pool, fsm, log, SidePointerMode::None).unwrap();
        for k in 0..300u64 {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 64)).unwrap();
        }
        let r = t.range_scan(10, 20).unwrap();
        assert_eq!(r.len(), 11);
        t.validate().unwrap();
    }

    #[test]
    fn base_pages_and_entries_cover_all_leaves() {
        let t = setup(512);
        for k in 0..2000u64 {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 64)).unwrap();
        }
        let bases = t.base_pages().unwrap();
        assert!(!bases.is_empty());
        let mut leaf_count = 0;
        let mut prev_key: Option<u64> = None;
        for b in &bases {
            for (k, _) in t.base_entries(*b).unwrap() {
                if let Some(p) = prev_key {
                    assert!(k > p, "base entries must ascend across base pages");
                }
                prev_key = Some(k);
                leaf_count += 1;
            }
        }
        assert_eq!(leaf_count, t.stats().unwrap().leaf_pages);
    }

    #[test]
    fn bulk_load_builds_a_valid_tree_at_fill() {
        let t = setup(1024);
        let records: Vec<(u64, Vec<u8>)> = (0..3000u64).map(|k| (k, val(k, 64))).collect();
        t.bulk_load(&records, 0.9, 0.9).unwrap();
        assert_eq!(t.validate().unwrap(), 3000);
        let s = t.stats().unwrap();
        assert!(
            (s.avg_leaf_fill - 0.9).abs() < 0.1,
            "avg fill {} should be near 0.9",
            s.avg_leaf_fill
        );
        // Bulk-loaded leaves are contiguous on disk.
        assert_eq!(s.leaf_discontinuities(), 0);
        assert_eq!(t.search(1234).unwrap().unwrap(), val(1234, 64));
    }

    #[test]
    fn bulk_load_low_fill_makes_sparse_tree() {
        let t = setup(2048);
        let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k, 64))).collect();
        t.bulk_load(&records, 0.3, 0.9).unwrap();
        let s = t.stats().unwrap();
        assert!(s.avg_leaf_fill < 0.4);
        assert_eq!(t.validate().unwrap(), 2000);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let t = Arc::new(setup(2048));
        for k in 0..500u64 {
            t.insert(TxnId(1), Lsn::ZERO, k * 4, &val(k, 32)).unwrap();
        }
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = (tid + 1) * 10_000 + i;
                        t.insert(TxnId(tid), Lsn::ZERO, k, &val(k, 32)).unwrap();
                    }
                });
            }
            for _ in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..400u64 {
                        let _ = t.search((i * 7) % 2000).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.validate().unwrap(), 500 + 4 * 200);
    }

    #[test]
    fn reachable_pages_include_meta_and_all_levels() {
        let t = setup(512);
        for k in 0..1000u64 {
            t.insert(TxnId(1), Lsn::ZERO, k, &val(k, 64)).unwrap();
        }
        let s = t.stats().unwrap();
        let reach = t.reachable_pages().unwrap();
        assert_eq!(reach.len(), 1 + s.leaf_pages + s.internal_pages);
        assert!(reach.contains(&t.meta_id()));
    }

    #[test]
    fn anchor_and_meta_flags_round_trip() {
        let t = setup(64);
        assert_eq!(t.generation().unwrap(), 0);
        t.set_generation(5).unwrap();
        assert_eq!(t.generation().unwrap(), 5);
        assert!(!t.reorg_bit().unwrap());
        t.set_reorg_bit(true).unwrap();
        assert!(t.reorg_bit().unwrap());
    }
}
