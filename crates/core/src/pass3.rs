//! Pass 3 (§7): rebuild the upper levels of the tree new-place and switch.
//!
//! The reorganizer reads the old tree's base pages left to right — holding
//! only one S lock at a time — and feeds their `(low key, leaf)` entries to
//! a bottom-up [`UpperBuilder`]; the leaves are *shared* between old and new
//! tree ("making a copy of the upper part of the tree while leaving the
//! leaves in place"). Concurrent base-page changes (leaf splits and
//! free-at-empty deallocations) behind the read frontier are captured in the
//! side file via the [`SmoObserver`] hook and replayed onto the new tree
//! during catch-up. Every `ReorgConfig::stable_interval` base pages, the
//! new-tree pages changed since the last stable point are forced to disk and
//! a `Pass3Stable` record fixes the restart position (§7.3). The switch
//! (§7.4) X-locks the side file, drains it, atomically repoints the root in
//! the meta page (bumping the tree generation, i.e. the lock name), then
//! X-locks the *old* tree lock to drain old-tree transactions before
//! deallocating the old upper levels.

use std::sync::Arc;

use obr_btree::apply::{apply, shadow_before, shadow_check};
use obr_btree::builder::UpperBuilder;
use obr_btree::node::NODE_CAPACITY;
use obr_btree::{log_smo, NodeView, SmoObserver};
use obr_lock::{LockMode, OwnerId, ResourceId};
use obr_obs::TraceKind;
use obr_storage::{Page, PageId, PageType, StorageError};
use obr_wal::{LogRecord, Pass3State, TxnId};

use crate::db::{Database, CK_IDLE};
use crate::error::{CoreError, CoreResult};
use crate::recovery::upper_levels;
use crate::reorg::{FailSite, Reorganizer};
use crate::sidefile::{SideEntry, SideOp};

/// Sentinel stable key meaning "all base pages have been read".
pub const STABLE_ALL_READ: u64 = u64::MAX;

/// The §7.2 observer: catches base-page entry changes made by user
/// transactions while pass 3 runs, and queues the ones behind the read
/// frontier (`key < Get_Current()`) into the side file.
pub struct Pass3Observer {
    db: Arc<Database>,
}

impl Pass3Observer {
    /// Create an observer bound to `db`.
    pub fn new(db: Arc<Database>) -> Pass3Observer {
        Pass3Observer { db }
    }
}

impl SmoObserver for Pass3Observer {
    fn gate(&self) -> u64 {
        // §7.2: the updater requests an IX lock on the side-file table,
        // held across the SMO so the switch's final catch-up cannot miss an
        // entry. "If it can't obtain the IX lock, this means switching is
        // in progress. In this case, it requests an instant duration IX
        // lock. When the success status is returned (switching is
        // finished), the updater must search in the new tree" — which our
        // SMO does automatically, because every descent re-reads the root
        // anchor; by then the reorganization bit is off and Get_Current()
        // reports nothing behind the frontier, so no side entry is written.
        let owner = self.db.new_owner();
        match self
            .db
            .locks()
            .try_lock(owner, ResourceId::SideFile, LockMode::IX)
        {
            Ok(()) => owner.0,
            Err(_) => {
                let _ = self
                    .db
                    .locks()
                    .lock_instant(owner, ResourceId::SideFile, LockMode::IX);
                0 // nothing held
            }
        }
    }

    fn ungate(&self, token: u64) {
        if token != 0 {
            self.db.locks().unlock(OwnerId(token), ResourceId::SideFile);
        }
    }

    fn base_entry_upserted(&self, key: u64, leaf: PageId) {
        self.enqueue(key, SideOp::Upsert(leaf));
    }

    fn base_entry_removed(&self, key: u64) {
        self.enqueue(key, SideOp::Remove);
    }
}

impl Pass3Observer {
    /// Queue a base-entry change behind the read frontier in the side file
    /// under record-level locking on its key (§7.2). This runs inside the
    /// SMO, and a transaction holding the same key number may be waiting
    /// for the SMO latch (a scan, a descent that fell back to it): take the
    /// lock only if it is free.
    fn enqueue(&self, key: u64, op: SideOp) {
        if key >= self.db.get_current() {
            return;
        }
        let owner = self.db.new_owner();
        let _ = self
            .db
            .locks()
            .try_lock(owner, ResourceId::Key(key), LockMode::X);
        let (leaf, upsert) = match op {
            SideOp::Upsert(leaf) => (u64::from(leaf.0), 1),
            SideOp::Remove => (0, 0),
        };
        self.db
            .side_file()
            .append(TxnId::SYSTEM, SideEntry { key, op });
        self.db
            .tracer()
            .emit(TraceKind::SideEnqueue, 0, 3, leaf, key, upsert);
        self.db.locks().unlock(owner, ResourceId::Key(key));
    }
}

/// Editor for the (not yet anchored) new tree: applies side-file entries to
/// its base pages, splitting or shrinking internal pages as needed. Every
/// change is logged as an `Smo` record with full page images so redo works
/// without the tree being anchored.
pub struct NewTreeEditor<'a> {
    db: &'a Database,
    /// Root of the new tree (may change when the editor splits it).
    pub root: PageId,
    /// Height of the new tree.
    pub height: u8,
    node_fill_entries: usize,
}

impl<'a> NewTreeEditor<'a> {
    /// Wrap a freshly built new tree.
    pub fn new(db: &'a Database, root: PageId, height: u8, node_fill: f64) -> NewTreeEditor<'a> {
        NewTreeEditor {
            db,
            root,
            height,
            node_fill_entries: ((NODE_CAPACITY as f64 * node_fill) as usize)
                .clamp(2, NODE_CAPACITY),
        }
    }

    fn descend_to_base(&self, key: u64) -> CoreResult<Vec<PageId>> {
        let pool = self.db.pool();
        let mut path = vec![self.root];
        let mut cur = self.root;
        let mut level = self.height;
        while level > 1 {
            let g = pool.fetch(cur)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Internal) {
                return Err(CoreError::Recovery(format!(
                    "new tree: {cur} not internal at level {level}"
                )));
            }
            cur = NodeView::of(&page).child_for(key).ok_or_else(|| {
                CoreError::Recovery(format!("new tree: empty node {cur} on descent"))
            })?;
            path.push(cur);
            level -= 1;
        }
        Ok(path)
    }

    /// Apply one side-file entry.
    pub fn apply(&mut self, entry: SideEntry) -> CoreResult<()> {
        let path = self.descend_to_base(entry.key)?;
        match entry.op {
            SideOp::Upsert(leaf) => self.upsert_at(&path, path.len() - 1, entry.key, leaf),
            SideOp::Remove => self.remove_at(&path, path.len() - 1, entry.key),
        }
    }

    fn upsert_at(
        &mut self,
        path: &[PageId],
        idx: usize,
        key: u64,
        child: PageId,
    ) -> CoreResult<()> {
        let pool = self.db.pool();
        let page_id = path[idx];
        let exact;
        let room;
        {
            let g = pool.fetch(page_id)?;
            let page = g.read();
            let node = NodeView::of(&page);
            exact = node.entries().iter().any(|&(k, _)| k == key);
            room = node.count() < NODE_CAPACITY;
        }
        if exact || room {
            let g = pool.fetch(page_id)?;
            let mut page = g.write();
            let mut node = NodeView::new(&mut page);
            if exact {
                node.set_child(key, child).map_err(CoreError::Storage)?;
            } else {
                node.insert_entry(key, child).map_err(CoreError::Storage)?;
            }
            log_smo(self.db.log(), &mut [(page_id, &mut *page)], None);
            return Ok(());
        }
        // Full: split this node, then retry the insert from the (possibly
        // new) root — path shape may have changed.
        self.split_node(path, idx)?;
        let path = self.descend_to_base(key)?;
        self.upsert_at(&path, path.len() - 1, key, child)
    }

    fn split_node(&mut self, path: &[PageId], idx: usize) -> CoreResult<()> {
        let pool = self.db.pool();
        let fsm = self.db.fsm();
        let node_id = path[idx];
        let new_id = fsm.allocate_internal().ok_or(StorageError::NoFreePage)?;
        let ng = pool.fetch(node_id)?;
        let sg = pool.fetch_new(new_id)?;
        let mut npage = ng.write();
        let mut spage = sg.write();
        let level = npage.level();
        let entries = NodeView::of(&npage).entries();
        // Split at the configured fill so post-split pages stay near f2.
        let at = (entries.len() / 2).min(self.node_fill_entries).max(1);
        let (keep, moved) = entries.split_at(at);
        let low_mark = npage.low_mark();
        {
            let mut node = NodeView::init(&mut npage, level);
            for (k, c) in keep {
                node.insert_entry(*k, *c).map_err(CoreError::Storage)?;
            }
            node.page_mut().set_low_mark(low_mark);
        }
        {
            let mut sib = NodeView::init(&mut spage, level);
            for (k, c) in moved {
                sib.insert_entry(*k, *c).map_err(CoreError::Storage)?;
            }
        }
        let sib_low = moved[0].0;
        if idx > 0 {
            log_smo(
                self.db.log(),
                &mut [(node_id, &mut *npage), (new_id, &mut *spage)],
                None,
            );
            drop(npage);
            drop(spage);
            return self.upsert_at(path, idx - 1, sib_low, new_id);
        }
        // Root split: the new tree grows.
        let root_id = fsm.allocate_internal().ok_or(StorageError::NoFreePage)?;
        let rg = pool.fetch_new(root_id)?;
        let mut rpage = rg.write();
        let old_low = if low_mark == u64::MAX { 0 } else { low_mark };
        {
            let mut root = NodeView::init(&mut rpage, level + 1);
            root.insert_entry(old_low, node_id)
                .map_err(CoreError::Storage)?;
            root.insert_entry(sib_low, new_id)
                .map_err(CoreError::Storage)?;
        }
        self.root = root_id;
        self.height = level + 1;
        log_smo(
            self.db.log(),
            &mut [
                (node_id, &mut *npage),
                (new_id, &mut *spage),
                (root_id, &mut *rpage),
            ],
            None,
        );
        Ok(())
    }

    fn remove_at(&mut self, path: &[PageId], idx: usize, key: u64) -> CoreResult<()> {
        let pool = self.db.pool();
        let page_id = path[idx];
        let now_empty = {
            let g = pool.fetch(page_id)?;
            let mut page = g.write();
            let mut node = NodeView::new(&mut page);
            // The entry key may differ slightly if it was re-registered;
            // fall back to the routing entry when exact removal misses.
            if node.remove_entry(key).is_none() {
                if let Some((k, _)) = node.entry_for(key) {
                    node.remove_entry(k);
                }
            }
            let now_empty = node.is_empty();
            log_smo(self.db.log(), &mut [(page_id, &mut *page)], None);
            now_empty
        };
        if now_empty && idx > 0 {
            // Free-at-empty cascade on the new tree.
            return self.remove_cascade(path, idx);
        }
        Ok(())
    }

    fn remove_cascade(&mut self, path: &[PageId], idx: usize) -> CoreResult<()> {
        let pool = self.db.pool();
        let page_id = path[idx];
        let parent_id = path[idx - 1];
        let removed = {
            let g = pool.fetch(parent_id)?;
            let mut page = g.write();
            let mut node = NodeView::new(&mut page);
            let removed = node.low_key_of(page_id).inspect(|&low| {
                node.remove_entry(low);
            });
            if removed.is_some() {
                log_smo(self.db.log(), &mut [(parent_id, &mut *page)], None);
            }
            removed
        };
        if removed.is_some() {
            self.db.pool().discard(page_id);
            self.db.fsm().free(page_id);
            let parent_empty = {
                let g = pool.fetch(parent_id)?;
                let page = g.read();
                NodeView::of(&page).is_empty()
            };
            if parent_empty && idx - 1 > 0 {
                return self.remove_cascade(path, idx - 1);
            }
        }
        Ok(())
    }
}

impl Reorganizer {
    /// Pass 3: shrink the tree by rebuilding its upper levels new-place and
    /// switching (§7).
    pub fn pass3_shrink(&self) -> CoreResult<()> {
        self.pass3_run(None)
    }

    /// Resume pass 3 after a crash, from the recovery-supplied restart
    /// state (§7.3).
    pub fn pass3_resume(&self, state: Pass3State) -> CoreResult<()> {
        self.db_handle().core_metrics().recovery_pass3_resumes.inc();
        self.pass3_run(Some(state))
    }

    fn pass3_run(&self, resume: Option<Pass3State>) -> CoreResult<()> {
        let db = self.db_handle();
        let tree = db.tree();
        let (old_root, old_height) = tree.anchor()?;
        if old_height == 0 {
            return Ok(()); // nothing above the leaves to rebuild
        }
        let old_gen = tree.generation()?;
        db.tracer()
            .emit(TraceKind::PassEnter, 0, 3, u64::from(old_root.0), 0, 0);
        tree.set_reorg_bit(true)?;
        let observer = Arc::new(Pass3Observer::new(Arc::clone(&db)));
        tree.set_observer(observer as Arc<dyn SmoObserver>);
        db.set_current(0);
        let cfg = self.config();
        let mut builder = match &resume {
            Some(state) if state.stable_key != STABLE_ALL_READ => UpperBuilder::resume(
                Arc::clone(db.pool()),
                Arc::clone(db.fsm()),
                0,
                cfg.node_fill,
                state.new_root,
            )?,
            Some(_) | None => UpperBuilder::new(
                Arc::clone(db.pool()),
                Arc::clone(db.fsm()),
                0,
                cfg.node_fill,
            ),
        };
        let built = match &resume {
            Some(state) if state.stable_key == STABLE_ALL_READ => {
                // The build finished before the crash; its root is durable.
                obr_btree::builder::BuiltTree {
                    root: state.new_root,
                    height: {
                        let g = db.pool().fetch(state.new_root)?;
                        let page = g.read();
                        page.level()
                    },
                }
            }
            _ => {
                self.pass3_read_loop(&db, &mut builder, resume.map(|s| s.stable_key))?;
                self.pass3_finish_build(&db, builder)?
            }
        };
        self.pass3_catchup_and_switch(&db, built, old_root, old_gen)?;
        db.tracer().emit(TraceKind::PassExit, 0, 3, 0, 0, 0);
        Ok(())
    }

    /// Read base pages from `start` (a low-mark frontier) to the end,
    /// streaming entries into the builder with stable points.
    fn pass3_read_loop(
        &self,
        db: &Arc<Database>,
        builder: &mut UpperBuilder,
        start: Option<u64>,
    ) -> CoreResult<()> {
        let tree = db.tree();
        let locks = db.locks();
        let cfg = self.config();
        let mut last_low: Option<u64> = None;
        // Resume: skip every base page whose low mark is below the stable
        // key (they were read before the crash).
        let min_low = start;
        let mut since_stable = 0usize;
        loop {
            // Get_Next: the base page with the smallest low mark greater
            // than the last one read.
            let next = {
                let mut bases: Vec<(u64, PageId)> = Vec::new();
                for b in tree.base_pages()? {
                    let g = db.pool().fetch(b)?;
                    bases.push((g.read().low_mark(), b));
                }
                bases.sort();
                bases.into_iter().find(|(low, _)| {
                    last_low.map(|l| *low > l).unwrap_or(true)
                        && min_low.map(|m| *low >= m).unwrap_or(true)
                })
            };
            let Some((low, base)) = next else { break };
            locks.lock(self.owner(), ResourceId::Page(base.0), LockMode::S)?;
            let entries = {
                // Atomic vs SMOs: read the entries and advance CK under the
                // tree's SMO guard, so every base change is either visible
                // in this read or caught by the side file.
                let _g = tree.smo_guard();
                let bg = db.pool().fetch(base)?;
                let page = bg.read();
                if page.page_type() != Some(PageType::Internal) {
                    Vec::new() // deallocated since listing; skip
                } else {
                    let entries = NodeView::of(&page).entries();
                    // Next frontier: smallest base low mark above this one.
                    let mut next_low = STABLE_ALL_READ;
                    for b in tree.base_pages()? {
                        let g = db.pool().fetch(b)?;
                        let l = g.read().low_mark();
                        if l > low && l < next_low {
                            next_low = l;
                        }
                    }
                    db.set_current(next_low);
                    entries
                }
            };
            locks.unlock(self.owner(), ResourceId::Page(base.0));
            for (k, leaf) in entries {
                // A base split behind us re-exposes entries already pushed;
                // those changes are covered by the side file.
                if builder.last_key().map(|l| k <= l).unwrap_or(false) {
                    continue;
                }
                builder.push(k, leaf)?;
            }
            db.core_metrics().base_pages_read.inc();
            last_low = Some(low);
            since_stable += 1;
            if since_stable >= cfg.stable_interval {
                since_stable = 0;
                self.pass3_stable_point(db, builder)?;
                self.check_fail(FailSite::Pass3AfterStable)?;
            }
        }
        Ok(())
    }

    fn pass3_stable_point(&self, db: &Arc<Database>, builder: &mut UpperBuilder) -> CoreResult<()> {
        let touched = builder.take_touched();
        log_built_pages(db, &touched)?;
        // Pages the pool already evicted were written (and will be synced
        // just below); the skipped set distinguishes them from typos in the
        // touched bookkeeping, which would name pages never dirtied at all.
        let _already_durable = db.pool().flush_pages(&touched)?;
        db.disk().sync()?;
        let state = Pass3State {
            stable_key: db.get_current(),
            new_root: builder.top_page().unwrap_or(PageId::INVALID),
        };
        db.log().append_force(&LogRecord::Pass3Stable { state })?;
        db.core_metrics().stable_points.inc();
        db.tracer().emit(
            TraceKind::Pass3Stable,
            0,
            3,
            u64::from(state.new_root.0),
            state.stable_key,
            0,
        );
        Ok(())
    }

    fn pass3_finish_build(
        &self,
        db: &Arc<Database>,
        builder: UpperBuilder,
    ) -> CoreResult<obr_btree::builder::BuiltTree> {
        // Make the whole new upper level durable before catch-up (§7.3).
        let pages = builder.pages_allocated();
        let built = builder.finish()?;
        log_built_pages(db, &pages)?;
        let _already_durable = db.pool().flush_pages(&pages)?;
        db.disk().sync()?;
        db.log().append_force(&LogRecord::Pass3Stable {
            state: Pass3State {
                stable_key: STABLE_ALL_READ,
                new_root: built.root,
            },
        })?;
        Ok(built)
    }

    /// Apply every side-file entry queued so far to the new tree, and
    /// return how many there were; `last` marks the final drain, made
    /// under the switch lock, in the trace.
    fn drain_side_file(
        &self,
        db: &Arc<Database>,
        editor: &mut NewTreeEditor,
        last: u64,
    ) -> CoreResult<u64> {
        let mut applied = 0u64;
        while let Some((_, entry)) = db.side_file().pop_front(TxnId::SYSTEM) {
            editor.apply(entry)?;
            applied += 1;
        }
        db.core_metrics().side_entries_applied.add(applied);
        if applied > 0 {
            db.tracer()
                .emit(TraceKind::SideDrain, 0, 3, 0, applied, last);
        }
        Ok(applied)
    }

    fn pass3_catchup_and_switch(
        &self,
        db: &Arc<Database>,
        built: obr_btree::builder::BuiltTree,
        old_root: PageId,
        old_gen: u32,
    ) -> CoreResult<()> {
        let tree = db.tree();
        let locks = db.locks();
        let cfg = self.config();
        let mut editor = NewTreeEditor::new(db, built.root, built.height, cfg.node_fill);
        // Catch-up: drain the side file; new entries may keep arriving, but
        // leaf splits are rare so this converges (§7.1).
        while self.drain_side_file(db, &mut editor, 0)? > 0 {}
        self.check_fail(FailSite::Pass3BeforeSwitch)?;
        // --- The switch (§7.4). ---
        locks.lock(self.owner(), ResourceId::SideFile, LockMode::X)?;
        // Base-page-changing SMOs are gated now: the old tree's upper
        // levels are final, so this snapshot, taken right before disposal,
        // includes the base pages concurrent splits created.
        let (old_internal, _) = upper_levels(db, old_root)?;
        // Final catch-up: the few entries appended while we waited.
        self.drain_side_file(db, &mut editor, 1)?;
        // Editor changes after the final stable record: force them so the
        // switch lands on a durable new tree.
        db.pool().flush_all()?;
        {
            let _g = tree.smo_guard();
            let rec = LogRecord::Pass3Switch {
                old_root,
                new_root: editor.root,
                new_height: editor.height,
            };
            let lsn = db.log().append_force(&rec)?;
            let mg = db.pool().fetch(tree.meta_id())?;
            let mut meta = mg.write();
            let before = shadow_before(&[&*meta]);
            apply(&rec, &mut [Some(&mut *meta)])?;
            meta.set_lsn(lsn);
            shadow_check(before, &rec, lsn, &[&*meta]);
            db.tracer().emit(
                TraceKind::TreeSwitch,
                0,
                3,
                u64::from(editor.root.0),
                u64::from(old_root.0),
                u64::from(editor.height),
            );
        }
        // The root location lives in "a special place on the disk": force it.
        db.pool().flush_page(tree.meta_id())?;
        db.set_current(0);
        tree.clear_observer();
        // Release the side-file X now: unlike the paper's system, our
        // readers re-read the root anchor on every operation, so no reader
        // can keep navigating the *old* tree after the switch — base-page
        // updates on the new tree cannot make anyone's search incorrect.
        // (Holding it through the old-tree drain, as the paper does for
        // systems with physically-resident old-tree readers, would deadlock
        // gate-blocked updaters that still hold old-tree intent locks — the
        // very situation §7.4 resolves by aborting them.)
        locks.unlock(self.owner(), ResourceId::SideFile);
        // Drain transactions still using the old tree, then reclaim its
        // upper levels.
        locks.lock(self.owner(), ResourceId::Tree(old_gen), LockMode::X)?;
        for p in old_internal {
            db.pool().discard(p);
            db.fsm().free(p);
        }
        db.set_current(CK_IDLE);
        locks.release_all(self.owner());
        Ok(())
    }
}

/// Log the new-tree pages the builder wrote as one `Smo` record. The
/// builder changed them in earlier latch scopes and nothing else can reach
/// them before the switch, so each is latched only to copy it and, after
/// the append, to stamp it: the finished upper level may outnumber the
/// pool's frames. The primary's own recovery never needs these images (the
/// pages are force-written before the stable record or the switch), but a
/// log-shipping replica has no access to this disk: the log must carry
/// everything, and redo's page-LSN gate makes the images free on the
/// primary.
fn log_built_pages(db: &Database, ids: &[PageId]) -> CoreResult<()> {
    if ids.is_empty() {
        return Ok(());
    }
    let pool = db.pool();
    let mut copies = Vec::with_capacity(ids.len());
    for &p in ids {
        copies.push((p, pool.fetch(p)?.read().clone()));
    }
    let mut pages: Vec<(PageId, &mut Page)> = copies.iter_mut().map(|(p, c)| (*p, c)).collect();
    let lsn = log_smo(db.log(), &mut pages, None);
    for &p in ids {
        pool.fetch(p)?.write().set_lsn(lsn);
    }
    Ok(())
}
