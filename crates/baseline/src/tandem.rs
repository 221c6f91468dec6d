//! The Tandem-style reorganizer.

use obr_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use obr_sync::Mutex;

use obr_btree::leaf::LEAF_BODY;
use obr_btree::{log_smo, LeafView, NodeView};
use obr_core::{CoreError, CoreResult, Database};
use obr_lock::{LockError, LockMode, OwnerId, ResourceId};
use obr_storage::{PageId, PageType};

/// Baseline configuration.
#[derive(Clone, Debug)]
pub struct TandemConfig {
    /// Target leaf fill factor.
    pub target_fill: f64,
    /// Run the ordering (swap) phase after merging.
    pub ordering_phase: bool,
}

impl Default for TandemConfig {
    fn default() -> Self {
        TandemConfig {
            target_fill: 0.9,
            ordering_phase: true,
        }
    }
}

/// Baseline counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TandemStats {
    /// Transactions run (one per block operation).
    pub transactions: u64,
    /// Block merges.
    pub merges: u64,
    /// Block moves.
    pub moves: u64,
    /// Block swaps.
    pub swaps: u64,
    /// Pages freed.
    pub pages_freed: u64,
    /// Records moved.
    pub records_moved: u64,
    /// Times the whole-file lock had to wait for user transactions.
    pub file_lock_waits: u64,
}

/// The \[Smi90\]-style reorganizer.
pub struct TandemReorganizer {
    db: Arc<Database>,
    cfg: TandemConfig,
    owner: OwnerId,
    stats: Mutex<TandemStats>,
    /// Raised externally to abandon the run (crash experiments).
    pub stop: AtomicBool,
}

impl TandemReorganizer {
    /// Create a baseline reorganizer over `db`.
    pub fn new(db: Arc<Database>, cfg: TandemConfig) -> TandemReorganizer {
        let owner = db.new_owner();
        db.locks().register_reorganizer(owner);
        TandemReorganizer {
            db,
            cfg,
            owner,
            stats: Mutex::named(TandemStats::default(), "tandem.stats"),
            stop: AtomicBool::new(false),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> TandemStats {
        *self.stats.lock()
    }

    /// Run the merge phase, then (optionally) the ordering phase.
    pub fn run(&self) -> CoreResult<TandemStats> {
        self.run_merges()?;
        if self.cfg.ordering_phase {
            self.run_ordering()?;
        }
        Ok(self.stats())
    }

    /// X-lock the whole file for one block operation, run it, release.
    fn file_transaction<T>(&self, op: impl FnOnce() -> CoreResult<T>) -> CoreResult<T> {
        let gen = self.db.tree().generation()?;
        let locks = self.db.locks();
        loop {
            match locks.lock(self.owner, ResourceId::Tree(gen), LockMode::X) {
                Ok(()) => break,
                Err(LockError::Deadlock) => {
                    locks.release_all(self.owner);
                    self.stats.lock().file_lock_waits += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        let result = op();
        locks.unlock(self.owner, ResourceId::Tree(gen));
        self.stats.lock().transactions += 1;
        result
    }

    /// Merge phase: repeatedly merge the contents of two adjacent
    /// same-parent leaves (one transaction each) until no pair fits
    /// together under the target fill.
    pub fn run_merges(&self) -> CoreResult<()> {
        let budget = (LEAF_BODY as f64 * self.cfg.target_fill) as usize;
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            let merged = self.file_transaction(|| self.merge_one(budget))?;
            if !merged {
                return Ok(());
            }
        }
    }

    /// Find and merge one adjacent same-parent pair. Returns false when no
    /// pair fits.
    fn merge_one(&self, budget: usize) -> CoreResult<bool> {
        let tree = self.db.tree();
        let pool = self.db.pool();
        let _g = tree.smo_guard();
        for base in tree.base_pages()? {
            let entries = tree.base_entries(base)?;
            for w in entries.windows(2) {
                let ((ka, a), (kb, b)) = (w[0], w[1]);
                let (ua, ub) = {
                    let ga = pool.fetch(a)?;
                    let gb = pool.fetch(b)?;
                    let pa = ga.read();
                    let pb = gb.read();
                    if pa.page_type() != Some(PageType::Leaf)
                        || pb.page_type() != Some(PageType::Leaf)
                    {
                        continue;
                    }
                    (
                        LeafView::of(&pa).used_bytes(),
                        LeafView::of(&pb).used_bytes(),
                    )
                };
                if ua + ub > budget || ub == 0 {
                    continue;
                }
                // Merge b into a: page-image logging of everything touched.
                let moved = self.do_merge(base, ka, a, kb, b)?;
                let mut st = self.stats.lock();
                st.merges += 1;
                st.pages_freed += 1;
                st.records_moved += moved;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn do_merge(&self, base: PageId, _ka: u64, a: PageId, kb: u64, b: PageId) -> CoreResult<u64> {
        let pool = self.db.pool();
        let moved = {
            // Every page the transaction touches stays latched until the record
            // stamps it; the file X lock and the SMO guard keep other
            // multi-page latchers out.
            let ga = pool.fetch(a)?;
            let gb = pool.fetch(b)?;
            let gbase = pool.fetch(base)?;
            let mut pa = ga.write();
            let mut pb = gb.write();
            let mut pbase = gbase.write();
            let records = {
                let mut lb = LeafView::new(&mut pb);
                lb.take_all()
            };
            let moved = records.len() as u64;
            {
                let mut la = LeafView::new(&mut pa);
                la.extend(&records).map_err(CoreError::Storage)?;
            }
            let b_right = pb.right_sibling();
            pa.set_right_sibling(b_right);
            pb.format(PageType::Free, 0);
            NodeView::new(&mut pbase).remove_entry(kb);
            let gr = b_right
                .is_valid()
                .then(|| pool.fetch(b_right))
                .transpose()?;
            let mut pr = gr.as_ref().map(|g| g.write());
            if let Some(p) = &mut pr {
                p.set_left_sibling(a);
            }
            // [Smi90]-style logging: full images of every page the transaction
            // touched.
            let mut pages = vec![(a, &mut *pa), (b, &mut *pb), (base, &mut *pbase)];
            pages.extend(pr.as_mut().map(|p| (b_right, &mut **p)));
            log_smo(self.db.log(), &mut pages, None);
            moved
        };
        self.db.pool().flush_page(b)?; // the freed image must reach disk
        self.db.pool().discard(b);
        self.db.fsm().free(b);
        Ok(moved)
    }

    /// Ordering phase: block swaps/moves until leaves are contiguous in key
    /// order (one whole-file transaction per block operation, no placement
    /// heuristic).
    pub fn run_ordering(&self) -> CoreResult<()> {
        let tree = self.db.tree();
        let mut leaves = tree.leaves_in_key_order()?;
        if leaves.is_empty() {
            return Ok(());
        }
        let start = leaves.iter().min().copied().unwrap_or(PageId(0)).0;
        for i in 0..leaves.len() {
            if self.stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            let target = PageId(start + i as u32);
            let leaf = leaves[i];
            if leaf == target {
                continue;
            }
            if self.db.fsm().allocate_specific(target) {
                self.file_transaction(|| self.do_move(leaf, target))?;
                self.stats.lock().moves += 1;
                leaves[i] = target;
            } else {
                let occupied_by = leaves.iter().position(|&l| l == target);
                let is_leaf = {
                    let g = self.db.pool().fetch(target)?;
                    let page = g.read();
                    page.page_type() == Some(PageType::Leaf)
                };
                match (is_leaf, occupied_by) {
                    (true, Some(j)) if j > i => {
                        self.file_transaction(|| self.do_swap(leaf, target))?;
                        self.stats.lock().swaps += 1;
                        leaves[j] = leaf;
                        leaves[i] = target;
                    }
                    _ => continue,
                }
            }
        }
        Ok(())
    }

    fn do_move(&self, src: PageId, target: PageId) -> CoreResult<()> {
        let tree = self.db.tree();
        let pool = self.db.pool();
        let _g = tree.smo_guard();
        // The target will hold src's bytes, so both route through one base.
        let base = self.base_of(src)?;
        let (left, right, moved) = {
            let gs = pool.fetch(src)?;
            let gt = pool.fetch_new(target)?;
            let gb = pool.fetch(base)?;
            let mut ps = gs.write();
            let mut pt = gt.write();
            let mut pb = gb.write();
            pt.bytes_mut().copy_from_slice(&ps.bytes()[..]);
            let (l, r) = (ps.left_sibling(), ps.right_sibling());
            let n = ps.slot_count() as u64;
            ps.format(PageType::Free, 0);
            NodeView::new(&mut pb).repoint_child(src, target);
            log_smo(
                self.db.log(),
                &mut [(src, &mut *ps), (target, &mut *pt), (base, &mut *pb)],
                None,
            );
            (l, r, n)
        };
        // Repoint the chain. The neighbours are not in the record above.
        for (n, setter_right) in [(left, true), (right, false)] {
            if n.is_valid() {
                let g = pool.fetch(n)?;
                let mut p = g.write();
                if setter_right {
                    p.set_right_sibling(target);
                } else {
                    p.set_left_sibling(target);
                }
            }
        }
        self.pool_flush_free(src, target)?;
        self.stats.lock().records_moved += moved;
        Ok(())
    }

    fn pool_flush_free(&self, src: PageId, target: PageId) -> CoreResult<()> {
        // Order matters: target (with the records) before src (the freed
        // image) — flush_pages preserves slice order across shards. Both
        // pages are pinned-then-dropped just above, so neither may be
        // reported as non-resident here.
        let skipped = self.db.pool().flush_pages(&[target, src])?;
        debug_assert!(skipped.is_empty(), "tandem move pages evicted mid-unit");
        self.db.pool().discard(src);
        self.db.fsm().free(src);
        Ok(())
    }

    fn do_swap(&self, a: PageId, b: PageId) -> CoreResult<()> {
        let tree = self.db.tree();
        let pool = self.db.pool();
        let _g = tree.smo_guard();
        let base_a = self.base_of(a)?;
        let base_b = self.base_of(b)?;
        let remap = |p: PageId| {
            if p == a {
                b
            } else if p == b {
                a
            } else {
                p
            }
        };
        let ga = pool.fetch(a)?;
        let gb = pool.fetch(b)?;
        let mut pa = ga.write();
        let mut pb = gb.write();
        // The other pages the swap changes: both parents, then the
        // neighbours. All stay latched until the record stamps them; the
        // file X lock and the SMO guard keep other multi-page latchers out.
        let mut others = vec![base_a];
        if base_b != base_a {
            others.push(base_b);
        }
        let n_bases = others.len();
        for n in [
            pa.left_sibling(),
            pa.right_sibling(),
            pb.left_sibling(),
            pb.right_sibling(),
        ] {
            if n.is_valid() && n != a && n != b && !others.contains(&n) {
                others.push(n);
            }
        }
        let guards = others
            .iter()
            .map(|&p| pool.fetch(p))
            .collect::<Result<Vec<_>, _>>()?;
        let mut latches: Vec<_> = guards.iter().map(|g| g.write()).collect();
        std::mem::swap(pa.bytes_mut(), pb.bytes_mut());
        let (bases, neighbours) = latches.split_at_mut(n_bases);
        let neighbours = neighbours.iter_mut().map(|l| &mut **l);
        for page in [&mut *pa, &mut *pb].into_iter().chain(neighbours) {
            let (l, r) = (page.left_sibling(), page.right_sibling());
            page.set_left_sibling(remap(l));
            page.set_right_sibling(remap(r));
        }
        for page in bases {
            let mut node = NodeView::new(page);
            for (k, c) in node.entries() {
                if c == a {
                    node.set_child(k, b).map_err(CoreError::Storage)?;
                } else if c == b {
                    node.set_child(k, a).map_err(CoreError::Storage)?;
                }
            }
        }
        // Log full images of both pages, both parents, and the neighbours —
        // the [Smi90] way.
        let mut pages = vec![(a, &mut *pa), (b, &mut *pb)];
        pages.extend(
            others
                .iter()
                .copied()
                .zip(latches.iter_mut().map(|l| &mut **l)),
        );
        log_smo(self.db.log(), &mut pages, None);
        Ok(())
    }

    fn base_of(&self, leaf: PageId) -> CoreResult<PageId> {
        let tree = self.db.tree();
        let pool = self.db.pool();
        let key = {
            let g = pool.fetch(leaf)?;
            let page = g.read();
            LeafView::of(&page).first_key().unwrap_or(page.low_mark())
        };
        let path = tree.path_for_locked(key)?;
        if path.len() < 2 {
            return Err(CoreError::Recovery(format!("leaf {leaf} has no base")));
        }
        Ok(path[path.len() - 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_btree::SidePointerMode;
    use obr_storage::{DiskManager, InMemoryDisk};

    fn sparse_db(pages: u32, n: u64, f1: f64) -> Arc<Database> {
        let disk = Arc::new(InMemoryDisk::new(pages));
        let db = Database::create(
            disk as Arc<dyn DiskManager>,
            pages as usize,
            SidePointerMode::TwoWay,
        )
        .unwrap();
        let records: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|k| {
                let mut v = k.to_le_bytes().to_vec();
                v.resize(64, 1);
                (k, v)
            })
            .collect();
        db.tree().bulk_load(&records, f1, 0.9).unwrap();
        db
    }

    #[test]
    fn merges_compact_the_tree() {
        let db = sparse_db(4096, 2000, 0.25);
        let before = db.tree().stats().unwrap();
        let expected = db.tree().collect_all().unwrap();
        let t = TandemReorganizer::new(
            Arc::clone(&db),
            TandemConfig {
                ordering_phase: false,
                ..TandemConfig::default()
            },
        );
        t.run().unwrap();
        let after = db.tree().stats().unwrap();
        db.tree().validate().unwrap();
        assert_eq!(db.tree().collect_all().unwrap(), expected);
        assert!(after.leaf_pages < before.leaf_pages);
        assert!(after.avg_leaf_fill > before.avg_leaf_fill * 1.5);
        let st = t.stats();
        assert!(st.merges > 0);
        assert_eq!(st.transactions, st.merges + 1); // +1 for the final no-op probe
    }

    #[test]
    fn two_block_granularity_needs_more_transactions_than_units() {
        // d = f2/f1 = 0.9/0.25 ≈ 4 pages per full page: the baseline needs
        // roughly one transaction per page merged, far more transactions
        // than our reorganizer needs units.
        let db = sparse_db(4096, 2000, 0.25);
        let t = TandemReorganizer::new(
            Arc::clone(&db),
            TandemConfig {
                ordering_phase: false,
                ..TandemConfig::default()
            },
        );
        t.run().unwrap();
        let st = t.stats();
        let after = db.tree().stats().unwrap();
        assert!(
            st.transactions as usize > after.leaf_pages,
            "merging down to {} leaves took {} transactions",
            after.leaf_pages,
            st.transactions
        );
    }

    #[test]
    fn ordering_phase_makes_leaves_contiguous() {
        let db = sparse_db(4096, 2000, 0.25);
        let t = TandemReorganizer::new(Arc::clone(&db), TandemConfig::default());
        t.run().unwrap();
        let stats = db.tree().stats().unwrap();
        db.tree().validate().unwrap();
        assert_eq!(stats.leaf_discontinuities(), 0);
    }

    #[test]
    fn whole_file_lock_blocks_even_unrelated_readers() {
        use std::time::Duration;
        let db = sparse_db(2048, 500, 0.3);
        let gen = db.tree().generation().unwrap();
        let t = TandemReorganizer::new(Arc::clone(&db), TandemConfig::default());
        // Simulate an in-flight block operation holding the file lock.
        db.locks()
            .lock(t.owner, ResourceId::Tree(gen), LockMode::X)
            .unwrap();
        let reader = db.new_owner();
        let r = db
            .locks()
            .try_lock(reader, ResourceId::Tree(gen), LockMode::IS);
        assert!(matches!(r, Err(LockError::WouldBlock)));
        db.locks().release_all(t.owner);
        let locks = Arc::clone(db.locks());
        let h = std::thread::spawn(move || locks.lock(reader, ResourceId::Tree(gen), LockMode::IS));
        std::thread::sleep(Duration::from_millis(10));
        h.join().unwrap().unwrap();
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use obr_btree::SidePointerMode;
    use obr_core::recover;
    use obr_storage::{DiskManager, InMemoryDisk};

    #[test]
    fn baseline_crash_recovers_via_redo_only() {
        // The baseline's page-image transactions are atomic Smo records:
        // after a crash, redo restores every completed operation and
        // nothing needs forward completion (there are no unit records).
        let disk = Arc::new(InMemoryDisk::new(8192));
        let db = obr_core::Database::create(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            8192,
            SidePointerMode::TwoWay,
        )
        .unwrap();
        let records: Vec<(u64, Vec<u8>)> = (0..1500u64)
            .map(|k| {
                let mut v = k.to_le_bytes().to_vec();
                v.resize(64, 1);
                (k, v)
            })
            .collect();
        db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
        db.checkpoint().unwrap();
        let expected = db.tree().collect_all().unwrap();
        let t = TandemReorganizer::new(
            Arc::clone(&db),
            TandemConfig {
                ordering_phase: false,
                ..TandemConfig::default()
            },
        );
        // Abandon mid-run (the in-flight operation is "rolled back" by
        // never having been logged), then crash with a partial flush.
        std::thread::scope(|s| {
            let h = s.spawn(|| t.run_merges());
            std::thread::sleep(std::time::Duration::from_millis(3));
            t.stop.store(true, Ordering::Relaxed);
            h.join().unwrap().unwrap();
        });
        db.log().flush_all().unwrap();
        db.crash(|p| p.0 % 2 == 0).unwrap();
        let db2 = obr_core::Database::reopen(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            Arc::clone(db.log()),
            8192,
            SidePointerMode::TwoWay,
        )
        .unwrap();
        let report = recover(&db2).unwrap();
        assert_eq!(report.forward_units_completed, 0);
        db2.tree().validate().unwrap();
        assert_eq!(db2.tree().collect_all().unwrap(), expected);
        // Rollback recovery means the merge progress is whatever made it to
        // the log; the run simply restarts from scratch afterwards.
        let t2 = TandemReorganizer::new(Arc::clone(&db2), TandemConfig::default());
        t2.run().unwrap();
        db2.tree().validate().unwrap();
        assert_eq!(db2.tree().collect_all().unwrap(), expected);
    }
}
