//! Tree fsck: walk a page file (or a live buffer pool) and verify the
//! on-disk B+-tree invariants without running a workload.
//!
//! Checked invariant families:
//!
//! * **Key ordering** — strictly sorted keys inside every leaf and internal
//!   node, and strictly increasing across the in-order leaf sequence.
//! * **Side-pointer chain** — the right-sibling chain visits exactly the
//!   in-order leaves and every back pointer names the in-order
//!   predecessor (the structure Pass 2 relies on for sequential range
//!   scans, §6).
//! * **Parent/child agreement** — every child's keys lie inside the key
//!   range its parent's routing entry grants it (child 0 also absorbs keys
//!   clamped below its entry key, matching the router's semantics).
//! * **Free-space-map agreement** — on a live database, every reachable
//!   page must be allocated in the FSM ([`fsck_db`] only; a raw page file
//!   carries no FSM).
//! * **Fill accounting** — per-base-page fill fractions, the sparseness
//!   metric Pass 1 keys off (§6.1), recomputed from the leaves and checked
//!   for overflow; the figures are returned in [`FsckStats`].
//!
//! The walk assumes a quiescent tree (no concurrent SMOs); run it on a
//! closed page file, or on a live database between operations.

use std::collections::BTreeSet;
use std::io::Read;
use std::path::Path;

use obr_btree::leaf::LEAF_BODY;
use obr_btree::{LeafView, MetaView, NodeView};
use obr_core::Database;
use obr_storage::{BufferPool, Page, PageId, PageType, PAGE_SIZE};

use crate::report::Report;

/// Name this checker stamps on findings.
const CHECKER: &str = "fsck";

/// Read-only access to pages by id, abstracting over a raw file and a live
/// buffer pool.
pub trait PageSource {
    /// A copy of page `id`, or `None` when it cannot be read.
    fn page(&self, id: PageId) -> Option<Page>;
}

/// A page file loaded into memory (e.g. `<dir>/pages.db`).
pub struct FileSource {
    pages: Vec<Page>,
    /// Bytes past the last whole page, if the file length was not a
    /// multiple of [`PAGE_SIZE`].
    pub trailing_bytes: usize,
}

impl FileSource {
    /// Load every whole page of `path`.
    pub fn open(path: &Path) -> std::io::Result<FileSource> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        let whole = buf.len() / PAGE_SIZE;
        let mut pages = Vec::with_capacity(whole);
        for i in 0..whole {
            let chunk: &[u8; PAGE_SIZE] =
                buf[i * PAGE_SIZE..(i + 1) * PAGE_SIZE].try_into().unwrap();
            pages.push(Page::from_bytes(chunk));
        }
        Ok(FileSource {
            pages,
            trailing_bytes: buf.len() % PAGE_SIZE,
        })
    }

    /// Number of whole pages in the file.
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }
}

impl PageSource for FileSource {
    fn page(&self, id: PageId) -> Option<Page> {
        self.pages.get(id.index()).cloned()
    }
}

/// A live buffer pool as a page source (sees dirty, unflushed pages).
///
/// Reads are non-perturbing: a resident page is copied out of its shard via
/// [`BufferPool::peek`] (no pin, no clock touch, no fault-in), and an absent
/// page is read straight from disk so checking never evicts hot frames or
/// fails on a full pool.
pub struct PoolSource<'a> {
    pool: &'a BufferPool,
}

impl<'a> PoolSource<'a> {
    /// Wrap `pool`.
    pub fn new(pool: &'a BufferPool) -> PoolSource<'a> {
        PoolSource { pool }
    }
}

impl PageSource for PoolSource<'_> {
    fn page(&self, id: PageId) -> Option<Page> {
        if let Some(page) = self.pool.peek(id) {
            return Some(page);
        }
        self.pool.disk().read_page(id).ok()
    }
}

/// Tuning knobs for the walk.
#[derive(Clone, Debug)]
pub struct FsckOptions {
    /// Page id of the meta page (the durable layout uses page 0).
    pub meta: PageId,
    /// Leaves below this fill fraction count as sparse in [`FsckStats`].
    pub sparse_threshold: f64,
}

impl Default for FsckOptions {
    fn default() -> Self {
        FsckOptions {
            meta: PageId(0),
            sparse_threshold: 0.5,
        }
    }
}

/// Fill accounting for one base page (the unit Pass 1 plans over).
#[derive(Clone, Debug)]
pub struct BaseFill {
    /// The base (level-1 internal) page.
    pub base: PageId,
    /// Number of child leaves.
    pub leaves: u32,
    /// Total record bytes across those leaves.
    pub used_bytes: u64,
    /// Mean fill fraction of those leaves.
    pub fill: f64,
}

/// Aggregate figures recomputed by the walk.
#[derive(Clone, Debug, Default)]
pub struct FsckStats {
    /// Pages visited (meta + reachable tree pages).
    pub pages_scanned: u64,
    /// Internal pages visited.
    pub internal_pages: u64,
    /// Leaf pages visited.
    pub leaf_pages: u64,
    /// Records across all leaves.
    pub records: u64,
    /// Leaves holding zero records (legal but notable).
    pub empty_leaves: u64,
    /// Mean leaf fill fraction (0 when there are no leaves).
    pub avg_leaf_fill: f64,
    /// Leaves below the sparse threshold.
    pub sparse_leaves: u64,
    /// Per-base fill accounting, in key order.
    pub per_base: Vec<BaseFill>,
}

/// Everything one fsck run produces.
#[derive(Clone, Debug)]
pub struct FsckResult {
    /// Findings and summary lines.
    pub report: Report,
    /// Recomputed statistics.
    pub stats: FsckStats,
    /// Every page the walk reached (meta included), for external
    /// cross-checks such as FSM agreement.
    pub reachable: BTreeSet<PageId>,
}

struct Walker<'a> {
    src: &'a dyn PageSource,
    report: Report,
    stats: FsckStats,
    seen: BTreeSet<PageId>,
    /// Leaves in parent-entry order, with their granted key ranges.
    leaves: Vec<PageId>,
}

impl Walker<'_> {
    fn err(&mut self, code: &'static str, page: PageId, detail: impl Into<String>) {
        self.report.error(CHECKER, code, Some(page), None, detail);
    }

    /// Walk the subtree rooted at `id`, which the parent grants the key
    /// range `[lo, hi)` (`None` = unbounded).
    fn walk(&mut self, id: PageId, expect_level: u8, lo: Option<u64>, hi: Option<u64>) {
        if !self.seen.insert(id) {
            self.err(
                "page-shared",
                id,
                "page is reachable via two parents (or a cycle)",
            );
            return;
        }
        self.stats.pages_scanned += 1;
        let Some(page) = self.src.page(id) else {
            self.err("page-unreadable", id, "page cannot be read from source");
            return;
        };
        if page.level() != expect_level {
            self.err(
                "level-mismatch",
                id,
                format!(
                    "header level {} but parent expects level {expect_level}",
                    page.level()
                ),
            );
        }
        if expect_level > 0 {
            self.walk_internal(id, page, expect_level, lo, hi);
        } else {
            self.walk_leaf(id, page, lo, hi);
        }
    }

    fn walk_internal(
        &mut self,
        id: PageId,
        page: Page,
        level: u8,
        lo: Option<u64>,
        hi: Option<u64>,
    ) {
        if page.page_type() != Some(PageType::Internal) {
            self.err(
                "type-mismatch",
                id,
                format!(
                    "expected an internal page at level {level}, found {:?}",
                    page.page_type()
                ),
            );
            return;
        }
        self.stats.internal_pages += 1;
        let node = NodeView::of(&page);
        // Slot-directory coherence (free pointer, sortedness, children).
        if let Err(e) = node.validate() {
            self.err("node-invalid", id, format!("node validation: {e}"));
        }
        let entries = node.entries();
        if entries.is_empty() {
            self.err("empty-internal", id, "internal page routes nothing");
            return;
        }
        for w in entries.windows(2) {
            if w[0].0 >= w[1].0 {
                self.err(
                    "node-key-order",
                    id,
                    format!("entry keys out of order: {} then {}", w[0].0, w[1].0),
                );
            }
        }
        for &(k, _) in &entries {
            if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h) {
                self.err(
                    "entry-out-of-range",
                    id,
                    format!("entry key {k} outside the granted range [{lo:?}, {hi:?})"),
                );
            }
        }
        for (i, &(k, child)) in entries.iter().enumerate() {
            if !child.is_valid() {
                self.err("invalid-child", id, format!("entry {k} has no child"));
                continue;
            }
            // The router sends `key` to the last entry with key <= `key`,
            // and keys below the first entry to child 0 — so child 0's low
            // bound is the parent's, not its own entry key.
            let child_lo = if i == 0 { lo } else { Some(k) };
            let child_hi = entries.get(i + 1).map(|e| Some(e.0)).unwrap_or(hi);
            self.walk(child, level - 1, child_lo, child_hi);
        }
    }

    fn walk_leaf(&mut self, id: PageId, page: Page, lo: Option<u64>, hi: Option<u64>) {
        if page.page_type() != Some(PageType::Leaf) {
            self.err(
                "type-mismatch",
                id,
                format!("expected a leaf page, found {:?}", page.page_type()),
            );
            return;
        }
        self.stats.leaf_pages += 1;
        self.leaves.push(id);
        let leaf = LeafView::of(&page);
        if let Err(e) = leaf.validate() {
            self.err("leaf-invalid", id, format!("leaf validation: {e}"));
        }
        let keys = leaf.keys();
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                self.err(
                    "leaf-key-order",
                    id,
                    format!("record keys out of order: {} then {}", w[0], w[1]),
                );
            }
        }
        for &k in &keys {
            if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h) {
                self.err(
                    "key-out-of-range",
                    id,
                    format!("key {k} outside the parent-granted range [{lo:?}, {hi:?})"),
                );
            }
        }
        if leaf.used_bytes() > LEAF_BODY {
            self.err(
                "leaf-overflow",
                id,
                format!(
                    "{} used bytes exceed the {LEAF_BODY}-byte body",
                    leaf.used_bytes()
                ),
            );
        }
        self.stats.records += keys.len() as u64;
        if keys.is_empty() {
            self.stats.empty_leaves += 1;
        }
    }

    /// The in-order leaves must equal the side-pointer chain, which is
    /// always doubly linked: every leaf's right pointer names its in-order
    /// successor and its left pointer its predecessor (INVALID at the ends).
    fn check_chain(&mut self) {
        let leaves = self.leaves.clone();
        for (i, &id) in leaves.iter().enumerate() {
            let (left, right) = self
                .src
                .page(id)
                .map(|p| (p.left_sibling(), p.right_sibling()))
                .unwrap_or((PageId::INVALID, PageId::INVALID));
            let expect_left = i.checked_sub(1).map_or(PageId::INVALID, |j| leaves[j]);
            let expect_right = leaves.get(i + 1).copied().unwrap_or(PageId::INVALID);
            if right != expect_right {
                self.err(
                    "chain-right",
                    id,
                    format!(
                        "right sibling is {right}, expected {expect_right} \
                         (in-order successor)"
                    ),
                );
            }
            if left != expect_left {
                self.err(
                    "chain-left",
                    id,
                    format!(
                        "left sibling is {left}, expected {expect_left} \
                         (in-order predecessor)"
                    ),
                );
            }
        }
    }

    /// Keys must increase strictly across the in-order leaf sequence.
    fn check_cross_leaf_order(&mut self) {
        let mut prev: Option<(PageId, u64)> = None;
        let leaves = self.leaves.clone();
        for id in leaves {
            let Some(page) = self.src.page(id) else {
                continue;
            };
            if page.page_type() != Some(PageType::Leaf) {
                continue;
            }
            let leaf = LeafView::of(&page);
            if let (Some(first), Some(last)) = (leaf.first_key(), leaf.last_key()) {
                if let Some((pid, plast)) = prev {
                    if first <= plast {
                        self.err(
                            "cross-leaf-order",
                            id,
                            format!(
                                "first key {first} does not exceed key {plast} \
                                 of preceding leaf {pid}"
                            ),
                        );
                    }
                }
                prev = Some((id, last));
            }
        }
    }

    /// Recompute per-base fill (the Pass-1 sparseness metric) from the base
    /// pages' children.
    fn account_fills(&mut self, root: PageId, height: u8) {
        if height == 0 {
            return; // a root leaf has no base page
        }
        // Descend height-1 levels from the root to reach the bases (the
        // level-1 internal pages whose children are leaves).
        let mut bases = vec![root];
        for _ in 0..height - 1 {
            let mut next = Vec::new();
            for id in bases {
                let Some(page) = self.src.page(id) else {
                    continue;
                };
                if page.page_type() != Some(PageType::Internal) {
                    continue;
                }
                next.extend(NodeView::of(&page).children());
            }
            bases = next;
        }
        let mut fill_sum = 0.0f64;
        let mut fill_n = 0u64;
        for base in bases {
            let Some(bp) = self.src.page(base) else {
                continue;
            };
            if bp.page_type() != Some(PageType::Internal) {
                continue;
            }
            let children = NodeView::of(&bp).children();
            let mut used = 0u64;
            let mut fills = 0.0f64;
            let mut leaves = 0u32;
            for c in children {
                let Some(lp) = self.src.page(c) else { continue };
                if lp.page_type() != Some(PageType::Leaf) {
                    continue;
                }
                let leaf = LeafView::of(&lp);
                used += leaf.used_bytes() as u64;
                fills += leaf.fill_fraction();
                leaves += 1;
            }
            let fill = if leaves == 0 {
                0.0
            } else {
                fills / f64::from(leaves)
            };
            fill_sum += fills;
            fill_n += u64::from(leaves);
            self.stats.per_base.push(BaseFill {
                base,
                leaves,
                used_bytes: used,
                fill,
            });
        }
        self.stats.avg_leaf_fill = if fill_n == 0 {
            0.0
        } else {
            fill_sum / fill_n as f64
        };
    }
}

/// Walk the tree anchored at `opts.meta` in `src` and verify every fsck
/// invariant that a bare page image supports.
pub fn fsck_source(src: &dyn PageSource, opts: &FsckOptions) -> FsckResult {
    let mut w = Walker {
        src,
        report: Report::new(),
        stats: FsckStats::default(),
        seen: BTreeSet::new(),
        leaves: Vec::new(),
    };
    let meta_id = opts.meta;
    let Some(meta_page) = src.page(meta_id) else {
        w.err("meta-unreadable", meta_id, "meta page cannot be read");
        return finish(w, opts);
    };
    w.seen.insert(meta_id);
    w.stats.pages_scanned += 1;
    let meta = match MetaView::of(&meta_page) {
        Ok(m) => m,
        Err(e) => {
            w.err("meta-invalid", meta_id, format!("meta page rejected: {e}"));
            return finish(w, opts);
        }
    };
    let (root, height) = (meta.root(), meta.height());
    if !root.is_valid() {
        w.err("root-invalid", meta_id, "meta names no root page");
        return finish(w, opts);
    }
    w.walk(root, height, None, None);
    w.check_chain();
    w.check_cross_leaf_order();
    w.account_fills(root, height);
    finish(w, opts)
}

fn finish(mut w: Walker<'_>, opts: &FsckOptions) -> FsckResult {
    let mut sparse = 0u64;
    for id in &w.leaves {
        if let Some(p) = w.src.page(*id) {
            if p.page_type() == Some(PageType::Leaf)
                && LeafView::of(&p).fill_fraction() < opts.sparse_threshold
                && !LeafView::of(&p).is_empty()
            {
                sparse += 1;
            }
        }
    }
    w.stats.sparse_leaves = sparse;
    w.report.note(format!(
        "scanned {} pages ({} internal, {} leaves, {} records); \
         avg leaf fill {:.2}, {} sparse, {} empty",
        w.stats.pages_scanned,
        w.stats.internal_pages,
        w.stats.leaf_pages,
        w.stats.records,
        w.stats.avg_leaf_fill,
        w.stats.sparse_leaves,
        w.stats.empty_leaves,
    ));
    FsckResult {
        report: w.report,
        stats: w.stats,
        reachable: w.seen,
    }
}

/// Fsck a page file on disk (e.g. `<dir>/pages.db`).
pub fn fsck_file(path: &Path, opts: &FsckOptions) -> std::io::Result<FsckResult> {
    let src = FileSource::open(path)?;
    let mut result = fsck_source(&src, opts);
    if src.trailing_bytes != 0 {
        result.report.error(
            CHECKER,
            "partial-page",
            None,
            None,
            format!(
                "file ends with {} stray bytes (not a whole page)",
                src.trailing_bytes
            ),
        );
    }
    Ok(result)
}

/// Fsck a live database through its buffer pool, adding the FSM-agreement
/// checks a raw page file cannot support: every page the tree reaches must
/// be allocated in the free-space map.
pub fn fsck_db(db: &Database, opts: &FsckOptions) -> FsckResult {
    let src = PoolSource::new(db.pool());
    let opts = FsckOptions {
        meta: db.tree().meta_id(),
        ..opts.clone()
    };
    let mut result = fsck_source(&src, &opts);
    let fsm = db.fsm();
    for &page in &result.reachable {
        if fsm.is_free(page) {
            result.report.error(
                CHECKER,
                "fsm-reachable-free",
                Some(page),
                None,
                "page is reachable from the root but marked free in the FSM",
            );
        }
    }
    result.report.note(format!(
        "fsm: {} pages tracked, {} free, {} allocated",
        fsm.num_pages(),
        fsm.free_count(),
        fsm.allocated_count()
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_btree::SidePointerMode;
    use obr_storage::InMemoryDisk;
    use std::sync::Arc;

    fn small_db() -> Arc<Database> {
        let disk = Arc::new(InMemoryDisk::new(256));
        let db = Database::create(disk, 256, SidePointerMode::TwoWay).unwrap();
        for k in 0..500u64 {
            db.tree()
                .insert(
                    obr_wal::TxnId::SYSTEM,
                    obr_storage::Lsn::ZERO,
                    k,
                    &[7u8; 16],
                )
                .unwrap();
        }
        db
    }

    #[test]
    fn clean_tree_has_no_findings() {
        let db = small_db();
        let r = fsck_db(&db, &FsckOptions::default());
        assert!(r.report.is_clean(), "{}", r.report);
        assert!(r.stats.leaf_pages > 1);
        assert_eq!(r.stats.records, 500);
        assert!(!r.stats.per_base.is_empty());
    }

    #[test]
    fn flipped_sibling_pointer_is_caught() {
        let db = small_db();
        let clean = fsck_db(&db, &FsckOptions::default());
        let leaves: Vec<PageId> = clean
            .reachable
            .iter()
            .copied()
            .filter(|&p| {
                db.pool()
                    .fetch(p)
                    .map(|g| g.read().page_type() == Some(PageType::Leaf))
                    .unwrap_or(false)
            })
            .collect();
        assert!(leaves.len() >= 3);
        let victim = leaves[1];
        {
            let g = db.pool().fetch(victim).unwrap();
            g.write().set_right_sibling(leaves[0]);
        }
        let r = fsck_db(&db, &FsckOptions::default());
        assert!(!r.report.is_clean());
        assert!(
            r.report
                .findings
                .iter()
                .any(|f| f.code.starts_with("chain") && f.page == Some(victim)),
            "{}",
            r.report
        );
    }

    #[test]
    fn out_of_order_key_is_caught() {
        let db = small_db();
        let clean = fsck_db(&db, &FsckOptions::default());
        let leaf = *clean
            .reachable
            .iter()
            .find(|&&p| {
                db.pool()
                    .fetch(p)
                    .map(|g| {
                        let page = g.read();
                        page.page_type() == Some(PageType::Leaf) && LeafView::of(&page).count() >= 2
                    })
                    .unwrap_or(false)
            })
            .unwrap();
        {
            // Swap the first two slot key bytes to break ordering without
            // touching the slot directory.
            let g = db.pool().fetch(leaf).unwrap();
            let mut page = g.write();
            let keys = LeafView::of(&page).keys();
            let (a, b) = (keys[0], keys[1]);
            let body = page.body_mut();
            // Slots store the key at the slot offset; find and swap the two
            // 8-byte key encodings.
            let mut swapped = false;
            for i in 0..body.len().saturating_sub(8) {
                if body[i..i + 8] == a.to_le_bytes() {
                    body[i..i + 8].copy_from_slice(&b.to_le_bytes());
                    swapped = true;
                    break;
                }
            }
            assert!(swapped, "key bytes not found in body");
        }
        let r = fsck_db(&db, &FsckOptions::default());
        assert!(
            r.report.findings.iter().any(|f| f.page == Some(leaf)),
            "{}",
            r.report
        );
    }
}
