//! A streaming range cursor: leaf-at-a-time iteration without materializing
//! the whole result set (what a real client would use for large scans).
//!
//! The cursor holds no latches between calls: each refill latches one leaf,
//! copies the qualifying records, and advances. With side pointers the next
//! leaf comes from the chain; without them the cursor re-descends using the
//! first key it has not yet returned. Concurrent structure changes are
//! tolerated the same way the paper's readers tolerate them: the cursor
//! simply re-descends and may observe records inserted or moved after it
//! started (read-committed semantics, like [`BTree::range_scan`]).

use std::collections::VecDeque;

use obr_storage::PageType;

use crate::error::BTreeResult;
use crate::leaf::LeafView;
use crate::tree::{BTree, SidePointerMode};

/// A forward cursor over `[lo, hi]`.
pub struct RangeCursor<'t> {
    tree: &'t BTree,
    hi: u64,
    /// Next key we have not yet returned (`None` = exhausted).
    next_key: Option<u64>,
    buf: VecDeque<(u64, Vec<u8>)>,
    done: bool,
    /// Without side pointers there is no chain to follow, so the cursor
    /// iterates a snapshot of the in-order leaf list instead.
    leaf_list: Option<(Vec<obr_storage::PageId>, usize)>,
}

impl BTree {
    /// Open a streaming cursor over the inclusive key range `[lo, hi]`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use obr_btree::{BTree, SidePointerMode};
    /// use obr_storage::{BufferPool, DiskManager, FreeSpaceMap, InMemoryDisk, Lsn};
    /// use obr_wal::{LogManager, TxnId};
    ///
    /// let disk = Arc::new(InMemoryDisk::new(256));
    /// let pool = Arc::new(BufferPool::new(disk as Arc<dyn DiskManager>, 256));
    /// let fsm = Arc::new(FreeSpaceMap::new_all_free(256));
    /// let tree = BTree::create(pool, fsm, Arc::new(LogManager::new()),
    ///                          SidePointerMode::TwoWay).unwrap();
    /// for k in 0..100u64 {
    ///     tree.insert(TxnId(1), Lsn::ZERO, k, &k.to_le_bytes()).unwrap();
    /// }
    /// let keys: Vec<u64> = tree.cursor(10, 14)
    ///     .map(|r| r.unwrap().0)
    ///     .collect();
    /// assert_eq!(keys, vec![10, 11, 12, 13, 14]);
    /// ```
    pub fn cursor(&self, lo: u64, hi: u64) -> RangeCursor<'_> {
        RangeCursor {
            tree: self,
            hi,
            next_key: Some(lo),
            buf: VecDeque::new(),
            done: lo > hi,
            leaf_list: None,
        }
    }
}

impl RangeCursor<'_> {
    fn refill(&mut self) -> BTreeResult<()> {
        if self.tree.side_mode() == SidePointerMode::None {
            return self.refill_from_leaf_list();
        }
        let Some(from) = self.next_key else {
            self.done = true;
            return Ok(());
        };
        // Latch the leaf responsible for `from`, copy its qualifying
        // records, and compute where to continue.
        let leaf_id = self.tree.leaf_for(from)?;
        let pool = self.tree.pool();
        let (records, leaf_last, right) = {
            let g = pool.fetch(leaf_id)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Leaf) {
                // Raced with a structure change: retry from the same key.
                return Ok(());
            }
            let r = LeafView::of(&page);
            (r.range(from, self.hi), r.last_key(), page.right_sibling())
        };
        self.buf.extend(records);
        // Continuation: past this leaf's largest key (even if it was out of
        // range, we are finished then).
        match leaf_last {
            Some(last) if last >= self.hi => {
                self.next_key = None;
            }
            _ => {
                // Advance to the next leaf via the chain.
                let next = if right.is_valid() {
                    let g = pool.fetch(right)?;
                    let page = g.read();
                    if page.page_type() == Some(PageType::Leaf) {
                        LeafView::of(&page).first_key()
                    } else {
                        leaf_last.map(|l| l.saturating_add(1))
                    }
                } else {
                    None // rightmost leaf: done
                };
                // Continue only with a key that makes progress and is
                // still inside the range.
                self.next_key = next.filter(|&n| n > from && n <= self.hi);
            }
        }
        if self.next_key.is_none() && self.buf.is_empty() {
            self.done = true;
        }
        Ok(())
    }

    /// No-chain refill: walk a snapshot of the in-order leaf list.
    fn refill_from_leaf_list(&mut self) -> BTreeResult<()> {
        let Some(from) = self.next_key else {
            self.done = true;
            return Ok(());
        };
        if self.leaf_list.is_none() {
            self.leaf_list = Some((self.tree.leaves_in_key_order()?, 0));
        }
        let (leaves, pos) = self.leaf_list.as_mut().expect("just set");
        let pool = self.tree.pool();
        while *pos < leaves.len() && self.buf.is_empty() {
            let leaf = leaves[*pos];
            *pos += 1;
            let g = pool.fetch(leaf)?;
            let page = g.read();
            if page.page_type() != Some(PageType::Leaf) {
                continue; // deallocated since the snapshot
            }
            let r = LeafView::of(&page);
            if r.first_key().map(|k| k > self.hi).unwrap_or(false) {
                *pos = leaves.len(); // past the range: stop
                break;
            }
            self.buf.extend(r.range(from, self.hi));
        }
        if *pos >= leaves.len() {
            self.next_key = None;
        }
        if self.buf.is_empty() && self.next_key.is_none() {
            self.done = true;
        }
        Ok(())
    }
}

impl Iterator for RangeCursor<'_> {
    type Item = BTreeResult<(u64, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.buf.pop_front() {
                return Some(Ok(rec));
            }
            if self.done || self.next_key.is_none() {
                return None;
            }
            if let Err(e) = self.refill() {
                self.done = true;
                return Some(Err(e));
            }
            if self.buf.is_empty() && self.next_key.is_none() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SidePointerMode;
    use obr_storage::{BufferPool, DiskManager, FreeSpaceMap, InMemoryDisk, Lsn};
    use obr_wal::{LogManager, TxnId};
    use std::sync::Arc;

    fn tree(side: SidePointerMode) -> BTree {
        let disk = Arc::new(InMemoryDisk::new(2048));
        let pool = Arc::new(BufferPool::new(disk as Arc<dyn DiskManager>, 2048));
        let fsm = Arc::new(FreeSpaceMap::new_all_free(2048));
        let log = Arc::new(LogManager::new());
        let t = BTree::create(pool, fsm, log, side).unwrap();
        for k in 0..1000u64 {
            t.insert(TxnId(1), Lsn::ZERO, k * 3, &k.to_le_bytes())
                .unwrap();
        }
        t
    }

    #[test]
    fn cursor_matches_range_scan() {
        for side in [
            SidePointerMode::TwoWay,
            SidePointerMode::OneWay,
            SidePointerMode::None,
        ] {
            let t = tree(side);
            for (lo, hi) in [(0, 2997), (100, 200), (1, 1), (2995, 10_000), (500, 499)] {
                let via_cursor: Vec<(u64, Vec<u8>)> =
                    t.cursor(lo, hi).collect::<BTreeResult<_>>().unwrap();
                let via_scan = t.range_scan(lo, hi).unwrap();
                assert_eq!(via_cursor, via_scan, "side={side:?} range=({lo},{hi})");
            }
        }
    }

    #[test]
    fn cursor_streams_lazily() {
        let t = tree(SidePointerMode::TwoWay);
        let mut c = t.cursor(0, u64::MAX);
        // Take a handful without draining.
        for want in [0u64, 3, 6, 9] {
            assert_eq!(c.next().unwrap().unwrap().0, want);
        }
    }

    #[test]
    fn cursor_survives_concurrent_inserts() {
        let t = Arc::new(tree(SidePointerMode::TwoWay));
        let t2 = Arc::clone(&t);
        std::thread::scope(|s| {
            s.spawn(move || {
                for k in 0..500u64 {
                    let key = 10_000 + k;
                    t2.insert(TxnId(2), Lsn::ZERO, key, &[1]).unwrap();
                }
            });
            // Stream the original range while the writer splits leaves
            // above it; every original record must be seen exactly once.
            let got: Vec<u64> = t.cursor(0, 2997).map(|r| r.unwrap().0).collect();
            assert_eq!(got, (0..1000u64).map(|k| k * 3).collect::<Vec<_>>());
        });
    }

    #[test]
    fn empty_range_yields_nothing() {
        let t = tree(SidePointerMode::TwoWay);
        assert_eq!(t.cursor(1, 2).count(), 0); // between records
        assert_eq!(t.cursor(5000, 4000).count(), 0); // inverted
    }
}
