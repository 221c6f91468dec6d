//! Typed view over an internal page.
//!
//! The paper's tree variant: "a B+-tree internal node with `n` keys has `n`
//! children". Each 12-byte entry is `[low_key: u64][child: u32]`, sorted by
//! key. Routing for key `k` picks the child of the greatest entry with
//! `low_key <= k`, clamping to the first entry when `k` is below every low
//! key (the leftmost subtree covers -inf by convention).
//!
//! Level-1 internal pages are the *base pages* of the paper — the unit the
//! reorganizer's R/X base-page locks protect.
//!
//! [`NodeView`] is the one view of this format. Its reads (routing and
//! `validate` included) need only `&Page`, so readers take a shared latch;
//! its writes need `&mut Page` and carry the `page-mutation` protocol
//! annotation.

use std::ops::{Deref, DerefMut};

use obr_storage::page::HEADER_SIZE;
use obr_storage::{Page, PageId, PageType, StorageError, StorageResult, PAGE_SIZE};

/// Bytes per entry.
pub const ENTRY_SIZE: usize = 12;

/// Maximum number of entries an internal page can hold.
pub const NODE_CAPACITY: usize = (PAGE_SIZE - HEADER_SIZE) / ENTRY_SIZE;

/// The one typed view over an internal page, generic over how it borrows
/// the page. [`NodeView::of`] wraps a `&Page` (usable under a shared latch)
/// and offers every read; [`NodeView::new`] wraps a `&mut Page` and adds
/// the writes.
#[derive(Clone, Copy)]
pub struct NodeView<P> {
    page: P,
}

impl<'a> NodeView<&'a Page> {
    /// Wrap an internal page for reading. Debug-asserts the type tag.
    pub fn of(page: &'a Page) -> NodeView<&'a Page> {
        NodeView::wrap(page)
    }
}

impl<'a> NodeView<&'a mut Page> {
    /// Wrap an internal page for reading and writing. Debug-asserts the
    /// type tag.
    pub fn new(page: &'a mut Page) -> NodeView<&'a mut Page> {
        NodeView::wrap(page)
    }

    /// Format `page` as an empty internal page at `level` and wrap it.
    // protocol: page-mutation
    pub fn init(page: &'a mut Page, level: u8) -> NodeView<&'a mut Page> {
        page.format(PageType::Internal, level);
        NodeView { page }
    }
}

impl<P: Deref<Target = Page>> NodeView<P> {
    fn wrap(page: P) -> NodeView<P> {
        debug_assert_eq!(
            page.page_type(),
            Some(PageType::Internal),
            "not an internal page"
        );
        NodeView { page }
    }

    /// The underlying page.
    pub fn page(&self) -> &Page {
        &self.page
    }

    /// Number of entries. A damaged count above [`NODE_CAPACITY`] reads
    /// as the capacity, so no accessor indexes past the page;
    /// [`Self::validate`] reports it.
    pub fn count(&self) -> usize {
        (self.page.slot_count() as usize).min(NODE_CAPACITY)
    }

    /// True when the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Fraction of entry slots in use.
    pub fn fill_fraction(&self) -> f64 {
        self.count() as f64 / NODE_CAPACITY as f64
    }

    fn entry_at(&self, i: usize) -> (u64, PageId) {
        let off = HEADER_SIZE + i * ENTRY_SIZE;
        let b = self.page.bytes();
        let key = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
        let child = PageId(u32::from_le_bytes(b[off + 8..off + 12].try_into().unwrap()));
        (key, child)
    }

    /// All `(low_key, child)` entries in key order.
    pub fn entries(&self) -> Vec<(u64, PageId)> {
        (0..self.count()).map(|i| self.entry_at(i)).collect()
    }

    /// All child page ids in key order.
    pub fn children(&self) -> Vec<PageId> {
        (0..self.count()).map(|i| self.entry_at(i).1).collect()
    }

    /// Binary-search index of the routing entry for `key` (clamped to 0).
    fn route_index(&self, key: u64) -> Option<usize> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.entry_at(mid).0 <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(lo.saturating_sub(1))
    }

    /// The child to descend into for `key`.
    pub fn child_for(&self, key: u64) -> Option<PageId> {
        self.route_index(key).map(|i| self.entry_at(i).1)
    }

    /// The routing entry `(low_key, child)` for `key`.
    pub fn entry_for(&self, key: u64) -> Option<(u64, PageId)> {
        self.route_index(key).map(|i| self.entry_at(i))
    }

    /// Entry whose low key is exactly `key`, if present.
    pub fn find_exact(&self, key: u64) -> Option<(usize, PageId)> {
        let i = self.route_index(key)?;
        let (k, c) = self.entry_at(i);
        (k == key).then_some((i, c))
    }

    fn index_of(&self, child: PageId) -> Option<usize> {
        (0..self.count()).find(|&i| self.entry_at(i).1 == child)
    }

    /// Low key of the entry that points at `child`, if any.
    pub fn low_key_of(&self, child: PageId) -> Option<u64> {
        self.index_of(child).map(|i| self.entry_at(i).0)
    }

    /// First (smallest) entry.
    pub fn first_entry(&self) -> Option<(u64, PageId)> {
        (!self.is_empty()).then(|| self.entry_at(0))
    }

    /// Last (largest) entry.
    pub fn last_entry(&self) -> Option<(u64, PageId)> {
        let n = self.count();
        (n > 0).then(|| self.entry_at(n - 1))
    }

    /// Structural self-check.
    pub fn validate(&self) -> StorageResult<()> {
        if self.page.slot_count() as usize > NODE_CAPACITY {
            return Err(StorageError::Corrupt(format!(
                "node count {} exceeds capacity {NODE_CAPACITY}",
                self.page.slot_count()
            )));
        }
        let mut prev: Option<u64> = None;
        for i in 0..self.count() {
            let (k, c) = self.entry_at(i);
            if !c.is_valid() {
                return Err(StorageError::Corrupt(format!(
                    "entry {i} has invalid child"
                )));
            }
            if let Some(p) = prev {
                if k <= p {
                    return Err(StorageError::Corrupt(format!(
                        "node keys out of order: {k} after {p}"
                    )));
                }
            }
            prev = Some(k);
        }
        let expect_fp = HEADER_SIZE + self.count() * ENTRY_SIZE;
        if self.page.free_ptr() as usize != expect_fp {
            return Err(StorageError::Corrupt(format!(
                "node free pointer {} expected {expect_fp}",
                self.page.free_ptr()
            )));
        }
        Ok(())
    }
}

impl<P: DerefMut<Target = Page>> NodeView<P> {
    /// The underlying page, mutably.
    pub fn page_mut(&mut self) -> &mut Page {
        &mut self.page
    }

    fn write_entry_at(&mut self, i: usize, key: u64, child: PageId) {
        let off = HEADER_SIZE + i * ENTRY_SIZE;
        let b = self.page.bytes_mut();
        b[off..off + 8].copy_from_slice(&key.to_le_bytes());
        b[off + 8..off + 12].copy_from_slice(&child.0.to_le_bytes());
    }

    /// Insert an entry keeping key order. Fails when full or on duplicate
    /// low keys.
    // protocol: page-mutation
    pub fn insert_entry(&mut self, key: u64, child: PageId) -> StorageResult<()> {
        let n = self.count();
        if n >= NODE_CAPACITY {
            return Err(StorageError::PageFull {
                page: PageId::INVALID,
                needed: ENTRY_SIZE,
                free: 0,
            });
        }
        let pos = match self.route_index(key) {
            None => 0,
            Some(i) => {
                let (k, _) = self.entry_at(i);
                if k == key {
                    return Err(StorageError::Corrupt(format!("duplicate low key {key}")));
                }
                if k < key {
                    i + 1
                } else {
                    // route_index clamps to 0 when key is below everything.
                    0
                }
            }
        };
        let start = HEADER_SIZE + pos * ENTRY_SIZE;
        let end = HEADER_SIZE + n * ENTRY_SIZE;
        self.page
            .bytes_mut()
            .copy_within(start..end, start + ENTRY_SIZE);
        self.write_entry_at(pos, key, child);
        self.page.set_slot_count((n + 1) as u16);
        self.page.set_free_ptr((end + ENTRY_SIZE) as u16);
        if self.page.low_mark() == u64::MAX || key < self.page.low_mark() {
            self.page.set_low_mark(key);
        }
        Ok(())
    }

    /// Remove the entry with exactly this low key; returns its child.
    // protocol: page-mutation
    pub fn remove_entry(&mut self, key: u64) -> Option<PageId> {
        let (i, child) = self.find_exact(key)?;
        let n = self.count();
        let start = HEADER_SIZE + i * ENTRY_SIZE;
        let end = HEADER_SIZE + n * ENTRY_SIZE;
        self.page
            .bytes_mut()
            .copy_within(start + ENTRY_SIZE..end, start);
        self.page.set_slot_count((n - 1) as u16);
        self.page.set_free_ptr((end - ENTRY_SIZE) as u16);
        Some(child)
    }

    /// Replace the child of the entry with exactly this low key.
    // protocol: page-mutation
    pub fn set_child(&mut self, key: u64, child: PageId) -> StorageResult<()> {
        match self.find_exact(key) {
            Some((i, _)) => {
                self.write_entry_at(i, key, child);
                Ok(())
            }
            None => Err(StorageError::Corrupt(format!(
                "no entry with low key {key} to repoint"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn node() -> Page {
        let mut p = Page::new();
        p.format(PageType::Internal, 1);
        p
    }

    #[test]
    fn a_count_above_capacity_is_reported_not_followed() {
        let mut p = node();
        NodeView::new(&mut p).insert_entry(1, PageId(4)).unwrap();
        p.set_slot_count(NODE_CAPACITY as u16 + 1);
        let view = NodeView::of(&p);
        assert_eq!(view.entries().len(), NODE_CAPACITY);
        assert!(view.validate().is_err());
    }

    #[test]
    fn routing_picks_greatest_low_key_at_most_key() {
        let mut p = node();
        let mut v = NodeView::new(&mut p);
        v.insert_entry(10, PageId(1)).unwrap();
        v.insert_entry(20, PageId(2)).unwrap();
        v.insert_entry(30, PageId(3)).unwrap();
        assert_eq!(v.child_for(10), Some(PageId(1)));
        assert_eq!(v.child_for(15), Some(PageId(1)));
        assert_eq!(v.child_for(20), Some(PageId(2)));
        assert_eq!(v.child_for(29), Some(PageId(2)));
        assert_eq!(v.child_for(30), Some(PageId(3)));
        assert_eq!(v.child_for(u64::MAX), Some(PageId(3)));
        // Below every low key: clamp to the leftmost child.
        assert_eq!(v.child_for(5), Some(PageId(1)));
        v.validate().unwrap();
    }

    #[test]
    fn shared_view_routes_and_validates() {
        let mut p = node();
        let mut v = NodeView::new(&mut p);
        v.insert_entry(10, PageId(1)).unwrap();
        v.insert_entry(20, PageId(2)).unwrap();
        let r = NodeView::of(&p);
        assert_eq!(r.child_for(25), Some(PageId(2)));
        assert_eq!(r.low_key_of(PageId(1)), Some(10));
        r.validate().unwrap();
        p.set_free_ptr(p.free_ptr() + 1);
        assert!(NodeView::of(&p).validate().is_err());
    }

    #[test]
    fn empty_node_routes_nowhere() {
        let mut p = node();
        let v = NodeView::new(&mut p);
        assert_eq!(v.child_for(1), None);
        assert!(v.is_empty());
    }

    #[test]
    fn insert_out_of_order_keeps_sorted() {
        let mut p = node();
        let mut v = NodeView::new(&mut p);
        v.insert_entry(30, PageId(3)).unwrap();
        v.insert_entry(10, PageId(1)).unwrap();
        v.insert_entry(20, PageId(2)).unwrap();
        assert_eq!(
            v.entries(),
            vec![(10, PageId(1)), (20, PageId(2)), (30, PageId(3))]
        );
        v.validate().unwrap();
    }

    #[test]
    fn duplicate_low_key_rejected() {
        let mut p = node();
        let mut v = NodeView::new(&mut p);
        v.insert_entry(10, PageId(1)).unwrap();
        assert!(v.insert_entry(10, PageId(2)).is_err());
    }

    #[test]
    fn remove_and_repoint() {
        let mut p = node();
        let mut v = NodeView::new(&mut p);
        v.insert_entry(10, PageId(1)).unwrap();
        v.insert_entry(20, PageId(2)).unwrap();
        assert_eq!(v.remove_entry(10), Some(PageId(1)));
        assert_eq!(v.remove_entry(10), None);
        assert_eq!(v.entries(), vec![(20, PageId(2))]);
        assert_eq!(v.low_key_of(PageId(2)), Some(20));
        v.set_child(20, PageId(9)).unwrap();
        assert_eq!(v.low_key_of(PageId(2)), None);
        assert_eq!(v.child_for(25), Some(PageId(9)));
        v.set_child(20, PageId(4)).unwrap();
        assert_eq!(v.child_for(25), Some(PageId(4)));
        assert!(v.set_child(99, PageId(4)).is_err());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut p = node();
        let mut v = NodeView::new(&mut p);
        for i in 0..NODE_CAPACITY as u64 {
            v.insert_entry(i, PageId(i as u32)).unwrap();
        }
        assert_eq!(v.count(), NODE_CAPACITY);
        assert!(v.insert_entry(9999, PageId(9)).is_err());
        assert!((v.fill_fraction() - 1.0).abs() < f64::EPSILON);
        v.validate().unwrap();
    }

    #[test]
    fn entry_neighbours() {
        let mut p = node();
        let mut v = NodeView::new(&mut p);
        v.insert_entry(10, PageId(1)).unwrap();
        v.insert_entry(20, PageId(2)).unwrap();
        assert_eq!(v.entry_for(15), Some((10, PageId(1))));
        assert_eq!(v.first_entry(), Some((10, PageId(1))));
        assert_eq!(v.last_entry(), Some((20, PageId(2))));
    }

    #[test]
    fn base_page_capacity_matches_paper_scale() {
        // "each base page might contain pointers to around two hundred leaf
        // pages" — our 4 KiB pages hold ~338 entries, the same order.
        // Documenting the paper scale; const-asserted at compile time.
        const { assert!(NODE_CAPACITY > 200) };
    }

    proptest! {
        #[test]
        fn prop_routing_matches_model(keys in prop::collection::btree_set(0u64..10_000, 1..100),
                                      probes in prop::collection::vec(any::<u64>(), 0..50)) {
            let mut p = node();
            let mut v = NodeView::new(&mut p);
            for (i, &k) in keys.iter().enumerate() {
                v.insert_entry(k, PageId(i as u32)).unwrap();
            }
            v.validate().unwrap();
            let sorted: Vec<u64> = keys.iter().copied().collect();
            for probe in probes {
                // Clamp to the first entry when the probe is below all keys.
                let want_idx = sorted.iter().rposition(|&k| k <= probe).unwrap_or_default();
                prop_assert_eq!(v.child_for(probe), Some(PageId(want_idx as u32)));
            }
        }
    }
}
