//! Typed view over a leaf page.
//!
//! Records are stored back-to-back in key order in the page body:
//! `[key: u64][len: u16][value bytes]`. The slot count and free pointer live
//! in the page header. Packing in key order keeps the view simple and makes
//! the *fill fraction* — the quantity the whole paper is about — a direct
//! function of the free pointer.
//!
//! [`LeafView`] is the one view of this format. Its reads (`validate`
//! included) need only `&Page`, so readers take a shared latch; its writes
//! need `&mut Page` and carry the `page-mutation` protocol annotation.

use std::ops::{Deref, DerefMut};

use obr_storage::page::HEADER_SIZE;
use obr_storage::{Page, PageType, StorageError, StorageResult, PAGE_SIZE};

/// Bytes of body available for records in a leaf.
pub const LEAF_BODY: usize = PAGE_SIZE - HEADER_SIZE;

const REC_OVERHEAD: usize = 8 + 2;

/// Largest value a single record may carry.
pub const MAX_VALUE: usize = LEAF_BODY - REC_OVERHEAD;

/// The one typed view over a leaf page, generic over how it borrows the
/// page. [`LeafView::of`] wraps a `&Page` (usable under a shared latch)
/// and offers every read; [`LeafView::new`] wraps a `&mut Page` and adds
/// the writes.
#[derive(Clone, Copy)]
pub struct LeafView<P> {
    page: P,
}

impl<'a> LeafView<&'a Page> {
    /// Wrap a leaf page for reading. Debug-asserts the type tag.
    pub fn of(page: &'a Page) -> LeafView<&'a Page> {
        LeafView::wrap(page)
    }
}

impl<'a> LeafView<&'a mut Page> {
    /// Wrap a leaf page for reading and writing. Debug-asserts the type tag.
    pub fn new(page: &'a mut Page) -> LeafView<&'a mut Page> {
        LeafView::wrap(page)
    }

    /// Format `page` as an empty leaf and wrap it.
    // protocol: page-mutation
    pub fn init(page: &'a mut Page) -> LeafView<&'a mut Page> {
        page.format(PageType::Leaf, 0);
        LeafView { page }
    }
}

impl<P: Deref<Target = Page>> LeafView<P> {
    fn wrap(page: P) -> LeafView<P> {
        debug_assert_eq!(page.page_type(), Some(PageType::Leaf), "not a leaf page");
        LeafView { page }
    }

    /// The underlying page.
    pub fn page(&self) -> &Page {
        &self.page
    }

    /// Number of records.
    pub fn count(&self) -> usize {
        self.page.slot_count() as usize
    }

    /// True when the leaf holds no records.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Bytes of body in use.
    pub fn used_bytes(&self) -> usize {
        self.page.free_ptr() as usize - HEADER_SIZE
    }

    /// Fraction of the body in use (the page fill factor `f`).
    pub fn fill_fraction(&self) -> f64 {
        self.used_bytes() as f64 / LEAF_BODY as f64
    }

    /// Bytes still free.
    pub fn free_bytes(&self) -> usize {
        LEAF_BODY - self.used_bytes()
    }

    /// Walk the records, yielding `(offset, key, value)`. The walk stops
    /// early at a record that would cross the free pointer or the page
    /// end, so a damaged header cannot make it read out of bounds.
    fn walk(&self) -> Walk<'_> {
        let end = (self.page.free_ptr() as usize).clamp(HEADER_SIZE, PAGE_SIZE);
        Walk {
            bytes: &self.page.bytes()[..end],
            off: HEADER_SIZE,
            remaining: self.count(),
        }
    }

    /// All records in key order.
    pub fn records(&self) -> Vec<(u64, Vec<u8>)> {
        self.walk().map(|(_, k, v)| (k, v.to_vec())).collect()
    }

    /// All keys in order.
    pub fn keys(&self) -> Vec<u64> {
        self.walk().map(|(_, k, _)| k).collect()
    }

    /// Smallest key, if any.
    pub fn first_key(&self) -> Option<u64> {
        self.walk().next().map(|(_, k, _)| k)
    }

    /// Largest key, if any.
    pub fn last_key(&self) -> Option<u64> {
        self.walk().last().map(|(_, k, _)| k)
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.locate(key).1
    }

    /// Records with keys in `[lo, hi]`.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
        self.walk()
            .filter(|(_, k, _)| *k >= lo && *k <= hi)
            .map(|(_, k, v)| (k, v.to_vec()))
            .collect()
    }

    /// Where `key`'s record is or would go: its byte offset (the first
    /// larger key's, or the free pointer) and the value already there.
    pub(crate) fn locate(&self, key: u64) -> (usize, Option<Vec<u8>>) {
        for (off, k, v) in self.walk() {
            if k == key {
                return (off, Some(v.to_vec()));
            }
            if k > key {
                return (off, None);
            }
        }
        (self.page.free_ptr() as usize, None)
    }

    /// Structural self-check: sorted keys, header consistent with body.
    /// A header that points outside the page is reported, never followed.
    pub fn validate(&self) -> StorageResult<()> {
        let free_ptr = self.page.free_ptr() as usize;
        if !(HEADER_SIZE..=PAGE_SIZE).contains(&free_ptr) {
            return Err(StorageError::Corrupt(format!(
                "free pointer {free_ptr} outside the page body"
            )));
        }
        let mut prev: Option<u64> = None;
        let mut n = 0usize;
        let mut end = HEADER_SIZE;
        for (off, k, v) in self.walk() {
            if let Some(p) = prev {
                if k <= p {
                    return Err(StorageError::Corrupt(format!(
                        "leaf keys out of order: {k} after {p}"
                    )));
                }
            }
            prev = Some(k);
            n += 1;
            end = off + REC_OVERHEAD + v.len();
        }
        if n != self.count() {
            return Err(StorageError::Corrupt(format!(
                "slot count {} but walked {n} records",
                self.count()
            )));
        }
        if end != self.page.free_ptr() as usize {
            return Err(StorageError::Corrupt(format!(
                "free pointer {} but records end at {end}",
                self.page.free_ptr()
            )));
        }
        Ok(())
    }
}

impl<P: DerefMut<Target = Page>> LeafView<P> {
    /// The underlying page, mutably.
    pub fn page_mut(&mut self) -> &mut Page {
        &mut self.page
    }

    /// Write `key`'s record at `at` over the `old` value there (if any),
    /// moving the tail once. Leaves the page untouched when the record is
    /// too large or does not fit.
    // protocol: page-mutation
    pub(crate) fn write_at(
        &mut self,
        at: usize,
        old: Option<&[u8]>,
        key: u64,
        value: &[u8],
    ) -> StorageResult<()> {
        if value.len() > MAX_VALUE {
            return Err(StorageError::Corrupt(format!(
                "value of {} bytes exceeds MAX_VALUE {MAX_VALUE}",
                value.len()
            )));
        }
        let need = REC_OVERHEAD + value.len();
        let freed = old.map_or(0, |v| REC_OVERHEAD + v.len());
        if need > self.free_bytes() + freed {
            return Err(StorageError::PageFull {
                page: obr_storage::PageId::INVALID,
                needed: need - freed,
                free: self.free_bytes(),
            });
        }
        let page = &mut *self.page;
        let end = page.free_ptr() as usize;
        page.bytes_mut().copy_within(at + freed..end, at + need);
        put_record(page, at, key, value);
        page.set_free_ptr((end + need - freed) as u16);
        if old.is_none() {
            page.set_slot_count(page.slot_count() + 1);
        }
        Ok(())
    }

    /// Insert a record, keeping key order. Fails on duplicates and on
    /// overflow (callers split on [`StorageError::PageFull`]).
    // protocol: page-mutation
    pub fn insert(&mut self, key: u64, value: &[u8]) -> StorageResult<()> {
        match self.locate(key) {
            (_, Some(_)) => Err(StorageError::Corrupt(format!("duplicate key {key}"))),
            (at, None) => self.write_at(at, None, key, value),
        }
    }

    /// Insert, or replace an existing value in place. Returns the old
    /// value. On [`StorageError::PageFull`] the page is unchanged.
    // protocol: page-mutation
    pub fn upsert(&mut self, key: u64, value: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        let (at, old) = self.locate(key);
        self.write_at(at, old.as_deref(), key, value)?;
        Ok(old)
    }

    /// Remove a record, returning its value.
    // protocol: page-mutation
    pub fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        let (off, value) = self.locate(key);
        let value = value?;
        let len = REC_OVERHEAD + value.len();
        let page = &mut *self.page;
        let end = page.free_ptr() as usize;
        page.bytes_mut().copy_within(off + len..end, off);
        page.set_free_ptr((end - len) as u16);
        page.set_slot_count(page.slot_count() - 1);
        Some(value)
    }

    /// Remove the records whose keys are in `keys` (sorted) in one walk and
    /// return them in key order; the kept records close up behind them.
    /// Keys the leaf does not hold are skipped.
    // protocol: page-mutation
    pub fn take_keys(&mut self, keys: &[u64]) -> Vec<(u64, Vec<u8>)> {
        let mut taken = Vec::with_capacity(keys.len());
        self.remove_sorted(keys.iter().copied(), |key, value| {
            taken.push((key, value.to_vec()))
        });
        taken
    }

    /// [`Self::take_keys`] without the values: allocates nothing.
    // protocol: page-mutation
    pub fn remove_keys(&mut self, keys: impl IntoIterator<Item = u64>) {
        self.remove_sorted(keys, |_, _| {})
    }

    /// The one walk of [`Self::take_keys`] and [`Self::remove_keys`]. It
    /// compacts in place: a kept record only ever moves towards the header,
    /// so the records still to read are intact, and `taken` sees each
    /// removed record before anything overwrites it.
    // protocol: page-mutation
    fn remove_sorted(
        &mut self,
        keys: impl IntoIterator<Item = u64>,
        mut taken: impl FnMut(u64, &[u8]),
    ) {
        let end = (self.page.free_ptr() as usize).clamp(HEADER_SIZE, PAGE_SIZE);
        let mut want = keys.into_iter().peekable();
        let (mut read, mut write, mut removed) = (HEADER_SIZE, HEADER_SIZE, 0);
        for _ in 0..self.count() {
            let mut at = Walk {
                bytes: &self.page.bytes()[..end],
                off: read,
                remaining: 1,
            };
            let Some((_, key, value)) = at.next() else {
                break;
            };
            let rec_len = REC_OVERHEAD + value.len();
            while want.next_if(|&k| k < key).is_some() {}
            if want.next_if_eq(&key).is_some() {
                taken(key, value);
                removed += 1;
            } else {
                self.page
                    .bytes_mut()
                    .copy_within(read..read + rec_len, write);
                write += rec_len;
            }
            read += rec_len;
        }
        let count = self.page.slot_count() - removed as u16;
        self.page.set_slot_count(count);
        self.page.set_free_ptr(write as u16);
    }

    /// Remove and return every record, leaving the leaf empty.
    // protocol: page-mutation
    pub fn take_all(&mut self) -> Vec<(u64, Vec<u8>)> {
        let recs = self.records();
        self.page.set_free_ptr(HEADER_SIZE as u16);
        self.page.set_slot_count(0);
        recs
    }

    /// Append records in bulk. They must all be greater than the current
    /// last key and sorted; fails with `PageFull` when they do not fit.
    // protocol: page-mutation
    pub fn extend(&mut self, records: &[(u64, Vec<u8>)]) -> StorageResult<()> {
        let need: usize = records.iter().map(|(_, v)| REC_OVERHEAD + v.len()).sum();
        if need > self.free_bytes() {
            return Err(StorageError::PageFull {
                page: obr_storage::PageId::INVALID,
                needed: need,
                free: self.free_bytes(),
            });
        }
        let mut prev = self.last_key();
        for &(k, _) in records {
            if let Some(p) = prev.filter(|&p| k <= p) {
                return Err(StorageError::Corrupt(format!(
                    "extend would break key order: {k} after {p}"
                )));
            }
            prev = Some(k);
        }
        let page = &mut *self.page;
        let mut off = page.free_ptr() as usize;
        for (k, v) in records {
            put_record(page, off, *k, v);
            off += REC_OVERHEAD + v.len();
        }
        page.set_slot_count(page.slot_count() + records.len() as u16);
        page.set_free_ptr(off as u16);
        Ok(())
    }
}

/// Write one record at `off` and lower the page's low mark to its key.
fn put_record(page: &mut Page, off: usize, key: u64, value: &[u8]) {
    let bytes = page.bytes_mut();
    bytes[off..off + 8].copy_from_slice(&key.to_le_bytes());
    bytes[off + 8..off + 10].copy_from_slice(&(value.len() as u16).to_le_bytes());
    bytes[off + 10..off + 10 + value.len()].copy_from_slice(value);
    if page.low_mark() == u64::MAX || key < page.low_mark() {
        // The low mark is "the smallest key on this page when the page was
        // first created"; for pages filled incrementally we keep it as the
        // smallest key ever seen, which preserves its use as a lower bound.
        page.set_low_mark(key);
    }
}

struct Walk<'a> {
    /// The page up to its free pointer, clamped to the page.
    bytes: &'a [u8],
    off: usize,
    remaining: usize,
}

impl<'a> Iterator for Walk<'a> {
    type Item = (usize, u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let off = self.off;
        let head = self.bytes.get(off..off + REC_OVERHEAD)?;
        let key = u64::from_le_bytes(head[..8].try_into().unwrap());
        let len = u16::from_le_bytes(head[8..].try_into().unwrap()) as usize;
        let val = self
            .bytes
            .get(off + REC_OVERHEAD..off + REC_OVERHEAD + len)?;
        self.remaining -= 1;
        self.off = off + REC_OVERHEAD + len;
        Some((off, key, val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaf() -> Page {
        let mut p = Page::new();
        p.format(PageType::Leaf, 0);
        p
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        v.insert(5, b"five").unwrap();
        v.insert(1, b"one").unwrap();
        v.insert(3, b"three").unwrap();
        assert_eq!(v.keys(), vec![1, 3, 5]);
        assert_eq!(v.get(3).unwrap(), b"three");
        assert_eq!(v.get(4), None);
        assert_eq!(v.remove(3).unwrap(), b"three");
        assert_eq!(v.keys(), vec![1, 5]);
        assert_eq!(v.remove(3), None);
        v.validate().unwrap();
    }

    #[test]
    fn shared_view_reads_and_validates() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        v.insert(2, b"b").unwrap();
        v.insert(1, b"a").unwrap();
        let r = LeafView::of(&p);
        assert_eq!(r.records(), vec![(1, b"a".to_vec()), (2, b"b".to_vec())]);
        assert_eq!(r.get(2).unwrap(), b"b");
        assert_eq!((r.first_key(), r.last_key()), (Some(1), Some(2)));
        r.validate().unwrap();
        p.set_slot_count(1);
        assert!(LeafView::of(&p).validate().is_err());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        v.insert(1, b"a").unwrap();
        assert!(v.insert(1, b"b").is_err());
        assert_eq!(v.get(1).unwrap(), b"a");
    }

    #[test]
    fn upsert_replaces() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        assert_eq!(v.upsert(1, b"a").unwrap(), None);
        assert_eq!(v.upsert(1, b"bb").unwrap().unwrap(), b"a");
        assert_eq!(v.get(1).unwrap(), b"bb");
        assert_eq!(v.count(), 1);
    }

    #[test]
    fn page_full_is_reported_not_corrupted() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        let big = vec![0u8; 1000];
        let mut n = 0u64;
        loop {
            match v.insert(n, &big) {
                Ok(()) => n += 1,
                Err(StorageError::PageFull { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(n, 4); // 4 * 1010 = 4040 <= 4064, 5th doesn't fit
        v.validate().unwrap();
        assert!(v.fill_fraction() > 0.9);
    }

    #[test]
    fn oversized_value_rejected() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        assert!(v.insert(1, &vec![0u8; MAX_VALUE + 1]).is_err());
        assert!(v.insert(1, &vec![0u8; MAX_VALUE]).is_ok());
    }

    #[test]
    fn take_all_empties_the_leaf() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        v.insert(2, b"b").unwrap();
        v.insert(1, b"a").unwrap();
        let recs = v.take_all();
        assert_eq!(recs, vec![(1, b"a".to_vec()), (2, b"b".to_vec())]);
        assert!(v.is_empty());
        assert_eq!(v.used_bytes(), 0);
        v.validate().unwrap();
    }

    #[test]
    fn take_keys_removes_a_sorted_subset_in_one_walk() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        for k in [1u64, 3, 5, 7, 9] {
            v.insert(k, &[k as u8; 3]).unwrap();
        }
        let taken = v.take_keys(&[2, 3, 7, 8]);
        assert_eq!(taken, vec![(3, vec![3; 3]), (7, vec![7; 3])]);
        assert_eq!(v.keys(), vec![1, 5, 9]);
        v.validate().unwrap();
        assert_eq!(v.take_keys(&[1, 5, 9]).len(), 3);
        assert!(v.is_empty());
        v.validate().unwrap();
    }

    #[test]
    fn damaged_headers_are_reported_not_followed() {
        let mut p = leaf();
        LeafView::new(&mut p).insert(1, b"a").unwrap();
        p.set_slot_count(u16::MAX);
        assert_eq!(LeafView::of(&p).keys(), vec![1]);
        assert!(LeafView::of(&p).validate().is_err());
        p.set_slot_count(1);
        p.set_free_ptr(u16::MAX);
        assert!(LeafView::of(&p).validate().is_err());
        // A record length that runs past the free pointer ends the walk.
        p.set_free_ptr((HEADER_SIZE + REC_OVERHEAD + 1) as u16);
        p.bytes_mut()[HEADER_SIZE + 8..HEADER_SIZE + 10].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(LeafView::of(&p).records().is_empty());
        assert!(LeafView::of(&p).validate().is_err());
    }

    #[test]
    fn extend_appends_sorted_batch() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        v.insert(1, b"a").unwrap();
        v.extend(&[(5, b"e".to_vec()), (7, b"g".to_vec())]).unwrap();
        assert_eq!(v.keys(), vec![1, 5, 7]);
        v.validate().unwrap();
        // Out-of-order extends are rejected and leave the page as it was.
        assert!(v.extend(&[(6, vec![])]).is_err());
        assert!(v.extend(&[(9, vec![]), (8, vec![])]).is_err());
        assert_eq!(v.keys(), vec![1, 5, 7]);
        v.validate().unwrap();
    }

    #[test]
    fn range_filters_inclusive() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        for k in [1u64, 3, 5, 7] {
            v.insert(k, &k.to_le_bytes()).unwrap();
        }
        let r = v.range(3, 5);
        assert_eq!(r.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn low_mark_tracks_smallest_inserted_key() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        assert_eq!(v.page().low_mark(), u64::MAX);
        v.insert(10, b"").unwrap();
        assert_eq!(v.page().low_mark(), 10);
        v.insert(3, b"").unwrap();
        assert_eq!(v.page().low_mark(), 3);
        v.remove(3);
        // Low mark is a creation-time lower bound; removal does not raise it.
        assert_eq!(v.page().low_mark(), 3);
    }

    #[test]
    fn fill_fraction_reflects_usage() {
        let mut p = leaf();
        let mut v = LeafView::new(&mut p);
        assert_eq!(v.fill_fraction(), 0.0);
        v.insert(1, &vec![0u8; 2022]).unwrap(); // 2032 bytes = half of 4064
        assert!((v.fill_fraction() - 0.5).abs() < 0.01);
    }

    proptest! {
        #[test]
        fn prop_leaf_behaves_like_btreemap(ops in prop::collection::vec(
            (any::<bool>(), 0u64..64, prop::collection::vec(any::<u8>(), 0..32)), 0..200)) {
            let mut p = leaf();
            let mut v = LeafView::new(&mut p);
            let mut model = std::collections::BTreeMap::new();
            for (is_insert, key, value) in ops {
                if is_insert {
                    match v.insert(key, &value) {
                        Ok(()) => { prop_assert!(model.insert(key, value).is_none()); }
                        Err(StorageError::PageFull { .. }) => {}
                        Err(_) => { prop_assert!(model.contains_key(&key)); }
                    }
                } else {
                    prop_assert_eq!(v.remove(key), model.remove(&key));
                }
                v.validate().unwrap();
            }
            let got: Vec<(u64, Vec<u8>)> = v.records();
            let want: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }
    }
}
