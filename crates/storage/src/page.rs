//! Fixed-size page images and the header fields the reorganizer relies on.
//!
//! Every page carries, in a 32-byte header: the page LSN (for WAL redo
//! idempotence), a type tag, the B+-tree level, a slot count and free-space
//! pointer maintained by the typed views in `obr-btree`, left/right side
//! pointers (§4.3 of the paper), and the *low mark* — the smallest key ever
//! placed on the page, which pass 3 uses to drive `Get_Next` (§7.1).

use std::fmt;

/// Size in bytes of every page image.
pub const PAGE_SIZE: usize = 4096;

/// Size in bytes of the fixed page header.
pub const HEADER_SIZE: usize = 32;

/// Identifier of a page on disk.
///
/// Page ids double as physical positions: the experiments measure seek
/// distance as the difference between successive page ids, which is the
/// contiguity property pass 2 of the reorganization restores.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page" (null side pointer, no parent, ...).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// True when this id is the invalid sentinel.
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "∅")
        }
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Log sequence number. Defined here (not in `obr-wal`) because every page
/// header stores the LSN of the last log record applied to it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN below every real log record.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// What kind of page an image holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageType {
    /// Unallocated / deallocated page.
    Free = 0,
    /// B+-tree leaf holding data records (the tree is a primary index).
    Leaf = 1,
    /// B+-tree internal page; level-1 internal pages are the *base pages*.
    Internal = 2,
    /// Tree metadata page: root location, reorganization bit (§7.4).
    Meta = 3,
    /// Side-file page used during internal-page reorganization (§7.2).
    SideFile = 4,
}

impl PageType {
    /// Decode from the header byte.
    pub fn from_u8(v: u8) -> Option<PageType> {
        match v {
            0 => Some(PageType::Free),
            1 => Some(PageType::Leaf),
            2 => Some(PageType::Internal),
            3 => Some(PageType::Meta),
            4 => Some(PageType::SideFile),
            _ => None,
        }
    }
}

const OFF_LSN: usize = 0;
const OFF_TYPE: usize = 8;
const OFF_LEVEL: usize = 9;
const OFF_SLOTS: usize = 10;
const OFF_FREE_PTR: usize = 12;
const OFF_LEFT_SIB: usize = 14;
const OFF_RIGHT_SIB: usize = 18;
const OFF_LOW_MARK: usize = 22;

/// A raw page image: a `PAGE_SIZE` byte array plus typed header accessors.
///
/// Typed record layouts on top of the body area live in `obr-btree`
/// (`LeafView`, `NodeView`); this type only owns the bytes and the header.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An all-zero page (type [`PageType::Free`], LSN 0).
    pub fn new() -> Page {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_free_ptr(HEADER_SIZE as u16);
        p
    }

    /// Initialize a fresh page of the given type and level, resetting the
    /// body, slot count, side pointers, and low mark.
    // protocol: page-mutation
    pub fn format(&mut self, ty: PageType, level: u8) {
        self.data.fill(0);
        self.set_page_type(ty);
        self.set_level(level);
        self.set_free_ptr(HEADER_SIZE as u16);
        self.set_left_sibling(PageId::INVALID);
        self.set_right_sibling(PageId::INVALID);
        self.set_low_mark(u64::MAX);
    }

    /// Reconstruct a page from a raw image.
    pub fn from_bytes(bytes: &[u8; PAGE_SIZE]) -> Page {
        Page {
            data: Box::new(*bytes),
        }
    }

    /// The raw image.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// A copy of the raw image, as a page-image log record carries it.
    pub fn image(&self) -> Box<[u8; PAGE_SIZE]> {
        self.data.clone()
    }

    /// Mutable raw image (used by typed views).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// The body area after the header.
    pub fn body(&self) -> &[u8] {
        &self.data[HEADER_SIZE..]
    }

    /// Mutable body area after the header.
    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.data[HEADER_SIZE..]
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn read_u32(&self, off: usize) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[off..off + 4]);
        u32::from_le_bytes(b)
    }

    fn write_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn read_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// LSN of the last log record applied to this page.
    pub fn lsn(&self) -> Lsn {
        Lsn(self.read_u64(OFF_LSN))
    }

    /// Set the page LSN.
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.write_u64(OFF_LSN, lsn.0);
    }

    /// Decoded page type; `None` if the tag byte is invalid.
    pub fn page_type(&self) -> Option<PageType> {
        PageType::from_u8(self.data[OFF_TYPE])
    }

    /// Set the page type tag.
    pub fn set_page_type(&mut self, ty: PageType) {
        self.data[OFF_TYPE] = ty as u8;
    }

    /// Tree level: 0 for leaves, 1 for base pages, and so on upward.
    pub fn level(&self) -> u8 {
        self.data[OFF_LEVEL]
    }

    /// Set the tree level.
    pub fn set_level(&mut self, level: u8) {
        self.data[OFF_LEVEL] = level;
    }

    /// Number of records/entries on the page.
    pub fn slot_count(&self) -> u16 {
        self.read_u16(OFF_SLOTS)
    }

    /// Set the slot count.
    pub fn set_slot_count(&mut self, n: u16) {
        self.write_u16(OFF_SLOTS, n);
    }

    /// Offset of the first free byte (records are packed from the header up).
    pub fn free_ptr(&self) -> u16 {
        self.read_u16(OFF_FREE_PTR)
    }

    /// Set the free pointer.
    pub fn set_free_ptr(&mut self, off: u16) {
        self.write_u16(OFF_FREE_PTR, off);
    }

    /// Free bytes remaining in the body.
    pub fn free_space(&self) -> usize {
        PAGE_SIZE - self.free_ptr() as usize
    }

    /// Left (previous-in-key-order) side pointer.
    pub fn left_sibling(&self) -> PageId {
        PageId(self.read_u32(OFF_LEFT_SIB))
    }

    /// Set the left side pointer.
    pub fn set_left_sibling(&mut self, p: PageId) {
        self.write_u32(OFF_LEFT_SIB, p.0);
    }

    /// Right (next-in-key-order) side pointer.
    pub fn right_sibling(&self) -> PageId {
        PageId(self.read_u32(OFF_RIGHT_SIB))
    }

    /// Set the right side pointer.
    pub fn set_right_sibling(&mut self, p: PageId) {
        self.write_u32(OFF_RIGHT_SIB, p.0);
    }

    /// The low mark: smallest key placed on the page when it was created
    /// (`u64::MAX` when never set). Pass 3 orders base pages by low mark.
    pub fn low_mark(&self) -> u64 {
        self.read_u64(OFF_LOW_MARK)
    }

    /// Set the low mark.
    pub fn set_low_mark(&mut self, k: u64) {
        self.write_u64(OFF_LOW_MARK, k);
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("lsn", &self.lsn())
            .field("type", &self.page_type())
            .field("level", &self.level())
            .field("slots", &self.slot_count())
            .field("free_ptr", &self.free_ptr())
            .field("left", &self.left_sibling())
            .field("right", &self.right_sibling())
            .field("low_mark", &self.low_mark())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_page_is_free_type_with_empty_body() {
        let p = Page::new();
        assert_eq!(p.page_type(), Some(PageType::Free));
        assert_eq!(p.lsn(), Lsn::ZERO);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE);
    }

    #[test]
    fn format_resets_everything() {
        let mut p = Page::new();
        p.set_lsn(Lsn(9));
        p.set_slot_count(5);
        p.body_mut()[0] = 0xFF;
        p.format(PageType::Leaf, 0);
        assert_eq!(p.page_type(), Some(PageType::Leaf));
        assert_eq!(p.level(), 0);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.lsn(), Lsn::ZERO);
        assert_eq!(p.body()[0], 0);
        assert_eq!(p.left_sibling(), PageId::INVALID);
        assert_eq!(p.right_sibling(), PageId::INVALID);
        assert_eq!(p.low_mark(), u64::MAX);
    }

    #[test]
    fn header_fields_round_trip() {
        let mut p = Page::new();
        p.set_lsn(Lsn(0xFEED));
        p.set_page_type(PageType::Internal);
        p.set_level(3);
        p.set_slot_count(117);
        p.set_free_ptr(2048);
        p.set_left_sibling(PageId(11));
        p.set_right_sibling(PageId(13));
        p.set_low_mark(0xABCD_EF01);
        assert_eq!(p.lsn(), Lsn(0xFEED));
        assert_eq!(p.page_type(), Some(PageType::Internal));
        assert_eq!(p.level(), 3);
        assert_eq!(p.slot_count(), 117);
        assert_eq!(p.free_ptr(), 2048);
        assert_eq!(p.left_sibling(), PageId(11));
        assert_eq!(p.right_sibling(), PageId(13));
        assert_eq!(p.low_mark(), 0xABCD_EF01);
    }

    #[test]
    fn image_round_trip_preserves_header() {
        let mut p = Page::new();
        p.format(PageType::Leaf, 0);
        p.set_lsn(Lsn(5));
        p.set_low_mark(42);
        let copy = Page::from_bytes(p.bytes());
        assert_eq!(copy.lsn(), Lsn(5));
        assert_eq!(copy.low_mark(), 42);
        assert_eq!(copy.page_type(), Some(PageType::Leaf));
    }

    #[test]
    fn invalid_type_tag_decodes_to_none() {
        let mut p = Page::new();
        p.bytes_mut()[super::OFF_TYPE] = 200;
        assert_eq!(p.page_type(), None);
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(7).to_string(), "7");
        assert_eq!(PageId::INVALID.to_string(), "∅");
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
    }

    #[test]
    fn lsn_ordering_and_next() {
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn(1).next(), Lsn(2));
    }

    proptest! {
        #[test]
        fn prop_header_fields_independent(lsn in any::<u64>(), slots in any::<u16>(),
                                          fp in (HEADER_SIZE as u16)..(PAGE_SIZE as u16),
                                          low in any::<u64>(), l in any::<u32>(), r in any::<u32>()) {
            let mut p = Page::new();
            p.set_lsn(Lsn(lsn));
            p.set_slot_count(slots);
            p.set_free_ptr(fp);
            p.set_low_mark(low);
            p.set_left_sibling(PageId(l));
            p.set_right_sibling(PageId(r));
            // Writing one field must not disturb the others.
            prop_assert_eq!(p.lsn(), Lsn(lsn));
            prop_assert_eq!(p.slot_count(), slots);
            prop_assert_eq!(p.free_ptr(), fp);
            prop_assert_eq!(p.low_mark(), low);
            prop_assert_eq!(p.left_sibling(), PageId(l));
            prop_assert_eq!(p.right_sibling(), PageId(r));
        }
    }
}
