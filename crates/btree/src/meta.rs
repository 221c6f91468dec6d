//! The tree metadata page — the "special place on the disk" of §7.4 that
//! records where the root is. The switch to the new B+-tree is the atomic
//! update of this page.
//!
//! [`MetaView`] is the one view of this format: its getters need only
//! `&Page`, so readers (opening the tree included) take a shared latch.

use std::ops::{Deref, DerefMut};

use obr_storage::page::HEADER_SIZE;
use obr_storage::{Page, PageId, PageType, StorageError, StorageResult};

const MAGIC: u32 = 0x0B72_EE01;

const OFF_MAGIC: usize = HEADER_SIZE;
const OFF_ROOT: usize = HEADER_SIZE + 4;
const OFF_HEIGHT: usize = HEADER_SIZE + 8;
const OFF_GENERATION: usize = HEADER_SIZE + 9;
const OFF_REORG_BIT: usize = HEADER_SIZE + 13;

/// The one typed view over the metadata page, generic over how it borrows
/// the page. [`MetaView::of`] wraps a `&Page` (usable under a shared
/// latch) and offers the getters; [`MetaView::new`] wraps a `&mut Page`
/// and adds the setters. Both check the type tag and the magic number.
#[derive(Clone, Copy)]
pub struct MetaView<P> {
    page: P,
}

impl<'a> MetaView<&'a Page> {
    /// Wrap an existing meta page for reading.
    pub fn of(page: &'a Page) -> StorageResult<MetaView<&'a Page>> {
        MetaView::checked(page)
    }
}

impl<'a> MetaView<&'a mut Page> {
    /// Wrap an existing meta page for reading and writing.
    pub fn new(page: &'a mut Page) -> StorageResult<MetaView<&'a mut Page>> {
        MetaView::checked(page)
    }

    /// Format `page` as a fresh meta page.
    pub fn init(page: &'a mut Page) -> MetaView<&'a mut Page> {
        page.format(PageType::Meta, 0);
        let mut view = MetaView { page };
        view.write_u32(OFF_MAGIC, MAGIC);
        view.set_root(PageId::INVALID);
        view.set_height(0);
        view.set_generation(0);
        view.set_reorg_bit(false);
        view
    }
}

impl<P: Deref<Target = Page>> MetaView<P> {
    fn checked(page: P) -> StorageResult<MetaView<P>> {
        if page.page_type() != Some(PageType::Meta) {
            return Err(StorageError::Corrupt("not a meta page".into()));
        }
        let view = MetaView { page };
        if view.read_u32(OFF_MAGIC) != MAGIC {
            return Err(StorageError::Corrupt("bad meta page magic".into()));
        }
        Ok(view)
    }

    fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.page.bytes()[off..off + 4].try_into().unwrap())
    }

    /// Root page of the tree.
    pub fn root(&self) -> PageId {
        PageId(self.read_u32(OFF_ROOT))
    }

    /// Height: 0 when the root is a leaf, else the root's level.
    pub fn height(&self) -> u8 {
        self.page.bytes()[OFF_HEIGHT]
    }

    /// Tree generation — doubles as the tree's lock name, which §7.4
    /// requires to be distinct between the old and the new tree.
    pub fn generation(&self) -> u32 {
        self.read_u32(OFF_GENERATION)
    }

    /// The reorganization bit of §7.2: set while internal-page
    /// reorganization is running, so updaters know to consult the side file.
    pub fn reorg_bit(&self) -> bool {
        self.page.bytes()[OFF_REORG_BIT] == 1
    }
}

impl<P: DerefMut<Target = Page>> MetaView<P> {
    fn write_u32(&mut self, off: usize, v: u32) {
        self.page.bytes_mut()[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Point the tree at a new root (the switch of §7.4).
    pub fn set_root(&mut self, root: PageId) {
        self.write_u32(OFF_ROOT, root.0);
    }

    /// Set the height.
    pub fn set_height(&mut self, h: u8) {
        self.page.bytes_mut()[OFF_HEIGHT] = h;
    }

    /// Bump/set the generation.
    pub fn set_generation(&mut self, g: u32) {
        self.write_u32(OFF_GENERATION, g);
    }

    /// Set/clear the reorganization bit.
    pub fn set_reorg_bit(&mut self, on: bool) {
        self.page.bytes_mut()[OFF_REORG_BIT] = u8::from(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_reopen() {
        let mut p = Page::new();
        {
            let mut m = MetaView::init(&mut p);
            m.set_root(PageId(7));
            m.set_height(2);
            m.set_generation(3);
            m.set_reorg_bit(true);
        }
        let m = MetaView::of(&p).unwrap();
        assert_eq!(m.root(), PageId(7));
        assert_eq!(m.height(), 2);
        assert_eq!(m.generation(), 3);
        assert!(m.reorg_bit());
    }

    #[test]
    fn fresh_meta_has_no_root() {
        let mut p = Page::new();
        let m = MetaView::init(&mut p);
        assert_eq!(m.root(), PageId::INVALID);
        assert_eq!(m.height(), 0);
        assert!(!m.reorg_bit());
    }

    #[test]
    fn wrong_type_or_magic_rejected() {
        let mut p = Page::new();
        assert!(MetaView::new(&mut p).is_err());
        assert!(MetaView::of(&p).is_err());
        p.format(PageType::Meta, 0);
        // Right type, wrong magic.
        assert!(MetaView::new(&mut p).is_err());
        assert!(MetaView::of(&p).is_err());
    }
}
