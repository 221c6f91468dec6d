//! One apply per record: the page change every logged record makes.
//!
//! [`apply`] is a pure function of a record and the before-image of each
//! page it names ([`roles`]). It never logs or looks at a page LSN. Every
//! writer of a reorganization record appends it and then calls `apply`:
//! the live unit (MOVE, MODIFY, SIDEPTR), its compensation (§5.2), Forward
//! Recovery (§5.1) and the pass-3 switch (§7.4). Redo and the replica call
//! it for each page whose LSN is behind the record, so they leave the
//! bytes the writer left. Debug builds check that at each logged page
//! change with [`shadow_check`].
//!
//! Two kinds keep their own forward path. The leaf records (`TxnInsert`,
//! `TxnUpdate`, `TxnDelete`, `Clr`) apply through `LeafView::upsert` and
//! `remove`; the writers in `tree.rs` call the same `write_at` and
//! `remove` after the one `locate` that also chose the record, so a PUT
//! still walks its leaf once. An `Smo` record is its pages' after-images:
//! its apply copies them and moves the anchor, and only redo calls it.

use std::ops::{Deref, DerefMut};

use obr_storage::{Lsn, Page, PageId, PageType, StorageError, StorageResult, PAGE_SIZE};
use obr_wal::{LogRecord, MovePayload};

use crate::{LeafView, MetaView, NodeView};

/// The pages `rec` changes, one per role, in the order [`apply`] takes
/// them: a MOVE's `[org, dest]`, an `Smo`'s images and then `meta` when it
/// moves the anchor, a tree switch's `meta`. Other records name none.
pub fn roles(rec: &LogRecord, meta: PageId) -> impl Iterator<Item = PageId> + '_ {
    let (pages, images, anchor): ([Option<PageId>; 2], &[_], _) = match rec {
        LogRecord::TxnInsert { page, .. }
        | LogRecord::TxnDelete { page, .. }
        | LogRecord::TxnUpdate { page, .. }
        | LogRecord::Clr { page, .. }
        | LogRecord::ReorgSidePtr { page, .. } => ([Some(*page), None], &[], None),
        LogRecord::ReorgMove { org, dest, .. } => ([Some(*org), Some(*dest)], &[], None),
        LogRecord::ReorgModify { base_page, .. } => ([Some(*base_page), None], &[], None),
        LogRecord::Smo { images, new_anchor } => {
            ([None, None], &images[..], new_anchor.map(|_| meta))
        }
        LogRecord::Pass3Switch { .. } => ([Some(meta), None], &[], None),
        _ => ([None, None], &[], None),
    };
    let images = images.iter().map(|(p, _)| *p);
    pages.into_iter().flatten().chain(images).chain(anchor)
}

/// Apply `rec` to its pages. `pages[i]` is the latched page of role `i`
/// (see [`roles`]), or `None` when that page already holds the record's
/// effect. A leaf record or a MODIFY that lands on a page of another type
/// changes nothing.
// protocol: page-mutation
pub fn apply<P: DerefMut<Target = Page>>(
    rec: &LogRecord,
    pages: &mut [Option<P>],
) -> StorageResult<()> {
    match rec {
        LogRecord::TxnInsert { key, value, .. }
        | LogRecord::TxnUpdate {
            key,
            new_value: value,
            ..
        }
        | LogRecord::Clr {
            reinsert: true,
            key,
            value,
            ..
        } => {
            if let Some(page) = role(pages, 0, PageType::Leaf) {
                LeafView::new(page).upsert(*key, value)?;
            }
        }
        LogRecord::TxnDelete { key, .. } | LogRecord::Clr { key, .. } => {
            if let Some(page) = role(pages, 0, PageType::Leaf) {
                LeafView::new(page).remove(*key);
            }
        }
        LogRecord::ReorgMove {
            payload,
            fresh_dest,
            ..
        } => {
            // §5: the payload's records leave `org` and are appended to
            // `dest`, which the record may name fresh. A keys-only
            // payload's values come from the walk that takes them out of
            // the source's before-image; when `dest` needs no values (it is
            // up to date, or the payload carries them) the walk only
            // removes.
            let dest_behind = matches!(pages.get(1), Some(Some(_)));
            let taken = match role(pages, 0, PageType::Leaf) {
                None => Vec::new(),
                Some(org) => {
                    let mut org = LeafView::new(org);
                    match payload {
                        MovePayload::Keys(ks) if dest_behind => org.take_keys(ks),
                        MovePayload::Keys(ks) => {
                            org.remove_keys(ks.iter().copied());
                            Vec::new()
                        }
                        MovePayload::Records(rs) => {
                            org.remove_keys(rs.iter().map(|r| r.0));
                            Vec::new()
                        }
                    }
                }
            };
            let Some(Some(dest)) = pages.get_mut(1) else {
                return Ok(());
            };
            let records = match payload {
                MovePayload::Records(rs) => rs,
                MovePayload::Keys(ks) if taken.len() == ks.len() => &taken,
                // Careful writing keeps the source on disk until dest is durable.
                MovePayload::Keys(_) => {
                    return Err(StorageError::Corrupt(
                        "careful-writing violation: a MOVE source lost its records".into(),
                    ))
                }
            };
            if let Some(low) = fresh_dest {
                LeafView::init(dest).page_mut().set_low_mark(*low);
            }
            if dest.page_type() != Some(PageType::Leaf) {
                return Err(StorageError::Corrupt(
                    "MOVE into a page that is not a leaf".into(),
                ));
            }
            LeafView::new(dest).extend(records)?;
        }
        LogRecord::ReorgModify {
            old_entries,
            new_entries,
            ..
        } => {
            if let Some(page) = role(pages, 0, PageType::Internal) {
                let mut node = NodeView::new(page);
                for &(k, _) in old_entries {
                    node.remove_entry(k);
                }
                for &(k, c) in new_entries {
                    node.insert_entry(k, c)?;
                }
            }
        }
        LogRecord::ReorgSidePtr {
            new_left,
            new_right,
            ..
        } => {
            if let Some(Some(page)) = pages.get_mut(0) {
                page.set_left_sibling(*new_left);
                page.set_right_sibling(*new_right);
            }
        }
        LogRecord::Smo { images, new_anchor } => {
            for ((_, image), page) in images.iter().zip(pages.iter_mut()) {
                if let Some(page) = page {
                    page.bytes_mut().copy_from_slice(&image[..]);
                }
            }
            if let (Some((root, height)), Some(Some(page))) =
                (new_anchor, pages.get_mut(images.len()))
            {
                let mut meta = MetaView::new(page)?;
                meta.set_root(*root);
                meta.set_height(*height);
            }
        }
        LogRecord::Pass3Switch {
            new_root,
            new_height,
            ..
        } => {
            if let Some(Some(page)) = pages.get_mut(0) {
                let mut meta = MetaView::new(page)?;
                meta.set_root(*new_root);
                meta.set_height(*new_height);
                meta.set_generation(meta.generation() + 1);
                meta.set_reorg_bit(false);
            }
        }
        _ => {}
    }
    Ok(())
}

/// The latched page of role `i` when it is not past the record and has
/// type `ty`.
fn role<P: DerefMut<Target = Page>>(
    pages: &mut [Option<P>],
    i: usize,
    ty: PageType,
) -> Option<&mut Page> {
    pages
        .get_mut(i)
        .and_then(|p| p.as_deref_mut())
        .filter(|p| p.page_type() == Some(ty))
}

/// Debug builds: copy the before-images of the pages a logged change is
/// about to write, one per role in [`roles`] order, for [`shadow_check`].
/// Release builds copy nothing.
pub fn shadow_before<P: Deref<Target = Page>>(pages: &[P]) -> Vec<Page> {
    let copy = cfg!(debug_assertions);
    pages
        .iter()
        .filter(|_| copy)
        .map(|p| Page::clone(p))
        .collect()
}

/// Debug builds: assert that applying `rec`, logged at `lsn`, to the
/// `before` images yields the live pages `after` byte for byte, header and
/// LSN included.
pub fn shadow_check<P: Deref<Target = Page>>(
    mut before: Vec<Page>,
    rec: &LogRecord,
    lsn: Lsn,
    after: &[P],
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut slots: Vec<Option<&mut Page>> = before.iter_mut().map(Some).collect();
    if let Err(e) = apply(rec, &mut slots) {
        panic!("apply refused a record its live writer applied: {e}: {rec:?}");
    }
    for (i, (replayed, live)) in before.iter_mut().zip(after).enumerate() {
        replayed.set_lsn(lsn);
        if let Some(at) = (0..PAGE_SIZE).find(|&b| replayed.bytes()[b] != live.bytes()[b]) {
            panic!("apply diverges from the live writer on role {i} at byte {at}: {rec:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_storage::page::HEADER_SIZE;
    use obr_wal::UnitId;

    fn leaf_with(keys: &[u64]) -> Page {
        let mut p = Page::new();
        let mut leaf = LeafView::init(&mut p);
        for &k in keys {
            leaf.insert(k, &k.to_le_bytes()).unwrap();
        }
        p
    }

    fn mv(payload: MovePayload, fresh_dest: Option<u64>) -> LogRecord {
        LogRecord::ReorgMove {
            unit: UnitId(1),
            org: PageId(1),
            dest: PageId(2),
            payload,
            fresh_dest,
            prev_lsn: Lsn(0),
        }
    }

    fn apply_move(rec: &LogRecord, org: &mut Page, dest: &mut Page) {
        apply(rec, &mut [Some(org), Some(dest)]).unwrap();
    }

    #[test]
    fn a_fresh_dest_comes_out_the_same_whatever_the_page_held() {
        let rec = mv(MovePayload::Keys(vec![5, 6]), Some(4));
        let mut zeroed = Page::new();
        let mut reused = leaf_with(&[1, 2, 3]);
        reused.set_left_sibling(PageId(9));
        reused.set_lsn(Lsn(77));
        let mut internal = Page::new();
        NodeView::init(&mut internal, 1);
        let mut outs = Vec::new();
        for dest in [&mut zeroed, &mut reused, &mut internal] {
            let mut org = leaf_with(&[5, 6]);
            apply_move(&rec, &mut org, dest);
            assert!(LeafView::of(&org).is_empty());
            outs.push(dest.clone());
        }
        assert_eq!(LeafView::of(&outs[0]).keys(), vec![5, 6]);
        assert_eq!(outs[0].low_mark(), 4);
        assert!(outs.iter().all(|p| p.bytes() == outs[0].bytes()));
    }

    #[test]
    fn keys_and_records_payloads_apply_alike() {
        let keys = mv(MovePayload::Keys(vec![7, 9]), None);
        let recs = mv(
            MovePayload::Records(vec![
                (7, 7u64.to_le_bytes().to_vec()),
                (9, 9u64.to_le_bytes().to_vec()),
            ]),
            None,
        );
        let (mut o1, mut d1) = (leaf_with(&[7, 9]), leaf_with(&[1]));
        let (mut o2, mut d2) = (o1.clone(), d1.clone());
        apply_move(&keys, &mut o1, &mut d1);
        apply_move(&recs, &mut o2, &mut d2);
        assert_eq!((o1.bytes(), d1.bytes()), (o2.bytes(), d2.bytes()));
        assert_eq!(LeafView::of(&d1).keys(), vec![1, 7, 9]);
    }

    #[test]
    fn a_source_only_move_leaves_the_source_as_the_whole_move_does() {
        let records = [2u64, 5]
            .iter()
            .map(|&k| (k, k.to_le_bytes().to_vec()))
            .collect();
        for payload in [MovePayload::Keys(vec![2, 5]), MovePayload::Records(records)] {
            let rec = mv(payload, None);
            let (mut whole, mut dest) = (leaf_with(&[1, 2, 3, 5, 8]), leaf_with(&[]));
            apply_move(&rec, &mut whole, &mut dest);
            let mut org = leaf_with(&[1, 2, 3, 5, 8]);
            apply(&rec, &mut [Some(&mut org), None]).unwrap();
            assert_eq!(org.bytes(), whole.bytes());
            assert_eq!(LeafView::of(&org).keys(), vec![1, 3, 8]);
        }
    }

    #[test]
    fn a_keys_only_move_needs_its_source() {
        let rec = mv(MovePayload::Keys(vec![3]), Some(3));
        let mut dest = Page::new();
        assert!(apply(&rec, &mut [None, Some(&mut dest)]).is_err());
        // With full records the destination alone can be redone.
        let rec = mv(MovePayload::Records(vec![(3, vec![1])]), Some(3));
        apply(&rec, &mut [None, Some(&mut dest)]).unwrap();
        assert_eq!(LeafView::of(&dest).keys(), vec![3]);
    }

    #[test]
    fn leaf_records_on_a_non_leaf_change_nothing() {
        let mut node = Page::new();
        NodeView::init(&mut node, 1);
        let before = node.clone();
        let rec = LogRecord::TxnDelete {
            txn: obr_wal::TxnId(1),
            page: PageId(3),
            key: 1,
            old_value: vec![],
            prev_lsn: Lsn(0),
        };
        apply(&rec, &mut [Some(&mut node)]).unwrap();
        assert_eq!(node.bytes(), before.bytes());
    }

    #[test]
    fn the_switch_moves_the_anchor_and_bumps_the_generation() {
        let mut meta = Page::new();
        MetaView::init(&mut meta).set_reorg_bit(true);
        let rec = LogRecord::Pass3Switch {
            old_root: PageId(1),
            new_root: PageId(8),
            new_height: 2,
        };
        assert_eq!(roles(&rec, PageId(0)).collect::<Vec<_>>(), vec![PageId(0)]);
        apply(&rec, &mut [Some(&mut meta)]).unwrap();
        let m = MetaView::of(&meta).unwrap();
        assert_eq!((m.root(), m.height(), m.generation()), (PageId(8), 2, 1));
        assert!(!m.reorg_bit());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "diverges")]
    fn shadow_catches_a_change_outside_apply() {
        let rec = mv(MovePayload::Keys(vec![5]), Some(5));
        let (mut org, mut dest) = (leaf_with(&[5]), Page::new());
        let before = shadow_before(&[&org, &dest]);
        apply_move(&rec, &mut org, &mut dest);
        dest.bytes_mut()[HEADER_SIZE + 100] = 1; // a stray write
        org.set_lsn(Lsn(3));
        dest.set_lsn(Lsn(3));
        shadow_check(before, &rec, Lsn(3), &[&org, &dest]);
    }
}
