//! Log record types and their binary encoding.

use std::fmt;

use obr_storage::codec::{Reader, Writer};
use obr_storage::{Lsn, PageId, StorageError, StorageResult, PAGE_SIZE};

/// Transaction identifier. `TxnId::SYSTEM` tags structure modifications and
/// reorganizer actions that are not owned by a user transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Owner of system actions (splits, reorganization).
    pub const SYSTEM: TxnId = TxnId(0);
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Reorganization-unit identifier ("Unit m" in the paper); monotonically
/// increasing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UnitId(pub u64);

/// The `Type` field of a BEGIN record (§5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ReorgKind {
    /// Compacting leaf pages under the same base page (in-place).
    Compact = 0,
    /// Swapping two leaf pages under one or two base pages.
    Swap = 1,
    /// Moving one leaf page to an empty page (new-place copy-and-switch).
    Move = 2,
}

impl ReorgKind {
    fn from_u8(v: u8) -> StorageResult<ReorgKind> {
        match v {
            0 => Ok(ReorgKind::Compact),
            1 => Ok(ReorgKind::Swap),
            2 => Ok(ReorgKind::Move),
            _ => Err(StorageError::Corrupt(format!("bad ReorgKind tag {v}"))),
        }
    }
}

/// What a MOVE record carries for the moved records.
///
/// Under careful writing the buffer manager guarantees the source page image
/// survives on disk until the destination is durable, so logging the keys is
/// enough ([`MovePayload::Keys`]); without it, full record bodies must be
/// logged ([`MovePayload::Records`]). Experiment E6 measures the difference.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MovePayload {
    /// Keys only (careful writing enforced).
    Keys(Vec<u64>),
    /// Full record contents.
    Records(Vec<(u64, Vec<u8>)>),
}

impl MovePayload {
    /// Keys covered by this payload.
    pub fn keys(&self) -> Vec<u64> {
        match self {
            MovePayload::Keys(ks) => ks.clone(),
            MovePayload::Records(rs) => rs.iter().map(|(k, _)| *k).collect(),
        }
    }

    /// Number of records moved.
    pub fn len(&self) -> usize {
        match self {
            MovePayload::Keys(ks) => ks.len(),
            MovePayload::Records(rs) => rs.len(),
        }
    }

    /// True when no records are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Snapshot of the reorganization state table for a checkpoint (§5).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReorgTableSnapshot {
    /// Largest key of the last finished reorganization unit.
    pub lk: Option<u64>,
    /// LSN of the BEGIN record of the in-flight unit, if any.
    pub begin_lsn: Option<Lsn>,
    /// Most recent LSN written by the in-flight unit, if any.
    pub recent_lsn: Option<Lsn>,
}

/// Pass-3 restart state carried in checkpoints and stable-key records (§7.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pass3State {
    /// Low mark of the next base page to read ("last stable key").
    pub stable_key: u64,
    /// Root of the concurrently-built new tree.
    pub new_root: PageId,
}

/// Contents of a checkpoint record.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckpointData {
    /// Reorganization state table copy.
    pub reorg: ReorgTableSnapshot,
    /// Active transactions and their most recent LSNs.
    pub active_txns: Vec<(TxnId, Lsn)>,
    /// In-flight internal-page reorganization, if any.
    pub pass3: Option<Pass3State>,
}

/// A write-ahead log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogRecord {
    /// A user transaction started.
    TxnBegin {
        /// The transaction.
        txn: TxnId,
    },
    /// A user transaction committed.
    TxnCommit {
        /// The transaction.
        txn: TxnId,
    },
    /// A user transaction finished rolling back.
    TxnAbort {
        /// The transaction.
        txn: TxnId,
    },
    /// A record was inserted into a leaf (or side-file) page.
    TxnInsert {
        /// Owning transaction.
        txn: TxnId,
        /// Page receiving the record.
        page: PageId,
        /// Record key.
        key: u64,
        /// Record value.
        value: Vec<u8>,
        /// Previous LSN of this transaction.
        prev_lsn: Lsn,
    },
    /// A record was deleted from a leaf (or side-file) page.
    TxnDelete {
        /// Owning transaction.
        txn: TxnId,
        /// Page the record was removed from.
        page: PageId,
        /// Record key.
        key: u64,
        /// Old value (needed for undo).
        old_value: Vec<u8>,
        /// Previous LSN of this transaction.
        prev_lsn: Lsn,
    },
    /// A record's value was updated in place.
    TxnUpdate {
        /// Owning transaction.
        txn: TxnId,
        /// Page holding the record.
        page: PageId,
        /// Record key.
        key: u64,
        /// Old value (undo).
        old_value: Vec<u8>,
        /// New value (redo).
        new_value: Vec<u8>,
        /// Previous LSN of this transaction.
        prev_lsn: Lsn,
    },
    /// Compensation record written while undoing (redo-only).
    Clr {
        /// Owning transaction.
        txn: TxnId,
        /// Page the compensation applies to.
        page: PageId,
        /// `true` when the compensation re-inserts `key`/`value`; `false`
        /// when it removes `key`.
        reinsert: bool,
        /// Record key.
        key: u64,
        /// Record value (empty for removals).
        value: Vec<u8>,
        /// Next record of this transaction to undo.
        undo_next: Lsn,
    },
    /// An atomic structure modification: full images of every changed page,
    /// plus the new root/height when the tree grew or shrank.
    Smo {
        /// Full after-images of the changed pages.
        images: Vec<(PageId, Box<[u8; PAGE_SIZE]>)>,
        /// `(new_root, new_height)` when the SMO changed the tree anchor.
        new_anchor: Option<(PageId, u8)>,
    },
    /// BEGIN of a reorganization unit (§5). Written only after all locks for
    /// the unit are acquired.
    ReorgBegin {
        /// Unit id.
        unit: UnitId,
        /// Unit type.
        kind: ReorgKind,
        /// Base pages involved.
        base_pages: Vec<PageId>,
        /// Leaf pages involved.
        leaf_pages: Vec<PageId>,
    },
    /// MOVE: records moved from `org` to `dest` (§5). Under careful writing
    /// the payload carries keys only.
    ReorgMove {
        /// Unit id.
        unit: UnitId,
        /// Source leaf.
        org: PageId,
        /// Destination leaf.
        dest: PageId,
        /// Moved records (keys-only or full bodies).
        payload: MovePayload,
        /// Previous LSN of this unit.
        prev_lsn: Lsn,
    },
    /// Contents of `page_a` and `page_b` were exchanged; `image_a_old` is
    /// the pre-swap image of `page_a` — the one full page the paper says a
    /// swap cannot avoid logging.
    ReorgSwap {
        /// Unit id.
        unit: UnitId,
        /// First page of the swap (its old image is logged).
        page_a: PageId,
        /// Second page of the swap.
        page_b: PageId,
        /// Pre-swap image of `page_a`.
        image_a_old: Box<[u8; PAGE_SIZE]>,
        /// Previous LSN of this unit.
        prev_lsn: Lsn,
    },
    /// MODIFY: the base-page entries for the unit's leaves were rewritten.
    ReorgModify {
        /// Unit id.
        unit: UnitId,
        /// Base page updated.
        base_page: PageId,
        /// `(key, child)` entries removed.
        old_entries: Vec<(u64, PageId)>,
        /// `(key, child)` entries inserted.
        new_entries: Vec<(u64, PageId)>,
        /// Previous LSN of this unit.
        prev_lsn: Lsn,
    },
    /// Side-pointer maintenance on a neighbouring leaf (§4.3).
    ReorgSidePtr {
        /// Unit id.
        unit: UnitId,
        /// Leaf whose side pointers changed.
        page: PageId,
        /// Old left sibling (undo).
        old_left: PageId,
        /// Old right sibling (undo).
        old_right: PageId,
        /// New left sibling (redo).
        new_left: PageId,
        /// New right sibling (redo).
        new_right: PageId,
        /// Previous LSN of this unit.
        prev_lsn: Lsn,
    },
    /// END of a reorganization unit; `largest_key` becomes LK.
    ReorgEnd {
        /// Unit id.
        unit: UnitId,
        /// Largest key processed by the unit.
        largest_key: u64,
    },
    /// Pass 3 stable point: the new tree is durable up to `state.stable_key`
    /// (§7.3).
    Pass3Stable {
        /// Restart state.
        state: Pass3State,
    },
    /// Pass 3 switch: the tree anchor moved from the old root to the new
    /// root (§7.4).
    Pass3Switch {
        /// Root of the old tree.
        old_root: PageId,
        /// Root of the new tree.
        new_root: PageId,
        /// Height of the new tree.
        new_height: u8,
    },
    /// Log checkpoint.
    Checkpoint {
        /// Checkpointed state.
        data: CheckpointData,
    },
}

const TAG_TXN_BEGIN: u8 = 1;
const TAG_TXN_COMMIT: u8 = 2;
const TAG_TXN_ABORT: u8 = 3;
const TAG_TXN_INSERT: u8 = 4;
const TAG_TXN_DELETE: u8 = 5;
const TAG_TXN_UPDATE: u8 = 6;
const TAG_CLR: u8 = 7;
const TAG_SMO: u8 = 8;
const TAG_REORG_BEGIN: u8 = 9;
const TAG_REORG_MOVE: u8 = 10;
const TAG_REORG_SWAP: u8 = 11;
const TAG_REORG_MODIFY: u8 = 12;
const TAG_REORG_SIDEPTR: u8 = 13;
const TAG_REORG_END: u8 = 14;
const TAG_PASS3_STABLE: u8 = 15;
const TAG_PASS3_SWITCH: u8 = 16;
pub(crate) const TAG_CHECKPOINT: u8 = 17;

fn put_page_vec(w: &mut Writer, v: &[PageId]) {
    w.put_u32(v.len() as u32);
    for p in v {
        w.put_u32(p.0);
    }
}

fn get_page_vec(r: &mut Reader<'_>) -> StorageResult<Vec<PageId>> {
    let n = r.get_u32()? as usize;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        v.push(PageId(r.get_u32()?));
    }
    Ok(v)
}

fn put_entry_vec(w: &mut Writer, v: &[(u64, PageId)]) {
    w.put_u32(v.len() as u32);
    for (k, p) in v {
        w.put_u64(*k);
        w.put_u32(p.0);
    }
}

fn get_entry_vec(r: &mut Reader<'_>) -> StorageResult<Vec<(u64, PageId)>> {
    let n = r.get_u32()? as usize;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let k = r.get_u64()?;
        let p = PageId(r.get_u32()?);
        v.push((k, p));
    }
    Ok(v)
}

fn put_image(w: &mut Writer, img: &[u8; PAGE_SIZE]) {
    w.put_raw(img);
}

fn get_image(r: &mut Reader<'_>) -> StorageResult<Box<[u8; PAGE_SIZE]>> {
    let raw = r.get_raw(PAGE_SIZE)?;
    let mut img = Box::new([0u8; PAGE_SIZE]);
    img.copy_from_slice(raw);
    Ok(img)
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> StorageResult<Option<u64>> {
    Ok(if r.get_u8()? == 1 {
        Some(r.get_u64()?)
    } else {
        None
    })
}

impl LogRecord {
    /// A short, stable name for the record kind (log-size accounting).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogRecord::TxnBegin { .. } => "txn_begin",
            LogRecord::TxnCommit { .. } => "txn_commit",
            LogRecord::TxnAbort { .. } => "txn_abort",
            LogRecord::TxnInsert { .. } => "txn_insert",
            LogRecord::TxnDelete { .. } => "txn_delete",
            LogRecord::TxnUpdate { .. } => "txn_update",
            LogRecord::Clr { .. } => "clr",
            LogRecord::Smo { .. } => "smo",
            LogRecord::ReorgBegin { .. } => "reorg_begin",
            LogRecord::ReorgMove { .. } => "reorg_move",
            LogRecord::ReorgSwap { .. } => "reorg_swap",
            LogRecord::ReorgModify { .. } => "reorg_modify",
            LogRecord::ReorgSidePtr { .. } => "reorg_sideptr",
            LogRecord::ReorgEnd { .. } => "reorg_end",
            LogRecord::Pass3Stable { .. } => "pass3_stable",
            LogRecord::Pass3Switch { .. } => "pass3_switch",
            LogRecord::Checkpoint { .. } => "checkpoint",
        }
    }

    /// True for records written by the reorganizer (E6 accounting).
    pub fn is_reorg(&self) -> bool {
        matches!(
            self,
            LogRecord::ReorgBegin { .. }
                | LogRecord::ReorgMove { .. }
                | LogRecord::ReorgSwap { .. }
                | LogRecord::ReorgModify { .. }
                | LogRecord::ReorgSidePtr { .. }
                | LogRecord::ReorgEnd { .. }
                | LogRecord::Pass3Stable { .. }
                | LogRecord::Pass3Switch { .. }
        )
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            LogRecord::TxnBegin { txn } => {
                w.put_u8(TAG_TXN_BEGIN);
                w.put_u64(txn.0);
            }
            LogRecord::TxnCommit { txn } => {
                w.put_u8(TAG_TXN_COMMIT);
                w.put_u64(txn.0);
            }
            LogRecord::TxnAbort { txn } => {
                w.put_u8(TAG_TXN_ABORT);
                w.put_u64(txn.0);
            }
            LogRecord::TxnInsert {
                txn,
                page,
                key,
                value,
                prev_lsn,
            } => {
                w.put_u8(TAG_TXN_INSERT);
                w.put_u64(txn.0);
                w.put_u32(page.0);
                w.put_u64(*key);
                w.put_bytes(value);
                w.put_u64(prev_lsn.0);
            }
            LogRecord::TxnDelete {
                txn,
                page,
                key,
                old_value,
                prev_lsn,
            } => {
                w.put_u8(TAG_TXN_DELETE);
                w.put_u64(txn.0);
                w.put_u32(page.0);
                w.put_u64(*key);
                w.put_bytes(old_value);
                w.put_u64(prev_lsn.0);
            }
            LogRecord::TxnUpdate {
                txn,
                page,
                key,
                old_value,
                new_value,
                prev_lsn,
            } => {
                w.put_u8(TAG_TXN_UPDATE);
                w.put_u64(txn.0);
                w.put_u32(page.0);
                w.put_u64(*key);
                w.put_bytes(old_value);
                w.put_bytes(new_value);
                w.put_u64(prev_lsn.0);
            }
            LogRecord::Clr {
                txn,
                page,
                reinsert,
                key,
                value,
                undo_next,
            } => {
                w.put_u8(TAG_CLR);
                w.put_u64(txn.0);
                w.put_u32(page.0);
                w.put_u8(u8::from(*reinsert));
                w.put_u64(*key);
                w.put_bytes(value);
                w.put_u64(undo_next.0);
            }
            LogRecord::Smo { images, new_anchor } => {
                w.put_u8(TAG_SMO);
                w.put_u32(images.len() as u32);
                for (p, img) in images {
                    w.put_u32(p.0);
                    put_image(&mut w, img);
                }
                match new_anchor {
                    Some((root, h)) => {
                        w.put_u8(1);
                        w.put_u32(root.0);
                        w.put_u8(*h);
                    }
                    None => w.put_u8(0),
                }
            }
            LogRecord::ReorgBegin {
                unit,
                kind,
                base_pages,
                leaf_pages,
            } => {
                w.put_u8(TAG_REORG_BEGIN);
                w.put_u64(unit.0);
                w.put_u8(*kind as u8);
                put_page_vec(&mut w, base_pages);
                put_page_vec(&mut w, leaf_pages);
            }
            LogRecord::ReorgMove {
                unit,
                org,
                dest,
                payload,
                prev_lsn,
            } => {
                w.put_u8(TAG_REORG_MOVE);
                w.put_u64(unit.0);
                w.put_u32(org.0);
                w.put_u32(dest.0);
                match payload {
                    MovePayload::Keys(ks) => {
                        w.put_u8(0);
                        w.put_u32(ks.len() as u32);
                        for k in ks {
                            w.put_u64(*k);
                        }
                    }
                    MovePayload::Records(rs) => {
                        w.put_u8(1);
                        w.put_u32(rs.len() as u32);
                        for (k, v) in rs {
                            w.put_u64(*k);
                            w.put_bytes(v);
                        }
                    }
                }
                w.put_u64(prev_lsn.0);
            }
            LogRecord::ReorgSwap {
                unit,
                page_a,
                page_b,
                image_a_old,
                prev_lsn,
            } => {
                w.put_u8(TAG_REORG_SWAP);
                w.put_u64(unit.0);
                w.put_u32(page_a.0);
                w.put_u32(page_b.0);
                put_image(&mut w, image_a_old);
                w.put_u64(prev_lsn.0);
            }
            LogRecord::ReorgModify {
                unit,
                base_page,
                old_entries,
                new_entries,
                prev_lsn,
            } => {
                w.put_u8(TAG_REORG_MODIFY);
                w.put_u64(unit.0);
                w.put_u32(base_page.0);
                put_entry_vec(&mut w, old_entries);
                put_entry_vec(&mut w, new_entries);
                w.put_u64(prev_lsn.0);
            }
            LogRecord::ReorgSidePtr {
                unit,
                page,
                old_left,
                old_right,
                new_left,
                new_right,
                prev_lsn,
            } => {
                w.put_u8(TAG_REORG_SIDEPTR);
                w.put_u64(unit.0);
                w.put_u32(page.0);
                w.put_u32(old_left.0);
                w.put_u32(old_right.0);
                w.put_u32(new_left.0);
                w.put_u32(new_right.0);
                w.put_u64(prev_lsn.0);
            }
            LogRecord::ReorgEnd { unit, largest_key } => {
                w.put_u8(TAG_REORG_END);
                w.put_u64(unit.0);
                w.put_u64(*largest_key);
            }
            LogRecord::Pass3Stable { state } => {
                w.put_u8(TAG_PASS3_STABLE);
                w.put_u64(state.stable_key);
                w.put_u32(state.new_root.0);
            }
            LogRecord::Pass3Switch {
                old_root,
                new_root,
                new_height,
            } => {
                w.put_u8(TAG_PASS3_SWITCH);
                w.put_u32(old_root.0);
                w.put_u32(new_root.0);
                w.put_u8(*new_height);
            }
            LogRecord::Checkpoint { data } => {
                w.put_u8(TAG_CHECKPOINT);
                put_opt_u64(&mut w, data.reorg.lk);
                put_opt_u64(&mut w, data.reorg.begin_lsn.map(|l| l.0));
                put_opt_u64(&mut w, data.reorg.recent_lsn.map(|l| l.0));
                w.put_u32(data.active_txns.len() as u32);
                for (t, l) in &data.active_txns {
                    w.put_u64(t.0);
                    w.put_u64(l.0);
                }
                match &data.pass3 {
                    Some(s) => {
                        w.put_u8(1);
                        w.put_u64(s.stable_key);
                        w.put_u32(s.new_root.0);
                    }
                    None => w.put_u8(0),
                }
            }
        }
        w.into_bytes()
    }

    /// Decode from bytes.
    pub fn decode(bytes: &[u8]) -> StorageResult<LogRecord> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8()?;
        let rec = match tag {
            TAG_TXN_BEGIN => LogRecord::TxnBegin {
                txn: TxnId(r.get_u64()?),
            },
            TAG_TXN_COMMIT => LogRecord::TxnCommit {
                txn: TxnId(r.get_u64()?),
            },
            TAG_TXN_ABORT => LogRecord::TxnAbort {
                txn: TxnId(r.get_u64()?),
            },
            TAG_TXN_INSERT => LogRecord::TxnInsert {
                txn: TxnId(r.get_u64()?),
                page: PageId(r.get_u32()?),
                key: r.get_u64()?,
                value: r.get_bytes()?,
                prev_lsn: Lsn(r.get_u64()?),
            },
            TAG_TXN_DELETE => LogRecord::TxnDelete {
                txn: TxnId(r.get_u64()?),
                page: PageId(r.get_u32()?),
                key: r.get_u64()?,
                old_value: r.get_bytes()?,
                prev_lsn: Lsn(r.get_u64()?),
            },
            TAG_TXN_UPDATE => LogRecord::TxnUpdate {
                txn: TxnId(r.get_u64()?),
                page: PageId(r.get_u32()?),
                key: r.get_u64()?,
                old_value: r.get_bytes()?,
                new_value: r.get_bytes()?,
                prev_lsn: Lsn(r.get_u64()?),
            },
            TAG_CLR => LogRecord::Clr {
                txn: TxnId(r.get_u64()?),
                page: PageId(r.get_u32()?),
                reinsert: r.get_u8()? == 1,
                key: r.get_u64()?,
                value: r.get_bytes()?,
                undo_next: Lsn(r.get_u64()?),
            },
            TAG_SMO => {
                let n = r.get_u32()? as usize;
                let mut images = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let p = PageId(r.get_u32()?);
                    images.push((p, get_image(&mut r)?));
                }
                let new_anchor = if r.get_u8()? == 1 {
                    let root = PageId(r.get_u32()?);
                    let h = r.get_u8()?;
                    Some((root, h))
                } else {
                    None
                };
                LogRecord::Smo { images, new_anchor }
            }
            TAG_REORG_BEGIN => LogRecord::ReorgBegin {
                unit: UnitId(r.get_u64()?),
                kind: ReorgKind::from_u8(r.get_u8()?)?,
                base_pages: get_page_vec(&mut r)?,
                leaf_pages: get_page_vec(&mut r)?,
            },
            TAG_REORG_MOVE => {
                let unit = UnitId(r.get_u64()?);
                let org = PageId(r.get_u32()?);
                let dest = PageId(r.get_u32()?);
                let payload = match r.get_u8()? {
                    0 => {
                        let n = r.get_u32()? as usize;
                        let mut ks = Vec::with_capacity(n.min(1 << 16));
                        for _ in 0..n {
                            ks.push(r.get_u64()?);
                        }
                        MovePayload::Keys(ks)
                    }
                    1 => {
                        let n = r.get_u32()? as usize;
                        let mut rs = Vec::with_capacity(n.min(1 << 16));
                        for _ in 0..n {
                            let k = r.get_u64()?;
                            let v = r.get_bytes()?;
                            rs.push((k, v));
                        }
                        MovePayload::Records(rs)
                    }
                    t => return Err(StorageError::Corrupt(format!("bad MovePayload tag {t}"))),
                };
                LogRecord::ReorgMove {
                    unit,
                    org,
                    dest,
                    payload,
                    prev_lsn: Lsn(r.get_u64()?),
                }
            }
            TAG_REORG_SWAP => LogRecord::ReorgSwap {
                unit: UnitId(r.get_u64()?),
                page_a: PageId(r.get_u32()?),
                page_b: PageId(r.get_u32()?),
                image_a_old: get_image(&mut r)?,
                prev_lsn: Lsn(r.get_u64()?),
            },
            TAG_REORG_MODIFY => LogRecord::ReorgModify {
                unit: UnitId(r.get_u64()?),
                base_page: PageId(r.get_u32()?),
                old_entries: get_entry_vec(&mut r)?,
                new_entries: get_entry_vec(&mut r)?,
                prev_lsn: Lsn(r.get_u64()?),
            },
            TAG_REORG_SIDEPTR => LogRecord::ReorgSidePtr {
                unit: UnitId(r.get_u64()?),
                page: PageId(r.get_u32()?),
                old_left: PageId(r.get_u32()?),
                old_right: PageId(r.get_u32()?),
                new_left: PageId(r.get_u32()?),
                new_right: PageId(r.get_u32()?),
                prev_lsn: Lsn(r.get_u64()?),
            },
            TAG_REORG_END => LogRecord::ReorgEnd {
                unit: UnitId(r.get_u64()?),
                largest_key: r.get_u64()?,
            },
            TAG_PASS3_STABLE => LogRecord::Pass3Stable {
                state: Pass3State {
                    stable_key: r.get_u64()?,
                    new_root: PageId(r.get_u32()?),
                },
            },
            TAG_PASS3_SWITCH => LogRecord::Pass3Switch {
                old_root: PageId(r.get_u32()?),
                new_root: PageId(r.get_u32()?),
                new_height: r.get_u8()?,
            },
            TAG_CHECKPOINT => {
                let lk = get_opt_u64(&mut r)?;
                let begin_lsn = get_opt_u64(&mut r)?.map(Lsn);
                let recent_lsn = get_opt_u64(&mut r)?.map(Lsn);
                let n = r.get_u32()? as usize;
                let mut active_txns = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    let t = TxnId(r.get_u64()?);
                    let l = Lsn(r.get_u64()?);
                    active_txns.push((t, l));
                }
                let pass3 = if r.get_u8()? == 1 {
                    Some(Pass3State {
                        stable_key: r.get_u64()?,
                        new_root: PageId(r.get_u32()?),
                    })
                } else {
                    None
                };
                LogRecord::Checkpoint {
                    data: CheckpointData {
                        reorg: ReorgTableSnapshot {
                            lk,
                            begin_lsn,
                            recent_lsn,
                        },
                        active_txns,
                        pass3,
                    },
                }
            }
            t => return Err(StorageError::Corrupt(format!("bad log record tag {t}"))),
        };
        if r.remaining() != 0 {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after log record",
                r.remaining()
            )));
        }
        Ok(rec)
    }

    /// The prev-LSN chain field, when the record has one.
    pub fn prev_lsn(&self) -> Option<Lsn> {
        match self {
            LogRecord::TxnInsert { prev_lsn, .. }
            | LogRecord::TxnDelete { prev_lsn, .. }
            | LogRecord::TxnUpdate { prev_lsn, .. }
            | LogRecord::ReorgMove { prev_lsn, .. }
            | LogRecord::ReorgSwap { prev_lsn, .. }
            | LogRecord::ReorgModify { prev_lsn, .. }
            | LogRecord::ReorgSidePtr { prev_lsn, .. } => Some(*prev_lsn),
            LogRecord::Clr { undo_next, .. } => Some(*undo_next),
            _ => None,
        }
    }

    /// The reorganization unit this record belongs to, if any.
    pub fn unit(&self) -> Option<UnitId> {
        match self {
            LogRecord::ReorgBegin { unit, .. }
            | LogRecord::ReorgMove { unit, .. }
            | LogRecord::ReorgSwap { unit, .. }
            | LogRecord::ReorgModify { unit, .. }
            | LogRecord::ReorgSidePtr { unit, .. }
            | LogRecord::ReorgEnd { unit, .. } => Some(*unit),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(rec: LogRecord) {
        let bytes = rec.encode();
        let back = LogRecord::decode(&bytes).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn round_trip_txn_records() {
        round_trip(LogRecord::TxnBegin { txn: TxnId(7) });
        round_trip(LogRecord::TxnCommit { txn: TxnId(7) });
        round_trip(LogRecord::TxnAbort { txn: TxnId(7) });
        round_trip(LogRecord::TxnInsert {
            txn: TxnId(1),
            page: PageId(2),
            key: 3,
            value: vec![4, 5, 6],
            prev_lsn: Lsn(9),
        });
        round_trip(LogRecord::TxnDelete {
            txn: TxnId(1),
            page: PageId(2),
            key: 3,
            old_value: vec![],
            prev_lsn: Lsn(9),
        });
        round_trip(LogRecord::TxnUpdate {
            txn: TxnId(1),
            page: PageId(2),
            key: 3,
            old_value: vec![1],
            new_value: vec![2, 2],
            prev_lsn: Lsn(9),
        });
        round_trip(LogRecord::Clr {
            txn: TxnId(1),
            page: PageId(2),
            reinsert: true,
            key: 3,
            value: vec![1],
            undo_next: Lsn(4),
        });
    }

    #[test]
    fn round_trip_reorg_records() {
        round_trip(LogRecord::ReorgBegin {
            unit: UnitId(3),
            kind: ReorgKind::Compact,
            base_pages: vec![PageId(1)],
            leaf_pages: vec![PageId(10), PageId(11), PageId(12)],
        });
        round_trip(LogRecord::ReorgMove {
            unit: UnitId(3),
            org: PageId(10),
            dest: PageId(11),
            payload: MovePayload::Keys(vec![1, 2, 3]),
            prev_lsn: Lsn(5),
        });
        round_trip(LogRecord::ReorgMove {
            unit: UnitId(3),
            org: PageId(10),
            dest: PageId(11),
            payload: MovePayload::Records(vec![(1, vec![9, 9]), (2, vec![])]),
            prev_lsn: Lsn(5),
        });
        round_trip(LogRecord::ReorgModify {
            unit: UnitId(3),
            base_page: PageId(1),
            old_entries: vec![(5, PageId(10)), (9, PageId(11))],
            new_entries: vec![(5, PageId(11))],
            prev_lsn: Lsn(6),
        });
        round_trip(LogRecord::ReorgSidePtr {
            unit: UnitId(3),
            page: PageId(9),
            old_left: PageId::INVALID,
            old_right: PageId(10),
            new_left: PageId::INVALID,
            new_right: PageId(11),
            prev_lsn: Lsn(7),
        });
        round_trip(LogRecord::ReorgEnd {
            unit: UnitId(3),
            largest_key: 42,
        });
    }

    #[test]
    fn round_trip_swap_carries_full_image() {
        let mut img = Box::new([0u8; PAGE_SIZE]);
        img[0] = 0xAA;
        img[PAGE_SIZE - 1] = 0xBB;
        let rec = LogRecord::ReorgSwap {
            unit: UnitId(1),
            page_a: PageId(4),
            page_b: PageId(9),
            image_a_old: img,
            prev_lsn: Lsn(2),
        };
        let bytes = rec.encode();
        assert!(bytes.len() > PAGE_SIZE); // the point of E6: swaps are log-expensive
        round_trip(rec);
    }

    #[test]
    fn round_trip_smo_and_pass3() {
        let img = Box::new([7u8; PAGE_SIZE]);
        round_trip(LogRecord::Smo {
            images: vec![(PageId(1), img)],
            new_anchor: Some((PageId(5), 3)),
        });
        round_trip(LogRecord::Smo {
            images: vec![],
            new_anchor: None,
        });
        round_trip(LogRecord::Pass3Stable {
            state: Pass3State {
                stable_key: 99,
                new_root: PageId(3),
            },
        });
        round_trip(LogRecord::Pass3Switch {
            old_root: PageId(1),
            new_root: PageId(2),
            new_height: 4,
        });
    }

    #[test]
    fn round_trip_checkpoint() {
        round_trip(LogRecord::Checkpoint {
            data: CheckpointData::default(),
        });
        round_trip(LogRecord::Checkpoint {
            data: CheckpointData {
                reorg: ReorgTableSnapshot {
                    lk: Some(10),
                    begin_lsn: Some(Lsn(4)),
                    recent_lsn: Some(Lsn(8)),
                },
                active_txns: vec![(TxnId(1), Lsn(3)), (TxnId(2), Lsn(5))],
                pass3: Some(Pass3State {
                    stable_key: 7,
                    new_root: PageId(20),
                }),
            },
        });
    }

    #[test]
    fn decode_rejects_bad_tag_and_trailing_bytes() {
        assert!(LogRecord::decode(&[200]).is_err());
        let mut bytes = LogRecord::TxnBegin { txn: TxnId(1) }.encode();
        bytes.push(0);
        assert!(LogRecord::decode(&bytes).is_err());
    }

    #[test]
    fn keys_payload_is_much_smaller_than_records() {
        let keys = LogRecord::ReorgMove {
            unit: UnitId(1),
            org: PageId(1),
            dest: PageId(2),
            payload: MovePayload::Keys((0..50).collect()),
            prev_lsn: Lsn(0),
        };
        let recs = LogRecord::ReorgMove {
            unit: UnitId(1),
            org: PageId(1),
            dest: PageId(2),
            payload: MovePayload::Records((0..50).map(|k| (k, vec![0u8; 64])).collect()),
            prev_lsn: Lsn(0),
        };
        assert!(recs.encode().len() > keys.encode().len() * 5);
    }

    #[test]
    fn payload_helpers() {
        let p = MovePayload::Records(vec![(3, vec![1]), (1, vec![2])]);
        assert_eq!(p.keys(), vec![3, 1]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(MovePayload::Keys(vec![]).is_empty());
    }

    #[test]
    fn unit_and_prev_lsn_accessors() {
        let rec = LogRecord::ReorgMove {
            unit: UnitId(9),
            org: PageId(1),
            dest: PageId(2),
            payload: MovePayload::Keys(vec![]),
            prev_lsn: Lsn(44),
        };
        assert_eq!(rec.unit(), Some(UnitId(9)));
        assert_eq!(rec.prev_lsn(), Some(Lsn(44)));
        assert!(rec.is_reorg());
        assert_eq!(LogRecord::TxnBegin { txn: TxnId(1) }.unit(), None);
    }

    fn arb_payload() -> impl Strategy<Value = MovePayload> {
        prop_oneof![
            prop::collection::vec(any::<u64>(), 0..64).prop_map(MovePayload::Keys),
            prop::collection::vec(
                (any::<u64>(), prop::collection::vec(any::<u8>(), 0..32)),
                0..32
            )
            .prop_map(MovePayload::Records),
        ]
    }

    /// A strategy over (almost) the whole record space, including images.
    fn arb_record() -> impl Strategy<Value = LogRecord> {
        let img = prop::collection::vec(any::<u8>(), PAGE_SIZE..=PAGE_SIZE).prop_map(
            |v| -> Box<[u8; PAGE_SIZE]> {
                let mut b = Box::new([0u8; PAGE_SIZE]);
                b.copy_from_slice(&v);
                b
            },
        );
        prop_oneof![
            any::<u64>().prop_map(|t| LogRecord::TxnBegin { txn: TxnId(t) }),
            any::<u64>().prop_map(|t| LogRecord::TxnCommit { txn: TxnId(t) }),
            (
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..64),
                any::<u64>()
            )
                .prop_map(|(t, p, k, v, l)| LogRecord::TxnInsert {
                    txn: TxnId(t),
                    page: PageId(p),
                    key: k,
                    value: v,
                    prev_lsn: Lsn(l),
                }),
            (
                any::<u64>(),
                any::<u32>(),
                any::<bool>(),
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..64),
                any::<u64>()
            )
                .prop_map(|(t, p, r, k, v, l)| LogRecord::Clr {
                    txn: TxnId(t),
                    page: PageId(p),
                    reinsert: r,
                    key: k,
                    value: v,
                    undo_next: Lsn(l),
                }),
            (
                any::<u64>(),
                any::<u32>(),
                any::<u32>(),
                arb_payload(),
                any::<u64>()
            )
                .prop_map(|(u, o, d, pl, l)| LogRecord::ReorgMove {
                    unit: UnitId(u),
                    org: PageId(o),
                    dest: PageId(d),
                    payload: pl,
                    prev_lsn: Lsn(l),
                }),
            (any::<u64>(), any::<u32>(), any::<u32>(), img, any::<u64>()).prop_map(
                |(u, a, b, i, l)| LogRecord::ReorgSwap {
                    unit: UnitId(u),
                    page_a: PageId(a),
                    page_b: PageId(b),
                    image_a_old: i,
                    prev_lsn: Lsn(l),
                }
            ),
            (
                any::<u64>(),
                any::<u32>(),
                prop::collection::vec((any::<u64>(), any::<u32>().prop_map(PageId)), 0..32),
                prop::collection::vec((any::<u64>(), any::<u32>().prop_map(PageId)), 0..32),
                any::<u64>()
            )
                .prop_map(|(u, b, old, new, l)| LogRecord::ReorgModify {
                    unit: UnitId(u),
                    base_page: PageId(b),
                    old_entries: old,
                    new_entries: new,
                    prev_lsn: Lsn(l),
                }),
            (any::<u64>(), any::<u32>()).prop_map(|(k, r)| LogRecord::Pass3Stable {
                state: Pass3State {
                    stable_key: k,
                    new_root: PageId(r)
                },
            }),
        ]
    }

    proptest! {
        #[test]
        fn prop_any_record_round_trips(rec in arb_record()) {
            let bytes = rec.encode();
            let back = LogRecord::decode(&bytes).unwrap();
            prop_assert_eq!(rec, back);
        }

        #[test]
        fn prop_truncated_records_never_panic(rec in arb_record(), cut in any::<prop::sample::Index>()) {
            let bytes = rec.encode();
            let cut = cut.index(bytes.len().max(1));
            let _ = LogRecord::decode(&bytes[..cut]);
        }

        #[test]
        fn prop_round_trip_move(unit in any::<u64>(), org in any::<u32>(), dest in any::<u32>(),
                                keys in prop::collection::vec(any::<u64>(), 0..100),
                                prev in any::<u64>()) {
            round_trip(LogRecord::ReorgMove {
                unit: UnitId(unit),
                org: PageId(org),
                dest: PageId(dest),
                payload: MovePayload::Keys(keys),
                prev_lsn: Lsn(prev),
            });
        }

        #[test]
        fn prop_round_trip_insert(txn in any::<u64>(), page in any::<u32>(), key in any::<u64>(),
                                  value in prop::collection::vec(any::<u8>(), 0..256),
                                  prev in any::<u64>()) {
            round_trip(LogRecord::TxnInsert {
                txn: TxnId(txn),
                page: PageId(page),
                key,
                value,
                prev_lsn: Lsn(prev),
            });
        }

        #[test]
        fn prop_decode_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
            let _ = LogRecord::decode(&bytes);
        }
    }
}
