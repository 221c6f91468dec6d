//! Transactional sessions: the §4.1.2 reader protocol and the §4.1.3
//! updater protocol over the assembled database.

use std::fmt;
use std::sync::Arc;

use obr_btree::BTreeError;
use obr_core::{CoreError, Database};
use obr_lock::{LockError, LockMode, OwnerId, ResourceId};
use obr_storage::Lsn;
use obr_wal::{LogRecord, TxnId};

/// Errors surfaced to transaction code.
#[derive(Debug)]
pub enum TxnError {
    /// The transaction was chosen as a deadlock victim and must restart.
    Deadlock,
    /// A lock wait timed out.
    Timeout,
    /// Key already exists (insert).
    KeyExists(u64),
    /// Key not found (delete/update).
    KeyNotFound(u64),
    /// Engine-level failure.
    Engine(CoreError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Deadlock => write!(f, "deadlock victim; restart the transaction"),
            TxnError::Timeout => write!(f, "lock wait timeout"),
            TxnError::KeyExists(k) => write!(f, "key {k} already exists"),
            TxnError::KeyNotFound(k) => write!(f, "key {k} not found"),
            TxnError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<CoreError> for TxnError {
    fn from(e: CoreError) -> Self {
        TxnError::Engine(e)
    }
}

impl From<BTreeError> for TxnError {
    fn from(e: BTreeError) -> Self {
        match e {
            BTreeError::KeyExists(k) => TxnError::KeyExists(k),
            BTreeError::KeyNotFound(k) => TxnError::KeyNotFound(k),
            other => TxnError::Engine(CoreError::Tree(other)),
        }
    }
}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Deadlock => TxnError::Deadlock,
            LockError::Timeout => TxnError::Timeout,
            other => TxnError::Engine(CoreError::Lock(other)),
        }
    }
}

impl From<obr_storage::StorageError> for TxnError {
    fn from(e: obr_storage::StorageError) -> Self {
        TxnError::Engine(CoreError::Storage(e))
    }
}

/// Result alias for transaction operations.
pub type TxnResult<T> = Result<T, TxnError>;

/// A session: a cheap per-thread handle for starting transactions and
/// running single-operation reads.
#[derive(Clone)]
pub struct Session {
    db: Arc<Database>,
}

impl Session {
    /// Create a session over `db`.
    pub fn new(db: Arc<Database>) -> Session {
        Session { db }
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Begin a transaction. This allocates an id and nothing else: the
    /// transaction enters the log with its first update record.
    pub fn begin(&self) -> Txn {
        let id = self.db.begin_txn();
        let owner = OwnerId(id.0);
        Txn {
            db: Arc::clone(&self.db),
            id,
            owner,
            prev_lsn: Lsn::ZERO,
            finished: false,
        }
    }

    /// One-shot read (an auto-commit read-only transaction).
    pub fn read(&self, key: u64) -> TxnResult<Option<Vec<u8>>> {
        let mut txn = self.begin();
        let v = txn.get(key)?;
        txn.commit()?;
        Ok(v)
    }

    /// One-shot range scan.
    pub fn scan(&self, lo: u64, hi: u64) -> TxnResult<Vec<(u64, Vec<u8>)>> {
        let mut txn = self.begin();
        let v = txn.scan(lo, hi)?;
        txn.commit()?;
        Ok(v)
    }

    /// One-shot insert.
    pub fn insert(&self, key: u64, value: &[u8]) -> TxnResult<()> {
        let mut txn = self.begin();
        txn.insert(key, value)?;
        txn.commit()
    }

    /// One-shot delete.
    pub fn delete(&self, key: u64) -> TxnResult<Vec<u8>> {
        let mut txn = self.begin();
        let v = txn.delete(key)?;
        txn.commit()?;
        Ok(v)
    }
}

/// An open transaction. Locks are held to commit/abort (strict two-phase);
/// record-level locking uses IS/IX on leaf pages plus S/X on keys, exactly
/// the granularity Table 1 assumes.
pub struct Txn {
    db: Arc<Database>,
    id: TxnId,
    owner: OwnerId,
    prev_lsn: Lsn,
    finished: bool,
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn note(&mut self, lsn: Lsn) {
        self.prev_lsn = lsn;
        self.db.note_txn_lsn(self.id, lsn);
    }

    /// Acquire the tree lock in the given intention mode, re-reading the
    /// generation (the tree's lock *name*, which changes at a switch §7.4).
    fn lock_tree(&self, mode: LockMode) -> TxnResult<u32> {
        let gen = self.db.tree().generation().map_err(CoreError::Tree)?;
        self.db
            .locks()
            .lock(self.owner, ResourceId::Tree(gen), mode)?;
        Ok(gen)
    }

    /// The §4.1.2 descent: S lock-couple to the leaf; on an RX conflict,
    /// release the base-page lock, wait via an unconditional instant RS on
    /// the base page, and retry. Returns the leaf with `leaf_mode` held on
    /// it and the base-page S lock *released* (coupled past).
    ///
    /// The leaf is named by a descent made before the lock waits, and a
    /// reorganization unit can finish in between: the grant would then land
    /// on a page the key no longer lives in, leaving the real leaf open to
    /// the next unit's RX. So once the lock is held the routing is checked
    /// again — for free while the tree's structure epoch has not moved, by
    /// a second descent when it has — and the coupling starts over when the
    /// tree now routes `key` elsewhere. From a grant that passes the check
    /// until the lock is released, RX keeps every unit away from the leaf,
    /// so the tree operation that follows cannot meet one between its MOVE
    /// and its base-page MODIFY. A stale leaf lock is left for commit to
    /// release: the transaction may hold it from an earlier operation.
    fn couple_to_leaf(&mut self, key: u64, leaf_mode: LockMode) -> TxnResult<obr_storage::PageId> {
        let locks = Arc::clone(self.db.locks());
        let tree = Arc::clone(self.db.tree());
        loop {
            let epoch = tree.structure_epoch();
            let path = tree.path_for(key).map_err(CoreError::Tree)?;
            let leaf = *path.last().expect("path never empty");
            let base = if path.len() >= 2 {
                Some(path[path.len() - 2])
            } else {
                None
            };
            if let Some(b) = base {
                locks.lock(self.owner, ResourceId::Page(b.0), LockMode::S)?;
            }
            let granted = locks.lock(self.owner, ResourceId::Page(leaf.0), leaf_mode);
            // Lock-couple: the base-page S lock goes once the child lock is
            // held, or was refused.
            if let Some(b) = base {
                locks.unlock(self.owner, ResourceId::Page(b.0));
            }
            match granted {
                Ok(()) => {
                    if tree.structure_epoch() == epoch
                        || tree.leaf_for(key).map_err(CoreError::Tree)? == leaf
                    {
                        return Ok(leaf);
                    }
                }
                Err(LockError::ConflictsWithReorg) => {
                    // §4.1.2: forgo, and block on an unconditional
                    // instant-duration RS request on the base page until
                    // the reorganizer finishes; then re-descend, since the
                    // unit may have changed the path. The registry counts
                    // each fallback once, as `lock_forgone_rx`.
                    match base {
                        Some(b) => {
                            locks.lock_instant(self.owner, ResourceId::Page(b.0), LockMode::RS)?
                        }
                        None => std::thread::yield_now(),
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Read one record (reader protocol).
    pub fn get(&mut self, key: u64) -> TxnResult<Option<Vec<u8>>> {
        self.lock_tree(LockMode::IS)?;
        let leaf = self.couple_to_leaf(key, LockMode::S)?;
        let v = self.db.tree().search(key).map_err(CoreError::Tree)?;
        // "the S lock on the page is downgraded to IS while an S lock on the
        // read record is held to the end of transaction."
        self.db
            .locks()
            .lock(self.owner, ResourceId::Key(key), LockMode::S)?;
        self.db
            .locks()
            .downgrade(self.owner, ResourceId::Page(leaf.0), LockMode::IS);
        Ok(v)
    }

    /// Range scan (reader protocol). The S lock on the first leaf makes the
    /// entry point trustworthy (no unit can be emptying it); from there
    /// [`obr_btree::BTree::range_scan`] walks the side chain under the
    /// shared SMO latch, and between structure modifications the chain is
    /// always whole — a unit re-stitches it in the same SMO that moves the
    /// records, so the walk meets every record exactly once even inside a
    /// unit's MOVE→MODIFY window.
    pub fn scan(&mut self, lo: u64, hi: u64) -> TxnResult<Vec<(u64, Vec<u8>)>> {
        self.lock_tree(LockMode::IS)?;
        let leaf = self.couple_to_leaf(lo, LockMode::S)?;
        let out = self.db.tree().range_scan(lo, hi).map_err(CoreError::Tree)?;
        self.db
            .locks()
            .downgrade(self.owner, ResourceId::Page(leaf.0), LockMode::IS);
        Ok(out)
    }

    /// Insert a record (updater protocol).
    pub fn insert(&mut self, key: u64, value: &[u8]) -> TxnResult<()> {
        self.lock_tree(LockMode::IX)?;
        let leaf = self.couple_to_leaf(key, LockMode::IX)?;
        self.db
            .locks()
            .lock(self.owner, ResourceId::Key(key), LockMode::X)?;
        let _ = leaf;
        match self.db.tree().insert(self.id, self.prev_lsn, key, value) {
            Ok(lsn) => {
                self.note(lsn);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Delete a record (updater protocol; free-at-empty happens inside the
    /// tree).
    pub fn delete(&mut self, key: u64) -> TxnResult<Vec<u8>> {
        self.lock_tree(LockMode::IX)?;
        let leaf = self.couple_to_leaf(key, LockMode::IX)?;
        self.db
            .locks()
            .lock(self.owner, ResourceId::Key(key), LockMode::X)?;
        let _ = leaf;
        match self.db.tree().delete(self.id, self.prev_lsn, key) {
            Ok((lsn, old)) => {
                self.note(lsn);
                Ok(old)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Update a record in place.
    pub fn update(&mut self, key: u64, value: &[u8]) -> TxnResult<Vec<u8>> {
        let old = self.delete(key)?;
        self.insert(key, value)?;
        Ok(old)
    }

    /// End a transaction that logged no record: it has nothing to make
    /// durable, nothing to undo and no entry in the active table, so
    /// releasing its locks is all there is to do. Returns false, having done
    /// nothing, for a transaction that has written.
    fn end_if_unlogged(&mut self) -> bool {
        if self.prev_lsn != Lsn::ZERO {
            return false;
        }
        self.db.locks().release_all(self.owner);
        self.finished = true;
        true
    }

    /// Commit: force the commit record, then release all locks. A
    /// transaction that wrote nothing appends and forces nothing.
    ///
    /// The append is a short in-memory critical section; the durability wait
    /// rides the WAL group committer, so concurrent committers share one
    /// write+fsync instead of serializing on the log file.
    pub fn commit(mut self) -> TxnResult<()> {
        if self.end_if_unlogged() {
            return Ok(());
        }
        let commit_lsn = self.db.log().append(&LogRecord::TxnCommit { txn: self.id });
        if let Err(e) = self.db.log().flush_to(commit_lsn) {
            // The force failed, but the commit record already sits in the
            // in-memory log: any later successful batch (another
            // committer's group commit, a checkpoint) would make it durable
            // and silently commit a transaction we are about to report as
            // failed. Roll back while the locks are still held — the CLRs
            // and TxnAbort land after the commit record, so whatever
            // durability the log eventually reaches, this transaction ends
            // aborted.
            let _ = self.rollback();
            return Err(TxnError::Engine(CoreError::Storage(e)));
        }
        self.db.end_txn(self.id);
        self.db.locks().release_all(self.owner);
        self.finished = true;
        Ok(())
    }

    /// Abort: roll back via the prev-LSN chain with compensation records.
    pub fn abort(mut self) -> TxnResult<()> {
        if self.end_if_unlogged() {
            return Ok(());
        }
        self.rollback()
    }

    /// Undo every change via the prev-LSN chain (writing CLRs), append
    /// `TxnAbort`, then release locks. Shared by [`Self::abort`] and the
    /// commit path when the commit-record force fails.
    fn rollback(&mut self) -> TxnResult<()> {
        let mut cur = self.prev_lsn;
        while cur != Lsn::ZERO {
            let Some(rec) = self.db.log().read(cur).map_err(CoreError::Storage)? else {
                break;
            };
            cur = match rec {
                LogRecord::TxnInsert {
                    txn, key, prev_lsn, ..
                } if txn == self.id => {
                    self.db
                        .tree()
                        .undo_insert(self.id, key, prev_lsn)
                        .map_err(CoreError::Tree)?;
                    prev_lsn
                }
                LogRecord::TxnDelete {
                    txn,
                    key,
                    old_value,
                    prev_lsn,
                    ..
                } if txn == self.id => {
                    self.db
                        .tree()
                        .undo_delete(self.id, key, &old_value, prev_lsn)
                        .map_err(CoreError::Tree)?;
                    prev_lsn
                }
                LogRecord::TxnUpdate {
                    txn,
                    key,
                    old_value,
                    prev_lsn,
                    ..
                } if txn == self.id => {
                    self.db
                        .tree()
                        .undo_update(self.id, key, &old_value, prev_lsn)
                        .map_err(CoreError::Tree)?;
                    prev_lsn
                }
                LogRecord::Clr { txn, undo_next, .. } if txn == self.id => undo_next,
                _ => break,
            };
        }
        self.db.log().append(&LogRecord::TxnAbort { txn: self.id });
        self.db.end_txn(self.id);
        self.db.locks().release_all(self.owner);
        self.finished = true;
        Ok(())
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished && !self.end_if_unlogged() {
            // Leaked transaction: release its locks so nothing hangs; its
            // log records will be rolled back by recovery (it never
            // committed).
            self.db.end_txn(self.id);
            self.db.locks().release_all(self.owner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_btree::SidePointerMode;
    use obr_storage::{DiskManager, InMemoryDisk};

    fn session() -> Session {
        let disk = Arc::new(InMemoryDisk::new(1024));
        let db =
            Database::create(disk as Arc<dyn DiskManager>, 1024, SidePointerMode::TwoWay).unwrap();
        Session::new(db)
    }

    #[test]
    fn failed_commit_force_rolls_the_transaction_back() {
        let s = session();
        s.insert(1, b"base").unwrap();
        let db = Arc::clone(s.db());
        let mut t = s.begin();
        t.insert(2, b"doomed").unwrap();
        t.delete(1).unwrap();
        // Poison the log so the commit-record force fails: the commit must
        // come back Err AND the transaction's effects must be gone — a
        // lingering in-memory commit record would otherwise be made durable
        // by the next successful batch.
        db.log().poison();
        assert!(t.commit().is_err());
        assert_eq!(db.tree().search(2).unwrap(), None, "insert undone");
        assert_eq!(
            db.tree().search(1).unwrap().as_deref(),
            Some(b"base".as_slice()),
            "delete undone"
        );
        // Locks were released by the rollback: another writer proceeds
        // (its commit cannot force the poisoned log, but its X lock grant
        // is what proves release).
        let mut t2 = s.begin();
        t2.insert(3, b"unblocked").unwrap();
        assert!(t2.commit().is_err());
    }

    #[test]
    fn transaction_that_wrote_nothing_logs_nothing() {
        let s = session();
        s.insert(1, b"one").unwrap();
        let db = Arc::clone(s.db());
        let log_counts = || {
            let m = db.metrics().snapshot();
            (m.counter("wal_appends"), m.counter("wal_batches"))
        };
        let before = log_counts();
        let end: [fn(Txn) -> TxnResult<()>; 3] = [Txn::commit, Txn::abort, |t| {
            drop(t);
            Ok(())
        }];
        for end in end {
            let mut t = s.begin();
            assert_eq!(t.get(1).unwrap().as_deref(), Some(b"one".as_slice()));
            assert_eq!(t.scan(0, 9).unwrap().len(), 1);
            let (id, owner) = (t.id(), t.owner);
            assert_eq!(db.txn_lsn(id), Lsn::ZERO, "a reader is not registered");
            end(t).unwrap();
            assert_eq!(db.txn_lsn(id), Lsn::ZERO);
            assert!(db.locks().held_resources(owner).is_empty());
        }
        assert_eq!(log_counts(), before, "(appends, forces)");
        // A writer still appends its update and its commit, and forces once.
        s.insert(2, b"two").unwrap();
        assert_eq!(log_counts(), (before.0 + 2, before.1 + 1));
    }

    #[test]
    fn insert_read_delete_round_trip() {
        let s = session();
        s.insert(5, b"five").unwrap();
        assert_eq!(s.read(5).unwrap().unwrap(), b"five");
        assert_eq!(s.delete(5).unwrap(), b"five");
        assert_eq!(s.read(5).unwrap(), None);
    }

    #[test]
    fn duplicate_insert_is_reported() {
        let s = session();
        s.insert(1, b"a").unwrap();
        assert!(matches!(s.insert(1, b"b"), Err(TxnError::KeyExists(1))));
    }

    #[test]
    fn abort_rolls_back_with_clrs() {
        let s = session();
        s.insert(1, b"keep").unwrap();
        let mut t = s.begin();
        t.insert(2, b"gone").unwrap();
        t.delete(1).unwrap();
        t.abort().unwrap();
        assert_eq!(s.read(1).unwrap().unwrap(), b"keep");
        assert_eq!(s.read(2).unwrap(), None);
    }

    #[test]
    fn update_replaces_value() {
        let s = session();
        s.insert(7, b"old").unwrap();
        let mut t = s.begin();
        assert_eq!(t.update(7, b"new").unwrap(), b"old");
        t.commit().unwrap();
        assert_eq!(s.read(7).unwrap().unwrap(), b"new");
    }

    #[test]
    fn scan_sees_committed_data() {
        let s = session();
        for k in 0..50u64 {
            s.insert(k * 2, &k.to_le_bytes()).unwrap();
        }
        let r = s.scan(10, 20).unwrap();
        assert_eq!(
            r.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 12, 14, 16, 18, 20]
        );
    }

    #[test]
    fn record_locks_serialize_writers_on_same_key() {
        let s = session();
        s.insert(9, b"v0").unwrap();
        let mut t1 = s.begin();
        t1.update(9, b"v1").unwrap();
        // A second writer on the same key must block until t1 finishes.
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            let mut t2 = s2.begin();
            t2.update(9, b"v2").unwrap();
            t2.commit().unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!h.is_finished());
        t1.commit().unwrap();
        h.join().unwrap();
        assert_eq!(s.read(9).unwrap().unwrap(), b"v2");
    }

    #[test]
    fn dropped_txn_releases_locks() {
        let s = session();
        s.insert(3, b"x").unwrap();
        {
            let mut t = s.begin();
            let _ = t.get(3).unwrap();
            // dropped without commit
        }
        // A writer can proceed.
        s.delete(3).unwrap();
    }

    #[test]
    fn concurrent_sessions_stress() {
        let s = session();
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let s = s.clone();
                sc.spawn(move || {
                    for i in 0..100u64 {
                        let k = t * 1000 + i;
                        s.insert(k, &k.to_le_bytes()).unwrap();
                        if i % 2 == 0 {
                            s.delete(k).unwrap();
                        }
                    }
                });
            }
        });
        let total = s.db().tree().validate().unwrap();
        assert_eq!(total, 4 * 50);
    }
}
