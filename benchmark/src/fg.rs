//! The foreground: executes one generated operation through the engine's
//! public API, untraced at the workload's own entry point or traced at a
//! depth chosen round-robin.
//!
//! Depths (each operation runs exactly once, at one depth, so the database
//! evolves as in the untraced run):
//!
//! 0. `Client::get/put/scan` over TCP (wire workloads only);
//! 1. `Session::read/insert/scan` and `Txn::update/delete`;
//! 2. the calls a `Session` makes, one child span each: `LockManager::lock`
//!    → `BTree::path_for/search/insert/delete/range_scan` →
//!    `LogManager::append` → `flush_to` → `release_all`;
//! 3. depth 2 plus leaf probes that change no state: `Request`/`Response`
//!    encode+decode, `AdmissionGate::start_request`, and
//!    `BufferPool::fetch` over `BTree::path_for(key)`.

use std::hint::black_box;
use std::sync::Arc;

use obr_core::{AdmissionGate, Database, EngineConfig};
use obr_lock::{LockMode, OwnerId, ResourceId};
use obr_server::client::Client;
use obr_server::proto::{ErrorCode, Request, Response};
use obr_txn::{Session, TxnError};
use obr_wal::LogRecord;

use crate::gen::{value_for, Kind, Op, SCAN_ROWS};
use crate::trace::{Trace, NONE};

/// Why an operation did not complete.
pub enum Fail {
    /// Refused or chosen as a victim (BUSY, deadlock, timeout): counted as
    /// failed and attempted again.
    Retry,
    /// Anything else ends the run.
    Fatal(String),
}

/// What an operation answered.
pub enum Out {
    Value(Option<Vec<u8>>),
    /// `truncated`: the row cap, not the range end, ended the scan.
    Rows {
        rows: Vec<(u64, Vec<u8>)>,
        truncated: bool,
    },
    Done,
}

pub struct Foreground<'t> {
    db: Arc<Database>,
    session: Session,
    client: Option<Client>,
    trace: Option<&'t mut Trace>,
    /// Depths traced operations cycle through.
    depths: &'static [u8],
    /// A gate configured like the server's, for the depth-3 probe.
    gate: AdmissionGate,
    seq: u32,
    /// Operations of each [`Kind`] so far: each kind cycles through the
    /// depths on its own, or a periodic stream would pin a kind to one.
    by_kind: [usize; 3],
    pub busy_retries: u64,
    pub restarts: u64,
}

fn txn_fail(e: TxnError) -> Fail {
    match e {
        TxnError::Deadlock | TxnError::Timeout => Fail::Retry,
        other => Fail::Fatal(format!("session: {other}")),
    }
}

impl<'t> Foreground<'t> {
    /// `contended` restricts tracing to depths 0–1: the hand-rolled depth-2
    /// sequence has no RX fallback, so it runs only where nothing else
    /// holds locks.
    pub fn new(
        db: Arc<Database>,
        client: Option<Client>,
        trace: Option<&'t mut Trace>,
        contended: bool,
    ) -> Foreground<'t> {
        let depths: &'static [u8] = match (client.is_some(), contended) {
            (true, false) => &[0, 1, 2, 3],
            (true, true) => &[0, 1],
            (false, false) => &[1, 2, 3],
            (false, true) => &[1],
        };
        let cfg = EngineConfig::default();
        Foreground {
            session: Session::new(Arc::clone(&db)),
            db,
            client,
            trace,
            depths,
            gate: AdmissionGate::new(cfg.max_sessions, cfg.admission_queue),
            seq: 0,
            by_kind: [0; 3],
            busy_retries: 0,
            restarts: 0,
        }
    }

    pub fn into_client(self) -> Option<Client> {
        self.client
    }

    /// Execute `op` once. The caller times this call for the end-to-end
    /// latency; spans, when tracing, are recorded inside.
    pub fn exec(&mut self, op: &Op) -> Result<Out, Fail> {
        let id = self.seq;
        self.seq = self.seq.wrapping_add(1);
        let nth = &mut self.by_kind[op.kind() as usize];
        let depth = match &self.trace {
            Some(_) => self.depths[*nth % self.depths.len()],
            None => self.depths[0],
        };
        *nth += 1;
        let root = self
            .trace
            .as_deref_mut()
            .map(|t| t.begin(span_name(depth, op.kind()), id, NONE));
        let out = match depth {
            0 => self.wire(op),
            1 => self.session(op),
            _ => {
                if depth == 3 {
                    self.probe_before(op, id).map_err(Fail::Fatal)?;
                }
                let out = self.engine(op, id, root.expect("depth 2 is traced"));
                if let (3, Ok(out)) = (depth, &out) {
                    self.probe_response(out, id);
                }
                out
            }
        };
        if let (Some(t), Some(root)) = (self.trace.as_deref_mut(), root) {
            t.end(root);
        }
        out
    }

    fn wire(&mut self, op: &Op) -> Result<Out, Fail> {
        let c = self.client.as_mut().expect("depth 0 needs a client");
        let r = match *op {
            Op::Get { key } => c.get(key).map(Out::Value),
            Op::Put { key, version, .. } => {
                c.put(key, &value_for(key, version)).map(|()| Out::Done)
            }
            Op::Delete { key } => c.delete(key).map(|_| Out::Done),
            Op::Scan { lo, hi } => c
                .scan(lo, hi, SCAN_ROWS as u32)
                .map(|(rows, truncated)| Out::Rows { rows, truncated }),
        };
        r.map_err(|e| match e.code() {
            Some(ErrorCode::Busy) => {
                self.busy_retries += 1;
                Fail::Retry
            }
            Some(ErrorCode::Deadlock | ErrorCode::Timeout) => {
                self.restarts += 1;
                Fail::Retry
            }
            _ => Fail::Fatal(format!("client: {e}")),
        })
    }

    fn session(&mut self, op: &Op) -> Result<Out, Fail> {
        let s = &self.session;
        let r = match *op {
            Op::Get { key } => s.read(key).map(Out::Value),
            Op::Put {
                key,
                version,
                exists: false,
            } => s.insert(key, &value_for(key, version)).map(|()| Out::Done),
            Op::Put { key, version, .. } => {
                // An update is delete+insert inside one transaction; a
                // failure between the two must roll the delete back.
                let mut t = s.begin();
                match t.update(key, &value_for(key, version)) {
                    Ok(_) => t.commit().map(|()| Out::Done),
                    Err(e) => {
                        let _ = t.abort();
                        Err(e)
                    }
                }
            }
            Op::Delete { key } => s.delete(key).map(|_| Out::Done),
            Op::Scan { lo, hi } => s.scan(lo, hi).map(|rows| Out::Rows {
                rows,
                truncated: false,
            }),
        };
        r.map_err(|e| {
            let f = txn_fail(e);
            if matches!(f, Fail::Retry) {
                self.restarts += 1;
            }
            f
        })
    }

    /// Depth 2: what `Session` does, spelled out over the layers' public
    /// calls with one child span per call group.
    fn engine(&mut self, op: &Op, id: u32, root: u32) -> Result<Out, Fail> {
        let db = Arc::clone(&self.db);
        let tr = self.trace.as_deref_mut().expect("depth 2 is traced");
        let txn = tr.time("db.begin_txn", id, root, || db.begin_txn());
        let owner = OwnerId(txn.0);
        // An error in the steps is a bug here or in the engine (nothing
        // contends at this depth): release what is held and end the run.
        engine_steps(&db, tr, op, id, root, txn, owner).map_err(|e| {
            db.end_txn(txn);
            db.locks().release_all(owner);
            Fail::Fatal(format!("depth-2 {op:?}: {e}"))
        })
    }

    /// Depth-3 leaf probes that need only the request.
    fn probe_before(&mut self, op: &Op, id: u32) -> Result<(), String> {
        let tr = self.trace.as_deref_mut().expect("depth 3 is traced");
        let (req, key) = match *op {
            Op::Get { key } => (Request::Get { key }, key),
            Op::Put { key, version, .. } => (
                Request::Put {
                    key,
                    value: value_for(key, version).to_vec(),
                },
                key,
            ),
            Op::Delete { key } => (Request::Delete { key }, key),
            Op::Scan { lo, hi } => (
                Request::Scan {
                    lo,
                    hi,
                    limit: SCAN_ROWS as u32,
                },
                lo,
            ),
        };
        tr.time("server.codec_req", id, NONE, || {
            black_box(Request::decode(black_box(&req.encode())))
        })
        .map_err(text)?;
        tr.time("admission.request", id, NONE, || {
            drop(black_box(self.gate.start_request()))
        });
        let pool = self.db.pool();
        for page in self.db.tree().path_for(key).map_err(text)? {
            let name = match pool.is_resident(page) {
                true => "buffer.fetch_hit",
                false => "buffer.fetch_miss",
            };
            drop(tr.time(name, id, NONE, || pool.fetch(page)).map_err(text)?);
        }
        Ok(())
    }

    /// Depth-3 leaf probe that needs the answer.
    fn probe_response(&mut self, out: &Out, id: u32) {
        let resp = match out {
            Out::Value(v) => Response::Value(v.clone()),
            Out::Rows { rows, truncated } => Response::Rows {
                rows: rows.clone(),
                truncated: *truncated,
            },
            Out::Done => Response::Ok,
        };
        let tr = self.trace.as_deref_mut().expect("depth 3 is traced");
        let _ = tr.time("server.codec_resp", id, NONE, || {
            black_box(Response::decode(black_box(&resp.encode())))
        });
    }

    /// Calls the operation stream never makes on its own, timed once the
    /// stream is done: an uncontended lock pair, an empty transaction, a
    /// wire round trip with no work behind it.
    pub fn micro_probes(&mut self) -> Result<(), String> {
        let Some(tr) = self.trace.as_deref_mut() else {
            return Ok(());
        };
        let locks = self.db.locks();
        let owner = self.db.new_owner();
        for i in 0..2_000u64 {
            tr.time("lock.pair", NONE, NONE, || {
                let a = locks.lock(owner, ResourceId::Key(u64::MAX - 2 * i), LockMode::S);
                let b = locks.lock(owner, ResourceId::Key(u64::MAX - 2 * i - 1), LockMode::S);
                locks.release_all(owner);
                a.and(b)
            })
            .map_err(|e| format!("lock probe: {e}"))?;
        }
        for _ in 0..200 {
            tr.time("txn.empty_commit", NONE, NONE, || {
                self.session.begin().commit()
            })
            .map_err(|e| format!("empty commit probe: {e}"))?;
        }
        if let Some(c) = self.client.as_mut() {
            for _ in 0..200 {
                tr.time("server.ping", NONE, NONE, || c.ping())
                    .map_err(|e| format!("ping probe: {e}"))?;
            }
        }
        Ok(())
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The steps of [`Foreground::engine`] after `begin_txn`; the caller
/// cleans up if one fails.
fn engine_steps(
    db: &Database,
    tr: &mut Trace,
    op: &Op,
    id: u32,
    root: u32,
    txn: obr_wal::TxnId,
    owner: OwnerId,
) -> Result<Out, String> {
    let (tree, locks, log) = (db.tree(), db.locks(), db.log());
    let (tree_mode, leaf_mode, key) = match *op {
        Op::Get { key } => (LockMode::IS, LockMode::S, key),
        Op::Scan { lo, .. } => (LockMode::IS, LockMode::S, lo),
        Op::Put { key, .. } | Op::Delete { key } => (LockMode::IX, LockMode::IX, key),
    };
    let gen = tr
        .time("btree.generation", id, root, || tree.generation())
        .map_err(text)?;
    tr.time("lock.lock", id, root, || {
        locks.lock(owner, ResourceId::Tree(gen), tree_mode)
    })
    .map_err(text)?;
    let path = tr
        .time("btree.path_for", id, root, || tree.path_for(key))
        .map_err(text)?;
    let leaf = *path.last().expect("path never empty");
    let base = (path.len() >= 2).then(|| path[path.len() - 2]);
    // Lock-couple: S on the base page, the leaf, then let the base go.
    tr.time("lock.lock", id, root, || {
        if let Some(b) = base {
            locks.lock(owner, ResourceId::Page(b.0), LockMode::S)?;
        }
        locks.lock(owner, ResourceId::Page(leaf.0), leaf_mode)?;
        if let Some(b) = base {
            locks.unlock(owner, ResourceId::Page(b.0));
        }
        Ok::<(), obr_lock::LockError>(())
    })
    .map_err(text)?;

    let out = match *op {
        Op::Get { key } => {
            let v = tr
                .time("btree.search", id, root, || tree.search(key))
                .map_err(text)?;
            tr.time("lock.lock", id, root, || {
                let r = locks.lock(owner, ResourceId::Key(key), LockMode::S);
                locks.downgrade(owner, ResourceId::Page(leaf.0), LockMode::IS);
                r
            })
            .map_err(text)?;
            Out::Value(v)
        }
        Op::Scan { lo, hi } => {
            let rows = tr
                .time("btree.range_scan", id, root, || tree.range_scan(lo, hi))
                .map_err(text)?;
            tr.time("lock.lock", id, root, || {
                locks.downgrade(owner, ResourceId::Page(leaf.0), LockMode::IS)
            });
            Out::Rows {
                rows,
                truncated: false,
            }
        }
        Op::Put { key, .. } | Op::Delete { key } => {
            tr.time("lock.lock", id, root, || {
                locks.lock(owner, ResourceId::Key(key), LockMode::X)
            })
            .map_err(text)?;
            let mut prev = obr_storage::Lsn::ZERO;
            if !matches!(*op, Op::Put { exists: false, .. }) {
                prev = tr
                    .time("btree.delete", id, root, || tree.delete(txn, prev, key))
                    .map_err(text)?
                    .0;
            }
            if let Op::Put { version, .. } = *op {
                prev = tr
                    .time("btree.insert", id, root, || {
                        tree.insert(txn, prev, key, &value_for(key, version))
                    })
                    .map_err(text)?;
            }
            tr.time("db.note_txn_lsn", id, root, || db.note_txn_lsn(txn, prev));
            Out::Done
        }
    };

    let commit = tr.time("wal.append", id, root, || {
        log.append(&LogRecord::TxnCommit { txn })
    });
    tr.time("wal.flush_to", id, root, || log.flush_to(commit))
        .map_err(text)?;
    tr.time("lock.release_all", id, root, || {
        db.end_txn(txn);
        locks.release_all(owner);
    });
    Ok(out)
}

fn span_name(depth: u8, kind: Kind) -> &'static str {
    match (depth, kind) {
        (0, Kind::Get) => "wire.get",
        (0, Kind::Put) => "wire.put",
        (0, Kind::Scan) => "wire.scan",
        (1, Kind::Get) => "txn.read",
        (1, Kind::Put) => "txn.put",
        (1, Kind::Scan) => "txn.scan",
        (_, Kind::Get) => "engine.get",
        (_, Kind::Put) => "engine.put",
        (_, Kind::Scan) => "engine.scan",
    }
}
