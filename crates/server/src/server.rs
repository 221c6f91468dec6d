//! The network frontend: a TCP listener, thread-per-connection sessions,
//! admission control, and graceful drain.
//!
//! # Threading model
//!
//! One **accept thread** owns the listener. Each admitted connection gets
//! its own **session thread** running [`obr_txn::Session`] operations
//! synchronously — one request in flight per connection, so a session's
//! transaction state needs no internal locking and lock-manager ownership
//! is exactly the thread's open [`obr_txn::Txn`]. Engine-side concurrency
//! is therefore bounded by the in-flight request permits of the
//! [`AdmissionGate`], not by connection count.
//!
//! # Shutdown drain ordering
//!
//! [`Server::shutdown`] (1) sets the stop flag, (2) pokes the listener
//! with a loopback connect so `accept` returns, and joins the accept
//! thread — no new sessions after this point; (3) joins every session
//! thread: each notices the flag at its next read-timeout tick (≤50 ms),
//! finishes the request it is executing, answers any already-received
//! frame (`COMMIT`/`ABORT`/`BYE` run normally so clients can finish;
//! everything else gets `SHUTTING_DOWN`), and closes — a transaction
//! still open when the session closes is aborted and its locks released;
//! (4) takes a final sharp checkpoint so a subsequent `open_durable`
//! restarts from a clean horizon.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use obr_core::{
    AdmissionGate, CoreResult, Database, EngineConfig, ReorgConfig, ReorgTrigger, Reorganizer,
};
use obr_obs::TraceKind;
use obr_sync::atomic::{AtomicBool, Ordering};
use obr_sync::Mutex;
use obr_txn::{Session, Txn, TxnError};

use crate::proto::{
    write_frame, ErrorCode, ProtoError, ProtoResult, Request, Response, ShippedSegment, MAX_FRAME,
    VERSION,
};

/// How often a blocked session read wakes up to check the stop flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// Budget for one `SEGMENTS` response's segment bytes, leaving headroom
/// under [`MAX_FRAME`] for the envelope.
const SHIP_BYTE_BUDGET: usize = MAX_FRAME - (64 << 10);

/// Frontend knobs. [`ServerConfig::from_engine`] lifts the admission
/// limits out of an [`EngineConfig`] so the two stay in one place.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:4140` (port 0 picks a free port).
    pub addr: String,
    /// Concurrent session ceiling (see [`EngineConfig::max_sessions`]).
    pub max_sessions: usize,
    /// In-flight request ceiling (see [`EngineConfig::admission_queue`]).
    pub admission_queue: usize,
    /// Default segments per `SHIP` response when the request says 0.
    pub ship_batch: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::from_engine("127.0.0.1:0", &EngineConfig::default())
    }
}

impl ServerConfig {
    /// A config bound to `addr` with admission limits from `cfg`.
    pub fn from_engine(addr: &str, cfg: &EngineConfig) -> ServerConfig {
        ServerConfig {
            addr: addr.to_string(),
            max_sessions: cfg.max_sessions,
            admission_queue: cfg.admission_queue,
            ship_batch: 4,
        }
    }
}

struct Shared {
    db: Arc<Database>,
    gate: AdmissionGate,
    stop: AtomicBool,
    addr: SocketAddr,
    ship_batch: u32,
}

/// A running frontend. Dropping it without [`Server::shutdown`] stops the
/// threads but skips the final checkpoint.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind and start serving `db` per `cfg`.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let gate = AdmissionGate::new(cfg.max_sessions, cfg.admission_queue);
        gate.register_metrics(db.metrics());
        let shared = Arc::new(Shared {
            db,
            gate,
            stop: AtomicBool::new(false),
            addr,
            ship_batch: cfg.ship_batch.max(1),
        });
        let sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::named(Vec::new(), "server.conns"));
        let accept = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            std::thread::Builder::new()
                .name("obr-server-accept".into())
                .spawn(move || accept_loop(listener, shared, sessions))
                .expect("spawn accept thread")
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            sessions,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live sessions right now.
    pub fn sessions(&self) -> usize {
        self.shared.gate.sessions()
    }

    /// Graceful shutdown: drain sessions, then checkpoint. See the module
    /// docs for the exact ordering.
    pub fn shutdown(mut self) -> CoreResult<()> {
        self.stop_threads();
        self.shared.db.checkpoint()?;
        Ok(())
    }

    /// Abrupt stop for crash simulation: threads are stopped but **no**
    /// final checkpoint is taken, leaving the on-disk state exactly as the
    /// workload left it (pair with [`Database::crash`]).
    pub fn stop_abrupt(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        // relaxed: the flag is a pure go/no-go signal polled by every
        // thread; no data is published through it.
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.db.tracer().emit(
            TraceKind::ServerDrain,
            0,
            0,
            0,
            self.shared.gate.sessions() as u64,
            0,
        );
        // Unblock accept(): it re-checks the flag per connection.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.sessions.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_threads();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                // relaxed: go/no-go flag (see stop_threads).
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        // relaxed: go/no-go flag.
        if shared.stop.load(Ordering::Relaxed) {
            return; // the shutdown poke, or a late client — either way, done
        }
        let shared2 = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("obr-server-conn".into())
            .spawn(move || serve_connection(shared2, stream))
            .expect("spawn session thread");
        let mut g = sessions.lock();
        // Reap finished threads so a long-lived server's handle list stays
        // proportional to live connections, not historical ones.
        let mut i = 0;
        while i < g.len() {
            if g[i].is_finished() {
                let _ = g.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        g.push(handle);
    }
}

/// Read one frame, waking every [`READ_TICK`] to check the stop flag.
/// `Ok(None)` means the stop flag was set while **no** frame was in
/// progress (idle drain); a frame whose bytes have started arriving is
/// read to completion even during drain.
fn read_frame_draining(stream: &mut TcpStream, stop: &AtomicBool) -> ProtoResult<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Err(ProtoError::Closed),
            Ok(0) => return Err(ProtoError::Truncated("frame length")),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                // relaxed: go/no-go flag.
                if got == 0 && stop.load(Ordering::Relaxed) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let n = u32::from_be_bytes(len) as usize;
    if n == 0 {
        return Err(ProtoError::EmptyFrame);
    }
    if n > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(n));
    }
    let mut payload = vec![0u8; n];
    let mut got = 0usize;
    while got < n {
        match stream.read(&mut payload[got..]) {
            Ok(0) => return Err(ProtoError::Truncated("frame payload")),
            Ok(k) => got += k,
            Err(e) if is_timeout(&e) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(Some(payload))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn send(stream: &mut TcpStream, resp: &Response) -> ProtoResult<()> {
    write_frame(stream, &resp.encode())
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Err {
        code,
        message: message.into(),
    }
}

/// Per-connection state: the session handle and the (at most one) open
/// transaction it owns.
struct Conn {
    session: Session,
    txn: Option<Txn>,
    served: u64,
}

fn serve_connection(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);

    // Handshake: the first frame must be a version-compatible HELLO, and
    // admission happens here so a shed connection never costs more than
    // one frame exchange.
    let payload = match read_frame_draining(&mut stream, &shared.stop) {
        Ok(Some(p)) => p,
        Ok(None) | Err(ProtoError::Closed) | Err(ProtoError::Io(_)) => return,
        Err(e) => {
            // Malformed framing before the handshake still deserves a
            // typed answer so a confused client can diagnose itself.
            let _ = send(&mut stream, &err(ErrorCode::BadRequest, e.to_string()));
            return;
        }
    };
    match Request::decode(&payload) {
        Ok(Request::Hello { version }) if version == VERSION => {}
        Ok(Request::Hello { version }) => {
            let _ = send(
                &mut stream,
                &err(
                    ErrorCode::Version,
                    format!("server speaks version {VERSION}, client sent {version}"),
                ),
            );
            return;
        }
        Ok(_) => {
            let _ = send(
                &mut stream,
                &err(ErrorCode::BadRequest, "first frame must be HELLO"),
            );
            return;
        }
        Err(e) => {
            let _ = send(&mut stream, &err(ErrorCode::BadRequest, e.to_string()));
            return;
        }
    }
    // relaxed: go/no-go flag.
    if shared.stop.load(Ordering::Relaxed) {
        let _ = send(
            &mut stream,
            &err(ErrorCode::ShuttingDown, "server is draining"),
        );
        return;
    }
    let permit = match shared.gate.admit_session() {
        Ok(p) => p,
        Err(busy) => {
            shared
                .db
                .tracer()
                .emit(TraceKind::ServerShed, 0, 0, 0, 0, 0);
            let _ = send(&mut stream, &err(ErrorCode::Busy, busy.to_string()));
            return;
        }
    };
    shared.db.tracer().emit(
        TraceKind::SessionOpen,
        0,
        0,
        0,
        shared.gate.sessions() as u64,
        0,
    );
    if send(&mut stream, &Response::HelloOk { version: VERSION }).is_err() {
        drop(permit);
        return;
    }

    let mut conn = Conn {
        session: Session::new(Arc::clone(&shared.db)),
        txn: None,
        served: 0,
    };
    loop {
        let payload = match read_frame_draining(&mut stream, &shared.stop) {
            Ok(Some(p)) => p,
            Ok(None) => break, // idle drain
            Err(ProtoError::Closed) => break,
            Err(ProtoError::Io(_)) => break,
            Err(e) => {
                // Malformed framing: after a bad frame the stream position
                // is unknowable, so answer and close.
                let _ = send(&mut stream, &err(ErrorCode::BadRequest, e.to_string()));
                break;
            }
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let _ = send(&mut stream, &err(ErrorCode::BadRequest, e.to_string()));
                break;
            }
        };
        // relaxed: go/no-go flag.
        let draining = shared.stop.load(Ordering::Relaxed);
        if draining && !matches!(req, Request::Commit | Request::Abort | Request::Bye) {
            let _ = send(
                &mut stream,
                &err(ErrorCode::ShuttingDown, "server is draining"),
            );
            break;
        }
        if matches!(req, Request::Bye) {
            let _ = send(&mut stream, &Response::Ok);
            break;
        }
        let resp = match req {
            Request::Ping => Response::Pong, // control plane: no permit
            Request::Hello { .. } => err(ErrorCode::BadRequest, "HELLO after handshake"),
            _ => match shared.gate.start_request() {
                Err(busy) => {
                    shared
                        .db
                        .tracer()
                        .emit(TraceKind::ServerShed, 0, 0, 0, 1, 0);
                    err(ErrorCode::Busy, busy.to_string())
                }
                Ok(_permit) => {
                    conn.served += 1;
                    handle_request(&shared, &mut conn, req)
                }
            },
        };
        if send(&mut stream, &resp).is_err() {
            break;
        }
        if draining {
            break; // one drain-time answer, then close
        }
    }
    // A transaction still open at session end is aborted (locks released).
    if let Some(txn) = conn.txn.take() {
        let _ = txn.abort();
    }
    let served = conn.served;
    drop(permit);
    shared.db.tracer().emit(
        TraceKind::SessionClose,
        0,
        0,
        0,
        shared.gate.sessions() as u64,
        served,
    );
}

fn handle_request(shared: &Shared, conn: &mut Conn, req: Request) -> Response {
    match req {
        Request::Get { key } => {
            let r = match conn.txn.as_mut() {
                Some(t) => t.get(key),
                None => conn.session.read(key),
            };
            match r {
                Ok(v) => Response::Value(v),
                Err(e) => txn_error(conn, e),
            }
        }
        Request::Put { key, value } => {
            let r = match conn.txn.as_mut() {
                // Inside a transaction PUT is a strict insert, and a
                // duplicate answers KEY_EXISTS with the transaction still
                // open (PROTOCOL.md). Outside one it is an upsert: one
                // auto-committed `put` that inserts or replaces in place.
                Some(t) => t.insert(key, &value),
                None => conn.session.put(key, &value).map(|_| ()),
            };
            match r {
                Ok(()) => Response::Ok,
                Err(e) => txn_error(conn, e),
            }
        }
        Request::Delete { key } => {
            let r = match conn.txn.as_mut() {
                Some(t) => t.delete(key),
                None => conn.session.delete(key),
            };
            match r {
                Ok(old) => Response::Value(Some(old)),
                Err(e) => txn_error(conn, e),
            }
        }
        Request::Scan { lo, hi, limit } => {
            let cap = if limit == 0 {
                crate::proto::DEFAULT_SCAN_LIMIT
            } else {
                limit
            } as usize;
            let r = match conn.txn.as_mut() {
                Some(t) => t.scan(lo, hi),
                None => conn.session.scan(lo, hi),
            };
            match r {
                Ok(mut rows) => {
                    let truncated = rows.len() > cap;
                    rows.truncate(cap);
                    Response::Rows { rows, truncated }
                }
                Err(e) => txn_error(conn, e),
            }
        }
        Request::Begin => {
            if conn.txn.is_some() {
                err(ErrorCode::TxnState, "a transaction is already open")
            } else {
                conn.txn = Some(conn.session.begin());
                Response::Ok
            }
        }
        Request::Commit => match conn.txn.take() {
            None => err(ErrorCode::TxnState, "no open transaction"),
            Some(t) => match t.commit() {
                Ok(()) => Response::Ok,
                Err(e) => txn_error(conn, e),
            },
        },
        Request::Abort => match conn.txn.take() {
            None => err(ErrorCode::TxnState, "no open transaction"),
            Some(t) => match t.abort() {
                Ok(()) => Response::Ok,
                Err(e) => txn_error(conn, e),
            },
        },
        Request::Stats => match shared.db.metrics_snapshot() {
            Ok(s) => Response::Json(s.to_json()),
            Err(e) => err(ErrorCode::Internal, e.to_string()),
        },
        Request::Checkpoint => match shared.db.checkpoint() {
            Ok(_) => Response::Ok,
            Err(e) => err(ErrorCode::Internal, e.to_string()),
        },
        Request::Reorg { force } => {
            let trigger = if force {
                // Thresholds every real tree fails, so every pass runs.
                ReorgTrigger {
                    min_fill: 1.0,
                    max_disorder: 0.0,
                    min_leaves_for_swap: 0,
                    shrink: true,
                }
            } else {
                ReorgTrigger::default()
            };
            let reorg = Reorganizer::new(Arc::clone(&shared.db), ReorgConfig::default());
            match reorg.run_if_needed(trigger) {
                Ok(d) => Response::ReorgDone {
                    compacted: d.compacted,
                    swapped: d.swapped,
                    shrunk: d.shrunk,
                },
                Err(e) => err(ErrorCode::Internal, e.to_string()),
            }
        }
        Request::DbInfo => Response::Info {
            pages: shared.db.disk().num_pages(),
            side_mode: shared.db.tree().side_mode(),
            first_lsn: shared.db.log().first_lsn(),
            durable_lsn: shared.db.log().durable_lsn(),
        },
        Request::Ship {
            from_lsn,
            max_segments,
        } => handle_ship(shared, from_lsn, max_segments),
        // Handled by the caller before the permit was taken.
        Request::Hello { .. } | Request::Bye | Request::Ping => {
            err(ErrorCode::BadRequest, "unreachable control frame")
        }
    }
}

/// Map an engine error to its wire code. Deadlock and timeout abort the
/// connection's open transaction (the victim must restart anyway; holding
/// its locks while the client decides would extend the cycle).
fn txn_error(conn: &mut Conn, e: TxnError) -> Response {
    let code = match &e {
        TxnError::Deadlock => ErrorCode::Deadlock,
        TxnError::Timeout => ErrorCode::Timeout,
        TxnError::KeyExists(_) => ErrorCode::KeyExists,
        TxnError::KeyNotFound(_) => ErrorCode::KeyNotFound,
        TxnError::Engine(_) => ErrorCode::Internal,
    };
    if matches!(code, ErrorCode::Deadlock | ErrorCode::Timeout) {
        if let Some(t) = conn.txn.take() {
            let _ = t.abort();
        }
    }
    err(code, e.to_string())
}

fn handle_ship(shared: &Shared, from_lsn: obr_storage::Lsn, max_segments: u32) -> Response {
    let log = shared.db.log();
    if !log.is_segmented() {
        return err(
            ErrorCode::NotDurable,
            "this database has no segmented WAL to ship",
        );
    }
    let durable_lsn = log.durable_lsn();
    let first_available_lsn = log.first_lsn();
    let catalog = log.segment_catalog();
    let relevant: Vec<_> = catalog
        .into_iter()
        .filter(|s| s.end_lsn > from_lsn)
        .collect();
    let cap = if max_segments == 0 {
        shared.ship_batch as usize
    } else {
        max_segments as usize
    };
    let mut segments = Vec::new();
    let mut bytes_used = 0usize;
    let mut more = false;
    for meta in &relevant {
        if segments.len() >= cap {
            more = true;
            break;
        }
        let bytes = match std::fs::read(&meta.path) {
            Ok(b) => b,
            // A sealed segment can vanish mid-batch when checkpoint
            // truncation recycles it; ship what we have and let the
            // replica's gap/floor logic decide whether a re-seed is due.
            Err(_) => {
                more = true;
                break;
            }
        };
        if bytes_used + bytes.len() > SHIP_BYTE_BUDGET && !segments.is_empty() {
            more = true;
            break;
        }
        bytes_used += bytes.len();
        segments.push(ShippedSegment {
            first_lsn: meta.first_lsn,
            sealed: meta.sealed,
            bytes,
        });
    }
    Response::Segments {
        more,
        durable_lsn,
        first_available_lsn,
        segments,
    }
}
