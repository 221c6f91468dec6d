//! A blocking protocol client, plus [`NetReplica`]: a read replica that
//! bootstraps and catches up entirely over the wire.

use std::fmt;
use std::net::TcpStream;
use std::time::Duration;

use obr_btree::SidePointerMode;
use obr_core::Replica;
use obr_storage::Lsn;

use crate::proto::{
    read_frame, write_frame, ErrorCode, ProtoError, Request, Response, ShippedSegment, VERSION,
};

/// Client-side failures: protocol-level, server-reported, or (for
/// [`NetReplica`]) replica-apply errors.
#[derive(Debug)]
pub enum ClientError {
    /// Framing/codec/socket failure.
    Proto(ProtoError),
    /// The server answered `ERR`.
    Server {
        /// The typed code (retry semantics in PROTOCOL.md §6).
        code: ErrorCode,
        /// Operator-facing detail.
        message: String,
    },
    /// The server answered with a response the request cannot produce.
    Unexpected(&'static str),
    /// The local replica failed to apply shipped segments.
    Replica(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => write!(f, "server: {code}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response to {what}"),
            ClientError::Replica(e) => write!(f, "replica apply: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl ClientError {
    /// True when the server shed this call with `BUSY` (retry with
    /// backoff).
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }

    /// The server-reported code, if this is a server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// Database shape and log position, from `DB_INFO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbInfo {
    /// Page count of the primary's disk.
    pub pages: u32,
    /// Side-pointer mode the primary's tree was created with.
    pub side_mode: SidePointerMode,
    /// Oldest LSN still available in the primary's log.
    pub first_lsn: Lsn,
    /// Primary's durable LSN at answer time.
    pub durable_lsn: Lsn,
}

/// One `SHIP` answer, decomposed.
#[derive(Debug, Clone)]
pub struct ShipBatch {
    /// More segments exist past this batch.
    pub more: bool,
    /// Primary's durable LSN (cap for applying unsealed bytes).
    pub durable_lsn: Lsn,
    /// Oldest LSN the primary can still ship.
    pub first_available_lsn: Lsn,
    /// The shipped segments, oldest first.
    pub segments: Vec<ShippedSegment>,
}

/// A [`Client::scan`] result: the rows, plus whether the row cap (not
/// the range end) cut the scan short.
pub type ScanRows = (Vec<(u64, Vec<u8>)>, bool);

/// A blocking connection to an obr server. One request in flight at a
/// time, mirroring the server's session model.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect and run the `HELLO` handshake.
    pub fn connect(addr: &str) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr).map_err(ProtoError::Io)?;
        let _ = stream.set_nodelay(true);
        let mut c = Client { stream };
        match c.call(&Request::Hello { version: VERSION }, "HELLO")? {
            Response::HelloOk { .. } => Ok(c),
            _ => Err(ClientError::Unexpected("HELLO")),
        }
    }

    /// Bound every read with `timeout` so a hung server cannot hang the
    /// client forever.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> ClientResult<()> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(ProtoError::Io)?;
        Ok(())
    }

    fn call(&mut self, req: &Request, what: &'static str) -> ClientResult<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?;
        let resp = Response::decode(&payload)?;
        if let Response::Err { code, message } = resp {
            return Err(ClientError::Server { code, message });
        }
        let _ = what;
        Ok(resp)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.call(&Request::Ping, "PING")? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("PING")),
        }
    }

    /// Point read.
    pub fn get(&mut self, key: u64) -> ClientResult<Option<Vec<u8>>> {
        match self.call(&Request::Get { key }, "GET")? {
            Response::Value(v) => Ok(v),
            _ => Err(ClientError::Unexpected("GET")),
        }
    }

    /// Upsert outside a transaction; strict insert inside one.
    pub fn put(&mut self, key: u64, value: &[u8]) -> ClientResult<()> {
        let req = Request::Put {
            key,
            value: value.to_vec(),
        };
        match self.call(&req, "PUT")? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("PUT")),
        }
    }

    /// Delete; answers the old value.
    pub fn delete(&mut self, key: u64) -> ClientResult<Vec<u8>> {
        match self.call(&Request::Delete { key }, "DELETE")? {
            Response::Value(Some(v)) => Ok(v),
            _ => Err(ClientError::Unexpected("DELETE")),
        }
    }

    /// Inclusive range scan; `(rows, truncated)`.
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u32) -> ClientResult<ScanRows> {
        match self.call(&Request::Scan { lo, hi, limit }, "SCAN")? {
            Response::Rows { rows, truncated } => Ok((rows, truncated)),
            _ => Err(ClientError::Unexpected("SCAN")),
        }
    }

    /// Open this session's transaction.
    pub fn begin(&mut self) -> ClientResult<()> {
        match self.call(&Request::Begin, "BEGIN")? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("BEGIN")),
        }
    }

    /// Commit this session's transaction.
    pub fn commit(&mut self) -> ClientResult<()> {
        match self.call(&Request::Commit, "COMMIT")? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("COMMIT")),
        }
    }

    /// Abort this session's transaction.
    pub fn abort(&mut self) -> ClientResult<()> {
        match self.call(&Request::Abort, "ABORT")? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("ABORT")),
        }
    }

    /// Metrics snapshot as JSON.
    pub fn stats(&mut self) -> ClientResult<String> {
        match self.call(&Request::Stats, "STATS")? {
            Response::Json(s) => Ok(s),
            _ => Err(ClientError::Unexpected("STATS")),
        }
    }

    /// Force a sharp checkpoint.
    pub fn checkpoint(&mut self) -> ClientResult<()> {
        match self.call(&Request::Checkpoint, "CHECKPOINT")? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("CHECKPOINT")),
        }
    }

    /// Run the reorganizer; `(compacted, swapped, shrunk)`.
    pub fn reorg(&mut self, force: bool) -> ClientResult<(bool, bool, bool)> {
        match self.call(&Request::Reorg { force }, "REORG")? {
            Response::ReorgDone {
                compacted,
                swapped,
                shrunk,
            } => Ok((compacted, swapped, shrunk)),
            _ => Err(ClientError::Unexpected("REORG")),
        }
    }

    /// Database shape and log position.
    pub fn db_info(&mut self) -> ClientResult<DbInfo> {
        match self.call(&Request::DbInfo, "DB_INFO")? {
            Response::Info {
                pages,
                side_mode,
                first_lsn,
                durable_lsn,
            } => Ok(DbInfo {
                pages,
                side_mode,
                first_lsn,
                durable_lsn,
            }),
            _ => Err(ClientError::Unexpected("DB_INFO")),
        }
    }

    /// One round of segment shipping.
    pub fn ship(&mut self, from_lsn: Lsn, max_segments: u32) -> ClientResult<ShipBatch> {
        let req = Request::Ship {
            from_lsn,
            max_segments,
        };
        match self.call(&req, "SHIP")? {
            Response::Segments {
                more,
                durable_lsn,
                first_available_lsn,
                segments,
            } => Ok(ShipBatch {
                more,
                durable_lsn,
                first_available_lsn,
                segments,
            }),
            _ => Err(ClientError::Unexpected("SHIP")),
        }
    }

    /// Orderly goodbye; consumes the client.
    pub fn bye(mut self) -> ClientResult<()> {
        match self.call(&Request::Bye, "BYE")? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("BYE")),
        }
    }
}

/// A [`Replica`] fed over the wire: `DB_INFO` sizes it to match the
/// primary's page layout, then repeated `SHIP` rounds stream WAL segments
/// into the page-LSN-gated apply path (PROTOCOL.md §7).
pub struct NetReplica {
    replica: Replica,
}

impl NetReplica {
    /// Bootstrap a fresh replica shaped like the primary behind `client`.
    pub fn bootstrap(client: &mut Client, pool_frames: usize) -> ClientResult<NetReplica> {
        let info = client.db_info()?;
        let replica = Replica::new(info.pages, pool_frames, info.side_mode)
            .map_err(|e| ClientError::Replica(e.to_string()))?;
        Ok(NetReplica { replica })
    }

    /// The underlying replica (reads, applied LSN, metrics).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Catch up: ship-and-apply until the primary reports no more
    /// segments. Returns records applied. Records are applied only up to
    /// the primary's shipped durable LSN; a replica that fell behind the
    /// primary's recycling gets the replay's gap error.
    pub fn sync(&self, client: &mut Client) -> ClientResult<u64> {
        let mut total = 0u64;
        loop {
            let batch = client.ship(self.replica.applied_lsn(), 0)?;
            for seg in &batch.segments {
                total += self
                    .replica
                    .ingest_segment_bytes(
                        seg.first_lsn,
                        &seg.bytes,
                        seg.sealed,
                        Some(batch.durable_lsn),
                    )
                    .map_err(|e| ClientError::Replica(e.to_string()))?;
            }
            if !batch.more {
                return Ok(total);
            }
        }
    }
}
