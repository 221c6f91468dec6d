//! The paper's contribution: on-line reorganization of sparsely-populated
//! B+-trees (Salzberg & Zou, SIGMOD 1996).
//!
//! * [`reorg::Reorganizer`] — the three-pass algorithm: pass 1 compacts
//!   leaves (in-place compaction + new-place copy-and-switch with the §6.1
//!   placement heuristic), pass 2 optionally moves leaves into physical
//!   key order with the same one-leaf units, pass 3 rebuilds the upper levels bottom-up behind a
//!   side file and switches trees (§7.4).
//! * [`recovery`] — ARIES-style redo + transaction undo, plus the paper's
//!   **Forward Recovery**: an interrupted reorganization unit is finished,
//!   not rolled back (§5.1), and an interrupted pass 3 resumes from the last
//!   stable key (§7.3).
//! * [`db::Database`] — the assembled engine: disk, buffer pool with careful
//!   writing, WAL, lock manager, free-space map, tree, reorganization state
//!   table, and crash simulation.
//! * [`sidefile::SideFile`] — the §7.2 side file.

pub mod admission;
pub mod daemon;
pub mod db;
pub mod error;
mod metrics;
pub mod pass3;
pub mod recovery;
pub mod reorg;
pub mod replica;
pub mod sidefile;
pub mod stats;

pub use admission::{AdmissionGate, Busy, RequestPermit, SessionPermit};
pub use daemon::{DaemonOptions, ReorgDaemon};
pub use db::{Database, EngineConfig};
pub use error::{CoreError, CoreResult};
pub use pass3::{NewTreeEditor, Pass3Observer, STABLE_ALL_READ};
pub use recovery::{recover, roll_back, RecoveryReport};
pub use reorg::{
    FailPoint, FailSite, LogStrategy, PlacementPolicy, ReorgConfig, ReorgDecision, ReorgStats,
    ReorgTrigger, Reorganizer,
};
pub use replica::Replica;
pub use sidefile::{SideEntry, SideFile, SideOp};
pub use stats::DatabaseStats;
