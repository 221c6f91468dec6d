//! Write-ahead logging for the on-line reorganization system.
//!
//! The log record vocabulary follows §5 of the paper: a reorganization
//! *unit* writes `BEGIN`, one `MOVE` per source page (optionally carrying
//! keys only, under careful writing), `MODIFY` for the base-page key/pointer
//! changes, and `END`. Swaps log one full page image — the paper observes
//! there is no way to avoid that, because careful writing would need a
//! cyclic write order. Pass 3 adds *stable key* records (§7.3) and the final
//! switch record (§7.4). Ordinary transactions log logical record operations
//! with prev-LSN chains for undo, and structure modifications (splits, root
//! growth) log full page images as atomic system actions.
//!
//! [`ReorgStateTable`] is the paper's tiny in-memory system table: LK (the
//! largest key of the last finished unit), and the BEGIN/most-recent LSNs of
//! the at-most-one in-flight unit. It is copied into every checkpoint.

pub mod log;
pub mod reader;
pub mod record;
pub mod reorg_table;
pub mod segment;

pub use log::{LogManager, LogStats};
pub use reader::{LogReader, ScanOutcome, TornReason, TornTail};
pub use record::{
    CheckpointData, LogRecord, MovePayload, Pass3State, ReorgKind, ReorgTableSnapshot, TxnId,
    UnitId,
};
pub use reorg_table::ReorgStateTable;
pub use segment::{SegmentFault, SegmentMeta, SegmentRead, SegmentReader};
