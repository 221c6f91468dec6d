//! Storage substrate for the on-line B+-tree reorganization system.
//!
//! This crate provides everything below the tree: a fixed-size slotted
//! [`page::Page`] with the header fields the paper relies on (page LSN,
//! low mark, side pointers), pluggable [`disk::DiskManager`] backends with
//! I/O and seek accounting, a [`fsm::FreeSpaceMap`] that can answer the
//! placement heuristic's "first empty page in `(L, C)`" query (§6.1 of the
//! paper), and a [`buffer::BufferPool`] that enforces *careful writing*
//! ordering constraints \[LT95\] so that MOVE log records may carry keys only
//! (§5 of the paper).

pub mod buffer;
pub mod codec;
pub mod disk;
pub mod error;
pub mod faultdisk;
pub mod fsm;
pub mod page;

pub use buffer::{BufferPool, FrameGuard, WalFlush, MAX_POOL_SHARDS};
pub use disk::{DiskManager, DiskStats, FileDisk, InMemoryDisk};
pub use error::{StorageError, StorageResult};
pub use faultdisk::{DurabilityWitness, JournalDisk, JournalEventInfo};
pub use fsm::FreeSpaceMap;
pub use page::{Lsn, Page, PageId, PageType, HEADER_SIZE, PAGE_SIZE};
