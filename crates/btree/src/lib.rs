//! The primary B+-tree the reorganizer operates on.
//!
//! This is the tree variant the paper assumes (§2): an internal node with
//! `n` keys has `n` children (each entry is a *low key* plus a child
//! pointer); leaf pages contain the data records, because the tree is the
//! primary index; deletes follow the **free-at-empty** policy of \[JS93\] —
//! sparse nodes are never consolidated, only completely empty pages are
//! deallocated; and leaves optionally carry side pointers (§4.3).
//!
//! Concurrency split: this crate does *physical* synchronization (page
//! latches plus a single structure-modification mutex); the *logical* lock
//! protocols of §4.1 (lock-coupling, RX fallback, safe-node restarts) are
//! implemented by `obr-txn` on top. Structure modifications (splits,
//! free-at-empty deallocations, root growth) are logged as atomic [`Smo`]
//! records carrying full page images, all built by [`log_smo`]; record inserts, deletes and in-place
//! updates are logged logically with per-transaction prev-LSN chains.
//! Every record changes its pages through the one [`apply`] of its kind,
//! whether the writer runs live, compensates, finishes a unit after a
//! crash, or replays the log.
//!
//! [`Smo`]: obr_wal::LogRecord::Smo

pub mod apply;
pub mod builder;
pub mod error;
pub mod leaf;
pub mod meta;
pub mod node;
pub mod stats;
pub mod tree;

pub use builder::UpperBuilder;
pub use error::{BTreeError, BTreeResult};
pub use leaf::LeafView;
pub use meta::MetaView;
pub use node::NodeView;
pub use stats::TreeStats;
pub use tree::{log_smo, BTree, SidePointerMode, SmoGuard, SmoObserver};
