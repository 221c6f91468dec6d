//! The lock manager of §4 of the paper.
//!
//! Beyond the classical IS/IX/S/X modes, the paper introduces three modes:
//!
//! * **R** — held by the reorganizer on base pages while it reads them;
//!   compatible with S so readers keep flowing.
//! * **RX** — held by the reorganizer on the leaf pages of a reorganization
//!   unit. Incompatible with everything, and *different from X in the lock
//!   manager's conflict action*: a request conflicting with a held RX is
//!   **forgone** — the requester gets [`LockError::ConflictsWithReorg`] back
//!   immediately instead of queueing, releases what it holds, and falls back
//!   to an instant-duration RS request on the parent base page.
//! * **RS** — an *unconditional instant-duration* mode (\[Moh90\]): never
//!   actually granted; the call returns success only once the mode would be
//!   grantable, i.e. once the reorganizer has released its R/X lock on the
//!   base page. Incompatible with R (and X), compatible with other readers.
//!
//! Deadlock handling follows §4.1: the reorganizer is always the victim.

pub mod manager;
pub mod mode;

pub use manager::{LockError, LockManager, OwnerId, ResourceId};
pub use mode::LockMode;
