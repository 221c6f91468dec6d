//! The lock manager: grant queues, conversions, instant-duration requests,
//! the RX "forgo" conflict action, and deadlock detection with the
//! reorganizer as preferred victim.

use obr_sync::atomic::{AtomicU64, Ordering};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

use obr_obs::{Counter, Histogram, Registry};
use obr_sync::{Condvar, Mutex};

use crate::mode::LockMode;

/// Identifies a lock owner (a transaction, a reader, or the reorganizer).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl fmt::Debug for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A lockable resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ResourceId {
    /// The large-granularity tree lock. The generation number makes the new
    /// tree's lock name distinct from the old tree's (§7.4).
    Tree(u32),
    /// A page (raw page-id value).
    Page(u32),
    /// A record key (record-level locking, incl. side-file entries).
    Key(u64),
    /// The side-file table lock (§7.2).
    SideFile,
}

/// Why a lock call failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockError {
    /// The request conflicts with a held RX lock: the paper's "forgo"
    /// action. The caller must release its parent base-page lock and fall
    /// back to an instant-duration RS request on it.
    ConflictsWithReorg,
    /// This requester was chosen as the deadlock victim.
    Deadlock,
    /// `try_lock` would have had to wait.
    WouldBlock,
    /// Waited longer than the configured timeout (test safety net).
    Timeout,
    /// The owner requested an unsupported lock conversion.
    BadUpgrade(LockMode, LockMode),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::ConflictsWithReorg => write!(f, "request forgone: conflicts with RX"),
            LockError::Deadlock => write!(f, "deadlock victim"),
            LockError::WouldBlock => write!(f, "would block"),
            LockError::Timeout => write!(f, "lock wait timed out"),
            LockError::BadUpgrade(a, b) => write!(f, "unsupported lock conversion {a} -> {b}"),
        }
    }
}

impl std::error::Error for LockError {}

/// Counters for experiment E4 and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Requests granted immediately.
    pub immediate_grants: u64,
    /// Requests that had to wait before being granted.
    pub waited_grants: u64,
    /// Requests forgone because they conflicted with a held RX.
    pub forgone: u64,
    /// Deadlock victims.
    pub deadlocks: u64,
    /// Instant-duration requests satisfied.
    pub instant_grants: u64,
    /// Total nanoseconds spent blocked across all waiters.
    pub wait_nanos: u64,
}

impl LockStats {
    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &LockStats) -> LockStats {
        LockStats {
            immediate_grants: self.immediate_grants - earlier.immediate_grants,
            waited_grants: self.waited_grants - earlier.waited_grants,
            forgone: self.forgone - earlier.forgone,
            deadlocks: self.deadlocks - earlier.deadlocks,
            instant_grants: self.instant_grants - earlier.instant_grants,
            wait_nanos: self.wait_nanos - earlier.wait_nanos,
        }
    }
}

#[derive(Debug)]
struct Waiter {
    owner: OwnerId,
    mode: LockMode,
    ticket: u64,
    /// Set by deadlock detection: this waiter must give up.
    victim: bool,
    /// Instant-duration request: return success when grantable, grant nothing.
    instant: bool,
}

#[derive(Debug, Default)]
struct ResQueue {
    granted: HashMap<OwnerId, LockMode>,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct State {
    resources: HashMap<ResourceId, ResQueue>,
    reorg_owners: HashSet<OwnerId>,
}

/// Per-manager metric handles. These atomics are the single source of
/// truth: [`LockManager::stats`] reads them, and
/// [`LockManager::register_metrics`] publishes the same handles into a
/// database's [`Registry`] so snapshots see identical numbers.
#[derive(Debug, Default)]
struct LockMetrics {
    immediate_grants: Counter,
    waited_grants: Counter,
    forgone: Counter,
    deadlocks: Counter,
    instant_grants: Counter,
    wait_nanos: Counter,
    wait_ns: Histogram,
}

/// The lock manager. One global table guarded by a mutex/condvar pair —
/// simple, correct, and fast enough for the scale of the experiments.
///
/// ```
/// use obr_lock::{LockManager, LockMode, OwnerId, ResourceId, LockError};
///
/// let m = LockManager::new();
/// let (reader, reorg) = (OwnerId(1), OwnerId(2));
/// // The reorganizer RX-locks a leaf; a reader's request is *forgone*.
/// m.lock(reorg, ResourceId::Page(7), LockMode::RX).unwrap();
/// assert_eq!(
///     m.lock(reader, ResourceId::Page(7), LockMode::S),
///     Err(LockError::ConflictsWithReorg)
/// );
/// // R on the base page coexists with readers' S locks.
/// m.lock(reorg, ResourceId::Page(1), LockMode::R).unwrap();
/// m.lock(reader, ResourceId::Page(1), LockMode::S).unwrap();
/// ```
pub struct LockManager {
    state: Mutex<State>,
    cv: Condvar,
    tickets: AtomicU64,
    timeout: Duration,
    metrics: LockMetrics,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Create a lock manager with the default 10-second wait timeout.
    pub fn new() -> LockManager {
        LockManager::with_timeout(Duration::from_secs(10))
    }

    /// Create a lock manager with a custom wait timeout.
    pub fn with_timeout(timeout: Duration) -> LockManager {
        LockManager {
            state: Mutex::named(State::default(), "lockmgr.state"),
            cv: Condvar::new(),
            tickets: AtomicU64::new(0),
            timeout,
            metrics: LockMetrics::default(),
        }
    }

    /// Publish this manager's counters into `reg` under the canonical
    /// `lock_*` names (see DESIGN.md "Observability"). The registry adopts
    /// the live handles, so later snapshots read the same atomics
    /// [`LockManager::stats`] reads.
    pub fn register_metrics(&self, reg: &Registry) {
        reg.register_counter("lock_grants_immediate", &self.metrics.immediate_grants);
        reg.register_counter("lock_grants_waited", &self.metrics.waited_grants);
        reg.register_counter("lock_forgone_rx", &self.metrics.forgone);
        reg.register_counter("lock_deadlocks", &self.metrics.deadlocks);
        reg.register_counter("lock_rs_instant_grants", &self.metrics.instant_grants);
        reg.register_counter("lock_wait_ns_total", &self.metrics.wait_nanos);
        reg.register_histogram("lock_wait_ns", &self.metrics.wait_ns);
    }

    /// Register `owner` as the reorganizer: it becomes the preferred
    /// deadlock victim (§4.1: "we always force the reorganizer to give up").
    pub fn register_reorganizer(&self, owner: OwnerId) {
        self.state.lock().reorg_owners.insert(owner);
    }

    /// Remove the reorganizer registration.
    pub fn unregister_reorganizer(&self, owner: OwnerId) {
        self.state.lock().reorg_owners.remove(&owner);
    }

    /// Counters snapshot (a view over the same atomics the metrics
    /// registry reads).
    pub fn stats(&self) -> LockStats {
        LockStats {
            immediate_grants: self.metrics.immediate_grants.get(),
            waited_grants: self.metrics.waited_grants.get(),
            forgone: self.metrics.forgone.get(),
            deadlocks: self.metrics.deadlocks.get(),
            instant_grants: self.metrics.instant_grants.get(),
            wait_nanos: self.metrics.wait_nanos.get(),
        }
    }

    /// Blocking lock acquisition (with conversion support).
    pub fn lock(&self, owner: OwnerId, res: ResourceId, mode: LockMode) -> Result<(), LockError> {
        self.lock_inner(
            owner, res, mode, /*try_only=*/ false, /*instant=*/ false,
        )
    }

    /// Non-blocking acquisition: fails with [`LockError::WouldBlock`]
    /// (or [`LockError::ConflictsWithReorg`]) instead of waiting.
    pub fn try_lock(
        &self,
        owner: OwnerId,
        res: ResourceId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        self.lock_inner(owner, res, mode, true, false)
    }

    /// Unconditional instant-duration request (\[Moh90\], §4): waits until the
    /// mode would be grantable, then returns success *without granting*.
    pub fn lock_instant(
        &self,
        owner: OwnerId,
        res: ResourceId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        self.lock_inner(owner, res, mode, false, true)
    }

    fn lock_inner(
        &self,
        owner: OwnerId,
        res: ResourceId,
        mode: LockMode,
        try_only: bool,
        instant: bool,
    ) -> Result<(), LockError> {
        let deadline = Instant::now() + self.timeout;
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        let mut enqueued = false;
        let wait_start = Instant::now();
        loop {
            match Self::check_grant(&mut st, owner, res, mode, ticket, enqueued, instant) {
                GrantCheck::Granted => {
                    if enqueued {
                        Self::remove_waiter(&mut st, res, ticket);
                        let waited = wait_start.elapsed().as_nanos() as u64;
                        self.metrics.wait_nanos.add(waited);
                        self.metrics.wait_ns.record(waited);
                        if instant {
                            self.metrics.instant_grants.inc();
                        } else {
                            self.metrics.waited_grants.inc();
                        }
                        // Others behind us may now be grantable too.
                        self.cv.notify_all();
                    } else if instant {
                        self.metrics.instant_grants.inc();
                    } else {
                        self.metrics.immediate_grants.inc();
                    }
                    return Ok(());
                }
                GrantCheck::ConflictsWithRx => {
                    if enqueued {
                        Self::remove_waiter(&mut st, res, ticket);
                        self.cv.notify_all();
                    }
                    self.metrics.forgone.inc();
                    return Err(LockError::ConflictsWithReorg);
                }
                GrantCheck::BadUpgrade(a, b) => {
                    if enqueued {
                        Self::remove_waiter(&mut st, res, ticket);
                        self.cv.notify_all();
                    }
                    return Err(LockError::BadUpgrade(a, b));
                }
                GrantCheck::MustWait => {
                    if try_only {
                        return Err(LockError::WouldBlock);
                    }
                    if !enqueued {
                        st.resources.entry(res).or_default().waiters.push(Waiter {
                            owner,
                            mode,
                            ticket,
                            victim: false,
                            instant,
                        });
                        enqueued = true;
                    }
                    // Deadlock detection before sleeping.
                    if let Some(victim_ticket) = Self::find_deadlock_victim(&st, owner, res) {
                        if victim_ticket == ticket {
                            Self::remove_waiter(&mut st, res, ticket);
                            self.metrics.deadlocks.inc();
                            self.cv.notify_all();
                            return Err(LockError::Deadlock);
                        }
                        Self::mark_victim(&mut st, victim_ticket);
                        self.cv.notify_all();
                        // Loop around: the victim will dequeue itself.
                    }
                    let timed_out = self.cv.wait_until(&mut st, deadline).timed_out();
                    // Were we chosen as a victim while sleeping?
                    if Self::is_victim(&st, res, ticket) {
                        Self::remove_waiter(&mut st, res, ticket);
                        self.metrics.deadlocks.inc();
                        self.cv.notify_all();
                        return Err(LockError::Deadlock);
                    }
                    if timed_out {
                        Self::remove_waiter(&mut st, res, ticket);
                        self.cv.notify_all();
                        return Err(LockError::Timeout);
                    }
                }
            }
        }
    }

    /// Release `owner`'s lock on `res`.
    pub fn unlock(&self, owner: OwnerId, res: ResourceId) {
        let mut st = self.state.lock();
        if let Some(q) = st.resources.get_mut(&res) {
            q.granted.remove(&owner);
            if q.granted.is_empty() && q.waiters.is_empty() {
                st.resources.remove(&res);
            }
        }
        self.cv.notify_all();
    }

    /// Release everything `owner` holds. Returns the resources released.
    pub fn release_all(&self, owner: OwnerId) -> Vec<ResourceId> {
        let mut st = self.state.lock();
        let mut released = Vec::new();
        st.resources.retain(|res, q| {
            if q.granted.remove(&owner).is_some() {
                released.push(*res);
            }
            !(q.granted.is_empty() && q.waiters.is_empty())
        });
        self.cv.notify_all();
        released
    }

    /// Downgrade `owner`'s lock on `res` to `mode` (e.g. S -> IS after
    /// reading a page while keeping record locks).
    pub fn downgrade(&self, owner: OwnerId, res: ResourceId, mode: LockMode) {
        let mut st = self.state.lock();
        if let Some(q) = st.resources.get_mut(&res) {
            if let Some(held) = q.granted.get_mut(&owner) {
                *held = mode;
            }
        }
        self.cv.notify_all();
    }

    /// Mode `owner` currently holds on `res`.
    pub fn held_mode(&self, owner: OwnerId, res: ResourceId) -> Option<LockMode> {
        self.state
            .lock()
            .resources
            .get(&res)
            .and_then(|q| q.granted.get(&owner).copied())
    }

    /// All `(owner, mode)` pairs granted on `res`.
    pub fn holders(&self, res: ResourceId) -> Vec<(OwnerId, LockMode)> {
        self.state
            .lock()
            .resources
            .get(&res)
            .map(|q| {
                let mut v: Vec<_> = q.granted.iter().map(|(o, m)| (*o, *m)).collect();
                v.sort_by_key(|(o, _)| *o);
                v
            })
            .unwrap_or_default()
    }

    /// All `(owner, mode)` pairs queued on `res`, oldest first. Lets a test
    /// tell that a thread has reached its lock wait without sleeping.
    pub fn waiting(&self, res: ResourceId) -> Vec<(OwnerId, LockMode)> {
        self.state
            .lock()
            .resources
            .get(&res)
            .map(|q| q.waiters.iter().map(|w| (w.owner, w.mode)).collect())
            .unwrap_or_default()
    }

    /// Resources `owner` currently holds locks on.
    pub fn held_resources(&self, owner: OwnerId) -> Vec<ResourceId> {
        self.state
            .lock()
            .resources
            .iter()
            .filter(|(_, q)| q.granted.contains_key(&owner))
            .map(|(r, _)| *r)
            .collect()
    }

    fn check_grant(
        st: &mut State,
        owner: OwnerId,
        res: ResourceId,
        mode: LockMode,
        ticket: u64,
        enqueued: bool,
        instant: bool,
    ) -> GrantCheck {
        let q = st.resources.entry(res).or_default();
        let held = q.granted.get(&owner).copied();
        // Already covered: nothing to do.
        if let Some(h) = held {
            if h.covers(mode) {
                return GrantCheck::Granted;
            }
        }
        let target = match held {
            Some(h) => match h.join(mode) {
                Some(t) => t,
                None => return GrantCheck::BadUpgrade(h, mode),
            },
            None => mode,
        };
        // Compatible with every *other* granted lock?
        let mut conflicts_with_rx = false;
        let compatible_with_granted = q.granted.iter().all(|(o, m)| {
            if *o == owner {
                return true;
            }
            let ok = m.compatible_with(target);
            if !ok && *m == LockMode::RX {
                conflicts_with_rx = true;
            }
            ok
        });
        if !compatible_with_granted {
            // The paper's RX conflict action: forgo, do not queue. The
            // reorganizer itself (requesting RX against another RX of its
            // own) was already filtered by the `*o == owner` arm.
            if conflicts_with_rx {
                return GrantCheck::ConflictsWithRx;
            }
            return GrantCheck::MustWait;
        }
        // Conversions jump the queue (standard, and required for the
        // reorganizer's R -> X upgrade not to deadlock with its own waiters).
        let is_conversion = held.is_some();
        if !is_conversion {
            // Fairness: do not overtake earlier conflicting waiters.
            let blocked_by_waiter = q.waiters.iter().any(|w| {
                let ahead = if enqueued { w.ticket < ticket } else { true };
                // Instant-duration waiters grant nothing, so they never gate
                // later requests.
                ahead
                    && !w.instant
                    && w.owner != owner
                    && !w.victim
                    && !(w.mode.compatible_with(target) && target.compatible_with(w.mode))
            });
            if blocked_by_waiter {
                return GrantCheck::MustWait;
            }
        }
        if !instant {
            q.granted.insert(owner, target);
        }
        GrantCheck::Granted
    }

    fn remove_waiter(st: &mut State, res: ResourceId, ticket: u64) {
        if let Some(q) = st.resources.get_mut(&res) {
            q.waiters.retain(|w| w.ticket != ticket);
            if q.granted.is_empty() && q.waiters.is_empty() {
                st.resources.remove(&res);
            }
        }
    }

    fn mark_victim(st: &mut State, ticket: u64) {
        for q in st.resources.values_mut() {
            for w in &mut q.waiters {
                if w.ticket == ticket {
                    w.victim = true;
                    return;
                }
            }
        }
    }

    fn is_victim(st: &State, res: ResourceId, ticket: u64) -> bool {
        st.resources
            .get(&res)
            .map(|q| q.waiters.iter().any(|w| w.ticket == ticket && w.victim))
            .unwrap_or(false)
    }

    /// Build the waits-for graph and look for a cycle through `owner`'s wait
    /// on `res`. Returns the *ticket* of the chosen victim when a cycle is
    /// found: the reorganizer's waiting request if one is in the cycle,
    /// otherwise the requester's own.
    fn find_deadlock_victim(st: &State, owner: OwnerId, res: ResourceId) -> Option<u64> {
        // waits-for: waiting owner -> owners it waits on.
        let mut edges: HashMap<OwnerId, HashSet<OwnerId>> = HashMap::new();
        for q in st.resources.values() {
            for w in &q.waiters {
                if w.victim {
                    continue;
                }
                let deps = edges.entry(w.owner).or_default();
                for (o, m) in &q.granted {
                    if *o != w.owner && !m.compatible_with(w.mode) {
                        deps.insert(*o);
                    }
                }
                // Earlier conflicting waiters also block us (fairness rule).
                for v in &q.waiters {
                    if v.ticket < w.ticket && v.owner != w.owner && !v.victim {
                        let conflict =
                            !(v.mode.compatible_with(w.mode) && w.mode.compatible_with(v.mode));
                        if conflict {
                            deps.insert(v.owner);
                        }
                    }
                }
            }
        }
        // DFS from `owner` looking for a cycle back to `owner`.
        let mut cycle: Vec<OwnerId> = Vec::new();
        let mut visited: HashSet<OwnerId> = HashSet::new();
        if !Self::dfs_cycle(&edges, owner, owner, &mut visited, &mut cycle) {
            return None;
        }
        cycle.push(owner);
        // Victim preference: a reorganizer in the cycle that is waiting.
        for o in &cycle {
            if st.reorg_owners.contains(o) {
                if let Some(t) = Self::waiting_ticket_of(st, *o) {
                    return Some(t);
                }
            }
        }
        // Otherwise pick deterministically — the youngest waiting request in
        // the cycle — so concurrent detectors agree on a single victim.
        let _ = res;
        cycle
            .iter()
            .filter_map(|o| Self::waiting_ticket_of(st, *o))
            .max()
    }

    fn dfs_cycle(
        edges: &HashMap<OwnerId, HashSet<OwnerId>>,
        start: OwnerId,
        at: OwnerId,
        visited: &mut HashSet<OwnerId>,
        cycle: &mut Vec<OwnerId>,
    ) -> bool {
        if let Some(next) = edges.get(&at) {
            for &n in next {
                if n == start {
                    return true;
                }
                if visited.insert(n) && Self::dfs_cycle(edges, start, n, visited, cycle) {
                    cycle.push(n);
                    return true;
                }
            }
        }
        false
    }

    fn waiting_ticket_of(st: &State, owner: OwnerId) -> Option<u64> {
        for q in st.resources.values() {
            for w in &q.waiters {
                if w.owner == owner && !w.victim {
                    return Some(w.ticket);
                }
            }
        }
        None
    }

    /// Internal consistency check (tests/diagnostics): every pair of locks
    /// granted on the same resource to *different* owners must be mutually
    /// compatible. Returns the violations found.
    pub fn validate_invariants(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut violations = Vec::new();
        for (res, q) in &st.resources {
            let granted: Vec<(OwnerId, LockMode)> =
                q.granted.iter().map(|(o, m)| (*o, *m)).collect();
            for (i, &(o1, m1)) in granted.iter().enumerate() {
                for &(o2, m2) in &granted[i + 1..] {
                    if o1 != o2 && !(m1.compatible_with(m2) && m2.compatible_with(m1)) {
                        violations.push(format!(
                            "{res:?}: {o1} holds {m1} alongside {o2} holding {m2}"
                        ));
                    }
                }
            }
            // No waiter may be marked granted.
            for w in &q.waiters {
                if q.granted.contains_key(&w.owner) && q.granted[&w.owner] == w.mode {
                    violations.push(format!(
                        "{res:?}: {} both granted and waiting for {}",
                        w.owner, w.mode
                    ));
                }
            }
        }
        violations
    }

    /// Render the realized compatibility matrix (experiment E1). Cells the
    /// paper leaves blank print as `-`.
    pub fn compatibility_table() -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{:>8} |", "granted");
        for r in LockMode::ALL {
            let _ = write!(out, "{r:>4}");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{}", "-".repeat(10 + 4 * LockMode::ALL.len()));
        for g in LockMode::GRANTABLE {
            let _ = write!(out, "{g:>8} |");
            for r in LockMode::ALL {
                let cell = if !g.compatibility_is_defined(r) {
                    "-"
                } else if g.compatible_with(r) {
                    "Yes"
                } else {
                    "No"
                };
                let _ = write!(out, "{cell:>4}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[derive(Debug)]
enum GrantCheck {
    Granted,
    MustWait,
    ConflictsWithRx,
    BadUpgrade(LockMode, LockMode),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use LockMode::*;

    const PAGE: ResourceId = ResourceId::Page(1);
    const BASE: ResourceId = ResourceId::Page(100);

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::with_timeout(Duration::from_secs(5)))
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, S).unwrap();
        m.lock(OwnerId(2), PAGE, S).unwrap();
        assert_eq!(m.holders(PAGE).len(), 2);
    }

    #[test]
    fn x_blocks_until_release() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, S).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.lock(OwnerId(2), PAGE, X));
        thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished());
        m.unlock(OwnerId(1), PAGE);
        h.join().unwrap().unwrap();
        assert_eq!(m.held_mode(OwnerId(2), PAGE), Some(X));
    }

    #[test]
    fn rx_conflict_is_forgone_not_queued() {
        let m = mgr();
        m.lock(OwnerId(9), PAGE, RX).unwrap();
        // A reader's S request must come back immediately with the signal.
        let start = Instant::now();
        let err = m.lock(OwnerId(1), PAGE, S).unwrap_err();
        assert_eq!(err, LockError::ConflictsWithReorg);
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(m.stats().forgone, 1);
        // An updater's X and IX requests too.
        assert_eq!(
            m.lock(OwnerId(2), PAGE, X).unwrap_err(),
            LockError::ConflictsWithReorg
        );
        assert_eq!(
            m.lock(OwnerId(3), PAGE, IX).unwrap_err(),
            LockError::ConflictsWithReorg
        );
    }

    #[test]
    fn r_and_s_share_a_base_page() {
        let m = mgr();
        m.lock(OwnerId(9), BASE, R).unwrap();
        m.lock(OwnerId(1), BASE, S).unwrap();
        // And in the other order.
        let m2 = mgr();
        m2.lock(OwnerId(1), BASE, S).unwrap();
        m2.lock(OwnerId(9), BASE, R).unwrap();
    }

    #[test]
    fn instant_rs_waits_for_reorganizer_and_grants_nothing() {
        let m = mgr();
        m.lock(OwnerId(9), BASE, R).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.lock_instant(OwnerId(1), BASE, RS));
        thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "RS must wait while R is held");
        m.unlock(OwnerId(9), BASE);
        h.join().unwrap().unwrap();
        // Instant duration: nothing is actually held afterwards.
        assert_eq!(m.held_mode(OwnerId(1), BASE), None);
        assert_eq!(m.stats().instant_grants, 1);
    }

    #[test]
    fn instant_rs_passes_through_plain_readers() {
        let m = mgr();
        m.lock(OwnerId(1), BASE, S).unwrap();
        // Another reader holding S must not block RS.
        m.lock_instant(OwnerId(2), BASE, RS).unwrap();
    }

    #[test]
    fn r_upgrades_to_x_when_readers_leave() {
        let m = mgr();
        m.lock(OwnerId(9), BASE, R).unwrap();
        m.lock(OwnerId(1), BASE, S).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.lock(OwnerId(9), BASE, X));
        thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "upgrade must wait for the reader");
        m.unlock(OwnerId(1), BASE);
        h.join().unwrap().unwrap();
        assert_eq!(m.held_mode(OwnerId(9), BASE), Some(X));
    }

    #[test]
    fn reacquiring_covered_mode_is_noop() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, X).unwrap();
        m.lock(OwnerId(1), PAGE, S).unwrap();
        m.lock(OwnerId(1), PAGE, X).unwrap();
        assert_eq!(m.held_mode(OwnerId(1), PAGE), Some(X));
        m.unlock(OwnerId(1), PAGE);
        assert_eq!(m.held_mode(OwnerId(1), PAGE), None);
    }

    #[test]
    fn try_lock_reports_would_block() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, X).unwrap();
        assert_eq!(
            m.try_lock(OwnerId(2), PAGE, S).unwrap_err(),
            LockError::WouldBlock
        );
    }

    #[test]
    fn release_all_frees_every_resource() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, S).unwrap();
        m.lock(OwnerId(1), BASE, S).unwrap();
        m.lock(OwnerId(1), ResourceId::Key(7), X).unwrap();
        let mut released = m.release_all(OwnerId(1));
        released.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(released.len(), 3);
        assert_eq!(m.held_mode(OwnerId(1), PAGE), None);
    }

    #[test]
    fn downgrade_lets_writers_in() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, S).unwrap();
        m.downgrade(OwnerId(1), PAGE, IS);
        // IX is compatible with IS.
        m.lock(OwnerId(2), PAGE, IX).unwrap();
    }

    #[test]
    fn fairness_no_overtaking_a_waiting_x() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, S).unwrap();
        let m2 = Arc::clone(&m);
        let hx = thread::spawn(move || m2.lock(OwnerId(2), PAGE, X));
        thread::sleep(Duration::from_millis(50));
        // A new S request must not starve the waiting X.
        let m3 = Arc::clone(&m);
        let hs = thread::spawn(move || m3.lock(OwnerId(3), PAGE, S));
        thread::sleep(Duration::from_millis(50));
        assert!(!hs.is_finished(), "S must queue behind the waiting X");
        m.unlock(OwnerId(1), PAGE);
        hx.join().unwrap().unwrap();
        m.unlock(OwnerId(2), PAGE);
        hs.join().unwrap().unwrap();
    }

    #[test]
    fn deadlock_victimizes_the_reorganizer() {
        let m = mgr();
        m.register_reorganizer(OwnerId(9));
        let a = ResourceId::Page(1);
        let b = ResourceId::Page(2);
        // User transaction holds A; reorganizer holds B.
        m.lock(OwnerId(1), a, X).unwrap();
        m.lock(OwnerId(9), b, X).unwrap();
        // Reorganizer waits for A.
        let m2 = Arc::clone(&m);
        let h9 = thread::spawn(move || m2.lock(OwnerId(9), a, X));
        thread::sleep(Duration::from_millis(50));
        // User transaction now waits for B: deadlock; reorganizer must lose.
        let m3 = Arc::clone(&m);
        let h1 = thread::spawn(move || m3.lock(OwnerId(1), b, X));
        let r9 = h9.join().unwrap();
        assert_eq!(r9.unwrap_err(), LockError::Deadlock);
        // The user transaction gets B once the reorganizer (per §4.1) gives
        // up its locks.
        m.release_all(OwnerId(9));
        h1.join().unwrap().unwrap();
        assert_eq!(m.stats().deadlocks, 1);
    }

    #[test]
    fn deadlock_between_users_victimizes_a_requester() {
        let m = mgr();
        let a = ResourceId::Page(1);
        let b = ResourceId::Page(2);
        m.lock(OwnerId(1), a, X).unwrap();
        m.lock(OwnerId(2), b, X).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.lock(OwnerId(1), b, X));
        thread::sleep(Duration::from_millis(50));
        // Owner 2's request is the youngest in the cycle: it is the victim.
        let r2 = m.lock(OwnerId(2), a, X);
        assert_eq!(r2.unwrap_err(), LockError::Deadlock);
        // Aborting the victim releases its locks; the survivor proceeds.
        m.release_all(OwnerId(2));
        h.join().unwrap().unwrap();
        assert_eq!(m.stats().deadlocks, 1);
    }

    #[test]
    fn timeout_fires_instead_of_hanging() {
        let m = Arc::new(LockManager::with_timeout(Duration::from_millis(100)));
        m.lock(OwnerId(1), PAGE, X).unwrap();
        let err = m.lock(OwnerId(2), PAGE, S).unwrap_err();
        assert_eq!(err, LockError::Timeout);
    }

    #[test]
    fn bad_upgrade_is_reported() {
        let m = mgr();
        m.lock(OwnerId(1), PAGE, RX).unwrap();
        assert!(matches!(
            m.lock(OwnerId(1), PAGE, IS).unwrap_err(),
            LockError::BadUpgrade(RX, IS)
        ));
    }

    #[test]
    fn distinct_tree_locks_do_not_interfere() {
        // §7.4: the new tree has a lock name distinct from the old tree.
        let m = mgr();
        m.lock(OwnerId(1), ResourceId::Tree(0), X).unwrap();
        m.lock(OwnerId(2), ResourceId::Tree(1), X).unwrap();
    }

    #[test]
    fn compatibility_table_prints_all_rows() {
        let t = LockManager::compatibility_table();
        for g in LockMode::GRANTABLE {
            assert!(t.contains(&g.to_string()));
        }
        assert!(t.contains("Yes"));
        assert!(t.contains("No"));
        assert!(t.contains('-'));
    }

    #[test]
    fn invariants_hold_under_mixed_mode_stress() {
        let m = mgr();
        m.register_reorganizer(OwnerId(100));
        let stop = obr_sync::atomic::AtomicBool::new(false);
        let violations = obr_sync::Mutex::new(Vec::new());
        thread::scope(|s| {
            // A checker thread samples the invariant continuously.
            let m1 = &m;
            let stop1 = &stop;
            let violations1 = &violations;
            s.spawn(move || {
                let m = m1;
                let stop = stop1;
                let violations = violations1;
                while !stop.load(obr_sync::atomic::Ordering::Relaxed) {
                    let v = m.validate_invariants();
                    if !v.is_empty() {
                        violations.lock().extend(v);
                        stop.store(true, obr_sync::atomic::Ordering::Relaxed);
                    }
                }
            });
            // A "reorganizer" cycling R -> RX -> X upgrades.
            let m2 = &m;
            let stop2 = &stop;
            s.spawn(move || {
                let m = m2;
                let stop = stop2;
                for i in 0..300u32 {
                    let base = ResourceId::Page(i % 4);
                    let leaf = ResourceId::Page(100 + (i % 8));
                    let o = OwnerId(100);
                    if m.lock(o, base, R).is_ok()
                        && m.lock(o, leaf, RX).is_ok()
                        && m.lock(o, base, X).is_ok()
                    {
                        // moved records, modified base
                    }
                    m.release_all(o);
                }
                stop.store(true, obr_sync::atomic::Ordering::Relaxed);
            });
            // Reader/updater threads with the forgo-then-RS protocol.
            for t in 0..4u64 {
                let m3 = &m;
                let stop3 = &stop;
                s.spawn(move || {
                    let m = m3;
                    let stop = stop3;
                    let o = OwnerId(t + 1);
                    let mut i = t;
                    while !stop.load(obr_sync::atomic::Ordering::Relaxed) {
                        i += 1;
                        let base = ResourceId::Page((i % 4) as u32);
                        let leaf = ResourceId::Page(100 + (i % 8) as u32);
                        let mode = if i % 2 == 0 { S } else { IX };
                        if m.lock(o, base, S).is_ok() {
                            match m.lock(o, leaf, mode) {
                                Ok(()) => {}
                                Err(LockError::ConflictsWithReorg) => {
                                    m.unlock(o, base);
                                    let _ = m.lock_instant(o, base, RS);
                                }
                                Err(_) => {}
                            }
                        }
                        m.release_all(o);
                    }
                });
            }
        });
        let v = violations.into_inner();
        assert!(v.is_empty(), "invariant violations: {v:?}");
    }

    #[test]
    fn stress_many_owners_many_resources() {
        let m = mgr();
        thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let res = ResourceId::Page(((t * 7 + i) % 16) as u32);
                        let mode = if i % 3 == 0 { X } else { S };
                        match m.lock(OwnerId(t + 1), res, mode) {
                            Ok(()) => m.unlock(OwnerId(t + 1), res),
                            Err(LockError::Deadlock) | Err(LockError::Timeout) => {
                                m.release_all(OwnerId(t + 1));
                            }
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                });
            }
        });
        // Nothing left behind.
        for p in 0..16 {
            assert!(m.holders(ResourceId::Page(p)).is_empty());
        }
    }
}
