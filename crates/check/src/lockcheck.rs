//! Lock-protocol model checker.
//!
//! Three independent proofs, none of which runs a workload:
//!
//! 1. **Table-1 conformance** — [`TABLE1`] is a declarative transcription
//!    of the paper's compatibility matrix (§4, Table 1), including which
//!    cells the paper leaves blank. Every `granted x requested` pair in
//!    `LockMode::GRANTABLE x LockMode::ALL` is compared against
//!    `LockMode::compatible_with` and `LockMode::compatibility_is_defined`;
//!    any divergence is a finding (and the `table1_matches_implementation`
//!    test turns it into a build failure).
//! 2. **Semantic properties** — compatibility is symmetric where defined,
//!    `RS` is instant-duration and never grantable, and a request hitting
//!    a held `RX` is *forgone* (rejected immediately, never queued),
//!    verified against a real [`LockManager`] instance.
//! 3. **Deadlock-freedom of the acquisition order** — the lock sequences
//!    of the reorganizer's unit protocols (§4.1.1), the user-transaction
//!    protocols (§4.1.2/§4.1.3), and the Pass-3 switch (§7.4) are encoded
//!    declaratively in [`protocol_sequences`]; the checker builds the
//!    resource-class acquisition-order graph over all *blocking*
//!    acquisitions and proves it acyclic, so no set of protocol-following
//!    requesters can wait on each other in a cycle.

use obr_lock::{LockError, LockManager, LockMode, OwnerId, ResourceId};

use crate::report::Report;

/// Name this checker stamps on findings.
const CHECKER: &str = "locks";

/// One cell of the paper's Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cell {
    /// The pair is compatible.
    Yes,
    /// The pair conflicts.
    No,
    /// The paper leaves the cell blank: the two modes are never requested
    /// on the same resource by different requesters.
    Blank,
}

use Cell::{Blank, No, Yes};

/// The paper's Table 1, transcribed declaratively. Rows are the *granted*
/// mode in [`LockMode::GRANTABLE`] order (IS, IX, S, X, R, RX); columns are
/// the *requested* mode in [`LockMode::ALL`] order (IS, IX, S, X, R, RX,
/// RS). This is deliberately independent from
/// [`LockMode::compatible_with`]'s match arms so that a drift in either is
/// caught.
pub const TABLE1: [[Cell; 7]; 6] = [
    //         IS     IX     S      X      R      RX     RS
    /* IS */
    [Yes, Yes, Yes, No, Blank, No, Blank],
    /* IX */ [Yes, Yes, No, No, Blank, No, Blank],
    /* S  */ [Yes, No, Yes, No, Yes, No, Yes],
    /* X  */ [No, No, No, No, No, No, No],
    /* R  */ [Blank, Blank, Yes, No, Yes, No, No],
    /* RX */ [No, No, No, No, Blank, No, Blank],
];

/// Compare the implementation's compatibility matrix against [`TABLE1`].
pub fn check_compat_matrix() -> Report {
    let mut report = Report::new();
    for (gi, &granted) in LockMode::GRANTABLE.iter().enumerate() {
        for (ri, &requested) in LockMode::ALL.iter().enumerate() {
            let cell = TABLE1[gi][ri];
            let defined = granted.compatibility_is_defined(requested);
            let compatible = granted.compatible_with(requested);
            match cell {
                Blank => {
                    if defined {
                        report.error(
                            CHECKER,
                            "table1-blank-cell",
                            None,
                            None,
                            format!(
                                "({granted:?} granted, {requested:?} requested) is blank \
                                 in Table 1 but compatibility_is_defined returns true"
                            ),
                        );
                    }
                }
                Yes | No => {
                    if !defined {
                        report.error(
                            CHECKER,
                            "table1-defined-cell",
                            None,
                            None,
                            format!(
                                "({granted:?} granted, {requested:?} requested) is filled \
                                 in Table 1 but compatibility_is_defined returns false"
                            ),
                        );
                    }
                    let expect = cell == Yes;
                    if compatible != expect {
                        report.error(
                            CHECKER,
                            "table1-divergence",
                            None,
                            None,
                            format!(
                                "compatible_with({granted:?}, {requested:?}) = {compatible}, \
                                 Table 1 says {expect}"
                            ),
                        );
                    }
                }
            }
        }
    }
    // Symmetry where both orders are defined between grantable modes.
    for &a in &LockMode::GRANTABLE {
        for &b in &LockMode::GRANTABLE {
            if a.compatibility_is_defined(b) && b.compatibility_is_defined(a) {
                let ab = a.compatible_with(b);
                let ba = b.compatible_with(a);
                if ab != ba {
                    report.error(
                        CHECKER,
                        "compat-asymmetry",
                        None,
                        None,
                        format!(
                            "compatible_with({a:?}, {b:?}) = {ab} but \
                             compatible_with({b:?}, {a:?}) = {ba}"
                        ),
                    );
                }
            }
        }
    }
    if LockMode::GRANTABLE.contains(&LockMode::RS) {
        report.error(
            CHECKER,
            "rs-grantable",
            None,
            None,
            "RS is instant-duration and must never appear in GRANTABLE",
        );
    }
    report.note(format!(
        "compared {} Table-1 cells against LockMode::compatible_with",
        LockMode::GRANTABLE.len() * LockMode::ALL.len()
    ));
    report
}

/// Verify the RX *forgone* conflict action and RS instant-duration
/// semantics against a live [`LockManager`].
pub fn check_conflict_actions() -> Report {
    let mut report = Report::new();
    let m = LockManager::new();
    let reorg = OwnerId(1);
    let user = OwnerId(2);
    let leaf = ResourceId::Page(7);
    m.register_reorganizer(reorg);
    if m.lock(reorg, leaf, LockMode::RX).is_err() {
        report.error(
            CHECKER,
            "rx-grant",
            None,
            None,
            "RX grant on a free page failed",
        );
        return report;
    }
    // A conflicting request must be forgone: an immediate error, no queue.
    match m.lock(user, leaf, LockMode::S) {
        Err(LockError::ConflictsWithReorg) => {}
        other => {
            report.error(
                CHECKER,
                "rx-not-forgone",
                None,
                None,
                format!(
                    "S request against a held RX must be forgone with \
                     ConflictsWithReorg, got {other:?}"
                ),
            );
        }
    }
    // Metric-value assertions are meaningless when the observability layer
    // is compiled to no-ops; the behavioural check above still ran.
    let reg = obr_obs::Registry::new();
    m.register_metrics(&reg);
    let forgone = reg.snapshot().counter("lock_forgone_rx");
    if !obr_obs::is_noop() && forgone != 1 {
        report.error(
            CHECKER,
            "forgone-uncounted",
            None,
            None,
            format!("expected 1 forgone request, lock_forgone_rx says {forgone}"),
        );
    }
    if m.holders(leaf).iter().any(|&(o, _)| o == user) {
        report.error(
            CHECKER,
            "forgone-queued",
            None,
            None,
            "a forgone requester must not be queued or granted on the resource",
        );
    }
    m.release_all(reorg);
    // RS is instant-duration: it passes through plain readers and leaves
    // nothing held.
    let base = ResourceId::Page(100);
    m.lock(user, base, LockMode::S).unwrap_or(());
    let blocked = OwnerId(3);
    if m.lock_instant(blocked, base, LockMode::RS).is_err() {
        report.error(
            CHECKER,
            "rs-blocked-by-reader",
            None,
            None,
            "instant RS must pass through plain S readers (Table 1: S/RS compatible)",
        );
    }
    if m.held_mode(blocked, base).is_some() {
        report.error(
            CHECKER,
            "rs-retained",
            None,
            None,
            "instant-duration RS must not remain held after the grant",
        );
    }
    m.release_all(user);
    m.release_all(blocked);
    m.unregister_reorganizer(reorg);
    report.note("verified RX forgone action and RS instant duration on a live manager");
    report
}

/// The resource classes the paper's protocols lock, coarsest first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResClass {
    /// The tree lock (one per tree generation).
    Tree,
    /// The Pass-3 side file.
    SideFile,
    /// Base pages (parents of leaves).
    Base,
    /// Leaf pages.
    Leaf,
    /// Individual record keys.
    Key,
}

impl ResClass {
    const ALL: [ResClass; 5] = [
        ResClass::Tree,
        ResClass::SideFile,
        ResClass::Base,
        ResClass::Leaf,
        ResClass::Key,
    ];

    /// Lock modes that may legally appear on this resource class.
    fn allowed_modes(self) -> &'static [LockMode] {
        use LockMode::*;
        match self {
            ResClass::Tree => &[IS, IX, S, X],
            ResClass::SideFile => &[IS, IX, X],
            ResClass::Base => &[S, R, X, RS],
            ResClass::Leaf => &[IS, IX, S, X, RX],
            ResClass::Key => &[S, X],
        }
    }
}

/// One lock acquisition inside a protocol sequence.
#[derive(Clone, Copy, Debug)]
pub struct Acquisition {
    /// What is locked.
    pub class: ResClass,
    /// The requested mode.
    pub mode: LockMode,
    /// False for `try_lock`/instant acquisitions, which never wait and so
    /// contribute no wait-for edges.
    pub blocking: bool,
}

const fn acq(class: ResClass, mode: LockMode) -> Acquisition {
    Acquisition {
        class,
        mode,
        blocking: true,
    }
}

const fn try_acq(class: ResClass, mode: LockMode) -> Acquisition {
    Acquisition {
        class,
        mode,
        blocking: false,
    }
}

/// A named lock-acquisition sequence whose locks are held simultaneously,
/// in acquisition order.
#[derive(Clone, Copy, Debug)]
pub struct LockSequence {
    /// Where the sequence comes from (protocol section in the paper).
    pub name: &'static str,
    /// Acquisitions in program order.
    pub steps: &'static [Acquisition],
}

/// The lock sequences of every protocol in the system, transcribed from
/// the reorganizer (`obr_core::reorg`), the Pass-3 switch
/// (`obr_core::pass3`), and the transaction layer (`obr_txn::session`).
/// Each sequence lists only locks held *simultaneously*: the Pass-3 switch
/// releases the side-file X before taking the old tree lock, so those are
/// two sequences — which is exactly what keeps the graph acyclic.
pub fn protocol_sequences() -> &'static [LockSequence] {
    use LockMode::*;
    use ResClass::*;
    const USER_TXN: &[Acquisition] = &[
        acq(Tree, IX),
        acq(Base, S),
        acq(Leaf, IX),
        acq(Key, X),
        // During Pass 3 updaters append to the side file under IX, but via
        // try_lock with an instant-duration fallback: never a waiter.
        try_acq(SideFile, IX),
    ];
    const PASS1_UNIT: &[Acquisition] = &[
        acq(Tree, IX),
        acq(Base, S),
        acq(Base, R),
        acq(Leaf, RX), // the unit's leaves (and the dest page)
        acq(Leaf, X),  // side-pointer chain neighbours under other parents
        acq(Base, X),  // upgrade for the short MODIFY
    ];
    const PASS2_MOVE: &[Acquisition] = &[
        acq(Tree, IX),
        acq(Base, S),
        acq(Base, R),
        acq(Leaf, RX),
        acq(Base, X),
    ];
    const PASS2_SWAP: &[Acquisition] = &[
        acq(Tree, IX),
        acq(Base, S),
        acq(Base, R),
        acq(Leaf, RX),
        acq(Leaf, X), // chain neighbours of both swapped leaves
        acq(Base, X),
    ];
    const PASS3_SCAN: &[Acquisition] = &[acq(Base, S)];
    const PASS3_SWITCH_GATE: &[Acquisition] = &[acq(SideFile, X)];
    const PASS3_DRAIN: &[Acquisition] = &[acq(Tree, X)];
    const SEQUENCES: &[LockSequence] = &[
        LockSequence {
            name: "user transaction (§4.1.2/§4.1.3)",
            steps: USER_TXN,
        },
        LockSequence {
            name: "pass-1 compaction unit (§4.1.1)",
            steps: PASS1_UNIT,
        },
        LockSequence {
            name: "pass-2 move unit (§6)",
            steps: PASS2_MOVE,
        },
        LockSequence {
            name: "pass-2 swap unit (§6)",
            steps: PASS2_SWAP,
        },
        LockSequence {
            name: "pass-3 base scan (§7.1)",
            steps: PASS3_SCAN,
        },
        LockSequence {
            name: "pass-3 switch gate (§7.4)",
            steps: PASS3_SWITCH_GATE,
        },
        LockSequence {
            name: "pass-3 old-tree drain (§7.4)",
            steps: PASS3_DRAIN,
        },
    ];
    SEQUENCES
}

/// Build the acquisition-order graph over resource classes from every
/// blocking acquisition and prove it acyclic; also check that each
/// sequence only uses modes legal for the class, and that the
/// reorganizer's RX acquisitions are preceded by R on a base page (the
/// §4.1.1 prerequisite).
pub fn check_acquisition_order() -> Report {
    let mut report = Report::new();
    let idx = |c: ResClass| ResClass::ALL.iter().position(|&x| x == c).unwrap();
    let n = ResClass::ALL.len();
    let mut edges = vec![[false; 8]; n]; // edges[a][b]: a acquired before b
    let mut upgrades = 0u32;
    for seq in protocol_sequences() {
        let mut held: Vec<ResClass> = Vec::new();
        let mut has_base_r = false;
        for step in seq.steps {
            if !step.class.allowed_modes().contains(&step.mode) {
                report.error(
                    CHECKER,
                    "mode-class-mismatch",
                    None,
                    None,
                    format!(
                        "{}: mode {:?} is never used on {:?} resources",
                        seq.name, step.mode, step.class
                    ),
                );
            }
            if step.class == ResClass::Base && step.mode == LockMode::R {
                has_base_r = true;
            }
            if step.class == ResClass::Leaf && step.mode == LockMode::RX && !has_base_r {
                report.error(
                    CHECKER,
                    "rx-before-r",
                    None,
                    None,
                    format!(
                        "{}: RX on a leaf before R on its base page violates §4.1.1",
                        seq.name
                    ),
                );
            }
            if held.contains(&step.class) {
                // An in-place upgrade (e.g. the base page's S+R -> X at the
                // end of a unit) waits on the upgraded resource itself, not
                // on a lower class; deadlock through an upgrade is resolved
                // by always victimizing the reorganizer (§4.2), so it
                // contributes no acquisition-order edge.
                upgrades += 1;
            } else {
                if step.blocking {
                    for &h in &held {
                        edges[idx(h)][idx(step.class)] = true;
                    }
                }
                held.push(step.class);
            }
        }
    }
    // Kahn's algorithm: the class graph must topologically sort.
    let mut indeg = vec![0usize; n];
    for row in edges.iter().take(n) {
        for (b, deg) in indeg.iter_mut().enumerate() {
            if row[b] {
                *deg += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut sorted = 0;
    let mut order: Vec<&'static str> = Vec::new();
    while let Some(a) = queue.pop() {
        sorted += 1;
        order.push(class_name(ResClass::ALL[a]));
        for b in 0..n {
            if edges[a][b] {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    queue.push(b);
                }
            }
        }
    }
    if sorted != n {
        let cyclic: Vec<&str> = (0..n)
            .filter(|&i| indeg[i] > 0)
            .map(|i| class_name(ResClass::ALL[i]))
            .collect();
        report.error(
            CHECKER,
            "acquisition-cycle",
            None,
            None,
            format!(
                "the acquisition-order graph has a cycle through {{{}}}: two \
                 protocol-following requesters could deadlock",
                cyclic.join(", ")
            ),
        );
    } else {
        report.note(format!(
            "acquisition-order graph is acyclic over {} sequences, {} in-place \
             upgrades excluded (topological witness: {})",
            protocol_sequences().len(),
            upgrades,
            order.join(" -> ")
        ));
    }
    report
}

fn class_name(c: ResClass) -> &'static str {
    match c {
        ResClass::Tree => "Tree",
        ResClass::SideFile => "SideFile",
        ResClass::Base => "Base",
        ResClass::Leaf => "Leaf",
        ResClass::Key => "Key",
    }
}

/// Run every lock-protocol check.
pub fn check_lock_protocol() -> Report {
    let mut report = check_compat_matrix();
    report.merge(check_conflict_actions());
    report.merge(check_acquisition_order());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The build-breaking check: if `LockMode::compatible_with` (or the
    /// defined-cell predicate) ever diverges from the declarative Table 1,
    /// this test — and therefore CI — fails.
    #[test]
    fn table1_matches_implementation() {
        let r = check_compat_matrix();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn conflict_actions_hold() {
        let r = check_conflict_actions();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn acquisition_order_is_acyclic() {
        let r = check_acquisition_order();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn a_cycle_would_be_reported() {
        // Sanity-check the cycle detector itself with a tampered graph:
        // pretend a protocol takes Key before Tree while another takes
        // Tree before Key.
        // (The public API only exposes the real sequences, so exercise the
        // detector by checking the real graph is order-sensitive: Tree
        // precedes Base in every sequence.)
        let r = check_acquisition_order();
        let witness = r
            .info
            .iter()
            .find(|l| l.contains("topological witness"))
            .expect("witness line");
        let tree_pos = witness.find("Tree").expect("Tree in witness");
        let base_pos = witness.find("Base").expect("Base in witness");
        assert!(tree_pos < base_pos, "{witness}");
    }

    #[test]
    fn full_protocol_check_is_clean() {
        let r = check_lock_protocol();
        assert!(r.is_clean(), "{r}");
    }
}
