//! One fault table, every reader: each structural fault a segment
//! directory can carry — a gap between segment names, a torn sealed
//! segment, an empty sealed segment, a torn active tail — against each
//! reader of one — `LogManager::open_dir`, `lint_wal_dir`,
//! `Replica::ingest_dir` — with the outcome every cell must have. All three
//! read through the one `SegmentReader`; they differ only in what they do
//! with a fault.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_check::{lint_wal_dir, WalLintOptions};
use obr_core::{CoreError, Database, EngineConfig, Replica};
use obr_storage::{Lsn, StorageError};
use obr_txn::Session;
use obr_wal::{segment, LogManager};

const PAGES: u32 = 4096;
const FRAMES: usize = 1024;
const SEG_BYTES: u64 = 2048;

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("obr-segfault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A durable primary's WAL directory holding at least three sealed
/// segments and an active one with records in it. Returns the directory,
/// the segments' first LSNs, and the last durable LSN.
fn primary_wal(scratch: &Scratch) -> (PathBuf, Vec<Lsn>, Lsn) {
    let db = Database::create_durable_with_config(
        &scratch.0,
        PAGES,
        FRAMES,
        SidePointerMode::TwoWay,
        EngineConfig {
            wal_segment_bytes: SEG_BYTES,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let session = Session::new(Arc::clone(&db));
    for k in 0.. {
        session.insert(k, &[0x33; 48]).unwrap();
        let cat = db.log().segment_catalog();
        let active = cat.last().unwrap();
        if cat.len() >= 4 && active.end_lsn >= active.first_lsn {
            break;
        }
    }
    let wal = scratch.0.join("wal");
    let firsts = segment::list_segments(&wal)
        .unwrap()
        .into_iter()
        .map(|(first, _)| first)
        .collect();
    (wal, firsts, db.log().durable_lsn())
}

/// A fresh copy of the segment directory `src` at `dst`.
fn copy_wal(src: &Path, dst: &Path) -> Vec<PathBuf> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    segment::list_segments(src)
        .unwrap()
        .into_iter()
        .map(|(_, path)| {
            let to = dst.join(path.file_name().unwrap());
            std::fs::copy(&path, &to).unwrap();
            to
        })
        .collect()
}

/// Cut the last `n` bytes off a file.
fn chop(path: &Path, n: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(len - n)
        .unwrap();
}

/// What a reader does with a fault.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    /// Refused, with an error naming the fault by this phrase.
    Refused(&'static str),
    /// Took the log as ending at this LSN.
    Through(Lsn),
}

/// Breaks a copied directory, given its segment paths in LSN order.
type Sabotage = Box<dyn Fn(&[PathBuf])>;

/// One row of the table: a fault and what each reader makes of it.
struct Cell {
    fault: &'static str,
    sabotage: Sabotage,
    open_dir: Outcome,
    /// The linter's finding code and the LSN it names.
    lint: (&'static str, Lsn),
    replica: Outcome,
    /// What the replica has applied when it stops.
    replica_applied: Lsn,
}

fn open_dir_outcome(dir: &Path) -> Outcome {
    match LogManager::open_dir(dir, SEG_BYTES) {
        Ok(log) => Outcome::Through(log.durable_lsn()),
        Err(StorageError::Corrupt(msg)) => Outcome::Refused(phrase(&msg)),
        Err(e) => panic!("open_dir failed without a typed refusal: {e}"),
    }
}

fn replica_outcome(dir: &Path) -> (Outcome, Lsn) {
    let replica = Replica::new(PAGES, FRAMES, SidePointerMode::TwoWay).unwrap();
    let outcome = match replica.ingest_dir(dir) {
        Ok(_) => Outcome::Through(replica.applied_lsn()),
        Err(CoreError::Recovery(msg)) => Outcome::Refused(phrase(&msg)),
        Err(e) => panic!("ingest_dir failed without a typed refusal: {e}"),
    };
    (outcome, replica.applied_lsn())
}

/// The phrase from [`PHRASES`] an error message names its fault by.
fn phrase(msg: &str) -> &'static str {
    PHRASES
        .iter()
        .find(|p| msg.contains(*p))
        .unwrap_or_else(|| panic!("error names no known fault: {msg}"))
}

const PHRASES: [&str; 3] = ["segment gap", "is torn", "is empty"];

#[test]
fn every_segment_reader_meets_every_fault_as_the_table_says() {
    let scratch = Scratch::new("table");
    let (wal, s, durable) = primary_wal(&scratch);
    let prev = |l: Lsn| Lsn(l.0 - 1);
    let cells = [
        Cell {
            fault: "gap between segment names",
            sabotage: Box::new(|segs| std::fs::remove_file(&segs[1]).unwrap()),
            open_dir: Outcome::Refused("segment gap"),
            lint: ("segment-gap", s[1]),
            replica: Outcome::Refused("segment gap"),
            replica_applied: prev(s[1]),
        },
        Cell {
            fault: "torn sealed segment",
            sabotage: Box::new(|segs| chop(&segs[0], 3)),
            open_dir: Outcome::Refused("is torn"),
            lint: ("torn-sealed-segment", prev(prev(s[1]))),
            replica: Outcome::Refused("is torn"),
            replica_applied: Lsn::ZERO,
        },
        Cell {
            fault: "empty sealed segment",
            sabotage: Box::new(|segs| std::fs::write(&segs[1], b"").unwrap()),
            open_dir: Outcome::Refused("is empty"),
            lint: ("empty-sealed-segment", s[1]),
            replica: Outcome::Refused("is empty"),
            replica_applied: prev(s[1]),
        },
        Cell {
            fault: "torn active tail",
            sabotage: Box::new(|segs| chop(segs.last().unwrap(), 3)),
            open_dir: Outcome::Through(prev(durable)),
            lint: ("torn-frame", prev(durable)),
            replica: Outcome::Through(prev(durable)),
            replica_applied: prev(durable),
        },
    ];
    for (i, cell) in cells.iter().enumerate() {
        let broken = |reader: &str| {
            let dir = scratch.0.join(format!("cell-{i}-{reader}"));
            (cell.sabotage)(&copy_wal(&wal, &dir));
            dir
        };
        assert_eq!(
            open_dir_outcome(&broken("open_dir")),
            cell.open_dir,
            "open_dir × {}",
            cell.fault
        );
        let report = lint_wal_dir(&broken("lint"), &WalLintOptions::default()).unwrap();
        let (code, lsn) = cell.lint;
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == code && f.lsn == Some(lsn)),
            "lint_wal_dir × {}: no {code} finding at LSN {lsn}:\n{report}",
            cell.fault
        );
        assert_eq!(
            replica_outcome(&broken("replica")),
            (cell.replica.clone(), cell.replica_applied),
            "Replica::ingest_dir × {}",
            cell.fault
        );
    }
}
