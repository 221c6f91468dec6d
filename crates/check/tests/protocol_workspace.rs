//! The interprocedural protocol checker must hold over the live
//! workspace — the same scan `obr-cli check --protocol` and CI run —
//! and, crucially, must still have teeth: sabotaging the real sources
//! (dropping an audit comment, un-vetting a manifest edge, downgrading
//! a memory ordering) must produce the corresponding finding with a
//! path-level diagnostic.

use obr_check::lockorder::parse_manifest;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

/// The real workspace sources as owned `(path, text)` pairs.
fn sources() -> Vec<(String, String)> {
    obr_check::scan_files(workspace_root()).expect("workspace scan")
}

fn as_refs(files: &[(String, String)]) -> Vec<(&str, &str)> {
    files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect()
}

fn manifest_text() -> String {
    std::fs::read_to_string(workspace_root().join("check").join("lockorder.toml"))
        .expect("manifest readable")
}

#[test]
fn workspace_is_protocol_clean() {
    let report = obr_check::check_protocol(workspace_root()).expect("workspace scan");
    assert!(report.is_clean(), "protocol findings:\n{report}");
}

/// R1 teeth: deleting the `// protocol: no-wal` audit above recovery's
/// `redo_one` must resurface it as an unlogged mutation path, entered
/// through the one replay loop, with the offending call chain in the
/// diagnostic.
#[test]
fn sabotage_dropping_no_wal_audit_is_caught() {
    let mut files = sources();
    let rec = files
        .iter_mut()
        .find(|(p, _)| p.ends_with("crates/core/src/recovery.rs"))
        .expect("recovery.rs scanned");
    let before = rec.1.lines().count();
    rec.1 = rec
        .1
        .lines()
        .filter(|l| !l.trim_start().starts_with("// protocol: no-wal"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        rec.1.lines().count() < before,
        "audit line was present and removed"
    );

    let m = parse_manifest(&manifest_text()).expect("manifest parses");
    let refs = as_refs(&files);
    let report = obr_check::check_sources(&refs, Some(&m));
    let f = report
        .findings
        .iter()
        .find(|f| f.code == "wal-unlogged-path" && f.detail.contains("redo_one"))
        .unwrap_or_else(|| panic!("stripped audit must be flagged at redo_one:\n{report}"));
    // The finding is reported at an entry point (replica ingest), with
    // the chain running through the replay loop and redo_one down to the
    // leaf primitive.
    assert!(
        f.detail.contains(".rs:") && f.detail.contains("Replay::feed -> redo_one -> "),
        "diagnostic carries file and call chain through the replay loop: {f:?}"
    );
}

/// R1 teeth through the generic page views: deleting the audit above
/// `BTree::create` must resurface it as an unlogged mutation path that
/// ends in `LeafView::init` or `MetaView::init`. The views' constructors
/// and writers live in generic impl blocks, so this proves the call graph
/// still resolves them.
#[test]
fn sabotage_dropping_create_audit_is_caught() {
    let mut files = sources();
    let tree = files
        .iter_mut()
        .find(|(p, _)| p.ends_with("crates/btree/src/tree.rs"))
        .expect("tree.rs scanned");
    let audit = "    // protocol: no-wal bootstrap:";
    let at = tree.1.find(audit).expect("create's audit present");
    let end = at + tree.1[at..].find('\n').expect("audit line ends");
    tree.1.replace_range(at..=end, "");
    assert!(
        tree.1[at..].trim_start().starts_with("pub fn create("),
        "the removed audit was create's"
    );

    let m = parse_manifest(&manifest_text()).expect("manifest parses");
    let refs = as_refs(&files);
    let report = obr_check::check_sources(&refs, Some(&m));
    let f = report
        .findings
        .iter()
        .find(|f| f.code == "wal-unlogged-path" && f.detail.contains("BTree::create"))
        .unwrap_or_else(|| panic!("stripped audit must be flagged at BTree::create:\n{report}"));
    assert!(
        f.detail.contains("BTree::create -> LeafView::init")
            || f.detail.contains("BTree::create -> MetaView::init"),
        "diagnostic's chain ends in a view's init: {f:?}"
    );
}

/// R1 teeth through the one apply per record: an unannotated function
/// that changes a page through `obr_btree::apply::apply` and appends no
/// log record must be flagged, with the chain ending in that apply. This
/// proves the rule still sees mutations made through the apply module.
#[test]
fn sabotage_unlogged_apply_is_caught() {
    let mut files = sources();
    let (apply_file, apply_src) = files
        .iter()
        .find(|(_, src)| src.contains("\npub fn apply<"))
        .expect("the apply module is scanned");
    assert!(apply_file.ends_with("crates/btree/src/apply.rs"));
    assert!(
        apply_src.contains("// protocol: page-mutation\npub fn apply<"),
        "apply is a page-mutation primitive"
    );
    files.push((
        "crates/core/src/unlogged.rs".into(),
        "use obr_btree::apply::apply;\n\
         pub fn unlogged_apply(rec: &LogRecord, page: &mut Page) {\n\
         \x20   let _ = apply(rec, &mut [Some(page)]);\n\
         }\n"
        .into(),
    ));

    let m = parse_manifest(&manifest_text()).expect("manifest parses");
    let refs = as_refs(&files);
    let report = obr_check::check_sources(&refs, Some(&m));
    let f = report
        .findings
        .iter()
        .find(|f| f.code == "wal-unlogged-path" && f.detail.contains("unlogged_apply"))
        .unwrap_or_else(|| panic!("an unlogged apply must be flagged:\n{report}"));
    assert!(
        f.detail.contains("unlogged.rs:2 unlogged_apply")
            && f.detail.contains(": unlogged_apply -> apply (annotate"),
        "the chain ends in the apply module's apply: {f:?}"
    );
}

/// R2 teeth: removing the replica replay-state edges from the manifest
/// must flag the replica's hold-replay-state-across-redo nesting as
/// undeclared.
#[test]
fn sabotage_unvetting_manifest_edge_is_caught() {
    let files = sources();
    let stripped: String = manifest_text()
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"replica.replay\" = ["))
        .collect::<Vec<_>>()
        .join("\n");
    let m = parse_manifest(&stripped).expect("stripped manifest still parses");
    let refs = as_refs(&files);
    let report = obr_check::check_sources(&refs, Some(&m));
    let f = report
        .findings
        .iter()
        .find(|f| f.code == "latch-undeclared-edge" && f.detail.contains("replica.replay"))
        .unwrap_or_else(|| panic!("un-vetted replica edge must be flagged:\n{report}"));
    assert!(
        f.detail.contains("replica.rs") && f.detail.contains("via Replay::feed"),
        "diagnostic names the file the edge is created in and the replay loop: {f:?}"
    );
}

/// R3 teeth: downgrading the B+-tree epoch's seqlock read from Acquire
/// to Relaxed (the PR 6 lost-write shape) must be flagged as a
/// relaxed consume of a release-published field.
#[test]
fn sabotage_relaxed_epoch_read_is_caught() {
    let mut files = sources();
    let tree = files
        .iter_mut()
        .find(|(p, _)| p.ends_with("crates/btree/src/tree.rs"))
        .expect("tree.rs scanned");
    let needle = "self.epoch.load(Ordering::Acquire)";
    assert!(tree.1.contains(needle), "epoch read present");
    tree.1 = tree
        .1
        .replacen(needle, "self.epoch.load(Ordering::Relaxed)", 1);

    let m = parse_manifest(&manifest_text()).expect("manifest parses");
    let refs = as_refs(&files);
    let report = obr_check::check_sources(&refs, Some(&m));
    let f = report
        .findings
        .iter()
        .find(|f| f.code == "atomic-relaxed-consume" && f.detail.contains("epoch"))
        .unwrap_or_else(|| panic!("relaxed epoch consume must be flagged:\n{report}"));
    assert!(
        f.detail.contains("tree.rs"),
        "diagnostic names the load site's file: {f:?}"
    );
}
