//! Interprocedural protocol checker: `obr-cli check --protocol`.
//!
//! Enforces three source-level rules over the whole workspace, using
//! the facts/callgraph layers:
//!
//! * **R1 WAL-before-data** (`wal-unlogged-path`): every call path from
//!   an entry point to a page-mutation primitive must pass a function
//!   that performs (directly or through a callee) a WAL append, or be
//!   audited with `// protocol: no-wal <why>`. Primitives are the
//!   `// protocol: page-mutation` annotated mutators (leaf/node views,
//!   `Page::format`); appends are the `// protocol: wal-append`
//!   annotated `LogManager` entry points. The engine's idiom is
//!   mutate-then-append-then-`set_lsn` under the page latch, so the
//!   rule requires an append *on the path*, not strictly before the
//!   mutation token.
//! * **R2 latch discipline** (`latch-undeclared-edge`,
//!   `latch-self-edge`, `latch-unknown-class`): every static
//!   `(held, acquired)` lock-class pair — including pairs created
//!   interprocedurally via callee summaries — must be declared in
//!   `check/lockorder.toml`'s `may_hold_while_acquiring`. Same-class
//!   nesting is an error unless the class is in the vetted
//!   [`SELF_EDGE_OK`] list that the dynamic lock-order diff reads too
//!   (page latches legitimately couple parent→child). This closes the
//!   PR 3 cross-shard rule statically: holding one `pool.shard.frames`
//!   lock while taking another is a self-edge and flagged.
//! * **R3 publication pairing** (`atomic-relaxed-consume`,
//!   `atomic-relaxed-publication`, `atomic-mixed-publication`,
//!   `atomic-unpaired-acquire`): per named atomic field, Release-family
//!   stores must be consumed by Acquire-family loads and vice versa.
//!   A Relaxed load of a field that has Release stores is exactly the
//!   PR 6 lost-write shape. Only pure `load` calls count as consumes:
//!   RMW read-halves always see the latest value in the field's
//!   modification order, and `compare_exchange` failure orderings are
//!   exempt (the retry path re-reads). A site can be audited with
//!   `// protocol: mixed-ordering <why>` on the line above.
//!
//! ## Scan scope
//!
//! Engine crates only: `crates/{storage,wal,btree,lock,core,txn,baseline}`
//! and the workload layer in `src/`. Infrastructure is excluded —
//! `crates/{check,race,bench,sync,obs}`, `shims/`, `src/bin/`, plus
//! `tests/`, `benches/`, `examples/` and `#[cfg(test)]` modules — so
//! the checker reasons about the engine, not about its own scaffolding
//! or model-build scenarios.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::callgraph::{FnId, Workspace};
use crate::facts::{extract_file, AnnKind, Op, Seg};
use crate::lockorder::{load_manifest, SELF_EDGE_OK};
use crate::report::Report;

/// Checker name used in findings.
const CHECKER: &str = "protocol";

/// Directory names excluded anywhere in the tree.
const SKIP_DIRS: &[&str] = &[
    "target", ".git", ".github", "tests", "benches", "examples", "shims", "bin",
];

/// Path prefixes (relative, slash-normalized) excluded from the scan.
const SKIP_PREFIXES: &[&str] = &[
    "crates/check/",
    "crates/race/",
    "crates/bench/",
    "crates/sync/",
    "crates/obs/",
];

/// Collect the engine source files under `root`.
pub fn scan_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            let rel = rel_path(root, &path);
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel.starts_with(p) || format!("{rel}/").starts_with(p))
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            let src = fs::read_to_string(&path)?;
            out.push((rel, src));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Run the full protocol check rooted at `root` (the repo checkout).
/// Reads `check/lockorder.toml` relative to `root` for R2.
pub fn check_protocol(root: &Path) -> io::Result<Report> {
    let files = scan_files(root)?;
    let manifest_path = root.join("check").join("lockorder.toml");
    let mut report = Report::new();
    let manifest = match load_manifest(&manifest_path) {
        Ok(m) => Some(m),
        Err(e) => {
            report.error(
                CHECKER,
                "manifest-unreadable",
                None,
                None,
                format!("cannot load {}: {e}", manifest_path.display()),
            );
            None
        }
    };
    let ws = Workspace::build(files.iter().map(|(p, s)| extract_file(p, s)).collect());
    report.note(format!(
        "protocol: scanned {} files, {} functions",
        ws.files.len(),
        ws.fns.len()
    ));
    check_r1(&ws, &mut report);
    if let Some(m) = &manifest {
        check_r2(&ws, m, &mut report);
    }
    check_r3(&ws, &mut report);
    Ok(report)
}

/// Convenience for tests: run the checker over in-memory sources with
/// an already-loaded manifest.
pub fn check_sources(
    files: &[(&str, &str)],
    manifest: Option<&crate::lockorder::LockOrderManifest>,
) -> Report {
    let ws = Workspace::build(files.iter().map(|(p, s)| extract_file(p, s)).collect());
    let mut report = Report::new();
    check_r1(&ws, &mut report);
    if let Some(m) = manifest {
        check_r2(&ws, m, &mut report);
    }
    check_r3(&ws, &mut report);
    report
}

fn has_ann(ws: &Workspace, id: FnId, kind: AnnKind) -> bool {
    ws.fn_info(id).anns.iter().any(|a| a.kind == kind)
}

/// A function "logs locally" when an append happens in its own body —
/// directly or through any callee — so every path *through* it passes
/// an append.
fn logs_locally(ws: &Workspace, id: FnId) -> bool {
    if has_ann(ws, id, AnnKind::WalAppend) {
        return true;
    }
    ws.fns[id]
        .callees
        .iter()
        .any(|(_, callees)| callees.iter().any(|c| ws.appends[*c]))
}

/// R1: WAL-before-data.
fn check_r1(ws: &Workspace, report: &mut Report) {
    let n = ws.fns.len();
    let seed: Vec<bool> = (0..n)
        .map(|i| has_ann(ws, i, AnnKind::PageMutation))
        .collect();
    let exempt: Vec<bool> = (0..n).map(|i| has_ann(ws, i, AnnKind::NoWal)).collect();
    let logs: Vec<bool> = (0..n).map(|i| logs_locally(ws, i)).collect();

    // bad(f): some path f → ... → mutation primitive has no append and
    // no audit anywhere along it.
    let mut bad = seed.clone();
    loop {
        let mut changed = false;
        for id in 0..n {
            if bad[id] || seed[id] || exempt[id] || logs[id] {
                continue;
            }
            let hit = ws.fns[id]
                .callees
                .iter()
                .any(|(_, callees)| callees.iter().any(|c| bad[*c]));
            if hit {
                bad[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut n_mutating_roots = 0usize;
    for id in 0..n {
        if !bad[id] || seed[id] {
            continue;
        }
        if !ws.callers[id].is_empty() {
            continue; // interior of a chain; the root gets the report
        }
        n_mutating_roots += 1;
        // Reconstruct one offending chain root → primitive.
        let mut chain = vec![id];
        let mut cur = id;
        let mut guard = 0;
        while !seed[cur] && guard < 64 {
            guard += 1;
            let next = ws.fns[cur]
                .callees
                .iter()
                .flat_map(|(_, cs)| cs.iter())
                .copied()
                .find(|c| bad[*c] || seed[*c]);
            match next {
                Some(c) => {
                    chain.push(c);
                    cur = c;
                }
                None => break,
            }
        }
        let path: Vec<String> = chain.iter().map(|c| ws.fn_path(*c)).collect();
        report.error(
            CHECKER,
            "wal-unlogged-path",
            None,
            None,
            format!(
                "{}:{} {}: page mutation reachable with no WAL append on the path: {} \
                 (annotate `// protocol: no-wal <why>` if audited)",
                ws.fn_file(id),
                ws.fn_info(id).line,
                ws.fn_path(id),
                path.join(" -> "),
            ),
        );
    }
    let n_mutators = (0..n).filter(|i| ws.mutates[*i]).count();
    report.note(format!(
        "R1: {} functions reach page mutations, {} unlogged entry points",
        n_mutators, n_mutating_roots
    ));
}

/// R2: latch discipline against the manifest.
fn check_r2(ws: &Workspace, manifest: &crate::lockorder::LockOrderManifest, report: &mut Report) {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut unknown: BTreeSet<String> = BTreeSet::new();
    let mut n_edges = 0usize;
    for id in 0..ws.fns.len() {
        for e in ws.static_edges(id) {
            n_edges += 1;
            for c in [&e.held, &e.acquired] {
                if !manifest.classes.contains_key(c.as_str()) && unknown.insert(c.clone()) {
                    report.error(
                        CHECKER,
                        "latch-unknown-class",
                        None,
                        None,
                        format!(
                            "{}:{} {}: lock class \"{}\" is not declared in lockorder.toml [classes]",
                            ws.fn_file(id),
                            e.line,
                            ws.fn_path(id),
                            c
                        ),
                    );
                }
            }
            if !seen.insert((e.held.clone(), e.acquired.clone())) {
                continue; // report each ordered pair once
            }
            let via = e
                .via
                .map(|v| format!(" via {}", ws.fn_path(v)))
                .unwrap_or_default();
            if e.held == e.acquired {
                if !SELF_EDGE_OK.contains(&e.held.as_str()) {
                    report.error(
                        CHECKER,
                        "latch-self-edge",
                        None,
                        None,
                        format!(
                            "{}:{} {}: may hold \"{}\" while re-acquiring the same class{} \
                             (one-at-a-time classes must never self-nest)",
                            ws.fn_file(id),
                            e.line,
                            ws.fn_path(id),
                            e.held,
                            via
                        ),
                    );
                }
                continue;
            }
            if !manifest
                .allowed
                .contains(&(e.held.clone(), e.acquired.clone()))
            {
                report.error(
                    CHECKER,
                    "latch-undeclared-edge",
                    None,
                    None,
                    format!(
                        "{}:{} {}: static order \"{}\" -> \"{}\"{} is not vetted in \
                         lockorder.toml may_hold_while_acquiring",
                        ws.fn_file(id),
                        e.line,
                        ws.fn_path(id),
                        e.held,
                        e.acquired,
                        via
                    ),
                );
            }
        }
    }
    let distinct = seen.len();
    let covered = seen
        .iter()
        .filter(|(a, b)| a != b && manifest.allowed.contains(&(a.clone(), b.clone())))
        .count();
    report.note(format!(
        "R2: {} static acquisition sites, {} distinct edges, {} of {} manifest edges exercised statically",
        n_edges,
        distinct,
        covered,
        manifest.allowed.len()
    ));
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Load,
    Store,
}

fn release_ish(o: &str) -> bool {
    matches!(o, "Release" | "AcqRel" | "SeqCst")
}
fn acquire_ish(o: &str) -> bool {
    matches!(o, "Acquire" | "AcqRel" | "SeqCst")
}

/// R3: publication pairing per atomic field.
fn check_r3(ws: &Workspace, report: &mut Report) {
    // key → (role, ordering, file, line, fn path)
    type Site = (Role, String, String, u32, String);
    let mut by_key: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();

    for id in 0..ws.fns.len() {
        let locals = ws.typed_locals(id);
        let file = ws.fn_file(id).to_string();
        for op in &ws.fn_info(id).ops {
            let a = match op {
                Op::Atomic(a) => a,
                _ => continue,
            };
            if a.orderings.iter().any(|o| o == "Exempt") {
                continue; // site audited with `// protocol: mixed-ordering`
            }
            let field = match a.chain.last() {
                Some(Seg::Field(f)) => f.clone(),
                Some(Seg::Base(b)) if a.chain.len() == 1 => b.clone(),
                _ => continue,
            };
            // Resolve the owning struct: type the chain prefix, else
            // fall back to a globally unique atomic field name.
            let owner = if a.chain.len() > 1 {
                ws.type_of_chain(id, &locals, &a.chain[..a.chain.len() - 1])
                    .filter(|t| ws.struct_has_atomic_field(t, &field))
            } else {
                None
            };
            let owner = owner.or_else(|| match ws.atomic_field_owners.get(&field) {
                Some(owners) if owners.len() == 1 => Some(owners[0].clone()),
                Some(_) => {
                    ambiguous.insert(field.clone());
                    None
                }
                None => None,
            });
            let key = match owner {
                Some(t) => format!("{t}.{field}"),
                None => continue, // not a known atomic field (locals, foreign)
            };
            let fn_path = ws.fn_path(id);
            let sites = by_key.entry(key).or_default();
            let ords = &a.orderings;
            match a.method.as_str() {
                "load" => {
                    if let Some(o) = ords.first() {
                        sites.push((Role::Load, o.clone(), file.clone(), a.line, fn_path.clone()));
                    }
                }
                "store" => {
                    if let Some(o) = ords.first() {
                        sites.push((
                            Role::Store,
                            o.clone(),
                            file.clone(),
                            a.line,
                            fn_path.clone(),
                        ));
                    }
                }
                _ => {
                    // RMWs (`swap`, `fetch_*`, `compare_exchange*`,
                    // `fetch_update`) are stores for pairing purposes.
                    // Their read half always observes the latest value
                    // in the field's modification order regardless of
                    // ordering, so it is *not* a publication consume —
                    // a seqlock writer's `fetch_add(1, Release)` must
                    // not be flagged as a Relaxed-family load. The
                    // first ordering argument is the success/set order
                    // on every RMW method; failure/fetch orders are
                    // exempt.
                    if let Some(o) = ords.first() {
                        sites.push((
                            Role::Store,
                            o.clone(),
                            file.clone(),
                            a.line,
                            fn_path.clone(),
                        ));
                    }
                }
            }
        }
    }

    let mut n_fields = 0usize;
    for (key, sites) in &by_key {
        n_fields += 1;
        let rel_stores: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Store && release_ish(&s.1))
            .collect();
        let weak_stores: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Store && !release_ish(&s.1))
            .collect();
        let acq_loads: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Load && acquire_ish(&s.1))
            .collect();
        let weak_loads: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Load && !acquire_ish(&s.1))
            .collect();

        if !rel_stores.is_empty() && !weak_loads.is_empty() {
            let s = &rel_stores[0];
            for l in &weak_loads {
                report.error(
                    CHECKER,
                    "atomic-relaxed-consume",
                    None,
                    None,
                    format!(
                        "{key}: {} load at {}:{} ({}) consumes a publication released at {}:{} ({}) — \
                         upgrade to Acquire or audit with `// protocol: mixed-ordering <why>`",
                        l.1, l.2, l.3, l.4, s.2, s.3, s.4
                    ),
                );
            }
        }
        if !rel_stores.is_empty() && !weak_stores.is_empty() {
            let s = &weak_stores[0];
            report.error(
                CHECKER,
                "atomic-mixed-publication",
                None,
                None,
                format!(
                    "{key}: mixes Release-family and {} stores (e.g. {}:{} in {}) — \
                     one publication protocol per field",
                    s.1, s.2, s.3, s.4
                ),
            );
        }
        if rel_stores.is_empty() && !weak_stores.is_empty() && !acq_loads.is_empty() {
            let l = &acq_loads[0];
            report.error(
                CHECKER,
                "atomic-relaxed-publication",
                None,
                None,
                format!(
                    "{key}: Acquire load at {}:{} ({}) but every store is Relaxed-family — \
                     nothing is published; upgrade the store or relax the load",
                    l.2, l.3, l.4
                ),
            );
        }
        if sites.iter().all(|s| s.0 != Role::Store) && !acq_loads.is_empty() {
            let l = &acq_loads[0];
            report.warning(
                CHECKER,
                "atomic-unpaired-acquire",
                None,
                None,
                format!(
                    "{key}: Acquire load at {}:{} ({}) with no visible store in the scan scope",
                    l.2, l.3, l.4
                ),
            );
        }
    }
    for f in &ambiguous {
        report.note(format!(
            "R3: atomic field name \"{f}\" is declared by multiple structs; untyped accesses skipped"
        ));
    }
    report.note(format!("R3: {} atomic fields checked", n_fields));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockorder::parse_manifest;

    fn manifest(text: &str) -> crate::lockorder::LockOrderManifest {
        parse_manifest(text).expect("fixture manifest parses")
    }

    const TWO_CLASS_MANIFEST: &str = r#"
[classes]
"class.a" = "outer fixture lock"
"class.b" = "inner fixture lock"

[may_hold_while_acquiring]
"class.a" = ["class.b"]
"#;

    // ---- R1: WAL-before-data ----

    const R1_PRIMS: &str = "
struct Log;
impl Log {
    // protocol: wal-append
    fn append(&self) {}
}
struct Leaf;
impl Leaf {
    // protocol: page-mutation
    fn insert(&mut self) {}
}
";

    #[test]
    fn r1_logged_path_is_clean() {
        let src = format!(
            "{R1_PRIMS}
fn do_insert(log: &Log, leaf: &mut Leaf) {{
    log.append();
    leaf.insert();
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            !r.findings.iter().any(|f| f.code == "wal-unlogged-path"),
            "append on the path must satisfy R1: {r}"
        );
    }

    #[test]
    fn r1_unlogged_path_flagged_with_chain() {
        let src = format!(
            "{R1_PRIMS}
fn forgot_logging(leaf: &mut Leaf) {{
    leaf.insert();
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "wal-unlogged-path")
            .expect("unlogged mutation path must be flagged");
        assert!(
            f.detail.contains("fix.rs"),
            "diagnostic names the file: {f:?}"
        );
        assert!(
            f.detail.contains("forgot_logging -> Leaf::insert"),
            "diagnostic shows the call chain: {f:?}"
        );
    }

    #[test]
    fn r1_unlogged_interprocedural_chain_is_reported_at_the_root() {
        let src = format!(
            "{R1_PRIMS}
fn helper(leaf: &mut Leaf) {{
    leaf.insert();
}}
fn entry(leaf: &mut Leaf) {{
    helper(leaf);
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        let flagged: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.code == "wal-unlogged-path")
            .collect();
        assert_eq!(flagged.len(), 1, "only the root is reported: {r}");
        assert!(
            flagged[0]
                .detail
                .contains("entry -> helper -> Leaf::insert"),
            "chain runs root to primitive: {:?}",
            flagged[0]
        );
    }

    #[test]
    fn r1_no_wal_audit_clears_the_path() {
        let src = format!(
            "{R1_PRIMS}
// protocol: no-wal fixture bulk loader is made durable by flushing
fn bulk(leaf: &mut Leaf) {{
    leaf.insert();
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            !r.findings.iter().any(|f| f.code == "wal-unlogged-path"),
            "audited path must be exempt: {r}"
        );
    }

    // ---- R2: latch discipline ----

    const R2_NEST: &str = "
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn new() -> S {
        S { a: Mutex::named(0, \"class.a\"), b: Mutex::named(0, \"class.b\") }
    }
    fn nest(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
    }
}
";

    #[test]
    fn r2_vetted_edge_is_clean() {
        let m = manifest(TWO_CLASS_MANIFEST);
        let r = check_sources(&[("fix.rs", R2_NEST)], Some(&m));
        assert!(r.is_clean(), "a->b is vetted: {r}");
    }

    #[test]
    fn r2_undeclared_edge_flagged() {
        // Same manifest without the a->b edge.
        let m = manifest(
            "\n[classes]\n\"class.a\" = \"outer\"\n\"class.b\" = \"inner\"\n\n[may_hold_while_acquiring]\n",
        );
        let r = check_sources(&[("fix.rs", R2_NEST)], Some(&m));
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "latch-undeclared-edge")
            .expect("unvetted nesting must be flagged");
        assert!(
            f.detail.contains("\"class.a\" -> \"class.b\""),
            "diagnostic names the ordered pair: {f:?}"
        );
        assert!(
            f.detail.contains("S::nest"),
            "diagnostic names the function: {f:?}"
        );
    }

    #[test]
    fn r2_interprocedural_edge_via_callee() {
        let src = "
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn new() -> S {
        S { a: Mutex::named(0, \"class.a\"), b: Mutex::named(0, \"class.b\") }
    }
    fn inner(&self) {
        let h = self.b.lock();
    }
    fn outer(&self) {
        let g = self.a.lock();
        self.inner();
    }
}
";
        let m = manifest(
            "\n[classes]\n\"class.a\" = \"outer\"\n\"class.b\" = \"inner\"\n\n[may_hold_while_acquiring]\n",
        );
        let r = check_sources(&[("fix.rs", src)], Some(&m));
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "latch-undeclared-edge")
            .expect("edge created through a callee must be flagged");
        assert!(
            f.detail.contains("via S::inner"),
            "diagnostic names the callee: {f:?}"
        );
    }

    #[test]
    fn r2_self_edge_flagged_unless_whitelisted() {
        let src = "
struct S { frames: Mutex<u32> }
impl S {
    fn new() -> S { S { frames: Mutex::named(0, \"pool.shard.frames\") } }
    fn double(&self) {
        let g = self.frames.lock();
        let h = self.frames.lock();
    }
}
";
        let m = manifest(
            "\n[classes]\n\"pool.shard.frames\" = \"shard table\"\n\n[may_hold_while_acquiring]\n",
        );
        let r = check_sources(&[("fix.rs", src)], Some(&m));
        assert!(
            r.findings.iter().any(|f| f.code == "latch-self-edge"),
            "the PR 3 cross-shard shape must be flagged: {r}"
        );
        // The same shape on the vetted page-latch class passes.
        let src_ok = src.replace("pool.shard.frames", "pool.frame.data");
        let m_ok = manifest(
            "\n[classes]\n\"pool.frame.data\" = \"page latch\"\n\n[may_hold_while_acquiring]\n",
        );
        let r_ok = check_sources(&[("fix.rs", src_ok.as_str())], Some(&m_ok));
        assert!(
            !r_ok.findings.iter().any(|f| f.code == "latch-self-edge"),
            "page-latch coupling is vetted: {r_ok}"
        );
    }

    #[test]
    fn r2_unknown_class_flagged() {
        let src = "
struct S { x: Mutex<u32> }
impl S {
    fn new() -> S { S { x: Mutex::named(0, \"not.in.manifest\") } }
    fn outer(&self) {
        let g = self.x.lock();
        self.inner();
    }
    fn inner(&self) {
        let h = self.x.lock();
    }
}
";
        let m = manifest("\n[classes]\n\"class.a\" = \"a\"\n\n[may_hold_while_acquiring]\n");
        let r = check_sources(&[("fix.rs", src)], Some(&m));
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "latch-unknown-class" && f.detail.contains("not.in.manifest")),
            "undeclared class must be flagged: {r}"
        );
    }

    // ---- R3: publication pairing ----

    const R3_STRUCT: &str = "
struct P { ready: AtomicBool }
";

    #[test]
    fn r3_release_acquire_pairing_is_clean() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Release); }}
    fn consume(&self) -> bool {{ self.ready.load(Ordering::Acquire) }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            r.is_clean(),
            "Release/Acquire pairing is the vetted shape: {r}"
        );
    }

    #[test]
    fn r3_relaxed_consume_flagged() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Release); }}
    fn consume(&self) -> bool {{ self.ready.load(Ordering::Relaxed) }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "atomic-relaxed-consume")
            .expect("the PR 6 lost-write shape must be flagged");
        assert!(
            f.detail.contains("P.ready"),
            "diagnostic names the field: {f:?}"
        );
        assert!(
            f.detail.contains("P::consume"),
            "diagnostic names the load site: {f:?}"
        );
    }

    #[test]
    fn r3_mixed_ordering_audit_clears_the_site() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Release); }}
    fn consume(&self) -> bool {{
        // protocol: mixed-ordering fixture hint only, re-checked under the lock
        self.ready.load(Ordering::Relaxed)
    }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            !r.findings
                .iter()
                .any(|f| f.code == "atomic-relaxed-consume"),
            "audited site must be exempt: {r}"
        );
    }

    #[test]
    fn r3_rmw_release_writer_is_not_a_consume() {
        // Seqlock writer: fetch_add(Release) publishes; only the pure
        // Acquire load consumes. The RMW read-half must not be flagged.
        let src = "
struct E { epoch: AtomicU64 }
impl E {
    fn enter(&self) { self.epoch.fetch_add(1, Ordering::Release); }
    fn stable(&self) -> u64 { self.epoch.load(Ordering::Acquire) }
}
";
        let r = check_sources(&[("fix.rs", src)], None);
        assert!(r.is_clean(), "seqlock writer RMW is not a consume: {r}");
    }

    #[test]
    fn r3_relaxed_publication_flagged() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Relaxed); }}
    fn consume(&self) -> bool {{ self.ready.load(Ordering::Acquire) }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "atomic-relaxed-publication"),
            "Acquire load with only Relaxed stores publishes nothing: {r}"
        );
    }
}
