//! Lock-acquisition-order manifest checker.
//!
//! The repository commits a machine-checked manifest,
//! `check/lockorder.toml`, declaring every lock *class* in the engine
//! (the `&'static str` names passed to `obr_sync::Mutex::named` and
//! friends) and which classes a thread may acquire while already holding
//! each class. The interleaving explorer (`obr-race`) records the edges
//! actually exercised — `(held class, acquired class)` pairs — across
//! every schedule it runs; this module diffs that observation set
//! against the manifest:
//!
//! - every **observed** edge must be **declared** (an undeclared edge is
//!   a new nested-acquisition pattern nobody vetted → error);
//! - the **declared** graph must be **acyclic** (a cycle in the manifest
//!   means the documented protocol itself permits deadlock → error);
//! - declared-but-unobserved edges are reported as notes, so coverage
//!   loss is visible without failing the build.
//!
//! Same-class nesting is vetted in [`SELF_EDGE_OK`], not in the manifest
//! (a self-loop would fail its acyclicity check); this diff and
//! `check --protocol` both read it.
//!
//! The manifest is parsed by a deliberately tiny TOML-subset reader
//! (tables, string and string-array values, comments) so the offline
//! build needs no TOML dependency. The subset is documented in the
//! manifest file itself.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::report::Report;

/// Classes where same-class nesting is a vetted pattern: page latches
/// couple parent→child during descent and, under the SMO latch, hold a
/// split's or free-at-empty's side-pointer neighbours until its record
/// stamps them. Everything else (notably `pool.shard.frames`, whose
/// shards must never be held two at a time) must never self-nest.
pub const SELF_EDGE_OK: &[&str] = &["pool.frame.data"];

/// A parsed `check/lockorder.toml`.
#[derive(Debug, Default, Clone)]
pub struct LockOrderManifest {
    /// Declared lock classes: name → one-line description.
    pub classes: BTreeMap<String, String>,
    /// Declared edges: `(held, acquired)` pairs a thread may form.
    pub allowed: BTreeSet<(String, String)>,
}

/// Parse the TOML subset used by the manifest. Returns the manifest or
/// a list of syntax errors with line numbers.
pub fn parse_manifest(text: &str) -> Result<LockOrderManifest, Vec<String>> {
    enum Section {
        None,
        Classes,
        Order,
        Unknown,
    }
    let mut m = LockOrderManifest::default();
    let mut errors = Vec::new();
    let mut section = Section::None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            section = match name.trim() {
                "classes" => Section::Classes,
                "may_hold_while_acquiring" => Section::Order,
                other => {
                    errors.push(format!("line {lineno}: unknown table [{other}]"));
                    Section::Unknown
                }
            };
            continue;
        }
        let Some((key_raw, value_raw)) = line.split_once('=') else {
            errors.push(format!("line {lineno}: expected `key = value`"));
            continue;
        };
        let Some(key) = parse_key(key_raw.trim()) else {
            errors.push(format!("line {lineno}: bad key {:?}", key_raw.trim()));
            continue;
        };
        let value = value_raw.trim();
        match section {
            Section::Classes => match parse_string(value) {
                Some(desc) => {
                    if m.classes.insert(key.clone(), desc).is_some() {
                        errors.push(format!("line {lineno}: class {key:?} declared twice"));
                    }
                }
                None => errors.push(format!("line {lineno}: expected a quoted string value")),
            },
            Section::Order => match parse_string_array(value) {
                Some(targets) => {
                    for t in targets {
                        if !m.allowed.insert((key.clone(), t.clone())) {
                            errors.push(format!(
                                "line {lineno}: edge {key:?} -> {t:?} declared twice"
                            ));
                        }
                    }
                }
                None => errors.push(format!("line {lineno}: expected an array of strings")),
            },
            Section::None => {
                errors.push(format!("line {lineno}: entry before any [table]"));
            }
            Section::Unknown => {}
        }
    }
    if errors.is_empty() {
        Ok(m)
    } else {
        Err(errors)
    }
}

/// Read and parse a manifest file; I/O and syntax problems become
/// `lockorder` error findings on the returned report.
pub fn load_manifest(path: &Path) -> Result<LockOrderManifest, Report> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            let mut r = Report::new();
            r.error(
                "lockorder",
                "manifest-unreadable",
                None,
                None,
                format!("{}: {e}", path.display()),
            );
            return Err(r);
        }
    };
    parse_manifest(&text).map_err(|errors| {
        let mut r = Report::new();
        for e in errors {
            r.error(
                "lockorder",
                "manifest-syntax",
                None,
                None,
                format!("{}: {e}", path.display()),
            );
        }
        r
    })
}

/// Diff an observed edge set against the manifest. See the module docs
/// for the three checks. `observed` holds `(held, acquired)` class
/// pairs as recorded by the model scheduler.
pub fn check_lock_order(
    manifest: &LockOrderManifest,
    observed: &BTreeSet<(String, String)>,
) -> Report {
    let mut report = Report::new();

    // 1. Internal consistency: every class named by an edge is declared.
    for (a, b) in &manifest.allowed {
        for c in [a, b] {
            if !manifest.classes.contains_key(c) {
                report.error(
                    "lockorder",
                    "undeclared-class",
                    None,
                    None,
                    format!("edge {a:?} -> {b:?} names class {c:?} missing from [classes]"),
                );
            }
        }
    }

    // 2. The declared graph must be acyclic.
    if let Some(cycle) = find_cycle(&manifest.allowed) {
        report.error(
            "lockorder",
            "manifest-cycle",
            None,
            None,
            format!("declared ordering permits deadlock: {}", cycle.join(" -> ")),
        );
    }

    // Vetted same-class nesting is not an edge of the order: set it apart
    // before the declared-edge and cycle checks.
    let (vetted, observed): (BTreeSet<_>, BTreeSet<_>) = observed
        .iter()
        .cloned()
        .partition(|(held, acq)| held == acq && SELF_EDGE_OK.contains(&held.as_str()));

    // 3. Every observed edge must be declared; observed classes known.
    for (held, acq) in &observed {
        if !manifest.classes.contains_key(held) || !manifest.classes.contains_key(acq) {
            report.error(
                "lockorder",
                "unknown-observed-class",
                None,
                None,
                format!("observed edge {held:?} -> {acq:?} uses a class missing from [classes]"),
            );
        }
        if !manifest.allowed.contains(&(held.clone(), acq.clone())) {
            report.error(
                "lockorder",
                "undeclared-edge",
                None,
                None,
                format!(
                    "observed nested acquisition {held:?} -> {acq:?} is not in \
                     [may_hold_while_acquiring]; vet it and add it, or fix the code"
                ),
            );
        }
    }

    // 4. Belt and braces: the observed graph itself must be acyclic even
    //    if the manifest check above was skipped or wrong.
    if let Some(cycle) = find_cycle(&observed) {
        report.error(
            "lockorder",
            "observed-cycle",
            None,
            None,
            format!("observed acquisitions form a cycle: {}", cycle.join(" -> ")),
        );
    }

    // 5. Coverage notes.
    let unobserved: Vec<&(String, String)> = manifest
        .allowed
        .iter()
        .filter(|e| !observed.contains(*e))
        .collect();
    report.note(format!(
        "lock-order: {} classes, {} declared edges, {} observed ({} declared-but-unobserved)",
        manifest.classes.len(),
        manifest.allowed.len(),
        observed.len(),
        unobserved.len(),
    ));
    for (a, b) in unobserved {
        report.note(format!("declared edge never observed: {a:?} -> {b:?}"));
    }
    for (class, _) in vetted {
        report.note(format!("vetted same-class nesting observed: {class:?}"));
    }
    report
}

/// Convenience wrapper: load `path` and diff `observed` against it.
pub fn check_lock_order_file(path: &Path, observed: &BTreeSet<(String, String)>) -> Report {
    match load_manifest(path) {
        Ok(m) => check_lock_order(&m, observed),
        Err(r) => r,
    }
}

/// Find any cycle in the directed edge set; returns the node sequence
/// `n0 -> n1 -> ... -> n0` if one exists.
fn find_cycle(edges: &BTreeSet<(String, String)>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    // Iterative DFS with colors: 0 unvisited, 1 on stack, 2 done.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    for &start in adj.keys() {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        color.insert(start, 1);
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, next) = stack[top];
            let children = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next >= children.len() {
                color.insert(node, 2);
                stack.pop();
                continue;
            }
            let child = children[next];
            stack[top].1 += 1;
            match color.get(child).copied().unwrap_or(0) {
                0 => {
                    parent.insert(child, node);
                    color.insert(child, 1);
                    stack.push((child, 0));
                }
                1 => {
                    // Found a back edge: reconstruct node -> ... -> child.
                    let mut cycle = vec![child.to_string()];
                    let mut cur = node;
                    while cur != child {
                        cycle.push(cur.to_string());
                        cur = parent.get(cur).copied().unwrap_or(child);
                    }
                    cycle.push(child.to_string());
                    cycle.reverse();
                    return Some(cycle);
                }
                _ => {}
            }
        }
    }
    None
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_key(raw: &str) -> Option<String> {
    if let Some(q) = parse_string(raw) {
        return Some(q);
    }
    let ok = !raw.is_empty()
        && raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    ok.then(|| raw.to_string())
}

fn parse_string(raw: &str) -> Option<String> {
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    // No escapes in the subset: class names never need them.
    (!inner.contains('"')).then(|| inner.to_string())
}

fn parse_string_array(raw: &str) -> Option<Vec<String>> {
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[classes]
"a.lock" = "first"
"b.lock" = "second"
"c.lock" = "third"

[may_hold_while_acquiring]
"a.lock" = ["b.lock", "c.lock"]
"b.lock" = ["c.lock"]
"#;

    fn edges(pairs: &[(&str, &str)]) -> BTreeSet<(String, String)> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn parses_the_subset() {
        let m = parse_manifest(SAMPLE).unwrap();
        assert_eq!(m.classes.len(), 3);
        assert_eq!(m.classes["a.lock"], "first");
        assert_eq!(m.allowed.len(), 3);
        assert!(m.allowed.contains(&("b.lock".into(), "c.lock".into())));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_manifest("[classes]\nnot a kv line\n").unwrap_err();
        assert!(err[0].contains("line 2"), "{err:?}");
    }

    #[test]
    fn observed_subset_of_manifest_is_clean() {
        let m = parse_manifest(SAMPLE).unwrap();
        let r = check_lock_order(&m, &edges(&[("a.lock", "b.lock")]));
        assert!(r.is_clean(), "{r}");
        // Unobserved edges surface as notes, not findings.
        assert!(r.info.iter().any(|l| l.contains("never observed")), "{r}");
    }

    #[test]
    fn undeclared_edge_is_an_error() {
        let m = parse_manifest(SAMPLE).unwrap();
        let r = check_lock_order(&m, &edges(&[("c.lock", "a.lock")]));
        assert!(r.has_errors(), "{r}");
        assert!(r.findings.iter().any(|f| f.code == "undeclared-edge"));
    }

    #[test]
    fn only_vetted_classes_may_self_nest() {
        let text = r#"
[classes]
"pool.frame.data" = "page latch"
"pool.shard.frames" = "frame table"
[may_hold_while_acquiring]
"pool.frame.data" = ["pool.shard.frames"]
"#;
        let m = parse_manifest(text).unwrap();
        let page = ("pool.frame.data", "pool.frame.data");
        let nested = edges(&[page, ("pool.frame.data", "pool.shard.frames")]);
        let r = check_lock_order(&m, &nested);
        assert!(r.is_clean(), "{r}");
        assert!(r.info.iter().any(|l| l.contains("same-class")), "{r}");
        let r = check_lock_order(&m, &edges(&[("pool.shard.frames", "pool.shard.frames")]));
        assert!(
            r.findings.iter().any(|f| f.code == "undeclared-edge"),
            "{r}"
        );
        assert!(r.findings.iter().any(|f| f.code == "observed-cycle"), "{r}");
    }

    #[test]
    fn manifest_cycle_is_an_error() {
        let text = r#"
[classes]
"a" = "x"
"b" = "y"
[may_hold_while_acquiring]
"a" = ["b"]
"b" = ["a"]
"#;
        let m = parse_manifest(text).unwrap();
        let r = check_lock_order(&m, &BTreeSet::new());
        assert!(r.findings.iter().any(|f| f.code == "manifest-cycle"), "{r}");
    }

    #[test]
    fn edge_naming_unknown_class_is_an_error() {
        let text = r#"
[classes]
"a" = "x"
[may_hold_while_acquiring]
"a" = ["ghost"]
"#;
        let m = parse_manifest(text).unwrap();
        let r = check_lock_order(&m, &BTreeSet::new());
        assert!(
            r.findings.iter().any(|f| f.code == "undeclared-class"),
            "{r}"
        );
    }
}
