//! Concurrency source lint: lexical rules that keep the engine's hot
//! paths analyzable by the interleaving explorer.
//!
//! Four rules, all reported through [`crate::Report`] with checker name
//! `"srclint"`:
//!
//! 1. **`relaxed-unjustified`** — every `Ordering::Relaxed` use must
//!    either sit in a file whitelisted by [`RELAXED_OK`] (with a recorded
//!    reason) or carry a justification comment of the form
//!    `// relaxed: <why this cannot order anything that matters>` on the
//!    same line or within the five preceding lines.
//! 2. **`facade-bypass`** — engine crates must take their locks and
//!    atomics from the `obr-sync` facade; importing
//!    `std::sync::{Mutex,RwLock,Condvar}`, `std::sync::atomic`, or
//!    `parking_lot` directly creates sync operations the model scheduler
//!    cannot see. Paths in [`FACADE_EXEMPT`] (the facade itself, shims,
//!    tooling) are excluded.
//! 3. **`lock-in-unsafe`** — `.lock()` calls inside `unsafe` blocks:
//!    a blocking acquisition in an unsafe region couples lock-order
//!    hazards with memory-safety obligations; hoist the acquisition out.
//! 4. **`undocumented-unsafe`** — any `unsafe` token without a
//!    `SAFETY:` comment on the same line or within the three preceding
//!    lines (defense in depth next to the workspace-level
//!    `clippy::undocumented_unsafe_blocks = "deny"`).
//!
//! Rules match against the *code-only* line view produced by
//! [`crate::lexer::code_lines`]: comments are dropped and string-literal
//! contents are blanked before any needle is searched, so a pattern
//! quoted in a message, a doc comment, or a test fixture can never trip
//! a rule. That is also why the needles below can be plain constants —
//! this file scans itself without special-casing. Justification markers
//! (`relaxed:`, `SAFETY:`) live in comments, so those alone are searched
//! on the raw lines.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::lexer::code_lines;
use crate::report::Report;

/// Files allowed to use `Ordering::Relaxed` without per-site
/// justification comments, with the audit reason recorded. Paths are
/// relative to the workspace root, `/`-separated.
pub const RELAXED_OK: &[(&str, &str)] = &[
    (
        "crates/storage/src/disk.rs",
        "I/O statistics counters; read only by stats snapshots",
    ),
    (
        "crates/lock/src/manager.rs",
        "monotonic ticket allocation and test-harness stop flags",
    ),
    (
        "crates/core/src/sidefile.rs",
        "sequence allocation; the entries mutex is the ordering point",
    ),
    (
        "crates/core/src/reorg.rs",
        "reorganization-unit id allocation (uniqueness only)",
    ),
    (
        "crates/core/src/pass3.rs",
        "queue-depth gauge read for observability only",
    ),
    (
        "crates/core/src/db.rs",
        "transaction/owner id allocation (uniqueness only)",
    ),
    (
        "crates/core/src/daemon.rs",
        "daemon stop flag; shutdown is quiesced by joining the thread",
    ),
    (
        "crates/baseline/src/tandem.rs",
        "baseline stop flag and statistics counters",
    ),
    (
        "crates/txn/src/workload.rs",
        "throughput statistics and harness stop flag",
    ),
    (
        "crates/obs/src/metrics.rs",
        "metrics registry counters are relaxed by design (observability)",
    ),
    (
        "crates/obs/src/trace.rs",
        "trace ring sequence counter; observability only",
    ),
    (
        "crates/bench/src/experiments.rs",
        "benchmark harness statistics counters",
    ),
    (
        "src/workloads.rs",
        "CLI workload-driver statistics counters",
    ),
    (
        "tests/concurrency_stress.rs",
        "stress-harness statistics counters and stop flags",
    ),
];

/// Path prefixes (workspace-relative, `/`-separated) exempt from the
/// facade-bypass rule: the facade and shims themselves, observability
/// (lock-free by design), checkers and harnesses that run outside the
/// modeled scenarios, and test/bench/example code.
pub const FACADE_EXEMPT: &[&str] = &[
    "shims/",
    "crates/sync/",
    "crates/obs/",
    "crates/check/",
    "crates/race/",
    "crates/bench/",
    "benchmark/",
    "src/",
    "tests/",
    "examples/",
];

// Needles are matched against the code-only view, whose tokens are
// joined by single spaces — multi-token needles are therefore written
// in spaced form ("Ordering :: Relaxed", not "Ordering::Relaxed").
const RELAXED: &str = "Ordering :: Relaxed";
const PARKING: &str = "parking_lot";
const STD_SYNC: &str = "std :: sync ::";
const STD_ATOMIC: &str = "std :: sync :: atomic";
const UNSAFE_KW: &str = "unsafe";
const LOCK_CALL: &str = ". lock (";
const FACADE_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];
// Comment markers, searched on raw lines (comments are absent from the
// code view). Matching a marker only ever *clears* a finding, so the
// string-blindness of a raw-line search is the lenient direction.
const RELAXED_MARK: &str = "relaxed:";
const SAFETY_MARK: &str = "SAFETY:";

/// Lint every `.rs` file under `root` (the workspace checkout), skipping
/// `target/` and VCS directories. Returns all findings plus summary
/// notes.
pub fn lint_sources(root: &Path) -> Report {
    let mut report = Report::new();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();
    let mut relaxed_sites = 0usize;
    for rel in &files {
        let abs = root.join(rel);
        let text = match std::fs::read_to_string(&abs) {
            Ok(t) => t,
            Err(e) => {
                report.error(
                    "srclint",
                    "unreadable-source",
                    None,
                    None,
                    format!("{}: {e}", rel.display()),
                );
                continue;
            }
        };
        relaxed_sites += lint_file(&mut report, rel, &text);
    }
    report.note(format!(
        "srclint: scanned {} files; {} Relaxed sites audited; {} whitelisted files",
        files.len(),
        relaxed_sites,
        RELAXED_OK.len(),
    ));
    report
}

/// Returns the number of `Ordering::Relaxed` sites seen in this file.
fn lint_file(report: &mut Report, rel: &Path, text: &str) -> usize {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let raw: Vec<&str> = text.lines().collect();
    let code = code_lines(text);
    let relaxed_whitelisted = RELAXED_OK.iter().any(|(p, _)| *p == rel_str);
    // Integration tests, benches, and examples may use real (un-modeled)
    // primitives: they exercise true concurrency, not modeled schedules.
    let test_code = ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|seg| rel_str.contains(seg));
    let facade_exempt = test_code || FACADE_EXEMPT.iter().any(|p| rel_str.starts_with(p));
    let marker_near = |idx: usize, span: usize, marker: &str| -> bool {
        let lo = idx.saturating_sub(span);
        raw.get(lo..=idx)
            .map(|window| window.iter().any(|l| l.contains(marker)))
            .unwrap_or(false)
    };
    let mut relaxed_sites = 0usize;
    let mut unsafe_depth: i32 = 0;
    for (idx, line) in code.iter().enumerate() {
        let lineno = idx + 1;

        // Rule 1: Relaxed needs a nearby justification or a whitelist.
        if line.contains(RELAXED) {
            relaxed_sites += 1;
            if !relaxed_whitelisted && !marker_near(idx, 5, RELAXED_MARK) {
                report.error(
                    "srclint",
                    "relaxed-unjustified",
                    None,
                    None,
                    format!(
                        "{rel_str}:{lineno}: Relaxed ordering without a nearby \
                         justification comment and file not whitelisted"
                    ),
                );
            }
        }

        // Rule 2: no raw sync imports outside the facade.
        if !facade_exempt {
            let uses_parking = contains_word(line, PARKING);
            let uses_std_atomic = line.contains(STD_ATOMIC);
            let uses_std_lock =
                line.contains(STD_SYNC) && FACADE_TYPES.iter().any(|t| contains_word(line, t));
            if uses_parking || uses_std_atomic || uses_std_lock {
                report.error(
                    "srclint",
                    "facade-bypass",
                    None,
                    None,
                    format!(
                        "{rel_str}:{lineno}: raw sync primitive bypasses the obr-sync \
                         facade (invisible to the model scheduler)"
                    ),
                );
            }
        }

        // Rules 3 + 4: unsafe tracking. Brace depth is line-based and
        // conservative — acceptable because the workspace target state
        // is zero unsafe (clippy denies undocumented blocks too).
        let opens = line.matches('{').count() as i32;
        let closes = line.matches('}').count() as i32;
        if contains_word(line, UNSAFE_KW) {
            if !marker_near(idx, 3, SAFETY_MARK) {
                report.error(
                    "srclint",
                    "undocumented-unsafe",
                    None,
                    None,
                    format!("{rel_str}:{lineno}: unsafe without a SAFETY: comment"),
                );
            }
            if line.contains(LOCK_CALL) {
                report.error(
                    "srclint",
                    "lock-in-unsafe",
                    None,
                    None,
                    format!("{rel_str}:{lineno}: blocking lock acquisition inside unsafe"),
                );
            }
            // Track the block only if it stays open past this line.
            unsafe_depth += (opens - closes).max(0);
        } else if unsafe_depth > 0 {
            if line.contains(LOCK_CALL) {
                report.error(
                    "srclint",
                    "lock-in-unsafe",
                    None,
                    None,
                    format!("{rel_str}:{lineno}: blocking lock acquisition inside unsafe"),
                );
            }
            unsafe_depth = (unsafe_depth + opens - closes).max(0);
        }
    }
    relaxed_sites
}

fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack.as_bytes()[at - 1].is_ascii_alphanumeric()
                && haystack.as_bytes()[at - 1] != b'_';
        let end = at + word.len();
        let after_ok = end >= haystack.len()
            || !haystack.as_bytes()[end].is_ascii_alphanumeric()
                && haystack.as_bytes()[end] != b'_';
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut names: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    names.sort();
    for path in names {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | ".github") {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// Sanity guard for the whitelist itself: every whitelisted file must
/// exist in the tree being linted, otherwise the whitelist rots.
pub fn check_whitelist(root: &Path) -> Report {
    let mut report = Report::new();
    let mut seen = BTreeSet::new();
    for (path, reason) in RELAXED_OK {
        if !seen.insert(*path) {
            report.error(
                "srclint",
                "whitelist-duplicate",
                None,
                None,
                format!("{path} listed twice"),
            );
        }
        if reason.trim().is_empty() {
            report.error(
                "srclint",
                "whitelist-no-reason",
                None,
                None,
                format!("{path} has no audit reason"),
            );
        }
        if !root.join(path).is_file() {
            report.error(
                "srclint",
                "whitelist-stale",
                None,
                None,
                format!("{path} whitelisted but absent from the tree"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_tree(files: &[(&str, &str)]) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering as O};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "obr-srclint-{}-{}",
            std::process::id(),
            N.fetch_add(1, O::Relaxed)
        ));
        for (rel, content) in files {
            let p = dir.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, content).unwrap();
        }
        dir
    }

    // Fixture contents are plain literals: the linter reads them back
    // through the lexer's code view, and string literals in *this* file
    // are blanked before matching, so nothing here trips the rules.
    #[test]
    fn unjustified_relaxed_is_flagged_and_comment_clears_it() {
        let bad = "fn f() { x.load(Ordering::Relaxed); }\n";
        let good =
            "// relaxed: counter is observability-only\nfn f() { x.load(Ordering::Relaxed); }\n";
        let root = scratch_tree(&[
            ("crates/core/src/a.rs", bad),
            ("crates/core/src/b.rs", good),
        ]);
        let r = lint_sources(&root);
        let flagged: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.code == "relaxed-unjustified")
            .collect();
        assert_eq!(flagged.len(), 1, "{r}");
        assert!(flagged[0].detail.contains("a.rs"), "{r}");
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn relaxed_inside_string_or_comment_is_invisible() {
        let fixture = concat!(
            "// a doc mentioning Ordering::Relaxed is not a use site\n",
            "fn f() -> &'static str {\n",
            "    \"self.real.load(Ordering::Relaxed)\"\n",
            "}\n",
        );
        let root = scratch_tree(&[("crates/core/src/a.rs", fixture)]);
        let r = lint_sources(&root);
        assert!(
            !r.findings.iter().any(|f| f.code == "relaxed-unjustified"),
            "string/comment text must not trip the lint: {r}"
        );
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn facade_bypass_flagged_outside_exempt_paths() {
        let import = "use parking_lot::Mutex;\n";
        let root = scratch_tree(&[
            ("crates/core/src/a.rs", import),
            ("shims/x/src/lib.rs", import),
            ("tests/t.rs", import),
        ]);
        let r = lint_sources(&root);
        let flagged: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.code == "facade-bypass")
            .collect();
        assert_eq!(flagged.len(), 1, "{r}");
        assert!(flagged[0].detail.contains("crates/core"), "{r}");
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn std_sync_import_in_string_is_invisible() {
        let fixture = "fn f() -> &'static str { \"use std::sync::Mutex;\" }\n";
        let root = scratch_tree(&[("crates/core/src/a.rs", fixture)]);
        let r = lint_sources(&root);
        assert!(
            !r.findings.iter().any(|f| f.code == "facade-bypass"),
            "quoted import must not trip the facade rule: {r}"
        );
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn undocumented_unsafe_and_lock_inside_it() {
        let bad = "fn f() { unsafe { g.lock(); } }\n";
        let good = "// SAFETY: region is a no-op placeholder\nfn f() { unsafe { } }\n";
        let root = scratch_tree(&[
            ("crates/core/src/a.rs", bad),
            ("crates/core/src/b.rs", good),
        ]);
        let r = lint_sources(&root);
        assert!(
            r.findings.iter().any(|f| f.code == "undocumented-unsafe"),
            "{r}"
        );
        assert!(r.findings.iter().any(|f| f.code == "lock-in-unsafe"), "{r}");
        assert!(
            !r.findings.iter().any(|f| f.detail.contains("b.rs")),
            "documented empty unsafe must pass: {r}"
        );
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn whitelist_entries_point_at_real_files() {
        // Walk up from the crate dir to the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let r = check_whitelist(root);
        assert!(r.is_clean(), "{r}");
    }
}
