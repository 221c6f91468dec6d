//! Whole-workspace call graph and dataflow summaries for the protocol
//! checker.
//!
//! Takes the per-file facts from [`crate::facts`] and computes:
//!
//! * a poor-man's type resolution (struct field types, function return
//!   types, local `let x = call()` bindings, wrapper stripping) good
//!   enough to resolve most method calls in this codebase;
//! * per-function summaries by fixpoint over the call graph:
//!   `may_acquire` (lock classes a call may take, transitively),
//!   `appends` (reaches a `// protocol: wal-append` primitive),
//!   `mutates` (reaches a `// protocol: page-mutation` primitive);
//! * static lock-order edges: a linear replay of each function's op
//!   stream tracking lexically held guards, emitting `(held, acquired)`
//!   pairs for both direct acquisitions and calls (via the callee's
//!   `may_acquire` summary). Calls returning raw lock guards that are
//!   let-bound extend the callee's classes over the binding scope.
//!
//! Unresolvable calls (untyped receivers, foreign crates) resolve to
//! nothing: the analysis under-approximates the call graph. That can
//! miss edges but not invent them, which is the right bias for a
//! checker whose manifest diffs are vetted by a human.

use crate::facts::{AnnKind, FileFacts, FnInfo, Op, RawCall, Recv, Seg, TyperHint};
use std::collections::{BTreeMap, BTreeSet};

/// Flattened function id: index into [`Workspace::fns`].
pub type FnId = usize;

/// A static lock-order edge with provenance.
#[derive(Debug, Clone)]
pub struct StaticEdge {
    /// Class already held.
    pub held: String,
    /// Class being acquired while `held` is held.
    pub acquired: String,
    /// Function the edge was observed in.
    pub in_fn: FnId,
    /// Line of the acquiring op.
    pub line: u32,
    /// Callee whose `may_acquire` produced the edge, if indirect.
    pub via: Option<FnId>,
}

/// One function's resolved view.
pub struct FnNode {
    /// File index of the function (into [`Workspace::files`]).
    pub file: usize,
    /// Function index within that file's facts.
    pub fi: usize,
    /// Resolved callees per call op (op index → callee ids).
    pub callees: Vec<(usize, Vec<FnId>)>,
    /// Classes acquired directly in the body.
    pub direct_acquires: BTreeSet<String>,
}

/// The whole-workspace index plus computed summaries.
pub struct Workspace {
    /// Per-file extracted facts, in scan order.
    pub files: Vec<FileFacts>,
    /// Flattened function table.
    pub fns: Vec<FnNode>,
    /// `(type name, method name)` → function ids.
    by_type_method: BTreeMap<(String, String), Vec<FnId>>,
    /// trait name → implementing type names.
    trait_impls: BTreeMap<String, Vec<String>>,
    /// free function name → ids (no impl type).
    free_by_name: BTreeMap<String, Vec<FnId>>,
    /// struct name → field name → (core type, is_atomic).
    struct_fields: BTreeMap<String, BTreeMap<String, (Option<String>, bool)>>,
    /// atomic field name → owning struct names.
    pub atomic_field_owners: BTreeMap<String, Vec<String>>,
    /// lock-class bindings: per-file name → class, and global unique.
    file_classes: Vec<BTreeMap<String, String>>,
    global_classes: BTreeMap<String, Option<String>>,
    /// Lock classes each function may acquire, transitively.
    pub may_acquire: Vec<BTreeSet<String>>,
    /// Reaches a `wal-append` primitive, transitively.
    pub appends: Vec<bool>,
    /// Reaches a `page-mutation` primitive, transitively.
    pub mutates: Vec<bool>,
    /// In-degree over resolved call edges.
    pub callers: Vec<Vec<FnId>>,
}

impl Workspace {
    /// Index the files, resolve every call, and compute summaries.
    pub fn build(files: Vec<FileFacts>) -> Workspace {
        let mut fns = Vec::new();
        let mut by_type_method: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut trait_impls: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut struct_fields: BTreeMap<String, BTreeMap<String, (Option<String>, bool)>> =
            BTreeMap::new();
        let mut atomic_field_owners: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut file_classes = Vec::new();
        let mut global_classes: BTreeMap<String, Option<String>> = BTreeMap::new();

        for (file_idx, f) in files.iter().enumerate() {
            let mut classes = BTreeMap::new();
            for c in &f.classes {
                classes.insert(c.name.clone(), c.class.clone());
                global_classes
                    .entry(c.name.clone())
                    .and_modify(|v| {
                        if v.as_deref() != Some(c.class.as_str()) {
                            *v = None; // ambiguous across files
                        }
                    })
                    .or_insert_with(|| Some(c.class.clone()));
            }
            file_classes.push(classes);

            for s in &f.structs {
                let entry = struct_fields.entry(s.name.clone()).or_default();
                for fld in &s.fields {
                    entry.insert(fld.name.clone(), (fld.type_core.clone(), fld.is_atomic));
                    if fld.is_atomic {
                        let owners = atomic_field_owners.entry(fld.name.clone()).or_default();
                        if !owners.contains(&s.name) {
                            owners.push(s.name.clone());
                        }
                    }
                }
            }

            for (fi, func) in f.fns.iter().enumerate() {
                let id: FnId = fns.len();
                fns.push(FnNode {
                    file: file_idx,
                    fi,
                    callees: Vec::new(),
                    direct_acquires: BTreeSet::new(),
                });
                if let Some(t) = &func.impl_type {
                    by_type_method
                        .entry((t.clone(), func.name.clone()))
                        .or_default()
                        .push(id);
                    if let Some(tr) = &func.trait_name {
                        if tr != t {
                            let impls = trait_impls.entry(tr.clone()).or_default();
                            if !impls.contains(t) {
                                impls.push(t.clone());
                            }
                        }
                    }
                } else {
                    free_by_name.entry(func.name.clone()).or_default().push(id);
                }
            }
        }

        let mut ws = Workspace {
            files,
            fns,
            by_type_method,
            trait_impls,
            free_by_name,
            struct_fields,
            atomic_field_owners,
            file_classes,
            global_classes,
            may_acquire: Vec::new(),
            appends: Vec::new(),
            mutates: Vec::new(),
            callers: Vec::new(),
        };
        ws.type_opaque_returns();
        ws.resolve_calls();
        ws.summarize();
        ws
    }

    /// Type each `-> impl Trait` function by the call its body ends with.
    /// The trait's name is no type: a call on such a value would fan out
    /// to every impl of the trait (`next` on a `std` adapter chain to every
    /// workspace `Iterator`). A tail that does not resolve leaves the
    /// function untyped, and calls on its value resolve to nothing.
    fn type_opaque_returns(&mut self) {
        let mut typed = Vec::new();
        for id in 0..self.fns.len() {
            let file = self.fns[id].file;
            let func = self.fn_info(id);
            if let Some(call) = &func.tail_call {
                let locals = self.type_locals(file, func);
                if let Some(t) = self.call_ret(file, func, &locals, call) {
                    typed.push((id, t));
                }
            }
        }
        for (id, t) in typed {
            let n = &self.fns[id];
            self.files[n.file].fns[n.fi].ret = Some(t);
        }
    }

    /// The function's extracted facts.
    pub fn fn_info(&self, id: FnId) -> &FnInfo {
        let n = &self.fns[id];
        &self.files[n.file].fns[n.fi]
    }

    /// Display path `Type::name` (or bare `name`) for diagnostics.
    pub fn fn_path(&self, id: FnId) -> String {
        let n = &self.fns[id];
        let f = &self.files[n.file].fns[n.fi];
        match &f.impl_type {
            Some(t) => format!("{}::{}", t, f.name),
            None => f.name.clone(),
        }
    }

    /// Relative file path the function lives in.
    pub fn fn_file(&self, id: FnId) -> &str {
        &self.files[self.fns[id].file].path
    }

    /// Resolve a lock class for a syntactic field/local name, preferring
    /// the accessing file's bindings.
    fn class_for(&self, file: usize, name: &str) -> Option<String> {
        if let Some(c) = self.file_classes[file].get(name) {
            return Some(c.clone());
        }
        self.global_classes.get(name).and_then(|v| v.clone())
    }

    /// Methods treated as type-preserving when unresolved.
    fn is_identity_method(name: &str) -> bool {
        matches!(
            name,
            "unwrap"
                | "expect"
                | "clone"
                | "as_ref"
                | "as_mut"
                | "borrow"
                | "borrow_mut"
                | "lock"
                | "read"
                | "write"
                | "try_lock"
                | "try_read"
                | "try_write"
        )
    }

    /// Return type of `type_name::method`, following trait impls.
    fn method_ret(&self, type_name: &str, method: &str) -> Option<String> {
        for id in self.lookup_methods(type_name, method) {
            let f = self.fn_info(id);
            if let Some(r) = &f.ret {
                if r == "Self" {
                    return f.impl_type.clone();
                }
                return Some(r.clone());
            }
        }
        None
    }

    /// All function ids for `type_name::method`, including trait-impl
    /// fan-out when `type_name` is a trait.
    fn lookup_methods(&self, type_name: &str, method: &str) -> Vec<FnId> {
        let mut out = Vec::new();
        if let Some(ids) = self
            .by_type_method
            .get(&(type_name.to_string(), method.to_string()))
        {
            out.extend_from_slice(ids);
        }
        if let Some(impls) = self.trait_impls.get(type_name) {
            for ty in impls {
                if let Some(ids) = self.by_type_method.get(&(ty.clone(), method.to_string())) {
                    for id in ids {
                        if !out.contains(id) {
                            out.push(*id);
                        }
                    }
                }
            }
        }
        out
    }

    fn field_type(&self, type_name: &str, field: &str) -> Option<String> {
        self.struct_fields.get(type_name)?.get(field)?.0.clone()
    }

    /// True when `type_name` declares `field` with an `Atomic*` type.
    pub fn struct_has_atomic_field(&self, type_name: &str, field: &str) -> bool {
        self.struct_fields
            .get(type_name)
            .and_then(|m| m.get(field))
            .map(|(_, a)| *a)
            .unwrap_or(false)
    }

    /// Type a receiver chain inside `func` (which lives in `file`).
    /// `locals` maps already-typed let bindings.
    fn chain_type(
        &self,
        func: &FnInfo,
        locals: &BTreeMap<String, String>,
        segs: &[Seg],
    ) -> Option<String> {
        let mut cur: String = match segs.first()? {
            Seg::Base(b) if b == "self" => func.impl_type.clone()?,
            Seg::Base(b) => {
                if let Some(t) = locals.get(b) {
                    t.clone()
                } else if let Some((_, t)) = func.params.iter().find(|(n, _)| n == b) {
                    t.clone()?
                } else if self.struct_fields.contains_key(b) {
                    b.clone()
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        for seg in &segs[1..] {
            cur = match seg {
                Seg::Base(_) => return None,
                Seg::Field(f) => self.field_type(&cur, f)?,
                Seg::Method(m) => match self.method_ret(&cur, m) {
                    Some(t) => {
                        if t == "Self" {
                            cur
                        } else {
                            t
                        }
                    }
                    None if Self::is_identity_method(m) => cur,
                    None => return None,
                },
            };
        }
        Some(cur)
    }

    /// Resolve one call to workspace function ids.
    fn resolve_call(
        &self,
        file: usize,
        func: &FnInfo,
        locals: &BTreeMap<String, String>,
        call: &RawCall,
    ) -> Vec<FnId> {
        match &call.recv {
            Recv::None => {
                // Same-file free fn first, then globally unique.
                if let Some(ids) = self.free_by_name.get(&call.name) {
                    let local: Vec<FnId> = ids
                        .iter()
                        .copied()
                        .filter(|id| self.fns[*id].file == file)
                        .collect();
                    if !local.is_empty() {
                        return local;
                    }
                    if ids.len() == 1 {
                        return ids.clone();
                    }
                }
                Vec::new()
            }
            Recv::Path(p) => {
                let ty = if p == "Self" {
                    match &func.impl_type {
                        Some(t) => t.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    p.clone()
                };
                self.lookup_methods(&ty, &call.name)
            }
            Recv::Chain(segs) => {
                // `self.method()` with a one-segment chain.
                if segs.len() == 1 {
                    if let Seg::Base(b) = &segs[0] {
                        if b == "self" {
                            if let Some(t) = &func.impl_type {
                                let ids = self.lookup_methods(t, &call.name);
                                if !ids.is_empty() {
                                    return ids;
                                }
                                if let Some(tr) = &func.trait_name {
                                    return self.lookup_methods(tr, &call.name);
                                }
                                return Vec::new();
                            }
                        }
                    }
                }
                match self.chain_type(func, locals, segs) {
                    Some(t) => self.lookup_methods(&t, &call.name),
                    None => Vec::new(),
                }
            }
        }
    }

    /// Compute each function's local type environment from its
    /// `TyperHint`s (in order), then resolve every call op.
    fn resolve_calls(&mut self) {
        let mut resolved: Vec<Vec<(usize, Vec<FnId>)>> = Vec::with_capacity(self.fns.len());
        let mut direct: Vec<BTreeSet<String>> = Vec::with_capacity(self.fns.len());
        for id in 0..self.fns.len() {
            let file = self.fns[id].file;
            let func = self.fn_info(id);
            let locals = self.type_locals(file, func);
            let mut callees = Vec::new();
            let mut acq = BTreeSet::new();
            for (op_idx, op) in func.ops.iter().enumerate() {
                match op {
                    Op::Call { call, .. } => {
                        let ids = self.resolve_call(file, func, &locals, call);
                        callees.push((op_idx, ids));
                    }
                    Op::Acquire { class, .. } => {
                        acq.insert(class.clone());
                    }
                    _ => {}
                }
            }
            resolved.push(callees);
            direct.push(acq);
        }
        let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); self.fns.len()];
        for (id, callees) in resolved.iter().enumerate() {
            for (_, ids) in callees {
                for c in ids {
                    if !callers[*c].contains(&id) {
                        callers[*c].push(id);
                    }
                }
            }
        }
        for (id, (callees, acq)) in resolved.into_iter().zip(direct).enumerate() {
            self.fns[id].callees = callees;
            self.fns[id].direct_acquires = acq;
        }
        self.callers = callers;
    }

    fn type_locals(&self, file: usize, func: &FnInfo) -> BTreeMap<String, String> {
        let mut locals: BTreeMap<String, String> = BTreeMap::new();
        for (name, hint) in &func.locals {
            let t = match hint {
                TyperHint::Explicit(t) => Some(t.clone()),
                TyperHint::StructLit(t) => Some(t.clone()),
                TyperHint::FromCall(call) => {
                    let mut ty = self.call_ret(file, func, &locals, call);
                    // `let g = x.write()` on an unresolvable lock:
                    // identity typing via the chain.
                    if ty.is_none() {
                        if let Recv::Chain(segs) = &call.recv {
                            if Self::is_identity_method(&call.name) {
                                ty = self.chain_type(func, &locals, segs);
                            }
                        }
                    }
                    ty
                }
            };
            if let Some(t) = t {
                locals.insert(name.clone(), t);
            }
        }
        locals
    }

    /// The type `call` returns: the declared return type of its first
    /// resolved callee that declares one, `Self` read as that callee's
    /// impl type.
    fn call_ret(
        &self,
        file: usize,
        func: &FnInfo,
        locals: &BTreeMap<String, String>,
        call: &RawCall,
    ) -> Option<String> {
        let ids = self.resolve_call(file, func, locals, call);
        let f = self.fn_info(ids.into_iter().find(|&id| self.fn_info(id).ret.is_some())?);
        match f.ret.as_deref() {
            Some("Self") => f.impl_type.clone(),
            r => r.map(str::to_string),
        }
    }

    /// Fixpoint summaries: may_acquire, appends, mutates.
    fn summarize(&mut self) {
        let n = self.fns.len();
        let mut may: Vec<BTreeSet<String>> = (0..n)
            .map(|i| self.fns[i].direct_acquires.clone())
            .collect();
        let mut appends: Vec<bool> = (0..n)
            .map(|i| {
                self.fn_info(i)
                    .anns
                    .iter()
                    .any(|a| a.kind == AnnKind::WalAppend)
            })
            .collect();
        let mut mutates: Vec<bool> = (0..n)
            .map(|i| {
                self.fn_info(i)
                    .anns
                    .iter()
                    .any(|a| a.kind == AnnKind::PageMutation)
            })
            .collect();

        loop {
            let mut changed = false;
            for id in 0..n {
                let mut acc = may[id].clone();
                let mut app = appends[id];
                let mut mu = mutates[id];
                for (_, callees) in &self.fns[id].callees {
                    for c in callees {
                        for cl in &may[*c] {
                            if acc.insert(cl.clone()) {
                                changed = true;
                            }
                        }
                        if appends[*c] && !app {
                            app = true;
                            changed = true;
                        }
                        if mutates[*c] && !mu {
                            mu = true;
                            changed = true;
                        }
                    }
                }
                may[id] = acc;
                appends[id] = app;
                mutates[id] = mu;
            }
            if !changed {
                break;
            }
        }
        self.may_acquire = may;
        self.appends = appends;
        self.mutates = mutates;
    }

    /// Types of the function's let-bound locals, for the rule passes.
    pub fn typed_locals(&self, id: FnId) -> BTreeMap<String, String> {
        self.type_locals(self.fns[id].file, self.fn_info(id))
    }

    /// Type a receiver chain inside function `id` with `locals` from
    /// [`Workspace::typed_locals`].
    pub fn type_of_chain(
        &self,
        id: FnId,
        locals: &BTreeMap<String, String>,
        segs: &[Seg],
    ) -> Option<String> {
        self.chain_type(self.fn_info(id), locals, segs)
    }

    /// Replay one function's op stream and emit static lock-order
    /// edges, consulting callee summaries for indirect acquisitions.
    pub fn static_edges(&self, id: FnId) -> Vec<StaticEdge> {
        let file = self.fns[id].file;
        let func = self.fn_info(id);
        let callee_map: BTreeMap<usize, &Vec<FnId>> =
            self.fns[id].callees.iter().map(|(i, v)| (*i, v)).collect();
        let mut held: Vec<(Option<u32>, String)> = Vec::new();
        let mut edges = Vec::new();
        for (op_idx, op) in func.ops.iter().enumerate() {
            match op {
                Op::Acquire { class, scope, line } => {
                    for (_, h) in &held {
                        edges.push(StaticEdge {
                            held: h.clone(),
                            acquired: class.clone(),
                            in_fn: id,
                            line: *line,
                            via: None,
                        });
                    }
                    held.push((Some(*scope), class.clone()));
                }
                Op::Call { call, scope, line } => {
                    // A lock method on a class-resolvable *global* field
                    // that facts could not resolve file-locally.
                    if let Recv::Chain(segs) = &call.recv {
                        if matches!(
                            call.name.as_str(),
                            "lock" | "read" | "write" | "try_lock" | "try_read" | "try_write"
                        ) {
                            let fname = match segs.last() {
                                Some(Seg::Field(f)) => Some(f.as_str()),
                                Some(Seg::Base(b)) if segs.len() == 1 => Some(b.as_str()),
                                _ => None,
                            };
                            if let Some(fname) = fname {
                                if let Some(class) = self.class_for(file, fname) {
                                    for (_, h) in &held {
                                        edges.push(StaticEdge {
                                            held: h.clone(),
                                            acquired: class.clone(),
                                            in_fn: id,
                                            line: *line,
                                            via: None,
                                        });
                                    }
                                    held.push((*scope, class));
                                    continue;
                                }
                            }
                        }
                    }
                    if let Some(callees) = callee_map.get(&op_idx) {
                        for c in *callees {
                            for acq in &self.may_acquire[*c] {
                                // Same-class pairs are kept: re-entry
                                // through a callee is a self-edge the
                                // rule pass decides about.
                                for (_, h) in &held {
                                    edges.push(StaticEdge {
                                        held: h.clone(),
                                        acquired: acq.clone(),
                                        in_fn: id,
                                        line: *line,
                                        via: Some(*c),
                                    });
                                }
                            }
                            // Guard-returning call bound by `let`: the
                            // callee's classes stay held for the scope.
                            if self.fn_info(*c).returns_lock_guard {
                                if let Some(s) = scope {
                                    for acq in &self.may_acquire[*c] {
                                        held.push((Some(*s), acq.clone()));
                                    }
                                }
                            }
                        }
                    }
                }
                Op::EndScope { scope } => {
                    held.retain(|(s, _)| *s != Some(*scope));
                }
                Op::Atomic(_) => {}
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract_file;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| extract_file(p, s)).collect())
    }

    #[test]
    fn resolves_self_and_typed_chains() {
        let w = ws(&[(
            "a.rs",
            r#"
            pub struct Pool { log: Arc<LogManager> }
            pub struct LogManager { x: u32 }
            impl LogManager {
                // protocol: wal-append
                pub fn append(&self) -> u64 { 0 }
            }
            impl Pool {
                pub fn touch(&self) { self.log.append(); }
            }
            "#,
        )]);
        let touch = (0..w.fns.len())
            .find(|i| w.fn_info(*i).name == "touch")
            .unwrap();
        assert!(w.appends[touch], "touch should transitively append");
    }

    #[test]
    fn guard_returning_call_extends_held_set() {
        let w = ws(&[(
            "a.rs",
            r#"
            pub struct Frame { data: RwLock<Page> }
            pub struct Page { b: u8 }
            pub struct FrameGuard { frame: Arc<Frame> }
            impl Frame {
                fn new() -> Frame { Frame { data: RwLock::named(Page { b: 0 }, "pool.frame.data") } }
            }
            impl FrameGuard {
                pub fn write(&self) -> RwLockWriteGuard<'_, Page> { self.frame.data.write() }
            }
            pub struct Wal { mem: Mutex<u8> }
            impl Wal {
                fn new() -> Wal { Wal { mem: Mutex::named(0, "wal.mem") } }
                pub fn append(&self) { let g = self.mem.lock(); }
            }
            pub struct T { wal: Wal }
            impl T {
                pub fn step(&self, g: FrameGuard) {
                    let page = g.write();
                    self.wal.append();
                }
            }
            "#,
        )]);
        let step = (0..w.fns.len())
            .find(|i| w.fn_info(*i).name == "step")
            .unwrap();
        let edges = w.static_edges(step);
        assert!(
            edges
                .iter()
                .any(|e| e.held == "pool.frame.data" && e.acquired == "wal.mem"),
            "edges: {:?}",
            edges
                .iter()
                .map(|e| (e.held.clone(), e.acquired.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn direct_nesting_edge() {
        let w = ws(&[(
            "a.rs",
            r#"
            pub struct S { a: Mutex<u8>, b: Mutex<u8> }
            impl S {
                fn new() -> S {
                    S { a: Mutex::named(0, "s.a"), b: Mutex::named(0, "s.b") }
                }
                pub fn nest(&self) {
                    let g = self.a.lock();
                    let h = self.b.lock();
                }
            }
            "#,
        )]);
        let nest = (0..w.fns.len())
            .find(|i| w.fn_info(*i).name == "nest")
            .unwrap();
        let edges = w.static_edges(nest);
        assert!(edges.iter().any(|e| e.held == "s.a" && e.acquired == "s.b"));
        assert!(!edges.iter().any(|e| e.held == "s.b"));
    }

    #[test]
    fn interprocedural_edge_via_callee() {
        let w = ws(&[(
            "a.rs",
            r#"
            pub struct S { a: Mutex<u8>, b: Mutex<u8> }
            impl S {
                fn new() -> S { S { a: Mutex::named(0, "s.a"), b: Mutex::named(0, "s.b") } }
                fn inner(&self) { let g = self.b.lock(); }
                pub fn outer(&self) {
                    let g = self.a.lock();
                    self.inner();
                }
            }
            "#,
        )]);
        let outer = (0..w.fns.len())
            .find(|i| w.fn_info(*i).name == "outer")
            .unwrap();
        let edges = w.static_edges(outer);
        assert!(edges
            .iter()
            .any(|e| e.held == "s.a" && e.acquired == "s.b" && e.via.is_some()));
    }

    #[test]
    fn calls_through_a_lock_guard_resolve_and_nest_under_it() {
        let w = ws(&[(
            "a.rs",
            r#"
            pub struct State { n: u8 }
            pub struct Disk { l: Mutex<u8> }
            impl Disk { fn new() -> Disk { Disk { l: Mutex::named(0, "disk.pages") } } }
            impl State {
                pub fn step(&mut self, d: &Disk) { let g = d.l.lock(); }
            }
            pub struct Holder { state: Mutex<State>, disk: Disk }
            impl Holder {
                fn new() -> Holder { Holder { state: Mutex::named(State { n: 0 }, "h.state"), disk: Disk::new() } }
                pub fn run(&self) {
                    let mut s = self.state.lock();
                    s.step(&self.disk);
                }
            }
            "#,
        )]);
        let run = (0..w.fns.len())
            .find(|i| w.fn_info(*i).name == "run")
            .unwrap();
        let callees: Vec<String> = w.fns[run]
            .callees
            .iter()
            .flat_map(|(_, c)| c.iter().map(|id| w.fn_path(*id)))
            .collect();
        assert_eq!(callees, vec!["State::step".to_string()]);
        assert!(w
            .static_edges(run)
            .iter()
            .any(|e| e.held == "h.state" && e.acquired == "disk.pages"));
    }

    /// A cursor type implementing `Iterator` whose `next` takes a latch, a
    /// lock `a` held around the caller's `next`, and `body` as the
    /// `-> impl Iterator` function the caller iterates.
    fn opaque_iterator(body: &str) -> Workspace {
        let src = format!(
            r#"
            pub struct RangeCursor {{ l: Mutex<u8> }}
            impl RangeCursor {{
                fn new() -> RangeCursor {{ RangeCursor {{ l: Mutex::named(0, "tree.page") }} }}
            }}
            impl Iterator for RangeCursor {{
                type Item = u32;
                fn next(&mut self) -> Option<u32> {{ let g = self.l.lock(); None }}
            }}
            pub struct S {{ a: Mutex<u8> }}
            impl S {{
                fn new() -> S {{ S {{ a: Mutex::named(0, "s.a") }} }}
                pub fn replay(&self) {{
                    let g = self.a.lock();
                    let mut ids = ids();
                    ids.next();
                }}
            }}
            pub fn ids() -> impl Iterator<Item = u32> + 'static {{ {body} }}
            "#
        );
        ws(&[("a.rs", &src)])
    }

    fn replay_edges(w: &Workspace) -> Vec<(String, String)> {
        let replay = (0..w.fns.len())
            .find(|i| w.fn_info(*i).name == "replay")
            .unwrap();
        w.static_edges(replay)
            .into_iter()
            .map(|e| (e.held, e.acquired))
            .collect()
    }

    #[test]
    fn next_on_a_std_adapter_chain_reaches_no_workspace_iterator() {
        let w =
            opaque_iterator("let pages = [Some(1), None]; pages.into_iter().flatten().chain(None)");
        assert!(replay_edges(&w).is_empty(), "{:?}", replay_edges(&w));
    }

    #[test]
    fn next_on_a_workspace_cursor_behind_impl_iterator_keeps_its_edge() {
        let w = opaque_iterator("RangeCursor::new()");
        assert_eq!(
            replay_edges(&w),
            vec![("s.a".to_string(), "tree.page".to_string())]
        );
    }

    #[test]
    fn trait_object_fanout() {
        let w = ws(&[(
            "a.rs",
            r#"
            pub trait Disk { fn write_page(&self); }
            pub struct MemDisk { l: Mutex<u8> }
            impl MemDisk { fn new() -> MemDisk { MemDisk { l: Mutex::named(0, "disk.pages") } } }
            impl Disk for MemDisk {
                fn write_page(&self) { let g = self.l.lock(); }
            }
            pub struct Pool { disk: Arc<dyn Disk> }
            impl Pool {
                pub fn flush(&self) { self.disk.write_page(); }
            }
            "#,
        )]);
        let flush = (0..w.fns.len())
            .find(|i| w.fn_info(*i).name == "flush")
            .unwrap();
        assert!(w.may_acquire[flush].contains("disk.pages"));
    }
}
