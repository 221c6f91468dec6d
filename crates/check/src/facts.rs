//! Per-file fact extraction for the protocol checker.
//!
//! Built on [`crate::lexer`], this module turns a Rust source file into:
//!
//! * item facts: structs (fields + core types + atomic-ness), impl blocks,
//!   functions (signature types + body token range), lock-class bindings
//!   mined from `Mutex::named(_, "class")` / `RwLock::named(_, "class")`,
//!   and `// protocol:` annotations;
//! * per-function **op streams**: a linear, token-ordered list of lock
//!   acquisitions (with lexical guard scopes), calls (with receiver
//!   chains), and atomic operations (with `Ordering` arguments).
//!
//! The op stream deliberately defers *resolution* (which function does a
//! call land on, what type is a receiver) to [`crate::callgraph`], which
//! has the whole-workspace index. Extraction here is purely syntactic.
//!
//! ## Soundness envelope
//!
//! This is a lexer-level analysis, not a compiler. The documented
//! approximations:
//!
//! * Guard scopes are lexical: a let-bound guard is held until its block
//!   closes or an explicit `drop(name)`; an unbound (temporary) guard is
//!   held to the end of its statement. Guards moved across function
//!   boundaries are not tracked.
//! * Closures are analyzed inline as part of the enclosing function.
//! * Macro bodies are scanned as plain token text.

use crate::lexer::{lex, Tok, TokKind};

/// Methods that acquire a facade lock when the receiver maps to a class.
const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Atomic access methods we track for R3.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "else", "unsafe",
    "ref", "let", "mut", "where", "impl", "pub", "use", "mod", "struct", "enum", "trait", "const",
    "static", "type", "break", "continue",
];

/// Kind of a `// protocol:` annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnKind {
    /// This function is a WAL append primitive.
    WalAppend,
    /// This function is a page-content mutation primitive.
    PageMutation,
    /// Mutations reached through this function are audited as exempt
    /// from WAL-before-data (recovery redo, bulk load, ...).
    NoWal,
    /// This atomic access site is audited as exempt from publication
    /// pairing (R3).
    MixedOrdering,
}

/// One parsed `// protocol: <kind> <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Annotation kind.
    pub kind: AnnKind,
    /// Free-form justification text after the keyword.
    pub reason: String,
    /// Line the comment appears on.
    pub line: u32,
}

/// A struct field: name, wrapper-stripped core type, atomic-ness.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Wrapper-stripped core type ident, when derivable.
    pub type_core: Option<String>,
    /// Declared with an `Atomic*` type.
    pub is_atomic: bool,
}

/// A struct declaration with its named fields.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// Struct name.
    pub name: String,
    /// Declaration line.
    pub line: u32,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<FieldInfo>,
}

/// `name` (a field or local) was initialized with
/// `Mutex::named(_, "class")` / `RwLock::named(_, "class")` in this file.
#[derive(Debug, Clone)]
pub struct ClassBinding {
    /// Field or local binding name.
    pub name: String,
    /// Lock class string from the `named` constructor.
    pub class: String,
}

/// One segment of a receiver chain, e.g. `self.pool.fetch(id)?.write()`
/// becomes `[Base("self"), Field("pool"), Method("fetch"), Method("write")]`
/// (the final called method is carried separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seg {
    /// Chain head: a local, parameter, `self`, or type name.
    Base(String),
    /// `.field` access.
    Field(String),
    /// `.method(...)` call segment.
    Method(String),
}

/// Receiver form of a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// Free call: `name(...)`.
    None,
    /// Path call `A::name(...)`; the `String` is the last path segment
    /// before the function name (`A`).
    Path(String),
    /// Method call with a receiver chain.
    Chain(Vec<Seg>),
}

/// A syntactic call site.
#[derive(Debug, Clone)]
pub struct RawCall {
    /// Called function/method name.
    pub name: String,
    /// Receiver form.
    pub recv: Recv,
    /// Call site line.
    pub line: u32,
}

/// A syntactic atomic access.
#[derive(Debug, Clone)]
pub struct RawAtomic {
    /// Receiver chain of the atomic *field* (without the method).
    pub chain: Vec<Seg>,
    /// Atomic method (`load`, `store`, `fetch_max`, ...).
    pub method: String,
    /// `Ordering::X` idents found in the argument list, in order.
    pub orderings: Vec<String>,
    /// Access site line.
    pub line: u32,
}

/// Linear op stream of a function body (token order).
#[derive(Debug, Clone)]
pub enum Op {
    /// Acquisition of a lock whose class resolved syntactically
    /// (receiver's final field/local name has a class binding).
    Acquire {
        /// Resolved lock class from the manifest vocabulary.
        class: String,
        /// Lexical scope id the guard lives in.
        scope: u32,
        /// Acquisition site line.
        line: u32,
    },
    /// A call; `scope` is set when the call's result is let-bound, so
    /// the callgraph can model guard-returning calls as scoped
    /// acquisitions.
    Call {
        /// The syntactic call.
        call: RawCall,
        /// Lexical scope id of the let binding, if the result is bound.
        scope: Option<u32>,
        /// Call site line.
        line: u32,
    },
    /// An atomic access with orderings.
    Atomic(RawAtomic),
    /// Lexical end of a scope opened by an `Acquire`/`Call`.
    EndScope {
        /// The scope id being closed.
        scope: u32,
    },
}

/// A function: identity, signature types, annotations, op stream.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl` (or trait name for trait
    /// default methods).
    pub impl_type: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// `(binding name, core type)` for typed parameters.
    pub params: Vec<(String, Option<String>)>,
    /// Wrapper-stripped core return type ident.
    pub ret: Option<String>,
    /// True if the declared return type mentions a raw lock guard
    /// (`MutexGuard` / `RwLockReadGuard` / `RwLockWriteGuard`).
    pub returns_lock_guard: bool,
    /// Protocol annotations attached to this function.
    pub anns: Vec<Annotation>,
    /// Linear op stream of the body.
    pub ops: Vec<Op>,
    /// Local `let` bindings with a syntactically derivable initializer
    /// shape, for the callgraph's poor-man's typer:
    /// `(name, TyperHint)` in order of appearance.
    pub locals: Vec<(String, TyperHint)>,
}

/// How a local's type can be derived.
#[derive(Debug, Clone)]
pub enum TyperHint {
    /// `let x: Type = ...` — explicit annotation (core type).
    Explicit(String),
    /// `let x = <chain>.method(...)` or `let x = A::method(...)` or
    /// `let x = f(...)` — type is the callee's return type.
    FromCall(RawCall),
    /// `let x = Type { .. }` struct literal.
    StructLit(String),
}

/// Everything extracted from one source file.
#[derive(Debug, Clone)]
pub struct FileFacts {
    /// Slash-normalized path relative to the scan root.
    pub path: String,
    /// Struct declarations.
    pub structs: Vec<StructInfo>,
    /// Lock-class bindings mined from `named` constructors.
    pub classes: Vec<ClassBinding>,
    /// Functions with op streams (test modules excluded).
    pub fns: Vec<FnInfo>,
}

/// Strip reference/wrapper layers off a type's token texts and return
/// the core type ident: `StorageResult<FrameGuard>` → `FrameGuard`,
/// `&'a mut Page` → `Page`, `Arc<dyn DiskManager>` → `DiskManager`.
/// Returns `None` for tuples, slices, fn pointers, and anything else
/// without a single core ident.
pub fn strip_wrappers(toks: &[&str]) -> Option<String> {
    // Wrappers whose last generic argument is "the real type".
    fn is_wrapper(id: &str) -> bool {
        matches!(
            id,
            "Option" | "Arc" | "Box" | "Rc" | "Cell" | "RefCell" | "Mutex" | "RwLock"
        ) || id.ends_with("Result")
            || id == "MutexGuard"
            || id == "RwLockReadGuard"
            || id == "RwLockWriteGuard"
    }

    let mut i = 0usize;
    // Skip leading `&`, `mut`, lifetimes, `dyn`, `impl`.
    while i < toks.len() {
        match toks[i] {
            "&" | "mut" | "dyn" | "impl" => i += 1,
            t if t.starts_with('\'') => i += 1,
            _ => break,
        }
    }
    if i >= toks.len() {
        return None;
    }
    if toks[i] == "(" || toks[i] == "[" {
        return None; // tuple / slice / array
    }
    // Read a path `a::b::C`, remembering the last ident.
    let mut last = None;
    while i < toks.len() {
        let t = toks[i];
        if t == "::" {
            i += 1;
            continue;
        }
        if t.chars()
            .next()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false)
        {
            last = Some(t);
            i += 1;
            // Lookahead: path continues only via `::`.
            if i < toks.len() && toks[i] == "::" {
                continue;
            }
            break;
        }
        break;
    }
    let outer = last?;
    // Generic arguments?
    if i < toks.len() && toks[i] == "<" && is_wrapper(outer) {
        // Collect the last top-level type argument inside the angles.
        let mut depth = 1i32;
        let mut j = i + 1;
        let mut arg_start = j;
        let mut last_arg: Option<(usize, usize)> = None;
        while j < toks.len() && depth > 0 {
            match toks[j] {
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "<<" => depth += 2,
                "," if depth == 1 => {
                    last_arg = Some((arg_start, j));
                    arg_start = j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        let end = j.saturating_sub(1);
        let (s, e) = match last_arg {
            Some((_, _)) if arg_start < end => (arg_start, end),
            Some((s, e)) if arg_start >= end => (s, e),
            _ => (arg_start, end),
        };
        if s < e {
            let inner: Vec<&str> = toks[s..e].to_vec();
            // Skip pure-lifetime args (`MutexGuard<'a, T>` handled by
            // last-argument selection already).
            return strip_wrappers(&inner);
        }
        return Some(outer.to_string());
    }
    Some(outer.to_string())
}

/// True if any token names a raw lock guard type.
fn mentions_lock_guard(toks: &[&str]) -> bool {
    toks.iter()
        .any(|t| matches!(*t, "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"))
}

/// Parse a `// protocol: ...` comment's payload, if it is one.
fn parse_protocol_comment(text: &str, line: u32) -> Option<Annotation> {
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start_matches('*')
        .trim();
    let rest = body.strip_prefix("protocol:")?.trim();
    let (kw, reason) = match rest.find(char::is_whitespace) {
        Some(i) => (&rest[..i], rest[i..].trim()),
        None => (rest, ""),
    };
    let kind = match kw {
        "wal-append" => AnnKind::WalAppend,
        "page-mutation" => AnnKind::PageMutation,
        "no-wal" => AnnKind::NoWal,
        "mixed-ordering" => AnnKind::MixedOrdering,
        _ => return None,
    };
    Some(Annotation {
        kind,
        reason: reason.to_string(),
        line,
    })
}

/// Extract facts from one file. `path` should already be relative and
/// slash-normalized for diagnostics.
pub fn extract_file(path: &str, src: &str) -> FileFacts {
    let toks = lex(src);
    let mut ex = Extractor {
        toks: &toks,
        structs: Vec::new(),
        classes: Vec::new(),
        fns: Vec::new(),
        protocol_comments: Vec::new(),
        ann_used: Vec::new(),
    };
    ex.collect_protocol_comments();
    // Class bindings must exist before bodies are scanned: the body
    // scanner resolves `.lock()` receivers against them.
    ex.mine_class_bindings();
    ex.scan_items(0, toks.len(), &mut Vec::new());
    FileFacts {
        path: to_string_path(path),
        structs: ex.structs,
        classes: ex.classes,
        fns: ex.fns,
    }
}

fn to_string_path(p: &str) -> String {
    p.replace('\\', "/")
}

struct ImplCtx {
    self_type: Option<String>,
    trait_name: Option<String>,
}

struct Extractor<'a, 't> {
    toks: &'a [Tok<'t>],
    structs: Vec<StructInfo>,
    classes: Vec<ClassBinding>,
    fns: Vec<FnInfo>,
    /// `(line, annotation)` for every protocol comment in the file.
    protocol_comments: Vec<Annotation>,
    /// Parallel to `protocol_comments`: consumed by a `fn` attachment.
    /// Each fn-level annotation binds to the first following `fn` only;
    /// without this, two adjacent short fns both fall inside the 6-line
    /// window and the first fn's annotation leaks onto the second.
    ann_used: Vec<bool>,
}

impl<'a, 't> Extractor<'a, 't> {
    fn collect_protocol_comments(&mut self) {
        for t in self.toks {
            if t.kind == TokKind::Comment {
                if let Some(a) = parse_protocol_comment(t.text, t.line) {
                    self.protocol_comments.push(a);
                }
            }
        }
        self.ann_used = vec![false; self.protocol_comments.len()];
    }

    /// Next non-comment token index at or after `i`, bounded by `end`.
    fn sig(&self, mut i: usize, end: usize) -> Option<usize> {
        while i < end {
            if self.toks[i].kind != TokKind::Comment {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Skip a balanced `< ... >` group starting at `i` (which must be `<`).
    /// Returns the index just past the closing `>`.
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match self.toks[j].text {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ";" | "{" => return j, // malformed; bail out
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Skip a balanced delimiter group; `i` points at the opener.
    /// Returns index just past the matching closer.
    fn skip_group(&self, i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            let t = self.toks[j].text;
            if self.toks[j].kind == TokKind::Punct {
                if t == open {
                    depth += 1;
                } else if t == close {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            j += 1;
        }
        j
    }

    /// Top-level item scan over `[i, end)`. `ctx` is the impl-context
    /// stack.
    fn scan_items(&mut self, mut i: usize, end: usize, ctx: &mut Vec<ImplCtx>) {
        while i < end {
            let t = &self.toks[i];
            if t.kind == TokKind::Comment {
                i += 1;
                continue;
            }
            match (t.kind, t.text) {
                // Attributes: detect #[cfg(test)] guarding a mod/fn.
                (TokKind::Punct, "#") => {
                    let open = self.sig(i + 1, end);
                    if let Some(o) = open {
                        if self.toks[o].is_punct("[") {
                            let close = self.skip_group(o, end, "[", "]");
                            let mut is_cfg_test = false;
                            let mut saw_cfg = false;
                            for k in o..close {
                                if self.toks[k].is_ident("cfg") {
                                    saw_cfg = true;
                                }
                                if self.toks[k].is_ident("test") && saw_cfg {
                                    is_cfg_test = true;
                                }
                            }
                            if is_cfg_test {
                                // Skip the guarded item entirely (mod,
                                // fn, impl, use...).
                                i = self.skip_item(close, end);
                                continue;
                            }
                            i = close;
                            continue;
                        }
                    }
                    i += 1;
                }
                (TokKind::Ident, "struct") => {
                    i = self.parse_struct(i, end);
                }
                (TokKind::Ident, "impl") => {
                    i = self.parse_impl(i, end, ctx);
                }
                (TokKind::Ident, "trait") => {
                    i = self.parse_trait(i, end, ctx);
                }
                (TokKind::Ident, "fn") => {
                    i = self.parse_fn(i, end, ctx);
                }
                (TokKind::Ident, "mod") => {
                    // Inline module: recurse into its braces with the
                    // same (empty at this point) impl context.
                    let mut j = i + 1;
                    while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
                        j += 1;
                    }
                    if j < end && self.toks[j].is_punct("{") {
                        let close = self.skip_group(j, end, "{", "}");
                        self.scan_items(j + 1, close.saturating_sub(1), ctx);
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// Skip one item after an attribute: consumes to the end of the next
    /// braced block or `;`, whichever comes first at nesting level 0.
    fn skip_item(&self, mut i: usize, end: usize) -> usize {
        // Skip further attributes.
        loop {
            let s = match self.sig(i, end) {
                Some(s) => s,
                None => return end,
            };
            if self.toks[s].is_punct("#") {
                if let Some(o) = self.sig(s + 1, end) {
                    if self.toks[o].is_punct("[") {
                        i = self.skip_group(o, end, "[", "]");
                        continue;
                    }
                }
            }
            i = s;
            break;
        }
        let mut j = i;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct(";") {
                return j + 1;
            }
            if t.is_punct("{") {
                return self.skip_group(j, end, "{", "}");
            }
            j += 1;
        }
        end
    }

    fn parse_struct(&mut self, i: usize, end: usize) -> usize {
        let name_i = match self.sig(i + 1, end) {
            Some(n) if self.toks[n].kind == TokKind::Ident => n,
            _ => return i + 1,
        };
        let name = self.toks[name_i].text.to_string();
        let line = self.toks[name_i].line;
        let mut j = name_i + 1;
        if j < end && self.toks[j].is_punct("<") {
            j = self.skip_angles(j, end);
        }
        // Skip a `where` clause if present.
        while j < end
            && !self.toks[j].is_punct("{")
            && !self.toks[j].is_punct("(")
            && !self.toks[j].is_punct(";")
        {
            j += 1;
        }
        if j >= end || !self.toks[j].is_punct("{") {
            // Tuple struct or unit struct: no named fields to record.
            if j < end && self.toks[j].is_punct("(") {
                let close = self.skip_group(j, end, "(", ")");
                self.structs.push(StructInfo {
                    name,
                    line,
                    fields: Vec::new(),
                });
                // consume trailing `;`
                return if close < end && self.toks[close].is_punct(";") {
                    close + 1
                } else {
                    close
                };
            }
            self.structs.push(StructInfo {
                name,
                line,
                fields: Vec::new(),
            });
            return j + 1;
        }
        let close = self.skip_group(j, end, "{", "}");
        let body_end = close.saturating_sub(1);
        let mut fields = Vec::new();
        let mut k = j + 1;
        while k < body_end {
            // Skip attrs and visibility.
            if self.toks[k].kind == TokKind::Comment {
                k += 1;
                continue;
            }
            if self.toks[k].is_punct("#") {
                if let Some(o) = self.sig(k + 1, body_end) {
                    if self.toks[o].is_punct("[") {
                        k = self.skip_group(o, body_end, "[", "]");
                        continue;
                    }
                }
                k += 1;
                continue;
            }
            if self.toks[k].is_ident("pub") {
                k += 1;
                if k < body_end && self.toks[k].is_punct("(") {
                    k = self.skip_group(k, body_end, "(", ")");
                }
                continue;
            }
            if self.toks[k].kind == TokKind::Ident {
                // field name `:` type `,`
                let fname = self.toks[k].text.to_string();
                let colon = self.sig(k + 1, body_end);
                if let Some(c) = colon {
                    if self.toks[c].is_punct(":") {
                        // Collect type tokens to the next top-level comma.
                        let mut depth_a = 0i32; // angles
                        let mut depth_p = 0i32; // parens/brackets
                        let mut ty: Vec<&str> = Vec::new();
                        let mut m = c + 1;
                        while m < body_end {
                            let tt = self.toks[m].text;
                            if self.toks[m].kind == TokKind::Punct {
                                match tt {
                                    "<" => depth_a += 1,
                                    "<<" => depth_a += 2,
                                    ">" => depth_a -= 1,
                                    ">>" => depth_a -= 2,
                                    "(" | "[" => depth_p += 1,
                                    ")" | "]" => depth_p -= 1,
                                    "," if depth_a <= 0 && depth_p <= 0 => break,
                                    _ => {}
                                }
                            }
                            if self.toks[m].kind != TokKind::Comment {
                                ty.push(tt);
                            }
                            m += 1;
                        }
                        let is_atomic = ty.iter().any(|t| t.starts_with("Atomic"));
                        fields.push(FieldInfo {
                            name: fname,
                            type_core: strip_wrappers(&ty),
                            is_atomic,
                        });
                        k = m + 1;
                        continue;
                    }
                }
                k += 1;
                continue;
            }
            k += 1;
        }
        self.structs.push(StructInfo { name, line, fields });
        close
    }

    /// Parse the header of an `impl` block and scan its items with the
    /// impl context pushed.
    fn parse_impl(&mut self, i: usize, end: usize, ctx: &mut Vec<ImplCtx>) -> usize {
        let mut j = i + 1;
        if j < end && self.toks[j].is_punct("<") {
            j = self.skip_angles(j, end);
        }
        // First path (self type or trait).
        let (first, j2) = self.parse_type_path(j, end);
        let mut j = j2;
        let (self_type, trait_name);
        if j < end && self.toks[j].is_ident("for") {
            let (second, j3) = self.parse_type_path(j + 1, end);
            j = j3;
            trait_name = first;
            self_type = second;
        } else {
            self_type = first;
            trait_name = None;
        }
        // Skip to `{` (over any where clause).
        while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
            j += 1;
        }
        if j >= end || !self.toks[j].is_punct("{") {
            return j + 1;
        }
        let close = self.skip_group(j, end, "{", "}");
        ctx.push(ImplCtx {
            self_type,
            trait_name,
        });
        self.scan_items(j + 1, close.saturating_sub(1), ctx);
        ctx.pop();
        close
    }

    fn parse_trait(&mut self, i: usize, end: usize, ctx: &mut Vec<ImplCtx>) -> usize {
        let name_i = match self.sig(i + 1, end) {
            Some(n) if self.toks[n].kind == TokKind::Ident => n,
            _ => return i + 1,
        };
        let name = self.toks[name_i].text.to_string();
        let mut j = name_i + 1;
        while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
            j += 1;
        }
        if j >= end || !self.toks[j].is_punct("{") {
            return j + 1;
        }
        let close = self.skip_group(j, end, "{", "}");
        ctx.push(ImplCtx {
            self_type: Some(name.clone()),
            trait_name: Some(name),
        });
        self.scan_items(j + 1, close.saturating_sub(1), ctx);
        ctx.pop();
        close
    }

    /// Parse a type path like `a::b::C<...>`; returns (last ident, next index).
    fn parse_type_path(&self, mut i: usize, end: usize) -> (Option<String>, usize) {
        let mut last = None;
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Comment => i += 1,
                TokKind::Ident if t.text == "dyn" => i += 1,
                TokKind::Ident if t.text == "for" || t.text == "where" => break,
                TokKind::Ident => {
                    last = Some(t.text.to_string());
                    i += 1;
                    if i < end && self.toks[i].is_punct("<") {
                        i = self.skip_angles(i, end);
                    }
                    if i < end && self.toks[i].is_punct("::") {
                        i += 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        (last, i)
    }

    fn parse_fn(&mut self, i: usize, end: usize, ctx: &mut [ImplCtx]) -> usize {
        let name_i = match self.sig(i + 1, end) {
            Some(n) if self.toks[n].kind == TokKind::Ident => n,
            _ => return i + 1,
        };
        let name = self.toks[name_i].text.to_string();
        let fn_line = self.toks[i].line;
        let mut j = name_i + 1;
        if j < end && self.toks[j].is_punct("<") {
            j = self.skip_angles(j, end);
        }
        if j >= end || !self.toks[j].is_punct("(") {
            return j;
        }
        let params_close = self.skip_group(j, end, "(", ")");
        let (params, has_self) = self.parse_params(j + 1, params_close.saturating_sub(1));
        // Return type.
        let mut k = params_close;
        let mut ret_toks: Vec<&str> = Vec::new();
        if k < end && self.toks[k].is_punct("->") {
            k += 1;
            while k < end
                && !self.toks[k].is_punct("{")
                && !self.toks[k].is_punct(";")
                && !self.toks[k].is_ident("where")
            {
                if self.toks[k].kind != TokKind::Comment {
                    ret_toks.push(self.toks[k].text);
                }
                k += 1;
            }
        }
        // Skip where clause.
        while k < end && !self.toks[k].is_punct("{") && !self.toks[k].is_punct(";") {
            k += 1;
        }
        if k >= end || self.toks[k].is_punct(";") {
            return k + 1; // trait method signature without body
        }
        let body_close = self.skip_group(k, end, "{", "}");

        let (impl_type, trait_name) = match ctx.last() {
            Some(c) => (c.self_type.clone(), c.trait_name.clone()),
            None => (None, None),
        };
        // Attach protocol annotations whose line is within 6 lines above
        // the `fn` keyword (doc/attr block). Fns are visited in source
        // order, so consuming on first attachment binds each annotation
        // to the nearest following fn.
        let mut anns: Vec<Annotation> = Vec::new();
        for (ai, a) in self.protocol_comments.iter().enumerate() {
            if self.ann_used[ai]
                || a.kind == AnnKind::MixedOrdering
                || a.line > fn_line
                || fn_line - a.line > 6
            {
                continue;
            }
            self.ann_used[ai] = true;
            anns.push(a.clone());
        }

        let mut body = BodyScanner {
            toks: self.toks,
            classes: &self.classes,
            ops: Vec::new(),
            locals: Vec::new(),
            protocol_comments: &self.protocol_comments,
        };
        body.scan(k + 1, body_close.saturating_sub(1));

        self.fns.push(FnInfo {
            name,
            impl_type,
            trait_name,
            line: fn_line,
            has_self,
            params,
            ret: strip_wrappers(&ret_toks),
            returns_lock_guard: mentions_lock_guard(&ret_toks),
            anns,
            ops: body.ops,
            locals: body.locals,
        });
        body_close
    }

    /// Parse a parameter list between `(` and `)`.
    fn parse_params(&self, start: usize, end: usize) -> (Vec<(String, Option<String>)>, bool) {
        let mut params = Vec::new();
        let mut has_self = false;
        let mut i = start;
        loop {
            // One parameter: tokens up to a top-level comma.
            let mut depth_a = 0i32;
            let mut depth_p = 0i32;
            let mut toks: Vec<(usize, &str)> = Vec::new();
            while i < end {
                let t = &self.toks[i];
                if t.kind == TokKind::Punct {
                    match t.text {
                        "<" => depth_a += 1,
                        "<<" => depth_a += 2,
                        ">" => depth_a -= 1,
                        ">>" => depth_a -= 2,
                        "(" | "[" => depth_p += 1,
                        ")" | "]" => depth_p -= 1,
                        "," if depth_a <= 0 && depth_p <= 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                if t.kind != TokKind::Comment {
                    toks.push((i, t.text));
                }
                i += 1;
            }
            if toks.is_empty() {
                break;
            }
            if toks.iter().any(|(_, t)| *t == "self") && !toks.iter().any(|(_, t)| *t == ":") {
                has_self = true;
            } else if let Some(colon) = toks.iter().position(|(_, t)| *t == ":") {
                // Binding name: last plain ident before the colon.
                let name = toks[..colon]
                    .iter()
                    .rev()
                    .find(|(k, t)| {
                        self.toks[*k].kind == TokKind::Ident && *t != "mut" && *t != "ref"
                    })
                    .map(|(_, t)| t.to_string());
                if let Some(name) = name {
                    if toks[..colon].iter().any(|(_, t)| *t == "(") {
                        // Pattern parameter; no single binding.
                    } else {
                        let ty: Vec<&str> = toks[colon + 1..].iter().map(|(_, t)| *t).collect();
                        params.push((name, strip_wrappers(&ty)));
                    }
                }
            }
            if i >= end {
                break;
            }
        }
        (params, has_self)
    }

    /// Mine `Mutex::named(_, "class")` / `RwLock::named(_, "class")`
    /// bindings anywhere in the file (constructors, locals).
    fn mine_class_bindings(&mut self) {
        let toks = self.toks;
        let n = toks.len();
        let mut i = 0usize;
        while i + 3 < n {
            let is_named = (toks[i].is_ident("Mutex") || toks[i].is_ident("RwLock"))
                && toks[i + 1].is_punct("::")
                && toks[i + 2].is_ident("named")
                && toks[i + 3].is_punct("(");
            if !is_named {
                i += 1;
                continue;
            }
            let close = self.skip_group(i + 3, n, "(", ")");
            // The class is the final top-level string argument.
            let mut depth = 0i32;
            let mut class: Option<String> = None;
            for t in &toks[i + 3..close] {
                if t.kind == TokKind::Punct {
                    match t.text {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        _ => {}
                    }
                }
                if t.kind == TokKind::Str && depth == 1 && t.text.starts_with('"') {
                    class = Some(t.text.trim_matches('"').to_string());
                }
            }
            // The bound name: `name: Mutex::named(...)` in a struct
            // literal, `let name = ...`, or `self.name = ...`.
            let name = self.binding_name_before(i);
            if let (Some(name), Some(class)) = (name, class) {
                if !self
                    .classes
                    .iter()
                    .any(|c| c.name == name && c.class == class)
                {
                    self.classes.push(ClassBinding { name, class });
                }
            }
            i = close;
        }
    }

    /// For a `Mutex::named` at token `i`, find the field/local name it
    /// is being bound to, looking backwards.
    fn binding_name_before(&self, i: usize) -> Option<String> {
        let toks = self.toks;
        // Walk back over comments.
        let mut j = i;
        while j > 0 && toks[j - 1].kind == TokKind::Comment {
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        let prev = &toks[j - 1];
        if prev.is_punct(":") && j >= 2 && toks[j - 2].kind == TokKind::Ident {
            // struct literal field: `name: Mutex::named(...)`
            return Some(toks[j - 2].text.to_string());
        }
        if prev.is_punct("=") {
            // `let name = ...` or `self.name = ...` or `x.f = ...`
            let mut k = j - 1;
            while k > 0 && toks[k - 1].kind == TokKind::Comment {
                k -= 1;
            }
            if k >= 1 && toks[k - 1].kind == TokKind::Ident {
                return Some(toks[k - 1].text.to_string());
            }
        }
        None
    }
}

/// Scans one function body into an op stream.
struct BodyScanner<'a, 't> {
    toks: &'a [Tok<'t>],
    classes: &'a [ClassBinding],
    ops: Vec<Op>,
    locals: Vec<(String, TyperHint)>,
    protocol_comments: &'a [Annotation],
}

/// An active guard scope during the body walk.
struct ActiveScope {
    id: u32,
    /// Brace depth the scope was opened at; closes when depth drops
    /// below this.
    depth: i32,
    /// For let-bound guards: the binding name (for `drop(name)`).
    name: Option<String>,
    /// Statement-temporary: also closes at the next `;` at `depth`.
    stmt: bool,
}

impl<'a, 't> BodyScanner<'a, 't> {
    fn class_for(&self, name: &str) -> Option<&str> {
        self.classes
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.class.as_str())
    }

    fn scan(&mut self, start: usize, end: usize) {
        let toks = self.toks;
        let mut depth: i32 = 0;
        let mut stmt_start = start;
        let mut active: Vec<ActiveScope> = Vec::new();
        let mut next_scope: u32 = 0;
        let mut i = start;

        while i < end {
            let t = &toks[i];
            if t.kind == TokKind::Comment {
                i += 1;
                continue;
            }
            match t.text {
                "{" if t.kind == TokKind::Punct => {
                    depth += 1;
                    stmt_start = i + 1;
                    i += 1;
                    continue;
                }
                "}" if t.kind == TokKind::Punct => {
                    // Close scopes opened at this depth.
                    let d = depth;
                    let mut k = 0;
                    while k < active.len() {
                        if active[k].depth >= d {
                            let s = active.remove(k);
                            self.ops.push(Op::EndScope { scope: s.id });
                        } else {
                            k += 1;
                        }
                    }
                    depth -= 1;
                    // A statement that *contains* this block (an
                    // `if let`/`match`/`for` header whose scrutinee
                    // created a guard temporary) ends with the block:
                    // close its temporaries too. Slightly
                    // under-approximates `else` chains and temporaries
                    // spanning closure-argument blocks.
                    k = 0;
                    while k < active.len() {
                        if active[k].stmt && active[k].depth >= depth {
                            let s = active.remove(k);
                            self.ops.push(Op::EndScope { scope: s.id });
                        } else {
                            k += 1;
                        }
                    }
                    stmt_start = i + 1;
                    i += 1;
                    continue;
                }
                ";" if t.kind == TokKind::Punct => {
                    let d = depth;
                    let mut k = 0;
                    while k < active.len() {
                        if active[k].stmt && active[k].depth >= d {
                            let s = active.remove(k);
                            self.ops.push(Op::EndScope { scope: s.id });
                        } else {
                            k += 1;
                        }
                    }
                    stmt_start = i + 1;
                    i += 1;
                    continue;
                }
                _ => {}
            }

            // `drop(name)` releases a named guard early.
            if t.is_ident("drop")
                && i + 3 < end
                && toks[i + 1].is_punct("(")
                && toks[i + 2].kind == TokKind::Ident
                && toks[i + 3].is_punct(")")
            {
                let name = toks[i + 2].text;
                if let Some(pos) = active.iter().position(|s| s.name.as_deref() == Some(name)) {
                    let s = active.remove(pos);
                    self.ops.push(Op::EndScope { scope: s.id });
                    i += 4;
                    continue;
                }
            }

            // Candidate call/atomic: Ident followed by `(`, or
            // turbofish `Ident::<...>(`.
            if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text) {
                let name = t.text;
                let mut after = i + 1;
                if after < end
                    && toks[after].is_punct("::")
                    && after + 1 < end
                    && toks[after + 1].is_punct("<")
                {
                    let close = self.skip_angles_fwd(after + 1, end);
                    after = close;
                }
                let is_macro = after < end && toks[after].is_punct("!");
                if !is_macro && after < end && toks[after].is_punct("(") {
                    // Skip declarations: `fn name(`.
                    let prev_sig = self.prev_sig(i, start);
                    let prev_is_fn = prev_sig.map(|p| toks[p].is_ident("fn")).unwrap_or(false);
                    if !prev_is_fn {
                        let args_close = self.skip_group_fwd(after, end, "(", ")");
                        self.handle_call(
                            i,
                            name,
                            after,
                            args_close,
                            start,
                            stmt_start,
                            depth,
                            &mut active,
                            &mut next_scope,
                        );
                        // NOTE: we do not jump over the argument list —
                        // nested calls inside the arguments must also be
                        // scanned. Continue right after the name.
                        i += 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
        // Function end: close everything.
        for s in active.drain(..) {
            self.ops.push(Op::EndScope { scope: s.id });
        }
    }

    fn prev_sig(&self, i: usize, floor: usize) -> Option<usize> {
        let mut j = i;
        while j > floor {
            j -= 1;
            if self.toks[j].kind != TokKind::Comment {
                return Some(j);
            }
        }
        None
    }

    fn skip_angles_fwd(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match self.toks[j].text {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ";" | "{" => return j,
                _ => {}
            }
            j += 1;
        }
        j
    }

    fn skip_group_fwd(&self, i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            let t = &self.toks[j];
            if t.kind == TokKind::Punct {
                if t.text == open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            j += 1;
        }
        j
    }

    /// Walk the receiver chain ending just before the `.` that precedes
    /// token index `name_i` (the called method name). Returns None when
    /// there is no `.` (free or path call).
    fn receiver_chain(&self, name_i: usize, floor: usize) -> Option<Vec<Seg>> {
        let toks = self.toks;
        let dot = self.prev_sig(name_i, floor)?;
        if !toks[dot].is_punct(".") {
            return None;
        }
        let mut segs: Vec<Seg> = Vec::new();
        let mut j = dot; // points at a `.`; the segment is before it
        while let Some(before) = self.prev_sig(j, floor) {
            let t = &toks[before];
            if t.is_punct(")") {
                // Method call segment: skip back over the balanced
                // parens, then expect the method name.
                let open = self.match_back(before, floor, "(", ")")?;
                let m = self.prev_sig(open, floor)?;
                if toks[m].is_punct(">") {
                    return None; // turbofish receiver: give up
                }
                if toks[m].kind != TokKind::Ident {
                    return None;
                }
                segs.push(Seg::Method(toks[m].text.to_string()));
                match self.prev_sig(m, floor) {
                    Some(b) if toks[b].is_punct(".") => {
                        j = b;
                        continue;
                    }
                    Some(b) if toks[b].is_punct("::") => {
                        // `Type::method(...)` at chain base.
                        let ty = self.prev_sig(b, floor)?;
                        if toks[ty].kind == TokKind::Ident {
                            segs.push(Seg::Base(toks[ty].text.to_string()));
                        }
                        break;
                    }
                    _ => break,
                }
            } else if t.is_punct("?") {
                // `expr?.method()` — step over the `?`.
                j = before;
                continue;
            } else if t.is_punct("]") {
                return None; // indexing receiver: unresolvable
            } else if t.kind == TokKind::Ident {
                let id = t.text.to_string();
                let before_id = self.prev_sig(before, floor);
                match before_id {
                    Some(b) if toks[b].is_punct(".") => {
                        segs.push(Seg::Field(id));
                        j = b;
                        continue;
                    }
                    _ => {
                        segs.push(Seg::Base(id));
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if segs.is_empty() {
            return None;
        }
        segs.reverse();
        Some(segs)
    }

    /// Find the matching opener scanning backwards from `close_i`
    /// (which holds the closer).
    fn match_back(&self, close_i: usize, floor: usize, open: &str, close: &str) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = close_i + 1;
        while j > floor {
            j -= 1;
            let t = &self.toks[j];
            if t.kind == TokKind::Punct {
                if t.text == close {
                    depth += 1;
                } else if t.text == open {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
            }
        }
        None
    }

    /// Current statement starts with `let`? Returns the binding name
    /// (None for `_`/patterns).
    fn let_binding(&self, stmt_start: usize, at: usize) -> (bool, Option<String>) {
        let toks = self.toks;
        let first = match self.sig_fwd(stmt_start, at) {
            Some(f) => f,
            None => return (false, None),
        };
        if !toks[first].is_ident("let") {
            return (false, None);
        }
        let mut j = first + 1;
        while j < at && (toks[j].is_ident("mut") || toks[j].kind == TokKind::Comment) {
            j += 1;
        }
        if j < at && toks[j].kind == TokKind::Ident && toks[j].text != "_" {
            (true, Some(toks[j].text.to_string()))
        } else {
            (true, None)
        }
    }

    fn sig_fwd(&self, mut i: usize, end: usize) -> Option<usize> {
        while i < end {
            if self.toks[i].kind != TokKind::Comment {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// True when the call's result is consumed by further chaining —
    /// the next significant token after its argument list (allowing one
    /// `?`) is `.`. A guard produced mid-chain (`.lock().get(..)`) is a
    /// statement temporary no matter what the statement binds: the
    /// `let`, if any, holds the chain's *final* value, not this guard.
    fn chained_after(&self, mut j: usize) -> bool {
        let end = self.toks.len();
        while j < end && self.toks[j].kind == TokKind::Comment {
            j += 1;
        }
        if j < end && self.toks[j].is_punct("?") {
            j += 1;
            while j < end && self.toks[j].kind == TokKind::Comment {
                j += 1;
            }
        }
        j < end && self.toks[j].is_punct(".")
    }

    /// A protocol `mixed-ordering` annotation on this line or the line
    /// above?
    fn mixed_ordering_at(&self, line: u32) -> bool {
        self.protocol_comments
            .iter()
            .any(|a| a.kind == AnnKind::MixedOrdering && (a.line == line || a.line + 1 == line))
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        name_i: usize,
        name: &str,
        args_open: usize,
        args_close: usize,
        floor: usize,
        stmt_start: usize,
        depth: i32,
        active: &mut Vec<ActiveScope>,
        next_scope: &mut u32,
    ) {
        let toks = self.toks;
        let line = toks[name_i].line;
        let chain = self.receiver_chain(name_i, floor);

        // Atomic access?
        if ATOMIC_METHODS.contains(&name) {
            let mut orderings = Vec::new();
            let mut k = args_open;
            while k + 2 < args_close {
                if toks[k].is_ident("Ordering")
                    && toks[k + 1].is_punct("::")
                    && toks[k + 2].kind == TokKind::Ident
                {
                    orderings.push(toks[k + 2].text.to_string());
                    k += 3;
                    continue;
                }
                k += 1;
            }
            if !orderings.is_empty() {
                if let Some(chain) = chain {
                    // Site-level exemption is recorded as an empty
                    // orderings list with a sentinel "exempt" entry so
                    // downstream can skip it without re-reading files.
                    let exempt = self.mixed_ordering_at(line);
                    let mut a = RawAtomic {
                        chain,
                        method: name.to_string(),
                        orderings,
                        line,
                    };
                    if exempt {
                        a.orderings.clear();
                        a.orderings.push("Exempt".to_string());
                    }
                    self.ops.push(Op::Atomic(a));
                    return;
                }
            }
        }

        // Lock acquisition with a syntactically resolvable class?
        if LOCK_METHODS.contains(&name) {
            if let Some(ch) = &chain {
                let final_name = match ch.last() {
                    Some(Seg::Field(f)) => Some(f.as_str()),
                    Some(Seg::Base(b)) if ch.len() == 1 => Some(b.as_str()),
                    _ => None,
                };
                if let Some(fname) = final_name {
                    if let Some(class) = self.class_for(fname) {
                        let class = class.to_string();
                        let (is_let, bind_name) = if self.chained_after(args_close) {
                            (false, None)
                        } else {
                            self.let_binding(stmt_start, name_i)
                        };
                        let id = *next_scope;
                        *next_scope += 1;
                        let stmt = !is_let || bind_name.is_none();
                        if let Some(bn) = &bind_name {
                            // Type the guard as what it guards.
                            let (name, recv) = (name.to_string(), Recv::Chain(ch.clone()));
                            let call = RawCall { name, recv, line };
                            self.locals.push((bn.clone(), TyperHint::FromCall(call)));
                        }
                        self.ops.push(Op::Acquire {
                            class,
                            scope: id,
                            line,
                        });
                        active.push(ActiveScope {
                            id,
                            depth,
                            name: bind_name,
                            stmt,
                        });
                        return;
                    }
                }
            }
        }

        // Plain call.
        let recv = match chain {
            Some(ch) => Recv::Chain(ch),
            None => {
                // Path call `A::name(`?
                let prev = self.prev_sig(name_i, floor);
                match prev {
                    Some(p) if toks[p].is_punct("::") => {
                        let ty = self.prev_sig(p, floor);
                        match ty {
                            Some(t) if toks[t].kind == TokKind::Ident => {
                                Recv::Path(toks[t].text.to_string())
                            }
                            _ => Recv::None,
                        }
                    }
                    _ => Recv::None,
                }
            }
        };
        let (is_let, bind_name) = if self.chained_after(args_close) {
            (false, None)
        } else {
            self.let_binding(stmt_start, name_i)
        };
        let scope = if is_let {
            let id = *next_scope;
            *next_scope += 1;
            active.push(ActiveScope {
                id,
                depth,
                name: bind_name.clone(),
                stmt: bind_name.is_none(),
            });
            Some(id)
        } else {
            None
        };
        if let (Some(bn), Recv::Chain(_) | Recv::Path(_) | Recv::None) = (&bind_name, &recv) {
            self.locals.push((
                bn.clone(),
                TyperHint::FromCall(RawCall {
                    name: name.to_string(),
                    recv: recv.clone(),
                    line,
                }),
            ));
        }
        self.ops.push(Op::Call {
            call: RawCall {
                name: name.to_string(),
                recv,
                line,
            },
            scope,
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        extract_file("test.rs", src)
    }

    #[test]
    fn struct_fields_and_atomics() {
        let f = facts(
            "pub struct Frame { pub id: PageId, data: RwLock<Page>, pin: AtomicU32, dirty: AtomicBool }",
        );
        assert_eq!(f.structs.len(), 1);
        let s = &f.structs[0];
        assert_eq!(s.name, "Frame");
        let dirty = s.fields.iter().find(|x| x.name == "dirty").unwrap();
        assert!(dirty.is_atomic);
        let data = s.fields.iter().find(|x| x.name == "data").unwrap();
        assert_eq!(data.type_core.as_deref(), Some("Page"));
    }

    #[test]
    fn class_bindings_from_named() {
        let f = facts(
            r#"
            impl Shard {
                fn new() -> Shard {
                    Shard { frames: Mutex::named(HashMap::new(), "pool.shard.frames") }
                }
            }
            fn local() {
                let m = Mutex::named(0u32, "x.local");
            }
            "#,
        );
        assert!(f
            .classes
            .iter()
            .any(|c| c.name == "frames" && c.class == "pool.shard.frames"));
        assert!(f
            .classes
            .iter()
            .any(|c| c.name == "m" && c.class == "x.local"));
    }

    #[test]
    fn acquire_with_let_scope_and_drop() {
        let f = facts(
            r#"
            impl P {
                fn new() -> P { P { frames: Mutex::named((), "c.frames") } }
                fn go(&self) {
                    let g = self.frames.lock();
                    touch();
                    drop(g);
                    after();
                }
            }
            "#,
        );
        let go = f.fns.iter().find(|x| x.name == "go").unwrap();
        let kinds: Vec<String> = go
            .ops
            .iter()
            .map(|o| match o {
                Op::Acquire { class, .. } => format!("acq:{class}"),
                Op::Call { call, .. } => format!("call:{}", call.name),
                Op::EndScope { .. } => "end".into(),
                Op::Atomic(a) => format!("atomic:{}", a.method),
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["acq:c.frames", "call:touch", "end", "call:after"]
        );
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let f = facts(
            r#"
            impl P {
                fn new() -> P { P { deps: Mutex::named((), "c.deps") } }
                fn go(&self) {
                    self.deps.lock().insert(1);
                    after();
                }
            }
            "#,
        );
        let go = f.fns.iter().find(|x| x.name == "go").unwrap();
        // Acquire, (insert call), EndScope at the `;`, then after().
        let mut saw_end_before_after = false;
        let mut ended = false;
        for o in &go.ops {
            match o {
                Op::EndScope { .. } => ended = true,
                Op::Call { call, .. } if call.name == "after" => {
                    saw_end_before_after = ended;
                }
                _ => {}
            }
        }
        assert!(saw_end_before_after);
    }

    #[test]
    fn atomic_orderings_extracted() {
        let f = facts(
            r#"
            impl W {
                fn publish(&self) {
                    self.durable.fetch_max(1, Ordering::AcqRel);
                    let v = self.durable.load(Ordering::Acquire);
                }
            }
            "#,
        );
        let p = f.fns.iter().find(|x| x.name == "publish").unwrap();
        let atomics: Vec<(&str, &str)> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Atomic(a) => Some((a.method.as_str(), a.orderings[0].as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(atomics, vec![("fetch_max", "AcqRel"), ("load", "Acquire")]);
    }

    #[test]
    fn annotations_attach_to_fn() {
        let f = facts(
            r#"
            impl L {
                /// Appends a record.
                // protocol: wal-append
                pub fn append(&self) -> u64 { 0 }
            }
            "#,
        );
        let a = f.fns.iter().find(|x| x.name == "append").unwrap();
        assert!(a.anns.iter().any(|x| x.kind == AnnKind::WalAppend));
    }

    #[test]
    fn annotations_do_not_leak_onto_the_next_fn() {
        let f = facts(
            r#"
            impl L {
                // protocol: wal-append
                pub fn append(&self) {}
                pub fn tail(&self) {}
            }
            "#,
        );
        let a = f.fns.iter().find(|x| x.name == "append").unwrap();
        let t = f.fns.iter().find(|x| x.name == "tail").unwrap();
        assert!(a.anns.iter().any(|x| x.kind == AnnKind::WalAppend));
        assert!(
            t.anns.is_empty(),
            "tail is within the 6-line window but the annotation is consumed"
        );
    }

    #[test]
    fn cfg_test_mods_are_skipped() {
        let f = facts(
            r#"
            fn real() {}
            #[cfg(test)]
            mod tests {
                fn fake() {}
            }
            "#,
        );
        assert!(f.fns.iter().any(|x| x.name == "real"));
        assert!(!f.fns.iter().any(|x| x.name == "fake"));
    }

    #[test]
    fn receiver_chains() {
        let f = facts(
            r#"
            impl T {
                fn go(&self) {
                    self.pool.fetch(id).unwrap().write();
                    helper(1);
                    LeafView::new(page);
                }
            }
            "#,
        );
        let go = f.fns.iter().find(|x| x.name == "go").unwrap();
        let calls: Vec<&RawCall> = go
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Call { call, .. } => Some(call),
                _ => None,
            })
            .collect();
        let w = calls.iter().find(|c| c.name == "write").unwrap();
        match &w.recv {
            Recv::Chain(ch) => {
                assert_eq!(
                    ch,
                    &vec![
                        Seg::Base("self".into()),
                        Seg::Field("pool".into()),
                        Seg::Method("fetch".into()),
                        Seg::Method("unwrap".into()),
                    ]
                );
            }
            other => panic!("unexpected recv {other:?}"),
        }
        assert!(calls
            .iter()
            .any(|c| c.name == "helper" && c.recv == Recv::None));
        assert!(calls
            .iter()
            .any(|c| c.name == "new" && c.recv == Recv::Path("LeafView".into())));
    }

    #[test]
    fn params_and_ret_types() {
        let f =
            facts("fn build(page: &mut Page, n: usize) -> StorageResult<FrameGuard> { body() }");
        let b = &f.fns[0];
        assert_eq!(b.params[0], ("page".to_string(), Some("Page".to_string())));
        assert_eq!(b.ret.as_deref(), Some("FrameGuard"));
    }

    #[test]
    fn strip_wrapper_cases() {
        assert_eq!(
            strip_wrappers(&["Arc", "<", "dyn", "DiskManager", ">"]).as_deref(),
            Some("DiskManager")
        );
        assert_eq!(
            strip_wrappers(&["RwLockWriteGuard", "<", "'", "a", ",", "Page", ">"]).as_deref(),
            Some("Page")
        );
        assert_eq!(strip_wrappers(&["(", "u32", ",", "u32", ")"]), None);
        assert_eq!(
            strip_wrappers(&["&", "mut", "Page"]).as_deref(),
            Some("Page")
        );
    }
}
