//! `lock-order`: may-hold-while-acquiring analysis over the workspace's
//! named mutexes — cycles are potential deadlocks.
//!
//! The pass resolves every `Mutex<…>`/`RwLock<…>` declaration (struct
//! field, static, parameter) plus two indirections the obs crate uses —
//! poison-recovering wrapper fns ([`WRAPPER_FNS`]: `recover(lock)` is an
//! acquisition of its argument) and accessor fns returning a lock
//! (`fn ring() -> &'static Mutex<…>`: `ring().lock()` is an acquisition
//! of `ring`) — then walks each function body tracking which locks may
//! still be held when another is acquired:
//!
//! * a guard bound in a `let`/`if`/`while`/`match`/`for` statement is
//!   held to the end of the enclosing block;
//! * a temporary guard (`*slot().write()… = …;`) is released at the
//!   statement's `;`;
//! * calls propagate: `may_acquire(f)` is the fixpoint of direct
//!   acquisitions plus callees' sets (methods and free fns are resolved
//!   by name — an over-approximation that merges every method of one
//!   name, which is exactly right for dyn-dispatch calls).
//!
//! Lock identity is `(file, name)`, canonicalized through
//! [`LOCK_ALIASES`] so a loop variable borrowing a shard counts against
//! the shard vector. Edges `A → B` mean "B may be acquired while A is
//! held"; any cycle (including a self-edge, i.e. re-acquiring a held
//! non-reentrant lock) is reported as a potential deadlock. Escape
//! hatches: inline `// treesim-lint: allow(lock-order)` on the acquiring
//! site the finding points at, or an `analyze.allow` entry.

use std::collections::{BTreeMap, BTreeSet};

use super::Lint;
use crate::lex::TokenKind;
use crate::lint::{Finding, Severity, SourceFile};

/// Fns whose call is itself a lock acquisition of their argument.
const WRAPPER_FNS: &[&str] = &["recover"];

/// Lock-acquiring method names.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Call names never resolved to workspace fns: std containers and
/// iterator adapters shadow these (`guard.slots.len()` is `Vec::len`,
/// `.count()` is `Iterator::count`), so a same-named workspace fn that
/// takes locks would fabricate edges. Intentional same-name dispatch to
/// one of these is invisible to the pass — pick distinct names for
/// lock-taking helpers.
const UNRESOLVED_CALLS: &[&str] = &[
    "len",
    "is_empty",
    "count",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "get",
    "get_mut",
    "get_or_init",
    "insert",
    "remove",
    "push",
    "push_back",
    "pop",
    "pop_front",
    "sum",
    "min",
    "max",
    "drain",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "new",
    "default",
    "to_owned",
    "to_string",
    "map",
    "filter",
    "collect",
    "expect",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "take",
    "retain",
    "fold",
];

/// Canonical-name aliases: `(path, site name, canonical lock name)`.
/// Unifies loop/binding variables and `static` cell names with the
/// accessor/field the rest of the file uses.
const LOCK_ALIASES: &[(&str, &str, &str)] = &[
    ("crates/obs/src/recorder.rs", "shard", "recorder.shards"),
    ("crates/obs/src/recorder.rs", "s", "recorder.shards"),
    ("crates/obs/src/trace.rs", "RING", "trace.ring"),
];

const LINT_ID: &str = "lock-order";

/// A captured source location (findings are emitted in `finish`).
#[derive(Debug, Clone)]
struct SiteRef {
    path: String,
    line: u32,
    col: u32,
    snippet: String,
    allowed: bool,
}

/// One event inside a function body, in source order.
#[derive(Debug)]
enum Ev {
    /// `{` — depth increases.
    Open,
    /// `}` — depth decreases; holds scoped deeper die.
    Close,
    /// `;` at the current depth — unbound temporaries die.
    Semi,
    /// A lock acquisition. `binds` = the statement starts with
    /// `let`/`if`/`while`/`match`/`for`, so the guard outlives the
    /// statement.
    Acquire {
        lock: String,
        at: SiteRef,
        binds: bool,
    },
    /// A call that may transitively acquire locks. `method` = invoked
    /// via `.`; `None` = path/UFCS call that could be either.
    Call { name: String, method: Option<bool> },
}

/// One scanned function body.
#[derive(Debug)]
struct FnBody {
    /// File the fn lives in — call resolution is same-file only, so a
    /// ubiquitous name (`new`, `get`) in another crate can't alias in.
    file: String,
    name: String,
    is_method: bool,
    events: Vec<Ev>,
}

/// The `lock-order` pass.
#[derive(Debug, Default)]
pub struct LockOrder {
    fns: Vec<FnBody>,
}

/// Per-file lock environment built in a first pass over the file.
#[derive(Debug, Default)]
struct LockEnv {
    /// site name → canonical name.
    names: BTreeMap<String, String>,
}

impl LockEnv {
    fn canonical(path: &str, name: &str) -> String {
        let stem = path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or(path);
        format!("{stem}.{name}")
    }

    fn build(file: &SourceFile) -> LockEnv {
        let mut env = LockEnv::default();
        // Declarations: `name :` … `Mutex`/`RwLock` within a short window.
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            if t.kind != TokenKind::Ident || file.in_test_code(t.start) {
                continue;
            }
            let Some(c) = file.next_code(i + 1) else {
                continue;
            };
            if !file.tokens[c].is_punct(':') {
                continue;
            }
            if file
                .next_code(c + 1)
                .is_some_and(|j| file.tokens[j].is_punct(':'))
                || file
                    .prev_code(i)
                    .is_some_and(|j| file.tokens[j].is_punct(':'))
            {
                continue;
            }
            let mut j = c + 1;
            for _ in 0..8 {
                let Some(k) = file.next_code(j) else {
                    break;
                };
                let tok = &file.tokens[k];
                if tok.is_ident("Mutex") || tok.is_ident("RwLock") {
                    env.names
                        .insert(t.value.clone(), Self::canonical(&file.path, &t.value));
                    break;
                }
                if [',', ';', '=', '{', '}', ')']
                    .iter()
                    .any(|&p| tok.is_punct(p))
                {
                    break;
                }
                j = k + 1;
            }
        }
        // Accessor fns: `fn name(…) -> … Mutex/RwLock<…>` — the fn name
        // itself becomes a lock name (`ring().lock()`).
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            if !t.is_ident("fn") || file.in_test_code(t.start) {
                continue;
            }
            let Some(n) = file.next_code(i + 1) else {
                continue;
            };
            let name = &file.tokens[n];
            if name.kind != TokenKind::Ident {
                continue;
            }
            // Scan the signature (to the body `{` or a `;`) for a
            // `-> … Mutex/RwLock` return type.
            let mut j = n + 1;
            let mut saw_arrow = false;
            let mut returns_lock = false;
            while let Some(k) = file.next_code(j) {
                let tok = &file.tokens[k];
                if tok.is_punct('{') || tok.is_punct(';') {
                    break;
                }
                if tok.is_punct('-')
                    && file
                        .next_code(k + 1)
                        .is_some_and(|m| file.tokens[m].is_punct('>'))
                {
                    saw_arrow = true;
                }
                if saw_arrow && (tok.is_ident("Mutex") || tok.is_ident("RwLock")) {
                    returns_lock = true;
                }
                j = k + 1;
            }
            if returns_lock {
                env.names
                    .insert(name.value.clone(), Self::canonical(&file.path, &name.value));
            }
        }
        // File-scoped aliases.
        for (path, from, to) in LOCK_ALIASES {
            if *path == file.path {
                env.names.insert((*from).to_owned(), (*to).to_owned());
            }
        }
        env
    }
}

/// Walks left from a `.`/call site collecting the receiver chain idents,
/// skipping balanced `(…)`/`[…]` groups and `?` (same shape as the
/// happens-before scanner).
fn receiver_chain(file: &SourceFile, from: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut at = from;
    while chain.len() < 6 {
        let Some(j) = file.prev_code(at) else {
            break;
        };
        let t = &file.tokens[j];
        if t.kind == TokenKind::Ident {
            chain.push(t.value.clone());
            at = j;
        } else if t.is_punct('.') || t.is_punct('?') {
            at = j;
        } else if t.is_punct(')') || t.is_punct(']') {
            let (open, close) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 1usize;
            let mut k = j;
            while depth > 0 {
                let Some(p) = file.prev_code(k) else {
                    return chain;
                };
                if file.tokens[p].is_punct(close) {
                    depth += 1;
                } else if file.tokens[p].is_punct(open) {
                    depth -= 1;
                }
                k = p;
            }
            at = k;
        } else {
            break;
        }
    }
    chain
}

/// Last ident inside the balanced parens opening at `open` that resolves
/// through `env` (for `recover(ring())`, `recover(shard)`).
fn wrapper_arg_lock(file: &SourceFile, open: usize, env: &LockEnv) -> Option<String> {
    let mut depth = 0usize;
    let mut i = open;
    let mut hit = None;
    loop {
        let t = &file.tokens[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            if let Some(canon) = env.names.get(&t.value) {
                hit = Some(canon.clone());
            }
        }
        i = file.next_code(i + 1)?;
    }
    hit
}

impl LockOrder {
    /// Scans `file` for function bodies and their lock/call events.
    fn scan(&mut self, file: &SourceFile, env: &LockEnv) {
        let code: Vec<usize> = (0..file.tokens.len())
            .filter(|&i| !file.tokens[i].is_trivia() && !file.in_test_code(file.tokens[i].start))
            .collect();
        let mut k = 0usize;
        let mut impl_depth: Option<usize> = None;
        let mut depth = 0usize;
        while k < code.len() {
            let i = code[k];
            let t = &file.tokens[i];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if impl_depth == Some(depth) {
                    impl_depth = None;
                }
            } else if t.is_ident("impl") && impl_depth.is_none() {
                impl_depth = Some(depth);
            } else if t.is_ident("fn") {
                let Some(&ni) = code.get(k + 1) else {
                    break;
                };
                let name_tok = &file.tokens[ni];
                if name_tok.kind == TokenKind::Ident {
                    if let Some(next_k) = self.scan_fn(
                        file,
                        env,
                        &code,
                        k + 2,
                        name_tok.value.clone(),
                        impl_depth.is_some(),
                    ) {
                        k = next_k;
                        continue;
                    }
                }
            }
            k += 1;
        }
    }

    /// Scans one fn starting after its name (index `k` into `code`).
    /// Returns the code index just past the body, or `None` for a
    /// bodyless declaration (trait method signature).
    #[allow(clippy::too_many_arguments)]
    fn scan_fn(
        &mut self,
        file: &SourceFile,
        env: &LockEnv,
        code: &[usize],
        mut k: usize,
        name: String,
        is_method: bool,
    ) -> Option<usize> {
        // Skip the signature past the body `{` (or bail at `;`).
        loop {
            let &i = code.get(k)?;
            let t = &file.tokens[i];
            k += 1;
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                return None;
            }
        }
        let mut events = Vec::new();
        let mut depth = 0usize;
        // Kind of the current statement: true when it starts with a
        // binding/scrutinee keyword, so guards outlive the statement.
        let mut stmt_binds = false;
        let mut stmt_fresh = true;
        while let Some(&i) = code.get(k) {
            let t = &file.tokens[i];
            if stmt_fresh && t.kind == TokenKind::Ident {
                stmt_binds = matches!(t.value.as_str(), "let" | "if" | "while" | "match" | "for");
                stmt_fresh = false;
            }
            if t.is_punct('{') {
                depth += 1;
                events.push(Ev::Open);
                stmt_fresh = true;
            } else if t.is_punct('}') {
                if depth == 0 {
                    // End of the fn body.
                    self.fns.push(FnBody {
                        file: file.path.clone(),
                        name,
                        is_method,
                        events,
                    });
                    return Some(k + 1);
                }
                depth -= 1;
                events.push(Ev::Close);
                stmt_fresh = true;
            } else if t.is_punct(';') {
                events.push(Ev::Semi);
                stmt_fresh = true;
                stmt_binds = false;
            } else if t.kind == TokenKind::Ident {
                let followed_by_paren = code
                    .get(k + 1)
                    .is_some_and(|&j| file.tokens[j].is_punct('('));
                let prev = (k > 0).then(|| &file.tokens[code[k - 1]]);
                let after_dot = prev.as_ref().is_some_and(|p| p.is_punct('.'));
                let after_path = prev.as_ref().is_some_and(|p| p.is_punct(':'));
                let after_fn = prev.as_ref().is_some_and(|p| p.is_ident("fn"));
                if followed_by_paren && !after_fn {
                    let method = t.value.as_str();
                    if after_dot && ACQUIRE_METHODS.contains(&method) {
                        // `.lock()/.read()/.write()` — receiver must be a
                        // known lock name.
                        let chain = receiver_chain(file, code[k - 1]);
                        if let Some(canon) = chain.iter().find_map(|r| env.names.get(r)).cloned() {
                            events.push(Ev::Acquire {
                                lock: canon,
                                at: site_ref(file, t),
                                binds: stmt_binds,
                            });
                        }
                    } else if !after_dot && !after_path && WRAPPER_FNS.contains(&method) {
                        if let Some(&open) = code.get(k + 1) {
                            if let Some(canon) = wrapper_arg_lock(file, open, env) {
                                events.push(Ev::Acquire {
                                    lock: canon,
                                    at: site_ref(file, t),
                                    binds: stmt_binds,
                                });
                            }
                        }
                    } else if !t.is_ident("fn") && !UNRESOLVED_CALLS.contains(&method) {
                        let kind = if after_dot {
                            Some(true)
                        } else if after_path {
                            None
                        } else {
                            Some(false)
                        };
                        events.push(Ev::Call {
                            name: t.value.clone(),
                            method: kind,
                        });
                    }
                }
            }
            k += 1;
        }
        // Unterminated body (truncated file): keep what we have.
        self.fns.push(FnBody {
            file: file.path.clone(),
            name,
            is_method,
            events,
        });
        None
    }
}

fn site_ref(file: &SourceFile, token: &crate::lex::Token) -> SiteRef {
    SiteRef {
        path: file.path.clone(),
        line: token.line,
        col: token.col,
        snippet: file.line_text(token.line).to_owned(),
        allowed: file.allowed_inline(LINT_ID, token.line),
    }
}

fn finding_at(at: &SiteRef, message: String) -> Option<Finding> {
    if at.allowed {
        return None;
    }
    Some(Finding {
        lint: LINT_ID,
        severity: Severity::Error,
        path: at.path.clone(),
        line: at.line,
        col: at.col,
        message,
        snippet: at.snippet.clone(),
    })
}

/// A held lock during replay.
struct Hold {
    lock: String,
    depth: usize,
    binds: bool,
}

impl Lint for LockOrder {
    fn id(&self) -> &'static str {
        LINT_ID
    }

    fn description(&self) -> &'static str {
        "no cycles in the may-hold-while-acquiring graph over named Mutex/RwLock cells"
    }

    fn check_file(&mut self, file: &SourceFile) -> Vec<Finding> {
        // The analyzer's own source is out of scope (its docs and test
        // fixtures discuss lock idioms without taking any locks).
        if !file.path.starts_with("crates/")
            || !file.path.contains("/src/")
            || file.path.starts_with("crates/xtask/")
        {
            return Vec::new();
        }
        let env = LockEnv::build(file);
        self.scan(file, &env);
        Vec::new()
    }

    fn finish(&mut self) -> Vec<Finding> {
        let mut findings = Vec::new();

        // Per-fn direct acquisitions and call lists, indexed by position
        // in `self.fns`. Calls resolve to same-file fns only (plus the
        // method/free bucket split): the obs helper patterns — `finalize`
        // feeding the ring accessor, `recover` wrapping a lock — are all
        // same-file, while resolving
        // `new`/`get`/`insert` workspace-wide would merge every type's
        // constructor into one node and fabricate cycles.
        let mut direct: Vec<BTreeSet<String>> = Vec::with_capacity(self.fns.len());
        let mut calls: Vec<BTreeSet<(String, Option<bool>)>> = Vec::with_capacity(self.fns.len());
        let mut by_file: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, f) in self.fns.iter().enumerate() {
            by_file.entry(f.file.as_str()).or_default().push(idx);
            let mut d = BTreeSet::new();
            let mut c = BTreeSet::new();
            for ev in &f.events {
                match ev {
                    Ev::Acquire { lock, .. } => {
                        d.insert(lock.clone());
                    }
                    Ev::Call { name, method } => {
                        c.insert((name.clone(), *method));
                    }
                    _ => {}
                }
            }
            direct.push(d);
            calls.push(c);
        }
        // Resolve a call event in `file` to the fn indices it may
        // dispatch to.
        let resolve = |file: &str, name: &str, method: Option<bool>| -> Vec<usize> {
            by_file
                .get(file)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&i| {
                    self.fns[i].name == name
                        && (method.is_none() || method == Some(self.fns[i].is_method))
                })
                .collect()
        };
        // Fixpoint: may_acquire = direct ∪ callees' may_acquire.
        let mut may: Vec<BTreeSet<String>> = direct.clone();
        loop {
            let mut changed = false;
            for idx in 0..self.fns.len() {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for (cn, ck) in &calls[idx] {
                    for target in resolve(&self.fns[idx].file, cn, *ck) {
                        if target != idx {
                            add.extend(may[target].iter().cloned());
                        }
                    }
                }
                let before = may[idx].len();
                may[idx].extend(add);
                if may[idx].len() != before {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Replay each fn computing hold scopes; collect edges
        // held → acquired with a representative site.
        let mut edges: BTreeMap<(String, String), SiteRef> = BTreeMap::new();
        for f in &self.fns {
            let mut holds: Vec<Hold> = Vec::new();
            let mut depth = 0usize;
            for ev in &f.events {
                match ev {
                    Ev::Open => depth += 1,
                    Ev::Close => {
                        depth = depth.saturating_sub(1);
                        holds.retain(|h| h.depth <= depth);
                    }
                    Ev::Semi => holds.retain(|h| h.binds || h.depth != depth),
                    Ev::Acquire { lock, at, binds } => {
                        for h in &holds {
                            edges
                                .entry((h.lock.clone(), lock.clone()))
                                .or_insert_with(|| at.clone());
                        }
                        holds.push(Hold {
                            lock: lock.clone(),
                            depth,
                            binds: *binds,
                        });
                    }
                    Ev::Call { name, method } => {
                        if holds.is_empty() {
                            continue;
                        }
                        let mut acquired: BTreeSet<&String> = BTreeSet::new();
                        for target in resolve(&f.file, name, *method) {
                            acquired.extend(may[target].iter());
                        }
                        for lock in acquired {
                            for h in &holds {
                                // Find a site: anchor call-derived edges at
                                // the held lock's own acquisition? The call
                                // token has no SiteRef; reuse the hold's
                                // nearest Acquire site below instead.
                                let at = f.events.iter().find_map(|e| match e {
                                    Ev::Acquire { lock: l, at, .. } if l == &h.lock => {
                                        Some(at.clone())
                                    }
                                    _ => None,
                                });
                                if let Some(at) = at {
                                    edges.entry((h.lock.clone(), lock.clone())).or_insert(at);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Self-edges are immediate potential deadlocks.
        for ((a, b), at) in &edges {
            if a == b {
                findings.extend(finding_at(
                    at,
                    format!(
                        "lock `{a}` may be re-acquired while already held (self-deadlock for a \
                         non-reentrant Mutex/RwLock writer) — narrow the first guard's scope or \
                         restructure"
                    ),
                ));
            }
        }

        // Cycle detection (len ≥ 2) via DFS over the edge set.
        let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            if a != b {
                adj.entry(a).or_default().push(b);
            }
        }
        let nodes: Vec<&String> = adj.keys().copied().collect();
        let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
        for &start in &nodes {
            // DFS from `start` looking for a path back to `start`.
            let mut stack: Vec<(&String, Vec<&String>)> = vec![(start, vec![start])];
            while let Some((node, path)) = stack.pop() {
                for &next in adj.get(node).into_iter().flatten() {
                    if next == start && path.len() >= 2 {
                        let mut cycle: Vec<String> = path.iter().map(|s| (*s).to_owned()).collect();
                        cycle.sort();
                        if reported.insert(cycle) {
                            let chain: Vec<&str> = path
                                .iter()
                                .map(|s| s.as_str())
                                .chain([start.as_str()])
                                .collect();
                            if let Some(at) = edges.get(&((*path[0]).clone(), (*path[1]).clone())) {
                                findings.extend(finding_at(
                                    at,
                                    format!(
                                        "potential deadlock: lock-order cycle {} — two threads \
                                         taking these locks in opposite order can block forever; \
                                         impose a single acquisition order or narrow a guard",
                                        chain.join(" → ")
                                    ),
                                ));
                            }
                        }
                    } else if !path.contains(&next) && path.len() < 8 {
                        let mut p = path.clone();
                        p.push(next);
                        stack.push((next, p));
                    }
                }
            }
        }

        self.fns.clear();
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut lint = LockOrder::default();
        for (path, src) in files {
            assert!(lint.check_file(&SourceFile::parse(path, src)).is_empty());
        }
        lint.finish()
    }

    #[test]
    fn two_mutex_cycle_is_a_potential_deadlock() {
        let findings = run(&[(
            "crates/search/src/engine.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n\
                 fn ba(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("lock-order cycle"));
        assert!(findings[0].message.contains("engine.a"));
        assert!(findings[0].message.contains("engine.b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let findings = run(&[(
            "crates/search/src/engine.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n\
                 fn ab2(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cycle_through_a_callee_is_found() {
        let findings = run(&[(
            "crates/search/src/engine.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             fn take_a(s: &S) { let _g = s.a.lock(); }\n\
             fn under_b(s: &S) { let _g = s.b.lock(); take_a(s); }\n\
             fn under_a(s: &S) { let _g = s.a.lock(); let _h = s.b.lock(); }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("lock-order cycle"),
            "{findings:?}"
        );
    }

    #[test]
    fn per_iteration_guards_do_not_self_edge() {
        // The recorder `drain` shape: one shard lock per iteration, each
        // guard dying at the end of its block.
        let findings = run(&[(
            "crates/obs/src/recorder.rs",
            "struct R { shards: Vec<Mutex<u32>> }\n\
             fn recover(lock: &Mutex<u32>) -> std::sync::MutexGuard<'_, u32> { lock.lock().unwrap() }\n\
             impl R {\n\
                 fn drain(&self) {\n\
                     for shard in &self.shards {\n\
                         let mut guard = recover(shard);\n\
                         *guard += 1;\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn self_reacquire_is_flagged() {
        let findings = run(&[(
            "crates/search/src/engine.rs",
            "struct S { a: Mutex<u32> }\n\
             impl S {\n\
                 fn bad(&self) { let _x = self.a.lock(); let _y = self.a.lock(); }\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("re-acquired while already held"));
    }

    #[test]
    fn temporary_guard_dies_at_the_semicolon() {
        // `*slot().write()… = …;` then a later lock: no edge.
        let findings = run(&[(
            "crates/obs/src/metrics.rs",
            "struct S { a: RwLock<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn set(&self) { *self.a.write().unwrap() = 1; let _g = self.b.lock(); \
                  *self.a.write().unwrap() = 2; }\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn accessor_fn_and_wrapper_resolve_to_one_lock() {
        // `recover(ring())` + a static RING alias: one canonical lock,
        // and holding it while calling a registry-locking fn makes an
        // edge but no cycle.
        let findings = run(&[(
            "crates/obs/src/trace.rs",
            "fn ring() -> &'static Mutex<u32> { static RING: OnceLock<Mutex<u32>> = OnceLock::new(); \
              RING.get_or_init(|| Mutex::new(0)) }\n\
             fn recover(lock: &Mutex<u32>) -> std::sync::MutexGuard<'_, u32> { lock.lock().unwrap() }\n\
             fn finalize() { let mut g = recover(ring()); *g += 1; }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
