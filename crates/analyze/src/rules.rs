//! The structural rules ACT006, ACT007 and ACT009–ACT011.
//!
//! They read the same token stream as the textual rules and recover the
//! little structure they need from the bracket partner table in [`Scan`]:
//! a fn is its `(…)` parameter group and its `{…}` body, a loop is its
//! keyword and its `{…}` body, a closure is its `|…|` parameters and the
//! block or expression after them, a macro call is its name and its
//! group, a struct is its name and its `{…}` body. Nothing inside
//! a `#[cfg(test)]` region is reported: these are production-contract
//! checks.

use std::collections::HashSet;
use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::textual::{seq_at, Scan};
use crate::Finding;

const MSG_ACT006: &str = "`obj!` keys must be unique: \
     a repeated key silently overwrites the earlier value";
const MSG_ACT007: &str = "loop calls a model kernel (`eval`, `try_eval`, `eval_block` or a \
     `Range<usize>` block-kernel parameter) without referencing an `EvalBudget`; \
     check the budget in this loop or an enclosing one";
const MSG_ACT009: &str = "lock guard held across blocking I/O or a callback; \
     drop the guard (or narrow its scope) before leaving the critical section";
const MSG_ACT010: &str = "raw f64 comparison in order-statistics code; \
     use `total_cmp` so NaNs cannot poison the ordering";
const MSG_ACT011: &str = "panic surface in the request path: indexing/slicing/\
     unwrap/expect in a route handler must become a 4xx/5xx response";

/// Runs every structural rule that applies to the scanned file.
pub(crate) fn check(scan: &Scan<'_>) -> Vec<Finding> {
    let path = scan.path;
    let fns = fn_items(scan);
    let mut out = Vec::new();
    act006_duplicate_obj_keys(scan, &mut out);
    if act007_in_scope(path) {
        act007_budget_blind_loops(scan, &fns, &mut out);
    }
    if act009_in_scope(path) {
        act009_guard_across_call(scan, &fns, &mut out);
    }
    if act010_in_scope(path) {
        act010_raw_float_cmp(scan, &mut out);
    }
    if act011_in_scope(path) {
        act011_panic_surface(scan, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Rule scoping.
// ---------------------------------------------------------------------------

/// ACT007 applies where sweep loops and the chunk engine live.
fn act007_in_scope(path: &str) -> bool {
    path.starts_with("crates/dse/src/") || path.starts_with("crates/server/src/")
}

/// ACT009 targets the server, where a guard held across I/O deadlocks the
/// worker pool.
fn act009_in_scope(path: &str) -> bool {
    path.starts_with("crates/server/src/")
}

/// ACT010 targets the modules that order `f64` draws: the Monte-Carlo
/// percentile selection and the optimizer's argmin.
fn act010_in_scope(path: &str) -> bool {
    path == "crates/dse/src/montecarlo.rs" || path == "crates/dse/src/optimize.rs"
}

/// ACT011 targets the request path: the server's route handlers.
fn act011_in_scope(path: &str) -> bool {
    path.starts_with("crates/server/src/") && path.ends_with("routes.rs")
}

// ---------------------------------------------------------------------------
// Shared structure: items, fns, lets and closures.
// ---------------------------------------------------------------------------

/// `true` if token `k` follows a `p` token.
fn after(toks: &[Tok], k: usize, p: &str) -> bool {
    k > 0 && toks[k - 1].is_punct(p)
}

/// `true` if some identifier in `ty` (a type's tokens) contains `word`.
fn names(ty: &[Tok], word: &str) -> bool {
    ty.iter().any(|t| t.kind == TokKind::Ident && t.text.contains(word))
}

/// `true` for a `Mutex`/`RwLock` type (or a guard of one).
fn is_lock_type(ty: &[Tok]) -> bool {
    names(ty, "Mutex") || names(ty, "RwLock")
}

/// The file's struct fields declared as a `Mutex`/`RwLock` (test items
/// included: lookups want them).
fn lock_fields<'a>(scan: &Scan<'a>) -> HashSet<&'a str> {
    let toks = scan.toks;
    let mut locks = HashSet::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !toks[i].is_ident("struct") || toks[i + 1].kind != TokKind::Ident {
            continue;
        }
        // Tuple and unit structs reach their `;` first.
        let open = scan.find(i + 2, &["{", ";"]);
        if !scan.is(open, "{") {
            continue;
        }
        let close = scan.partner[open];
        // A field is a top-level name followed by `:`; its type runs to
        // the next field.
        let mut fields = Vec::new();
        let mut k = open + 1;
        while k < close {
            if toks[k].kind == TokKind::Ident && scan.is(k + 1, ":") {
                fields.push(k);
            }
            k = scan.skip(k);
        }
        for (n, &m) in fields.iter().enumerate() {
            let end = fields.get(n + 1).copied().unwrap_or(close);
            if is_lock_type(&toks[m + 1..end]) {
                locks.insert(toks[m].text.as_str());
            }
        }
    }
    locks
}

/// A fn parameter: its name and the tokens of its type.
struct Param<'a> {
    name: &'a str,
    ty: &'a [Tok],
}

/// A fn item outside the test regions, with a body.
struct FnItem<'a> {
    params: Vec<Param<'a>>,
    /// Token indices inside the body's braces.
    body: Range<usize>,
}

impl<'a> FnItem<'a> {
    /// The bodies (braces included) of the fns nested in this one.
    fn nested(&self, fns: &[FnItem<'_>]) -> Vec<Range<usize>> {
        fns.iter()
            .filter(|g| g.body.start > self.body.start && g.body.end <= self.body.end)
            .map(|g| g.body.start - 1..g.body.end + 1)
            .collect()
    }

    /// Names of the parameters whose type satisfies `pred`.
    fn params_where(&self, pred: impl Fn(&[Tok]) -> bool) -> HashSet<&'a str> {
        self.params.iter().filter(|p| pred(p.ty)).map(|p| p.name).collect()
    }
}

fn fn_items<'a>(scan: &Scan<'a>) -> Vec<FnItem<'a>> {
    let toks = scan.toks;
    let mut fns = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !toks[i].is_ident("fn") || toks[i + 1].kind != TokKind::Ident || scan.in_test(i) {
            continue;
        }
        let open = skip_generics(toks, i + 2);
        if !scan.is(open, "(") {
            continue;
        }
        let body = scan.find(scan.partner[open] + 1, &["{", ";"]);
        if scan.is(body, "{") {
            fns.push(FnItem { params: params(scan, open), body: body + 1..scan.partner[body] });
        }
    }
    fns
}

/// How token `t` moves the nesting depth of `<…>` generics.
pub(crate) fn angle_step(t: &Tok) -> i32 {
    match t.text.as_str() {
        "<" => 1,
        ">" => -1,
        ">>" => -2,
        _ => 0,
    }
}

/// The index past a `<…>` generics list starting at `j` (or `j` itself).
pub(crate) fn skip_generics(toks: &[Tok], mut j: usize) -> usize {
    if !toks.get(j).is_some_and(|t| t.is_punct("<")) {
        return j;
    }
    let mut depth = 0;
    while let Some(t) = toks.get(j) {
        j += 1;
        depth += angle_step(t);
        if depth <= 0 {
            break;
        }
    }
    j
}

/// The `name: Type` parameters of the group opening at `open`, split at
/// the commas outside brackets and generics (`self` receivers have no
/// `:` and are left out).
fn params<'a>(scan: &Scan<'a>, open: usize) -> Vec<Param<'a>> {
    let toks = scan.toks;
    let close = scan.partner[open];
    let mut out = Vec::new();
    let (mut seg, mut angle, mut j) = (open + 1, 0, open + 1);
    loop {
        let at_end = j >= close;
        if at_end || (angle == 0 && toks[j].is_punct(",")) {
            if let Some(colon) = (seg..j).find(|&c| toks[c].is_punct(":")) {
                if colon > seg && toks[colon - 1].kind == TokKind::Ident {
                    out.push(Param { name: &toks[colon - 1].text, ty: &toks[colon + 1..j] });
                }
            }
            if at_end {
                return out;
            }
            seg = j + 1;
        } else {
            angle += angle_step(&toks[j]);
        }
        j = scan.skip(j);
    }
}

/// A `let` statement: its bound names, its initialiser's tokens and the
/// index of its closing `;`.
struct Let<'a> {
    names: Vec<&'a str>,
    init: Range<usize>,
    end: usize,
}

/// The `let` statement at `k`, or `None` when `k` is no statement `let`
/// (an `if let`/`while let` condition binds no statement).
fn let_at<'a>(scan: &Scan<'a>, k: usize) -> Option<Let<'a>> {
    let toks = scan.toks;
    let stmt = k == 0 || matches!(toks[k - 1].text.as_str(), ";" | "{" | "}" | "]");
    if !toks[k].is_ident("let") || !stmt {
        return None;
    }
    let pattern_end = scan.find(k + 1, &[":", "=", ";"]);
    let eq = scan.find(pattern_end, &["=", ";"]);
    let end = scan.find(eq, &[";"]);
    let mut names = Vec::new();
    let mut braces = 0i32;
    for j in k + 1..pattern_end {
        let t = &toks[j];
        match t.text.as_str() {
            "{" => braces += 1,
            "}" => braces -= 1,
            _ => {}
        }
        let next = toks.get(j + 1).map_or("", |n| n.text.as_str());
        // In `S { field: binding }` the name before `:` is a field.
        let binds = t.kind == TokKind::Ident
            && t.text.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && !matches!(
                t.text.as_str(),
                "_" | "mut" | "ref" | "box" | "true" | "false" | "self"
            )
            && !matches!(next, "::" | "(" | "{" | "!")
            && !(braces > 0 && next == ":");
        if binds {
            names.push(t.text.as_str());
        }
    }
    let init = if scan.is(eq, "=") { eq + 1..end } else { end..end };
    Some(Let { names, init, end })
}

/// The body of the closure whose parameter list opens at `k` (`|` or
/// `||`): a `{…}` block with its braces, or an expression up to the `,`,
/// `;` or closing bracket that ends it. `None` when `k` opens no closure:
/// after an operand (identifier, literal, `)`, `]`, `}` or `?`), a `|` or
/// `||` is an operator.
fn closure_body(scan: &Scan<'_>, k: usize) -> Option<Range<usize>> {
    let toks = scan.toks;
    let t = &toks[k];
    if !(t.is_punct("|") || t.is_punct("||")) {
        return None;
    }
    if let Some(p) = k.checked_sub(1).map(|p| &toks[p]) {
        let operand = match p.kind {
            TokKind::Ident => !matches!(p.text.as_str(), "move" | "return" | "break"),
            TokKind::Punct => matches!(p.text.as_str(), ")" | "]" | "}" | "?"),
            _ => true,
        };
        if operand {
            return None;
        }
    }
    let start = if t.text == "||" { k + 1 } else { scan.find(k + 1, &["|"]) + 1 };
    let block = if scan.is(start, "->") { scan.find(start, &["{"]) } else { start };
    if scan.is(block, "{") {
        return Some(block..scan.partner[block] + 1);
    }
    Some(start..scan.find(start, &[",", ";", ")", "]", "}"]))
}

// ---------------------------------------------------------------------------
// ACT006 — duplicate `obj!` keys.
// ---------------------------------------------------------------------------

/// `obj! { "key": …, "key": … }` — a repeated key silently overwrites the
/// first value. Nested `obj!` calls sit inside brackets here and are
/// checked as calls of their own.
fn act006_duplicate_obj_keys(scan: &Scan<'_>, out: &mut Vec<Finding>) {
    let toks = scan.toks;
    for i in 0..toks.len().saturating_sub(2) {
        let open = i + 2;
        let call = toks[i].is_ident("obj")
            && toks[i + 1].is_punct("!")
            && matches!(toks[open].text.as_str(), "(" | "[" | "{");
        if !call || scan.in_test(i) {
            continue;
        }
        let mut seen: HashSet<&str> = HashSet::new();
        let mut k = open + 1;
        while k < scan.partner[open] {
            let t = &toks[k];
            if t.kind == TokKind::Str && scan.is(k + 1, ":") && !seen.insert(&t.text) {
                out.push(scan.finding(k, "ACT006", MSG_ACT006));
            }
            k = scan.skip(k);
        }
    }
}

// ---------------------------------------------------------------------------
// ACT007 — budget-blind kernel loops.
// ---------------------------------------------------------------------------

/// Methods that evaluate the model: the compiled point kernel and the
/// block kernel.
const KERNEL_METHODS: [&str; 3] = ["eval", "try_eval", "eval_block"];

/// `true` for a callable taking a `Range<usize>`: the block-kernel shape
/// the chunk engine drives.
fn is_block_kernel(ty: &[Tok]) -> bool {
    let range = (0..ty.len()).any(|j| seq_at(ty, j, &["Range", "<", "usize", ">"]));
    range && ty.iter().any(|t| t.kind == TokKind::Ident && t.text.starts_with("Fn"))
}

/// The body (inside the braces) of the `for`/`while`/`loop` at `k`, or
/// `None` when `k` starts no loop (`impl X for Y`, `for<'a>`).
fn loop_body(scan: &Scan<'_>, k: usize) -> Option<Range<usize>> {
    let t = &scan.toks[k];
    if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "for" | "while" | "loop") {
        return None;
    }
    let open = scan.find(k + 1, &["{", ";"]);
    let for_in = t.text != "for" || scan.toks[k..open].iter().any(|t| t.is_ident("in"));
    (scan.is(open, "{") && for_in).then(|| open + 1..scan.partner[open])
}

/// Every loop whose body calls a kernel must reference an `EvalBudget`
/// binding (a parameter, or a `let` that names the type) in itself or in
/// an enclosing loop.
fn act007_budget_blind_loops(scan: &Scan<'_>, fns: &[FnItem<'_>], out: &mut Vec<Finding>) {
    let toks = scan.toks;
    for f in fns {
        let nested = f.nested(fns);
        let own: Vec<usize> =
            f.body.clone().filter(|k| !nested.iter().any(|r| r.contains(k))).collect();
        let mut budgets = f.params_where(|ty| names(ty, "EvalBudget"));
        for &k in &own {
            if let Some(l) = let_at(scan, k) {
                if toks[k..l.end].iter().any(|t| t.is_ident("EvalBudget")) {
                    budgets.extend(l.names);
                }
            }
        }
        let kernels = f.params_where(is_block_kernel);
        let budgeted = |r: Range<usize>| {
            toks[r].iter().any(|t| {
                t.kind == TokKind::Ident
                    && (t.text == "EvalBudget" || budgets.contains(t.text.as_str()))
            })
        };
        let loops: Vec<(Range<usize>, bool)> = own
            .iter()
            .filter_map(|&k| {
                loop_body(scan, k).map(|body| (body.clone(), budgeted(k..body.end)))
            })
            .collect();
        for &k in &own {
            let name = toks[k].text.as_str();
            let method = after(toks, k, ".") && KERNEL_METHODS.contains(&name);
            let param = !after(toks, k, ".") && !after(toks, k, "::") && kernels.contains(name);
            if !(method || param) || !scan.is(k + 1, "(") {
                continue;
            }
            let mut enclosing = loops.iter().filter(|(body, _)| body.contains(&k)).peekable();
            if enclosing.peek().is_some() && !enclosing.any(|(_, budgeted)| *budgeted) {
                out.push(scan.finding(k, "ACT007", MSG_ACT007));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ACT009 — guard held across blocking I/O or a callback.
// ---------------------------------------------------------------------------

const IO_METHODS: [&str; 15] = [
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "send",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "set_read_timeout",
    "set_write_timeout",
    "shutdown",
];

/// What a fn's guard scan resolves names against.
struct GuardCtx<'a> {
    /// Bindings declared as a `Mutex`/`RwLock`: struct fields and the
    /// fn's own parameters (for `.read()`/`.write()` receivers).
    locks: HashSet<&'a str>,
    /// Callable parameters: calling one runs unknown code.
    callbacks: HashSet<&'a str>,
    /// Nested fn bodies, which the scan steps over.
    nested: Vec<Range<usize>>,
}

fn act009_guard_across_call(scan: &Scan<'_>, fns: &[FnItem<'_>], out: &mut Vec<Finding>) {
    let fields = lock_fields(scan);
    for f in fns {
        let mut locks = fields.clone();
        locks.extend(f.params_where(is_lock_type));
        let callbacks = f.params_where(|ty| names(ty, "Fn"));
        let ctx = GuardCtx { locks, callbacks, nested: f.nested(fns) };
        scan_guards(scan, &ctx, f.body.clone(), out);
    }
}

/// Walks one scope (a fn body or a closure body) in token order. A guard
/// is born at the `;` of a `let` whose initialiser acquires a lock, and
/// dies at the `}` closing the block it was born in or at `drop(name);`.
/// Closure bodies are scopes of their own: outer guards are not live in
/// them.
fn scan_guards(
    scan: &Scan<'_>,
    ctx: &GuardCtx<'_>,
    scope: Range<usize>,
    out: &mut Vec<Finding>,
) {
    let toks = scan.toks;
    // (name, born, dies) per guard; the closers of the open blocks.
    let mut live: Vec<(&str, usize, usize)> = Vec::new();
    let mut blocks: Vec<usize> = Vec::new();
    let mut k = scope.start;
    while k < scope.end {
        live.retain(|g| k < g.2);
        blocks.retain(|&close| k < close);
        if let Some(r) = ctx.nested.iter().find(|r| r.start == k) {
            k = r.end;
            continue;
        }
        if let Some(body) = closure_body(scan, k) {
            scan_guards(scan, ctx, body.clone(), out);
            k = body.end;
            continue;
        }
        if toks[k].is_punct("{") {
            blocks.push(scan.partner[k]);
        }
        if live.iter().any(|g| g.1 < k) {
            if let Some(at) = hazard(scan, ctx, k) {
                out.push(scan.finding(at, "ACT009", MSG_ACT009));
            }
        }
        if let Some(l) = let_at(scan, k) {
            if acquires_guard(scan, ctx, l.init) {
                let dies = blocks.last().copied().unwrap_or(scope.end);
                live.extend(l.names.iter().map(|&name| (name, l.end, dies)));
            }
        }
        let dropped = toks[k].is_ident("drop") && !after(toks, k, ".") && !after(toks, k, "::");
        if dropped && scan.is(k + 1, "(") && scan.is(k + 3, ")") && scan.is(k + 4, ";") {
            live.retain(|g| !scan.is(k + 2, g.0));
        }
        k += 1;
    }
}

/// The position to report if token `k` starts blocking I/O (an
/// `IO_METHODS` call, or `.read(…)`/`.write(…)` with arguments) or a call
/// of a callback parameter or `thread::sleep`.
fn hazard(scan: &Scan<'_>, ctx: &GuardCtx<'_>, k: usize) -> Option<usize> {
    let toks = scan.toks;
    let name = toks[k].text.as_str();
    if toks[k].kind != TokKind::Ident || !scan.is(k + 1, "(") {
        return None;
    }
    if after(toks, k, ".") {
        // Without arguments, `read()`/`write()` acquire an `RwLock`.
        let rw = matches!(name, "read" | "write") && !scan.is(k + 2, ")");
        return (IO_METHODS.contains(&name) || rw).then_some(k);
    }
    let callback = !after(toks, k, "::") && ctx.callbacks.contains(name);
    let sleep = name == "sleep" && k >= 2 && seq_at(toks, k - 2, &["thread", "::"]);
    (callback || sleep).then_some(k + 1)
}

/// Does this initialiser acquire a guard that flows into the binding: a
/// `.lock()`, a call of `lock`/`lock_*`, or an argument-less
/// `.read()`/`.write()` on a lock? Blocks and closures inside it are not
/// searched: a lock taken in `let v = { let g = m.lock(); … };` is
/// scoped to that block, and `v` holds a copy of the data.
fn acquires_guard(scan: &Scan<'_>, ctx: &GuardCtx<'_>, init: Range<usize>) -> bool {
    let toks = scan.toks;
    let mut k = init.start;
    while k < init.end {
        if let Some(body) = closure_body(scan, k) {
            k = body.end;
            continue;
        }
        if toks[k].is_punct("{") {
            k = scan.skip(k);
            continue;
        }
        let name = toks[k].text.as_str();
        let acquires = if after(toks, k, ".") {
            seq_at(toks, k + 1, &["(", ")"])
                && (name == "lock"
                    || (matches!(name, "read" | "write") && receiver_is_lock(scan, ctx, k - 1)))
        } else {
            toks[k].kind == TokKind::Ident
                && scan.is(k + 1, "(")
                && (name == "lock" || name.starts_with("lock_"))
        };
        if acquires {
            return true;
        }
        k += 1;
    }
    false
}

/// Resolves the receiver of the `.` at `dot` against the lock bindings:
/// `self.state.read()` and `queue.read()` both count when `state`/`queue`
/// is declared as a `Mutex`/`RwLock`, also through `?` and the
/// `as_ref`/`borrow`/`deref`/`clone` adapters.
fn receiver_is_lock(scan: &Scan<'_>, ctx: &GuardCtx<'_>, mut dot: usize) -> bool {
    let toks = scan.toks;
    loop {
        let Some(mut r) = dot.checked_sub(1) else { return false };
        if toks[r].is_punct("?") && r > 0 {
            r -= 1;
        }
        let adapter = r >= 3
            && toks[r].is_punct(")")
            && scan.partner[r] + 1 == r
            && matches!(toks[r - 2].text.as_str(), "as_ref" | "borrow" | "deref" | "clone")
            && toks[r - 3].is_punct(".");
        if !adapter {
            return toks[r].kind == TokKind::Ident && ctx.locks.contains(toks[r].text.as_str());
        }
        dot = r - 3;
    }
}

// ---------------------------------------------------------------------------
// ACT010 — raw f64 comparison in order-statistics code.
// ---------------------------------------------------------------------------

/// Methods whose last argument is a comparator or ordering predicate.
const COMPARATOR_SINKS: [&str; 7] = [
    "sort_by",
    "sort_unstable_by",
    "select_nth_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
    "partition_point",
];

/// Flags every `.partial_cmp(` (`total_cmp` is total and NaN-safe;
/// `partial_cmp(..).unwrap()` is the panic we hunt), and every comparator
/// closure passed last to a `COMPARATOR_SINKS` method that orders with
/// `<`/`>`/`partial_cmp` and never reaches for `total_cmp`/`cmp`.
fn act010_raw_float_cmp(scan: &Scan<'_>, out: &mut Vec<Finding>) {
    let toks = scan.toks;
    for k in 1..toks.len() {
        if !after(toks, k, ".") || !scan.is(k + 1, "(") || scan.in_test(k) {
            continue;
        }
        let name = toks[k].text.as_str();
        let raw = name == "partial_cmp"
            || (COMPARATOR_SINKS.contains(&name)
                && last_closure_arg(scan, k + 1).is_some_and(|body| compares_raw(toks, body)));
        if raw {
            out.push(scan.finding(k, "ACT010", MSG_ACT010));
        }
    }
}

/// The body of the call's last argument (group opening at `open`) if that
/// argument is a closure.
fn last_closure_arg(scan: &Scan<'_>, open: usize) -> Option<Range<usize>> {
    let mut last = None;
    let mut j = open + 1;
    while j < scan.partner[open] {
        let start = j + usize::from(scan.toks[j].is_ident("move"));
        last = closure_body(scan, start);
        j = last.as_ref().map_or_else(|| scan.find(j, &[",", ")"]), |body| body.end) + 1;
    }
    last
}

fn compares_raw(toks: &[Tok], body: Range<usize>) -> bool {
    let (mut raw, mut total) = (false, false);
    for k in body {
        let t = &toks[k];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), "<" | ">" | "<=" | ">=") {
            raw |= !after(toks, k, "::");
        } else if after(toks, k, ".") {
            raw |= t.text == "partial_cmp";
            total |= t.text == "total_cmp" || t.text == "cmp";
        }
    }
    raw && !total
}

// ---------------------------------------------------------------------------
// ACT011 — panic surface in the request path.
// ---------------------------------------------------------------------------

/// Keywords a `[` can follow without indexing anything (a slice pattern,
/// an array expression or type).
const NOT_INDEXED: [&str; 10] =
    ["let", "in", "mut", "return", "match", "if", "while", "for", "break", "where"];

/// Flags indexing — a `[` after an identifier, `)`, `]` or `?` — and
/// `.unwrap(`/`.expect(`.
fn act011_panic_surface(scan: &Scan<'_>, out: &mut Vec<Finding>) {
    let toks = scan.toks;
    for k in 1..toks.len() {
        let (prev, t) = (&toks[k - 1], &toks[k]);
        let index = t.is_punct("[")
            && match prev.kind {
                TokKind::Ident => !NOT_INDEXED.contains(&prev.text.as_str()),
                TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                _ => false,
            };
        let unwrap = prev.is_punct(".")
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && scan.is(k + 1, "(");
        if (index || unwrap) && !scan.in_test(k) {
            out.push(scan.finding(k, "ACT011", MSG_ACT011));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{analyze_source as run, Finding};

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn act006_flags_duplicate_obj_keys_even_nested() {
        let dup = "fn f() -> JsonValue { act_json::obj! { \"a\": 1, \"a\": 2 } }\n";
        assert_eq!(rules(&run("crates/x/src/lib.rs", dup)), vec!["ACT006"]);
        let nested = "fn f() -> JsonValue {\n\
                      act_json::obj! { \"o\": act_json::obj! { \"k\": 1, \"k\": 2 } }\n\
                      }\n";
        assert_eq!(rules(&run("crates/x/src/lib.rs", nested)), vec!["ACT006"]);
        let clean = "fn f() -> JsonValue { act_json::obj! { \"a\": 1, \"b\": obj! {} } }\n";
        assert!(run("crates/x/src/lib.rs", clean).is_empty());
    }

    #[test]
    fn act007_needs_a_consulted_budget() {
        let blind = "pub fn sweep(points: &[P], kernel: &CompiledFootprint) {\n\
                     for p in points { let v = kernel.eval(p); use_it(v); }\n\
                     }\n";
        assert_eq!(rules(&run("crates/dse/src/sweep2.rs", blind)), vec!["ACT007"]);
        let budgeted =
            "pub fn sweep(points: &[P], kernel: &CompiledFootprint, budget: &EvalBudget) {\n\
                        for (i, p) in points.iter().enumerate() {\n\
                        if budget.is_exhausted() { break; }\n\
                        let v = kernel.eval(p); use_it(v);\n\
                        }\n\
                        }\n";
        assert!(run("crates/dse/src/sweep2.rs", budgeted).is_empty());
        // Out of scope: same code elsewhere is fine.
        assert!(run("crates/core/src/x.rs", blind).is_empty());
    }

    #[test]
    fn act007_follows_block_kernels_and_enclosing_loops() {
        // A budget consulted outside the loop does not cover it.
        let outside = "pub fn fill(k: &CompiledFootprint, budget: &EvalBudget) {\n\
                       if budget.is_exhausted() { return; }\n\
                       loop { let _ = k.try_eval(&[]); }\n\
                       }\n";
        assert_eq!(rules(&run("crates/server/src/routes.rs", outside)), vec!["ACT007"]);
        // A block-kernel parameter is a kernel; an enclosing loop's check covers it.
        let block =
            "fn chunks(fill: &impl Fn(Range<usize>, &mut [f64]), budget: &EvalBudget) {\n\
                     while !budget.is_exhausted() {\n\
                     for r in ranges() { fill(r, out()); }\n\
                     }\n\
                     }\n";
        assert!(run("crates/dse/src/batch.rs", block).is_empty());
        let blind = block.replace("!budget.is_exhausted()", "more()");
        assert_eq!(rules(&run("crates/dse/src/batch.rs", &blind)), vec!["ACT007"]);
        // A kernel call outside any loop needs no budget.
        let once = "fn one(plan: &Plan) { plan.eval_block(c, 0..8, o); }\n";
        assert!(run("crates/dse/src/batch.rs", once).is_empty());
    }

    #[test]
    fn act008_scopes_to_library_crates() {
        let src = "pub fn f() -> Instant { let t = Instant::now(); t }\n";
        assert_eq!(rules(&run("crates/core/src/x.rs", src)), vec!["ACT008"]);
        assert!(run("crates/server/src/lib.rs", src).is_empty());
        assert!(run("crates/dse/src/batch.rs", src).is_empty());
        let env = "pub fn f() { let v = std::env::var(\"X\"); drop(v); }\n";
        assert_eq!(rules(&run("crates/json/src/lib.rs", env)), vec!["ACT008"]);
        // A path passed as a function value counts too.
        let value =
            "pub fn f(t: Option<Instant>) -> Instant { t.unwrap_or_else(Instant::now) }\n";
        assert_eq!(rules(&run("crates/core/src/x.rs", value)), vec!["ACT008"]);
    }

    #[test]
    fn act009_guard_across_io_and_drop_release() {
        let held = "pub fn f(stream: &mut TcpStream) {\n\
                    let state = lock_queue(&queue);\n\
                    stream.write_all(b\"x\");\n\
                    drop(state);\n\
                    }\n";
        assert_eq!(rules(&run("crates/server/src/lib.rs", held)), vec!["ACT009"]);
        let released = "pub fn f(stream: &mut TcpStream) {\n\
                        let state = lock_queue(&queue);\n\
                        let n = state.len();\n\
                        drop(state);\n\
                        stream.write_all(b\"x\");\n\
                        let _ = n;\n\
                        }\n";
        assert!(run("crates/server/src/lib.rs", released).is_empty());
    }

    #[test]
    fn act009_scoped_guard_dies_at_block_end() {
        let scoped = "pub fn f(stream: &mut TcpStream) {\n\
                      { let state = q.lock(); touch(&state); }\n\
                      stream.write_all(b\"x\");\n\
                      }\n";
        assert!(run("crates/server/src/lib.rs", scoped).is_empty());
        // A closure body is a scope of its own: the outer guard is not live
        // in it, and its own guard is.
        let closure = "pub fn f(s: &mut TcpStream) {\n\
                       let g = q.lock();\n\
                       let later = || s.flush();\n\
                       let inner = || { let h = q.lock(); s.flush(); };\n\
                       drop(g);\n\
                       }\n";
        let found = run("crates/server/src/lib.rs", closure);
        assert_eq!(found.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(), [("ACT009", 4)]);
    }

    #[test]
    fn act010_comparators_must_be_total() {
        let raw = "pub fn front(v: &mut Vec<f64>) {\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));\n\
                   }\n";
        let found = run("crates/dse/src/montecarlo.rs", raw);
        assert!(rules(&found).contains(&"ACT010"), "{found:#?}");
        let total = "pub fn front(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(run("crates/dse/src/montecarlo.rs", total).is_empty());
        // The percentile selector takes its comparator second.
        let select = "pub fn p50(v: &mut [f64]) -> f64 {\n\
                      *v.select_nth_unstable_by(v.len() / 2, |a, b| if a < b { Less } else { Greater }).1\n\
                      }\n";
        let found = run("crates/dse/src/montecarlo.rs", select);
        assert!(rules(&found).contains(&"ACT010"), "{found:#?}");
        let select = "pub fn p50(v: &mut [f64]) -> f64 {\n\
                      *v.select_nth_unstable_by(v.len() / 2, |a, b| a.total_cmp(b)).1\n\
                      }\n";
        assert!(run("crates/dse/src/optimize.rs", select).is_empty());
        // Raw `<` in a plain for-loop scan is allowed; only comparator
        // closures and partial_cmp are the footgun.
        let scan = "pub fn min(v: &[f64]) -> f64 {\n\
                    let mut m = f64::INFINITY;\n\
                    for x in v { if *x < m { m = *x; } }\n\
                    m\n\
                    }\n";
        assert!(run("crates/dse/src/montecarlo.rs", scan).is_empty());
    }

    #[test]
    fn act011_flags_indexing_and_unwrap_in_routes() {
        let slicing = "pub fn handle(path: &str) -> Response {\n\
                       let id = &path[\"/v1/x/\".len()..];\n\
                       respond(id)\n\
                       }\n";
        let found = run("crates/server/src/routes.rs", slicing);
        assert!(rules(&found).contains(&"ACT011"), "{found:#?}");
        // Same code outside routes.rs: no ACT011.
        assert!(!rules(&run("crates/server/src/stats.rs", slicing)).contains(&"ACT011"));
        let safe = "pub fn handle(path: &str) -> Response {\n\
                    match path.strip_prefix(\"/v1/x/\") {\n\
                    Some(id) => respond(id),\n\
                    None => not_found(),\n\
                    }\n\
                    }\n";
        assert!(run("crates/server/src/routes.rs", safe).is_empty());
        // Array types, literals and slice patterns index nothing.
        let arrays = "pub fn h(b: &[u8], t: [u8; 2]) -> Vec<[u8; 2]> {\n\
                      let [x, y] = t;\n\
                      vec![[x, y], [b.len() as u8, 0]]\n\
                      }\n";
        assert!(run("crates/server/src/routes.rs", arrays).is_empty());
    }
}
