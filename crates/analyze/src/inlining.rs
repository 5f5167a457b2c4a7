//! ACT015, the one cross-file rule: every workspace function a
//! `wide::Body::run` body reaches must be `#[inline(always)]`.
//!
//! `act_core::wide::run_wide` compiles a body a second time for AVX-512,
//! and only code inlined into that instance gets its features. `#[inline]`
//! is a hint: a callee LLVM keeps out of line runs its baseline copy from
//! inside the wide instance, which is how the fleet sampler's costliest
//! pass once shipped. The rule follows calls by name, the way the rest of
//! the analyzer reads code — no types, no name resolution:
//!
//! * `name(…)` reaches the workspace's free and nested fns called `name`;
//! * `Path::name(…)` reaches free fns and inherent methods called `name`;
//! * `.name(…)` reaches inherent methods called `name`, except the std
//!   method names in [`STD_METHODS`], which workspace types share.
//!
//! Trait-impl methods are never reached by name (a call of `next` or
//! `fmt` is std's far more often than the workspace's). Each reached fn
//! is checked once, and its body is followed in turn, across files. The
//! roots are the `run` fns of `impl … Body for …` blocks in library code
//! (`crates/*/src/`, CLI and bench crates exempt), which must be
//! `#[inline(always)]` themselves; nothing in a `#[cfg(test)]` region is
//! a root or a callee.

use std::collections::HashMap;
use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::rules::{angle_step, skip_generics};
use crate::textual::{seq_at, Scan};
use crate::Finding;

const MSG_ACT015: &str = "function reached from a `wide::Body::run` body is not \
     `#[inline(always)]`; `#[inline]` is a hint, and a callee kept out of line runs \
     its baseline copy inside the AVX-512 instance";

/// Methods of `f64`, slices and iterators that workspace types also
/// define (`Quantity::is_finite`, `BatchOutput::len`, …): a body's call
/// of one is taken to be std's.
const STD_METHODS: [&str; 6] = ["abs", "is_empty", "is_finite", "iter", "len", "min"];

/// Where a fn item sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A module-level fn, or one nested in another fn's body.
    Free,
    /// A method of an inherent `impl Type { … }` block.
    Inherent,
    /// A method of an `impl Trait for Type` block or a trait's default.
    TraitItem,
}

/// One fn item outside the test regions, with a body.
struct FnDef {
    /// Index of the file in the analyzed set.
    file: usize,
    /// Token index of the fn's name.
    name: usize,
    kind: Kind,
    /// `#[inline(always)]` among its attributes.
    always: bool,
    /// The `run` of an `impl … Body for …` block.
    body_run: bool,
    /// Token indices inside the body's braces.
    body: Range<usize>,
}

/// `true` for library code: a crate's `src/`, CLI and bench exempt.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.starts_with("crates/cli/")
        && !path.starts_with("crates/bench/")
}

/// Runs ACT015 over the analyzed files as one workspace.
pub(crate) fn check(scans: &[Scan<'_>]) -> Vec<Finding> {
    let defs: Vec<FnDef> = scans
        .iter()
        .enumerate()
        .filter(|(_, scan)| in_scope(scan.path))
        .flat_map(|(file, scan)| fn_defs(file, scan))
        .collect();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (d, def) in defs.iter().enumerate() {
        by_name.entry(scans[def.file].toks[def.name].text.as_str()).or_default().push(d);
    }
    let mut reached = vec![false; defs.len()];
    let mut queue: Vec<usize> = (0..defs.len()).filter(|&d| defs[d].body_run).collect();
    for &d in &queue {
        reached[d] = true;
    }
    while let Some(d) = queue.pop() {
        let def = &defs[d];
        let toks = scans[def.file].toks;
        for k in def.body.clone() {
            let Some(kinds) = call_kinds(toks, k) else { continue };
            let Some(callees) = by_name.get(toks[k].text.as_str()) else { continue };
            for &c in callees {
                if kinds.contains(&defs[c].kind) && !reached[c] {
                    reached[c] = true;
                    queue.push(c);
                }
            }
        }
    }
    defs.iter()
        .zip(&reached)
        .filter(|(def, reached)| **reached && !def.always)
        .map(|(def, _)| scans[def.file].finding(def.name, "ACT015", MSG_ACT015))
        .collect()
}

/// The fn kinds a call at token `k` can reach, or `None` when `k` is no
/// call: an identifier followed by `(`, or by a `::<…>` turbofish and `(`.
fn call_kinds(toks: &[Tok], k: usize) -> Option<&'static [Kind]> {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    let mut open = k + 1;
    if seq_at(toks, open, &["::", "<"]) {
        open = skip_generics(toks, open + 1);
    }
    if !toks.get(open).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    Some(match k.checked_sub(1).map(|p| toks[p].text.as_str()) {
        Some(".") if STD_METHODS.contains(&t.text.as_str()) => &[],
        Some(".") => &[Kind::Inherent],
        Some("::") => &[Kind::Free, Kind::Inherent],
        Some("fn") => &[],
        _ => &[Kind::Free],
    })
}

/// An `impl` or `trait` block: its braces and what its fns are.
struct Block {
    braces: Range<usize>,
    kind: Kind,
    /// An `impl … Body for …` block.
    body_impl: bool,
}

/// The file's `impl` and `trait` blocks. An `impl` counts only in item
/// position, so `x: impl Fn()` in a signature opens nothing.
fn blocks(scan: &Scan<'_>) -> Vec<Block> {
    let toks = scan.toks;
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let item = k == 0 || matches!(toks[k - 1].text.as_str(), "}" | ";" | "{" | "]");
        let (is_impl, is_trait) = (toks[k].is_ident("impl") && item, toks[k].is_ident("trait"));
        if !(is_impl || is_trait) {
            continue;
        }
        let open = scan.find(k + 1, &["{", ";"]);
        if !scan.is(open, "{") {
            continue;
        }
        let braces = open..scan.partner[open];
        if is_trait {
            out.push(Block { braces, kind: Kind::TraitItem, body_impl: false });
            continue;
        }
        // The trait of `impl<…> path::Trait<…> for Type`: the last name
        // before a top-level `for`.
        let (mut depth, mut last, mut trait_name) = (0, None, None);
        for t in &toks[skip_generics(toks, k + 1)..open] {
            depth += angle_step(t);
            if depth == 0 && t.is_ident("for") {
                trait_name = last;
                break;
            }
            if depth == 0 && t.kind == TokKind::Ident {
                last = Some(t.text.as_str());
            }
        }
        let kind = if trait_name.is_some() { Kind::TraitItem } else { Kind::Inherent };
        out.push(Block { braces, kind, body_impl: trait_name == Some("Body") });
    }
    out
}

/// Every fn item with a body outside the test regions, with where it
/// sits and whether it is `#[inline(always)]`.
fn fn_defs(file: usize, scan: &Scan<'_>) -> Vec<FnDef> {
    let toks = scan.toks;
    let blocks = blocks(scan);
    let mut bodies: Vec<Range<usize>> = Vec::new();
    let mut defs = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !toks[i].is_ident("fn") || toks[i + 1].kind != TokKind::Ident || scan.in_test(i) {
            continue;
        }
        let params = skip_generics(toks, i + 2);
        if !scan.is(params, "(") {
            continue;
        }
        let open = scan.find(scan.partner[params] + 1, &["{", ";"]);
        if !scan.is(open, "{") {
            continue;
        }
        // The innermost enclosing block or fn body decides the kind.
        let block =
            blocks.iter().filter(|b| b.braces.contains(&i)).max_by_key(|b| b.braces.start);
        let in_fn = bodies.iter().filter(|r| r.contains(&i)).map(|r| r.start).max();
        let (kind, body_impl) = match block {
            Some(b) if in_fn.is_none_or(|f| b.braces.start > f) => (b.kind, b.body_impl),
            _ => (Kind::Free, false),
        };
        let body = open + 1..scan.partner[open];
        bodies.push(body.clone());
        defs.push(FnDef {
            file,
            name: i + 1,
            kind,
            always: inline_always(scan, i),
            body_run: body_impl && toks[i + 1].text == "run",
            body,
        });
    }
    defs
}

/// `true` if the fn whose `fn` keyword is token `i` carries
/// `#[inline(always)]`: walks back over its qualifiers (`pub`,
/// `pub(crate)`, `const`) and attributes.
fn inline_always(scan: &Scan<'_>, i: usize) -> bool {
    const ALWAYS: [&str; 7] = ["#", "[", "inline", "(", "always", ")", "]"];
    let toks = scan.toks;
    let mut k = i;
    while k > 0 {
        let t = &toks[k - 1];
        if t.is_ident("pub") || t.is_ident("const") {
            k -= 1;
        } else if t.is_punct(")")
            && scan.partner[k - 1] > 0
            && scan.is(scan.partner[k - 1] - 1, "pub")
        {
            k = scan.partner[k - 1] - 1;
        } else if t.is_punct("]")
            && scan.partner[k - 1] > 0
            && scan.is(scan.partner[k - 1] - 1, "#")
        {
            let hash = scan.partner[k - 1] - 1;
            if seq_at(toks, hash, &ALWAYS) {
                return true;
            }
            k = hash;
        } else {
            break;
        }
    }
    false
}
