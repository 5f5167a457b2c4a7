//! The two cross-file rules on `wide::Body` impls. ACT015: every
//! workspace function a `wide::Body::run` body reaches must be
//! `#[inline(always)]`. ACT016: every body type must be named in a
//! cross-instance test case.
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
//!
//! The two instances compile a body differently (SLP packing, lane
//! multiplies), so each can break alone, and `run_wide` reaches only the
//! one the host supports. ACT016 asks that each body type of those
//! library `impl … Body for T` blocks appear in a cross-instance case: a
//! `#[test]` fn, in any analyzed file, whose body names `Baseline`, `V4`
//! and `run_wide`, the three ways to run a body.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::rules::{angle_step, skip_generics};
use crate::textual::{seq_at, Scan};
use crate::Finding;

const MSG_ACT015: &str = "function reached from a `wide::Body::run` body is not \
     `#[inline(always)]`; `#[inline]` is a hint, and a callee kept out of line runs \
     its baseline copy inside the AVX-512 instance";

const MSG_ACT016: &str = "`wide::Body` type named in no cross-instance test case; \
     a `#[test]` fn naming it must run it as `run::<Baseline>()`, `run::<V4>()` and \
     through `run_wide`, so each instance is checked on every host";

/// The names a cross-instance case's body must contain.
const INSTANCE_NAMES: [&str; 3] = ["Baseline", "V4", "run_wide"];

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

/// Runs ACT015 and ACT016 over the analyzed files as one workspace.
pub(crate) fn check(scans: &[Scan<'_>]) -> Vec<Finding> {
    let blocks: Vec<Vec<Block>> = scans
        .iter()
        .map(|scan| if in_scope(scan.path) { blocks(scan) } else { Vec::new() })
        .collect();
    let mut findings = inlining(scans, &blocks);
    findings.extend(untested_bodies(scans, &blocks));
    findings
}

/// ACT015: the fns reached from a body's `run`, followed across files.
fn inlining(scans: &[Scan<'_>], blocks: &[Vec<Block>]) -> Vec<Finding> {
    let defs: Vec<FnDef> = scans
        .iter()
        .enumerate()
        .filter(|(_, scan)| in_scope(scan.path))
        .flat_map(|(file, scan)| fn_defs(file, scan, &blocks[file]))
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

/// ACT016: the library body types no cross-instance case names.
fn untested_bodies(scans: &[Scan<'_>], blocks: &[Vec<Block>]) -> Vec<Finding> {
    let named: HashSet<&str> = scans.iter().flat_map(case_names).collect();
    scans
        .iter()
        .zip(blocks)
        .flat_map(|(scan, blocks)| blocks.iter().map(move |block| (scan, block)))
        .filter_map(|(scan, block)| Some((scan, block.body_type?)))
        .filter(|&(scan, ty)| !scan.in_test(ty) && !named.contains(scan.toks[ty].text.as_str()))
        .map(|(scan, ty)| scan.finding(ty, "ACT016", MSG_ACT016))
        .collect()
}

/// Every identifier in the bodies of the file's cross-instance cases:
/// `#[test]` fns whose bodies name all of [`INSTANCE_NAMES`].
fn case_names<'a>(scan: &'a Scan<'_>) -> Vec<&'a str> {
    const TEST: [&str; 4] = ["#", "[", "test", "]"];
    let toks = scan.toks;
    let mut names = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !toks[i].is_ident("fn") || !has_attr(scan, i, &TEST) {
            continue;
        }
        let open = scan.find(i + 1, &["{", ";"]);
        if !scan.is(open, "{") {
            continue;
        }
        let body: Vec<&str> = toks[open + 1..scan.partner[open]]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        if INSTANCE_NAMES.iter().all(|name| body.contains(name)) {
            names.extend(body);
        }
    }
    names
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
    /// The type's name token of an `impl … Body for Type` block.
    body_type: Option<usize>,
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
            out.push(Block { braces, kind: Kind::TraitItem, body_type: None });
            continue;
        }
        // `impl<…> path::Trait<…> for path::Type<…>`: the trait is the
        // last top-level name before `for`, the type the last one after
        // it (up to a `where`).
        let (mut depth, mut last, mut trait_name) = (0, None, None);
        for j in skip_generics(toks, k + 1)..open {
            let t = &toks[j];
            depth += angle_step(t);
            if depth != 0 || t.kind != TokKind::Ident {
                continue;
            }
            if t.is_ident("where") {
                break;
            }
            if t.is_ident("for") && trait_name.is_none() {
                trait_name = last.map(|l: usize| toks[l].text.as_str());
                last = None;
            } else {
                last = Some(j);
            }
        }
        let kind = if trait_name.is_some() { Kind::TraitItem } else { Kind::Inherent };
        let body_type = last.filter(|_| trait_name == Some("Body"));
        out.push(Block { braces, kind, body_type });
    }
    out
}

/// Every fn item with a body outside the test regions, with where it
/// sits and whether it is `#[inline(always)]`.
fn fn_defs(file: usize, scan: &Scan<'_>, blocks: &[Block]) -> Vec<FnDef> {
    let toks = scan.toks;
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
            Some(b) if in_fn.is_none_or(|f| b.braces.start > f) => {
                (b.kind, b.body_type.is_some())
            }
            _ => (Kind::Free, false),
        };
        let body = open + 1..scan.partner[open];
        bodies.push(body.clone());
        defs.push(FnDef {
            file,
            name: i + 1,
            kind,
            always: has_attr(scan, i, &["#", "[", "inline", "(", "always", ")", "]"]),
            body_run: body_impl && toks[i + 1].text == "run",
            body,
        });
    }
    defs
}

/// `true` if the fn whose `fn` keyword is token `i` carries the
/// attribute spelled by `attr` (`#[inline(always)]`, `#[test]`): walks
/// back over its qualifiers (`pub`, `pub(crate)`, `const`) and
/// attributes.
fn has_attr(scan: &Scan<'_>, i: usize, attr: &[&str]) -> bool {
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
            if seq_at(toks, hash, attr) {
                return true;
            }
            k = hash;
        } else {
            break;
        }
    }
    false
}
