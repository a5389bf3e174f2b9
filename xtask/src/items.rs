//! Symbol-level item parsing on top of [`crate::lex`].
//!
//! A recursive descent over the comment-free code-token stream of a
//! [`SourceFile`] that recovers the *item structure* the token-level lint
//! passes cannot see: every `fn` (free functions, inherent methods, trait
//! methods, nested fns) with its byte-accurate signature position and the
//! code-token range of its body, plus the `impl` context it sits in
//! (self type and, for trait impls, the trait name).
//!
//! The model is deliberately shallower than a full Rust parse — exactly
//! deep enough for a sound call graph:
//!
//! * **Closures are folded into their enclosing `fn`**: a call inside
//!   `|x| { f(x) }` is attributed to the surrounding function. This
//!   over-approximates (the closure might never run) which is the safe
//!   direction for panic reachability.
//! * **Nested `fn`s are their own items** and their token ranges are
//!   subtracted from the parent body by the call scanner, so a parent is
//!   only charged for calls it actually makes.
//! * **`#[cfg(test)]` / `#[cfg(debug_assertions)]` / the `audit` feature**
//!   mark an item as outside the release artifact being certified; the
//!   call-graph layer drops such items from resolution entirely.

use crate::lex::{Token, TokenKind};
use crate::scope::SourceFile;

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The bare function name.
    pub name: String,
    /// For methods: the self type of the enclosing `impl` (last path
    /// segment, generics stripped) — `DaryHeap` for
    /// `impl<'a> DaryHeap { … }` and for `impl Trait for DaryHeap { … }`.
    pub self_type: Option<String>,
    /// For trait-impl methods: the trait name (last path segment). Read
    /// by the parser fixtures; kept on the item for future dispatch
    /// narrowing in the call graph.
    #[cfg_attr(not(test), allow(dead_code))]
    pub trait_name: Option<String>,
    /// Index into the file list handed to the parser batch.
    pub file_idx: usize,
    /// 1-based source line of the `fn` keyword. Read by the parser
    /// fixtures.
    #[cfg_attr(not(test), allow(dead_code))]
    pub line: usize,
    /// Code-token index range `[start, end)` of the body *interior*
    /// (between the braces). Empty for bodyless trait signatures.
    pub body: (usize, usize),
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Gated behind `#[cfg(debug_assertions)]`, `#[cfg(test)]`, or the
    /// `audit` feature — compiled out of the release serving binary.
    pub debug_only: bool,
}

impl Item {
    /// `Type::name` for methods, bare `name` for free fns.
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether the item is part of the certified release artifact.
    pub fn certified(&self) -> bool {
        !self.is_test && !self.debug_only
    }
}

/// Inherited parse context while descending into blocks.
#[derive(Debug, Clone, Default)]
struct Ctx {
    self_type: Option<String>,
    trait_name: Option<String>,
    in_test: bool,
    debug_only: bool,
}

/// Flags gathered from the attributes directly above an item.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    test: bool,
    debug: bool,
}

/// Parses every `fn` item of `file`. `file_idx` is recorded verbatim on
/// each item so batch callers can find the backing [`SourceFile`].
pub fn parse_items(file: &SourceFile, file_idx: usize) -> Vec<Item> {
    let mut out = Vec::new();
    let ctx = Ctx::default();
    parse_block(file, file_idx, 0, file.code.len(), &ctx, &mut out);
    out
}

/// The `k`-th code token.
fn tok(file: &SourceFile, k: usize) -> &Token {
    &file.tokens[file.code[k]]
}

/// Index of the `}` matching the `{` at code index `k` (or `end` if the
/// file is truncated).
pub(crate) fn match_brace(file: &SourceFile, k: usize, end: usize) -> usize {
    debug_assert!(tok(file, k).is_punct("{"));
    let mut depth = 0usize;
    for j in k..end {
        match tok(file, j).text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end
}

/// Scans the attribute group starting at the `#` at code index `k`.
/// Returns the code index just past the closing `]` and the cfg flags the
/// attribute contributes, or `None` if this `#` opens no attribute.
fn scan_attr(file: &SourceFile, k: usize, end: usize) -> Option<(usize, Pending)> {
    let mut j = k + 1;
    if j < end && tok(file, j).is_punct("!") {
        j += 1;
    }
    if !(j < end && tok(file, j).is_punct("[")) {
        return None;
    }
    let mut depth = 0usize;
    let mut idents: Vec<String> = Vec::new();
    let mut strs: Vec<String> = Vec::new();
    for i in j..end {
        let t = tok(file, i);
        match t.kind {
            TokenKind::Punct if t.text == "[" => depth += 1,
            TokenKind::Punct if t.text == "]" => {
                depth -= 1;
                if depth == 0 {
                    let has = |s: &str| idents.iter().any(|i| i == s);
                    let cfg = has("cfg");
                    let test = (cfg && has("test") && !has("not")) || idents == ["test"];
                    let debug = cfg
                        && !has("not")
                        && (has("debug_assertions")
                            || has("test")
                            || (has("feature") && strs.iter().any(|s| s == "\"audit\"")));
                    return Some((i + 1, Pending { test, debug }));
                }
            }
            TokenKind::Ident => idents.push(t.text.clone()),
            TokenKind::StrLit => strs.push(t.text.clone()),
            _ => {}
        }
    }
    None
}

/// Recursive descent over `[k, end)`: records `fn` items, descends into
/// `impl` bodies with the impl's self type, and into every other brace
/// block with the inherited context (which is how nested fns and
/// `#[cfg(test)] mod tests` are found).
fn parse_block(
    file: &SourceFile,
    file_idx: usize,
    mut k: usize,
    end: usize,
    ctx: &Ctx,
    out: &mut Vec<Item>,
) {
    let mut pending = Pending::default();
    while k < end {
        let t = tok(file, k);
        if t.is_punct("#") {
            if let Some((next, flags)) = scan_attr(file, k, end) {
                pending.test |= flags.test;
                pending.debug |= flags.debug;
                k = next;
                continue;
            }
        }
        if t.is_ident("impl") {
            // Header runs to the body `{`; const-generic brace exprs do
            // not occur in impl headers in this workspace.
            let mut open = k + 1;
            while open < end && !tok(file, open).is_punct("{") {
                open += 1;
            }
            if open >= end {
                return;
            }
            let (self_type, trait_name) = parse_impl_header(file, k + 1, open);
            let close = match_brace(file, open, end);
            let inner = Ctx {
                self_type,
                trait_name,
                in_test: ctx.in_test || pending.test,
                debug_only: ctx.debug_only || pending.debug,
            };
            parse_block(file, file_idx, open + 1, close, &inner, out);
            pending = Pending::default();
            k = close + 1;
            continue;
        }
        if t.is_ident("fn") {
            // An item fn is `fn <name>`; `fn(` is a pointer type.
            if let Some(item_end) = parse_fn(file, file_idx, k, end, ctx, &pending, out) {
                pending = Pending::default();
                k = item_end;
                continue;
            }
        }
        if t.is_punct("{") {
            let close = match_brace(file, k, end);
            let inner = Ctx {
                self_type: ctx.self_type.clone(),
                trait_name: ctx.trait_name.clone(),
                in_test: ctx.in_test || pending.test,
                debug_only: ctx.debug_only || pending.debug,
            };
            parse_block(file, file_idx, k + 1, close, &inner, out);
            pending = Pending::default();
            k = close + 1;
            continue;
        }
        if t.is_punct(";") {
            pending = Pending::default();
        }
        k += 1;
    }
}

/// Parses one `fn` item whose `fn` keyword sits at code index `k`.
/// Returns the code index just past the item, or `None` if this `fn` is
/// not an item (e.g. an `fn(u32)` pointer type).
fn parse_fn(
    file: &SourceFile,
    file_idx: usize,
    k: usize,
    end: usize,
    ctx: &Ctx,
    pending: &Pending,
    out: &mut Vec<Item>,
) -> Option<usize> {
    let name_k = k + 1;
    if name_k >= end || tok(file, name_k).kind != TokenKind::Ident {
        return None;
    }
    let name = tok(file, name_k).text.clone();
    // Signature scan: the body `{` (or trait-sig `;`) is the first one at
    // paren/bracket depth 0. Generic params and `-> impl Fn(..)` returns
    // keep their delimiters balanced, so plain depth tracking suffices.
    let mut depth = 0usize;
    let mut j = name_k + 1;
    while j < end {
        let t = tok(file, j);
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => break,
            ";" if depth == 0 => {
                // Bodyless trait-method signature.
                out.push(Item {
                    name,
                    self_type: ctx.self_type.clone(),
                    trait_name: ctx.trait_name.clone(),
                    file_idx,
                    line: tok(file, k).line,
                    body: (j, j),
                    is_test: ctx.in_test || pending.test,
                    debug_only: ctx.debug_only || pending.debug,
                });
                return Some(j + 1);
            }
            _ => {}
        }
        j += 1;
    }
    if j >= end {
        return None;
    }
    let close = match_brace(file, j, end);
    out.push(Item {
        name,
        self_type: ctx.self_type.clone(),
        trait_name: ctx.trait_name.clone(),
        file_idx,
        line: tok(file, k).line,
        body: (j + 1, close),
        is_test: ctx.in_test || pending.test,
        debug_only: ctx.debug_only || pending.debug,
    });
    // Descend for nested fns; they carry no impl context.
    let inner = Ctx {
        self_type: None,
        trait_name: None,
        in_test: ctx.in_test || pending.test,
        debug_only: ctx.debug_only || pending.debug,
    };
    parse_block(file, file_idx, j + 1, close, &inner, out);
    Some(close + 1)
}

/// Delimiter-depth contribution of one token, counting parens, brackets,
/// braces and angle brackets (`<<`/`>>` lex as one token and count
/// twice; `->` contributes nothing).
pub(crate) fn delim_depth(t: &Token) -> i32 {
    match t.text.as_str() {
        "(" | "[" | "{" | "<" => 1,
        ")" | "]" | "}" | ">" => -1,
        "<<" => 2,
        ">>" => -2,
        _ => 0,
    }
}

/// The last identifier at nesting depth 0 in code range `[from, to)` —
/// the path head of a type position: `Vec` for `Vec<u64>`, `Arc` for
/// `std::sync::Arc<[T]>`, `Graph` for `&'a Graph`. `None` when the range
/// has no depth-0 path segment (`[u32; 4]`, `(A, B)`, `fn(u32)`).
pub(crate) fn type_head(file: &SourceFile, from: usize, to: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut head = None;
    for j in from..to {
        let t = tok(file, j);
        if depth == 0 && t.kind == TokenKind::Ident {
            if t.text == "fn" {
                // `fn(..) -> T` pointer type: its return type must not
                // masquerade as the path head.
                return None;
            }
            if !matches!(
                t.text.as_str(),
                "dyn" | "mut" | "const" | "impl" | "pub" | "crate" | "as"
            ) {
                head = Some(t.text.clone());
            }
        }
        depth += delim_depth(t);
    }
    head
}

/// Extracts `(struct, field, type head)` triples from every named-struct
/// declaration in `file`. The call graph uses these to type
/// `self.field.method(…)` receivers — e.g. `entries: Vec<u64>` on
/// `DaryHeap` types `self.entries.push(…)` as a `Vec` growth site.
/// Tuple/unit structs and fields without a depth-0 path head are skipped.
pub fn parse_fields(file: &SourceFile) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    let n = file.code.len();
    let mut k = 0;
    while k < n {
        let is_decl = tok(file, k).is_ident("struct")
            && k + 1 < n
            && tok(file, k + 1).kind == TokenKind::Ident;
        if !is_decl {
            k += 1;
            continue;
        }
        let name = tok(file, k + 1).text.clone();
        // Generics run to the body `{`; a depth-0 `;` or `(` first means
        // a unit or tuple struct (no named fields).
        let mut depth = 0i32;
        let mut open = k + 2;
        while open < n {
            let t = tok(file, open);
            if depth == 0 && (t.is_punct(";") || t.is_punct("(")) {
                break;
            }
            if depth == 0 && t.is_punct("{") {
                let close = match_brace(file, open, n);
                scan_fields(file, &name, open + 1, close, &mut out);
                k = close;
                break;
            }
            depth += delim_depth(t);
            open += 1;
        }
        k += 1;
    }
    out
}

/// Splits a named-struct body into depth-0 comma chunks and records each
/// `field: Type` pair with a resolvable type head.
fn scan_fields(
    file: &SourceFile,
    struct_name: &str,
    from: usize,
    to: usize,
    out: &mut Vec<(String, String, String)>,
) {
    let mut depth = 0i32;
    let mut start = from;
    let mut j = from;
    while j <= to {
        let boundary = j == to || (depth == 0 && tok(file, j).is_punct(","));
        if !boundary {
            depth += delim_depth(tok(file, j));
            j += 1;
            continue;
        }
        let mut d = 0i32;
        for c in start..j {
            let t = tok(file, c);
            if d == 0 && t.is_punct(":") && c > start && tok(file, c - 1).kind == TokenKind::Ident {
                if let Some(head) = type_head(file, c + 1, j) {
                    out.push((struct_name.to_string(), tok(file, c - 1).text.clone(), head));
                }
                break;
            }
            d += delim_depth(t);
        }
        j += 1;
        start = j;
    }
}

/// Extracts (self type, trait name) from the impl-header tokens in
/// `[k, open)`: generics are skipped, a top-level `for` (that is not an
/// HRTB `for<`) splits trait from type, and each side's name is its last
/// angle-depth-0 identifier before `where`.
fn parse_impl_header(file: &SourceFile, k: usize, open: usize) -> (Option<String>, Option<String>) {
    // Angle-depth bookkeeping: `<<`/`>>` lex as one token and count twice.
    let angle = |t: &Token| -> i32 {
        match t.text.as_str() {
            "<" => 1,
            ">" => -1,
            "<<" => 2,
            ">>" => -2,
            _ => 0,
        }
    };
    let mut depth = 0i32;
    let mut split = None;
    for j in k..open {
        let t = tok(file, j);
        depth += angle(t);
        if depth == 0 && t.is_ident("for") && !(j + 1 < open && tok(file, j + 1).is_punct("<")) {
            split = Some(j);
        }
    }
    let name_in = |from: usize, to: usize| -> Option<String> {
        let mut depth = 0i32;
        let mut name = None;
        for j in from..to {
            let t = tok(file, j);
            if depth == 0 && t.is_ident("where") {
                break;
            }
            if depth == 0
                && t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "dyn" | "mut" | "const" | "unsafe" | "as")
            {
                name = Some(t.text.clone());
            }
            depth += angle(t);
        }
        name
    };
    match split {
        Some(f) => (name_in(f + 1, open), name_in(k, f)),
        None => (name_in(k, open), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<Item> {
        parse_items(&SourceFile::from_source("fixture.rs", src), 0)
    }

    fn find<'a>(items: &'a [Item], q: &str) -> &'a Item {
        items
            .iter()
            .find(|i| i.qualified() == q)
            .unwrap_or_else(|| panic!("item `{q}` not parsed"))
    }

    #[test]
    fn free_fns_methods_and_trait_impls() {
        let src = "\
pub fn free(x: u32) -> u32 { x }
impl DaryHeap {
    pub fn push(&mut self, key: u32) { body(); }
}
impl<T: Ord> Iterator for Wrapper<T> {
    fn next(&mut self) -> Option<T> { inner() }
}
";
        let items = items(src);
        assert_eq!(items.len(), 3);
        let free = find(&items, "free");
        assert_eq!((free.line, free.self_type.clone()), (1, None));
        let push = find(&items, "DaryHeap::push");
        assert_eq!(push.line, 3);
        let next = find(&items, "Wrapper::next");
        assert_eq!(next.trait_name.as_deref(), Some("Iterator"));
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_the_self_type() {
        let src = "\
impl<'a, K: Ord, V> Map<'a, K, V> where K: Clone {
    fn get(&self) -> Option<&V> { None }
}
impl From<Vec<u32>> for Packed {
    fn from(v: Vec<u32>) -> Self { Packed }
}
";
        let items = items(src);
        assert_eq!(find(&items, "Map::get").self_type.as_deref(), Some("Map"));
        let from = find(&items, "Packed::from");
        assert_eq!(from.trait_name.as_deref(), Some("From"));
    }

    #[test]
    fn nested_fns_are_separate_items_with_exact_bodies() {
        let src = "\
fn outer() {
    fn helper(x: u32) -> u32 { x + 1 }
    helper(2);
}
";
        let items = items(src);
        assert_eq!(items.len(), 2);
        let outer = find(&items, "outer");
        let helper = find(&items, "helper");
        assert!(outer.body.0 < helper.body.0 && helper.body.1 < outer.body.1);
    }

    #[test]
    fn bodyless_trait_signatures_have_empty_bodies() {
        let src = "\
trait Distance {
    fn distance(&mut self, s: u32, t: u32) -> u32;
    fn batch(&mut self) { default_body() }
}
";
        let items = items(src);
        let sig = find(&items, "distance");
        assert_eq!(sig.body.0, sig.body.1);
        let def = find(&items, "batch");
        assert!(def.body.0 < def.body.1);
    }

    #[test]
    fn cfg_gates_mark_items_debug_only() {
        let src = "\
fn live() { a() }
#[cfg(any(debug_assertions, feature = \"audit\"))]
fn audit_only() { b() }
#[cfg(test)]
mod tests {
    fn in_tests() { c() }
    #[test]
    fn unit() { d() }
}
#[cfg(not(test))]
fn shipped() { e() }
";
        let items = items(src);
        assert!(find(&items, "live").certified());
        assert!(find(&items, "audit_only").debug_only);
        assert!(find(&items, "in_tests").is_test);
        assert!(find(&items, "unit").is_test);
        assert!(find(&items, "shipped").certified());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn real(cb: fn(u32) -> u32) -> u32 { cb(1) }\n";
        let items = items(src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "real");
    }

    #[test]
    fn struct_fields_resolve_to_type_heads() {
        let src = "\
pub struct DaryHeap {
    pub(crate) entries: Vec<u64>,
    pos: Box<[u32]>,
    seeds: std::sync::Arc<[Seed]>,
    graph: &'static Graph,
    raw: [u32; 4],
    pair: (u32, u32),
    cb: fn(u32) -> u32,
}
struct Unit;
struct Tuple(u32, Vec<u8>);
struct Generic<K: Ord, V> where V: Clone {
    #[allow(dead_code)]
    map: BTreeMap<K, V>,
}
";
        let file = SourceFile::from_source("fixture.rs", src);
        let fields = parse_fields(&file);
        let head = |s: &str, f: &str| {
            fields
                .iter()
                .find(|(sn, fname, _)| sn == s && fname == f)
                .map(|(_, _, h)| h.as_str())
        };
        assert_eq!(head("DaryHeap", "entries"), Some("Vec"));
        assert_eq!(head("DaryHeap", "pos"), Some("Box"));
        assert_eq!(head("DaryHeap", "seeds"), Some("Arc"));
        assert_eq!(head("DaryHeap", "graph"), Some("Graph"));
        // Non-path types have no head and are skipped.
        assert_eq!(head("DaryHeap", "raw"), None);
        assert_eq!(head("DaryHeap", "pair"), None);
        assert_eq!(head("DaryHeap", "cb"), None);
        assert_eq!(head("Generic", "map"), Some("BTreeMap"));
        assert!(!fields.iter().any(|(s, _, _)| s == "Unit" || s == "Tuple"));
    }

    #[test]
    fn impl_block_line_numbers_are_byte_accurate() {
        let src = "// leading comment\n\nimpl Foo {\n    fn bar(&self) {}\n}\n";
        let items = items(src);
        assert_eq!(find(&items, "Foo::bar").line, 4);
    }
}
