//! The lint rules and their shared scaffolding.
//!
//! Nine rules are token-level passes over one [`SourceFile`] (lexed
//! source + per-token scope facts). They record findings through
//! [`record`], which consults the `lint:allow` justification model, so a
//! justified site is counted but never reported as a violation. The other
//! four are the call-graph certificates, run over a whole perimeter by
//! [`crate::certifier::run`] with their own justification markers.

use std::collections::BTreeMap;
use std::fmt;

use crate::lex::{Token, TokenKind};
use crate::scope::{SourceFile, TokenScope};

pub mod a1_weight_arith;
pub mod c1_no_as_cast;
pub mod e1_swallowed_result;
pub mod h1_no_alloc;
pub mod k1_no_binary_heap;
pub mod l1_no_unwrap;
pub mod l2_total_order;
pub mod l3_concurrency;
pub mod l4_paper_docs;

/// The lint rules, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1: no unwrap/expect in hot-path crates.
    NoUnwrap,
    /// L2: float ordering only through `OrderedWeight`.
    TotalOrderWeights,
    /// L3: concurrency only in the sanctioned build scope.
    SanctionedConcurrency,
    /// L4: query-processor `pub fn`s cite their paper section.
    PaperDocs,
    /// H1: no allocation inside hot-path loop bodies.
    NoAllocInHotLoop,
    /// A1: weight arithmetic goes through the checked helpers.
    CheckedWeightArithmetic,
    /// E1: no silently discarded `Result`s.
    NoSwallowedResult,
    /// K1: no `BinaryHeap` construction in the d-ary-kernel crates.
    NoBinaryHeap,
    /// C1: no bare `as` numeric casts in decode-classified files.
    NoAsCastInDecode,
    /// P1: no unjustified panic source reachable from a serving entry
    /// point. A whole-perimeter pass over the call graph (see
    /// `crate::panics`), not a token-local one.
    PanicReachability,
    /// H2: no unjustified allocation source reachable from a steady-state
    /// serving entry point after warm-up (see `crate::allocs`).
    AllocReachability,
    /// D1: no unjustified nondeterminism source (hash-order iteration,
    /// RandomState container construction, time/rng reads, order-varying
    /// float reduction, worker-count branches) reachable from a
    /// steady-state serving entry point (see `crate::determinism`).
    Determinism,
    /// T1: no untrusted source→sink flow without a sanitizer on every
    /// chain (see `crate::taint`).
    Taint,
}

impl Rule {
    /// All rules, in report order: the nine token rules, then the four
    /// call-graph certificates.
    pub const ALL: [Rule; 13] = [
        Rule::NoUnwrap,
        Rule::TotalOrderWeights,
        Rule::SanctionedConcurrency,
        Rule::PaperDocs,
        Rule::NoAllocInHotLoop,
        Rule::CheckedWeightArithmetic,
        Rule::NoSwallowedResult,
        Rule::NoBinaryHeap,
        Rule::NoAsCastInDecode,
        Rule::PanicReachability,
        Rule::AllocReachability,
        Rule::Determinism,
        Rule::Taint,
    ];

    /// The name used inside `lint:allow(..)` comments, CLI filters, and
    /// baseline entries.
    pub fn key(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::TotalOrderWeights => "total-order-weights",
            Rule::SanctionedConcurrency => "sanctioned-concurrency",
            Rule::PaperDocs => "paper-docs",
            Rule::NoAllocInHotLoop => "no-alloc-in-hot-loop",
            Rule::CheckedWeightArithmetic => "checked-weight-arithmetic",
            Rule::NoSwallowedResult => "no-swallowed-result",
            Rule::NoBinaryHeap => "no-binary-heap",
            Rule::NoAsCastInDecode => "no-as-cast-in-decode",
            Rule::PanicReachability => "panic-reachability",
            Rule::AllocReachability => "alloc-reachability",
            Rule::Determinism => "determinism",
            Rule::Taint => "taint-flow",
        }
    }

    /// Display label with the rule number.
    pub fn label(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "L1 no-unwrap",
            Rule::TotalOrderWeights => "L2 total-order-weights",
            Rule::SanctionedConcurrency => "L3 sanctioned-concurrency",
            Rule::PaperDocs => "L4 paper-docs",
            Rule::NoAllocInHotLoop => "H1 no-alloc-in-hot-loop",
            Rule::CheckedWeightArithmetic => "A1 checked-weight-arithmetic",
            Rule::NoSwallowedResult => "E1 no-swallowed-result",
            Rule::NoBinaryHeap => "K1 no-binary-heap",
            Rule::NoAsCastInDecode => "C1 no-as-cast-in-decode",
            Rule::PanicReachability => "P1 panic-reachability",
            Rule::AllocReachability => "H2 alloc-reachability",
            Rule::Determinism => "D1 determinism",
            Rule::Taint => "T1 taint-flow",
        }
    }

    /// One-line documentation for `--list-rules`.
    pub fn doc(self) -> &'static str {
        match self {
            Rule::NoUnwrap => {
                "no .unwrap()/.expect(..) in non-test code of crates/core and crates/nvd"
            }
            Rule::TotalOrderWeights => {
                "no partial_cmp or raw-f64 heaps outside crates/graph/src/weight.rs (OrderedWeight)"
            }
            Rule::SanctionedConcurrency => {
                "no thread::spawn or bare Mutex outside the Observation-3 build scope (index.rs)"
            }
            Rule::PaperDocs => {
                "every pub fn in crates/core/src/query/ cites the paper section it implements"
            }
            Rule::NoAllocInHotLoop => {
                "no Vec::new/vec!/to_vec/clone/collect/format!/Box::new inside hot-path loop bodies"
            }
            Rule::CheckedWeightArithmetic => {
                "+/+= on weight-like operands in query code goes through weight_add/OrderedWeight"
            }
            Rule::NoSwallowedResult => {
                "no `let _ =` or bare `.ok();` discarding a Result outside tests"
            }
            Rule::NoBinaryHeap => {
                "no BinaryHeap::new/with_capacity in crates/{graph,alt,nvd,core} (use DaryHeap)"
            }
            Rule::PanicReachability => {
                "no unjustified panic source reachable from a serving entry point (PANIC-OK to justify)"
            }
            Rule::AllocReachability => {
                "no unjustified allocation reachable from a steady-state entry point (ALLOC-OK to justify)"
            }
            Rule::NoAsCastInDecode => {
                "no bare `as` numeric casts in decode-classified files (use try_from/From or justify)"
            }
            Rule::Determinism => {
                "no unjustified nondeterminism source reachable from a steady-state entry point (DETER-OK to justify)"
            }
            Rule::Taint => {
                "no untrusted source→sink flow without a sanitizer on every chain (TAINT-OK to justify)"
            }
        }
    }

    /// Parses a rule key from the CLI.
    pub fn from_key(key: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.key() == key)
    }
}

/// One lint finding with a byte-accurate source position.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    pub message: String,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.key(),
            self.message
        )
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct Summary {
    pub findings: Vec<Finding>,
    /// Sites matched by a rule but exempted via `lint:allow`.
    pub justified: BTreeMap<&'static str, usize>,
    pub files_scanned: usize,
}

impl Summary {
    /// Findings of one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.findings.iter().filter(|v| v.rule == rule).count()
    }

    /// Justified (exempted) sites of one rule.
    pub fn justified_count(&self, rule: Rule) -> usize {
        self.justified.get(rule.key()).copied().unwrap_or(0)
    }

    /// Merges another pass's findings and justified counts into this one.
    pub fn absorb(&mut self, other: Summary) {
        self.findings.extend(other.findings);
        for (key, n) in other.justified {
            *self.justified.entry(key).or_insert(0) += n;
        }
    }
}

/// Runs every requested rule over one file, appending to `summary`.
pub fn scan_file(file: &SourceFile, rules: &[Rule], summary: &mut Summary) {
    for &rule in rules {
        match rule {
            Rule::NoUnwrap => l1_no_unwrap::check(file, summary),
            Rule::TotalOrderWeights => l2_total_order::check(file, summary),
            Rule::SanctionedConcurrency => l3_concurrency::check(file, summary),
            Rule::PaperDocs => l4_paper_docs::check(file, summary),
            Rule::NoAllocInHotLoop => h1_no_alloc::check(file, summary),
            Rule::CheckedWeightArithmetic => a1_weight_arith::check(file, summary),
            Rule::NoSwallowedResult => e1_swallowed_result::check(file, summary),
            Rule::NoBinaryHeap => k1_no_binary_heap::check(file, summary),
            Rule::NoAsCastInDecode => c1_no_as_cast::check(file, summary),
            // Whole-perimeter call-graph passes, run by
            // `crate::certifier::run`, never per file.
            Rule::PanicReachability | Rule::AllocReachability | Rule::Determinism | Rule::Taint => {
            }
        }
    }
}

/// Records a match at (1-based) line/col: a finding, or a justified
/// exemption.
pub(crate) fn record(
    file: &SourceFile,
    line: usize,
    col: usize,
    rule: Rule,
    msg: String,
    summary: &mut Summary,
) {
    if file.justified(line, rule.key()) {
        *summary.justified.entry(rule.key()).or_insert(0) += 1;
    } else {
        summary.findings.push(Finding {
            rule,
            file: file.rel.clone(),
            line,
            col,
            message: msg,
            snippet: file.snippet(line).to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// Code-token navigation shared by the rule passes. `k` always indexes
// `file.code` (the comment-free token sequence).
// ---------------------------------------------------------------------------

/// The `k`-th code token.
pub(crate) fn tok(file: &SourceFile, k: usize) -> &Token {
    &file.tokens[file.code[k]]
}

/// Scope facts of the `k`-th code token.
pub(crate) fn scope(file: &SourceFile, k: usize) -> &TokenScope {
    &file.scopes[file.code[k]]
}

/// Whether code token `k` exists and satisfies `pred`.
pub(crate) fn tok_is(file: &SourceFile, k: usize, pred: impl Fn(&Token) -> bool) -> bool {
    k < file.code.len() && pred(tok(file, k))
}

/// Code-token index range `[start, end)` of the statement containing `k`,
/// bounded (exclusively) by the nearest `;`, `{` or `}` on each side.
pub(crate) fn statement_around(file: &SourceFile, k: usize) -> (usize, usize) {
    let boundary = |t: &Token| t.is_punct(";") || t.is_punct("{") || t.is_punct("}");
    let mut start = k;
    while start > 0 && !boundary(tok(file, start - 1)) {
        start -= 1;
    }
    let mut end = k + 1;
    while end < file.code.len() && !boundary(tok(file, end)) {
        end += 1;
    }
    (start, end)
}

/// Identifiers that may directly precede a `[` without ending an
/// expression (`return [a, b]`, `in [0, 1]`, the slice pattern
/// `let [a, b] =`, …).
const KEYWORDS_BEFORE_BRACKET: [&str; 7] = ["return", "in", "else", "match", "mut", "dyn", "let"];

/// Whether the `[` at code index `k` opens an index or slice
/// *expression*: the previous token ends an expression. Types (`&[u32]`),
/// array literals (`= [0; n]`), attributes (`#[`), macros (`vec![`) and
/// slice patterns (`let [a, b] =`) all have other predecessors.
pub(crate) fn index_expression_at(file: &SourceFile, k: usize) -> bool {
    k > 0 && {
        let p = tok(file, k - 1);
        matches!(p.kind, TokenKind::Ident | TokenKind::NumLit)
            && !KEYWORDS_BEFORE_BRACKET.contains(&p.text.as_str())
            || p.is_punct(")")
            || p.is_punct("]")
    }
}

/// Whether the binary arithmetic operator at code index `k` has float
/// evidence in an *immediate* operand. Rust arithmetic needs both
/// operands of one type, so one float operand makes the operation float
/// (it cannot panic, and it is weight math, not offset math). Evidence is
/// an operand that is a float literal, ends in `as f32`/`as f64`, or is an
/// `_f32`/`_f64`-suffixed call; a parenthesized operand counts by its own
/// last operand. Anything else elsewhere in the statement is no evidence:
/// `(total / count) as f64` still divides integers.
pub(crate) fn float_operand_at(file: &SourceFile, k: usize) -> bool {
    (k > 0 && operand_is_float(file, k - 1))
        || operand_end(file, k + 1).is_some_and(|e| operand_is_float(file, e))
}

/// Whether the operand whose last code token is `e` is float by its own
/// syntax (see [`float_operand_at`]).
fn operand_is_float(file: &SourceFile, e: usize) -> bool {
    let t = tok(file, e);
    match t.kind {
        TokenKind::NumLit => is_float_literal(&t.text),
        TokenKind::Ident => {
            (t.text == "f64" || t.text == "f32") && e > 0 && tok(file, e - 1).is_ident("as")
        }
        TokenKind::Punct if t.text == ")" => match matching_bracket(file, e) {
            Some(o) if o > 0 && tok(file, o - 1).kind == TokenKind::Ident => {
                let name = &tok(file, o - 1).text;
                name.ends_with("_f64") || name.ends_with("_f32")
            }
            Some(o) => o + 1 < e && operand_is_float(file, e - 1),
            None => false,
        },
        _ => false,
    }
}

/// The last code token of the operand starting at code index `j` (the
/// right operand of a binary operator): unary prefixes, a literal, path
/// or bracketed group, then any chain of calls, indexing, field or method
/// access, `?` and `as` casts — the forms that bind tighter than `*`.
fn operand_end(file: &SourceFile, mut j: usize) -> Option<usize> {
    let n = file.code.len();
    while j < n
        && ["-", "!", "&", "*"]
            .iter()
            .any(|p| tok(file, j).is_punct(p))
    {
        j += 1;
    }
    let first = (j < n).then(|| tok(file, j))?;
    let mut end = match first.kind {
        TokenKind::Ident | TokenKind::NumLit => j,
        TokenKind::Punct if first.text == "(" || first.text == "[" => matching_bracket(file, j)?,
        _ => return None,
    };
    let name_at = |i: usize| {
        tok_is(file, i, |t| {
            matches!(t.kind, TokenKind::Ident | TokenKind::NumLit)
        })
    };
    loop {
        let at = |p: &str| tok_is(file, end + 1, |t| t.is_punct(p));
        end = if at("(") || at("[") {
            matching_bracket(file, end + 1)?
        } else if (at(".") || at("::")) && name_at(end + 2) {
            end + 2
        } else if at("?") {
            end + 1
        } else if tok_is(file, end + 1, |t| t.is_ident("as")) && name_at(end + 2) {
            end + 2
        } else {
            return Some(end);
        };
    }
}

/// The code index of the bracket matching the one at `k`: forward from
/// `(`/`[`, backward from `)`/`]`. `None` when unbalanced.
fn matching_bracket(file: &SourceFile, k: usize) -> Option<usize> {
    let (open, close, forward) = match tok(file, k).text.as_str() {
        "(" => ("(", ")", true),
        "[" => ("[", "]", true),
        ")" => ("(", ")", false),
        "]" => ("[", "]", false),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut j = k;
    loop {
        let t = tok(file, j);
        if t.is_punct(open) || t.is_punct(close) {
            if t.is_punct(open) == forward {
                depth += 1;
            } else {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        j = if forward { j + 1 } else { j.checked_sub(1)? };
        if j >= file.code.len() {
            return None;
        }
    }
}

/// Whether a numeric literal is a float: a decimal point, an `f32`/`f64`
/// suffix, or a scientific-notation exponent (`1e3`). Radix-prefixed
/// literals (`0x1E3`) are always integers — their `e`/`E` is a hex digit
/// — and the `e` of an integer suffix (`3usize`) never follows a digit.
pub(crate) fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0X") {
        return false;
    }
    if text.contains('.') || text.ends_with("f64") || text.ends_with("f32") {
        return true;
    }
    let b = text.as_bytes();
    b.iter().enumerate().any(|(i, &c)| {
        (c == b'e' || c == b'E')
            && i > 0
            && b[i - 1].is_ascii_digit()
            && b.get(i + 1)
                .is_some_and(|&n| n.is_ascii_digit() || n == b'+' || n == b'-')
    })
}

/// Test helper: run one rule over fixture source.
#[cfg(test)]
pub(crate) fn run_rule(rel: &str, src: &str, rule: Rule) -> Summary {
    let file = SourceFile::from_source(rel, src);
    let mut summary = Summary::default();
    scan_file(&file, &[rule], &mut summary);
    summary
}
