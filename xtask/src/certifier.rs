//! The call-graph certificates: four rules of `cargo xtask lint` that
//! reason over a whole perimeter instead of one file.
//!
//! The three reachability certificates (`panic-reachability`,
//! `alloc-reachability`, `determinism`) share one pipeline and one call
//! graph over [`CERT_DIRS`]: entry-spec resolution with hard errors on
//! rot, the warm-up-fenced reachability sweep, per-site justification and
//! H1 dedup, and findings that carry the shortest call chain from an
//! entry point. Each supplies only a [`Certifier`] block: its classifier,
//! its justification marker, and its entry and warm-up tables.
//! `taint-flow` floods forward from untrusted sources instead, over the
//! wider [`TAINT_DIRS`] perimeter (see [`crate::taint`]).

use crate::callgraph::CallGraph;
use crate::entrypoints::{CERT_DIRS, TAINT_DIRS};
use crate::rules::{Finding, Rule, Summary};
use crate::scope::SourceFile;
use crate::{allocs, determinism, panics, taint};

/// One classified site inside an item body, independent of which
/// certifier found it.
#[derive(Debug)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Human description of the site's class.
    pub what: String,
}

/// Span-collector signature for [`Certifier::dedup`]: the `(line, col)`
/// spans a token-level rule already polices in a file.
pub type DedupFn = fn(&SourceFile) -> Vec<(usize, usize)>;

/// Everything that distinguishes one reachability certificate from the
/// next: plain data and function pointers, so each is a `const`.
pub struct Certifier {
    /// The rule this certifier reports under.
    pub rule: Rule,
    /// Entry-point specs the sweep starts from.
    pub entries: &'static [&'static str],
    /// Warm-up boundary specs the sweep never crosses; empty = sweep the
    /// whole graph from the entries.
    pub warm_up: &'static [&'static str],
    /// Classifies the rule's sites in the certified body of `items[idx]`.
    pub classify: fn(&SourceFile, &CallGraph, usize) -> Vec<Site>,
    /// Whether an inline marker comment justifies a site on this line.
    pub justified: fn(&SourceFile, usize) -> bool,
    /// Spans a token-level rule already polices in a file, deduplicated
    /// out of the report instead of double-counted.
    pub dedup: Option<DedupFn>,
}

/// The reachability certificates, in report order.
const REACHABILITY: [&Certifier; 3] = [
    &panics::CERTIFIER,
    &allocs::CERTIFIER,
    &determinism::CERTIFIER,
];

/// Runs the certificate rules among `rules` over the workspace `files`,
/// merging their findings and justified counts into `summary`. The
/// reachability certificates share one call graph over [`CERT_DIRS`];
/// taint builds its typed graph over [`TAINT_DIRS`]. A spec that resolves
/// to nothing is an error, not an empty certificate.
pub fn run(files: &[SourceFile], rules: &[Rule], summary: &mut Summary) -> Result<(), String> {
    let selected: Vec<&Certifier> = REACHABILITY
        .into_iter()
        .filter(|c| rules.contains(&c.rule))
        .collect();
    if !selected.is_empty() {
        let perimeter = within(files, &CERT_DIRS);
        let graph = CallGraph::build(&perimeter);
        for spec in selected {
            summary.absorb(certify(&perimeter, &graph, spec)?);
        }
    }
    if rules.contains(&Rule::Taint) {
        summary.absorb(taint::certify(&within(files, &TAINT_DIRS))?.summary);
    }
    Ok(())
}

/// The files under any of the workspace-relative `dirs`, in input order.
pub fn within(files: &[SourceFile], dirs: &[&str]) -> Vec<SourceFile> {
    files
        .iter()
        .filter(|f| {
            dirs.iter()
                .any(|d| f.rel.strip_prefix(d).is_some_and(|r| r.starts_with('/')))
        })
        .cloned()
        .collect()
}

/// Runs one reachability certificate over `files` (whose call graph is
/// `graph`): resolves the entry and warm-up specs, sweeps from the entries
/// without crossing the warm-up boundary, and classifies every reached
/// certified body. Both spec lists must resolve in full: a renamed entry
/// silently narrows the certificate, a renamed warm-up fence silently
/// *widens* it — each is a hard error.
pub fn certify(
    files: &[SourceFile],
    graph: &CallGraph,
    spec: &Certifier,
) -> Result<Summary, String> {
    let resolve_all = |specs: &[&str], kind: &str| -> Result<Vec<usize>, String> {
        let mut resolved = Vec::new();
        let mut missing = Vec::new();
        for s in specs {
            let items = graph.resolve_entry(s);
            if items.is_empty() {
                missing.push(*s);
            }
            resolved.extend(items);
        }
        if missing.is_empty() {
            Ok(resolved)
        } else {
            Err(format!(
                "{}: {kind} spec(s) resolved to no certified fn — renamed or removed? {}",
                spec.rule.key(),
                missing.join(", ")
            ))
        }
    };
    let roots = resolve_all(spec.entries, "entry point")?;
    let avoid = resolve_all(spec.warm_up, "warm-up boundary")?;
    let reach = graph.reach(&roots, &avoid);

    let mut summary = Summary::default();
    for idx in 0..graph.items.len() {
        if !graph.items[idx].certified() || !reach.reached(idx) {
            continue;
        }
        let file = &files[graph.items[idx].file_idx];
        let policed: Vec<(usize, usize)> = spec.dedup.map(|d| d(file)).unwrap_or_default();
        for site in (spec.classify)(file, graph, idx) {
            if policed.contains(&(site.line, site.col)) {
                continue;
            }
            if (spec.justified)(file, site.line) {
                *summary.justified.entry(spec.rule.key()).or_insert(0) += 1;
                continue;
            }
            let chain: Vec<String> = reach
                .chain(idx)
                .into_iter()
                .map(|i| graph.items[i].qualified())
                .collect();
            summary.findings.push(Finding {
                rule: spec.rule,
                file: file.rel.clone(),
                line: site.line,
                col: site.col,
                message: format!("{}; via {}", site.what, chain.join(" → ")),
                snippet: file.snippet(site.line).to_string(),
            });
        }
    }
    sort_findings(&mut summary.findings);
    Ok(summary)
}

/// Report order of a certificate's findings: by position, then message.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col)
            .cmp(&(&b.file, b.line, b.col))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Test helper: certifies one fixture file, whose specs must resolve.
#[cfg(test)]
pub fn certify_source(rel: &str, src: &str, spec: &Certifier) -> Summary {
    let files = [SourceFile::from_source(rel, src)];
    certify(&files, &CallGraph::build(&files), spec).expect("fixture specs resolve")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_matches_whole_directory_components() {
        let files = [
            SourceFile::from_source("src/lib.rs", ""),
            SourceFile::from_source("srcx/lib.rs", ""),
            SourceFile::from_source("crates/core/src/engine.rs", ""),
        ];
        let rels: Vec<String> = within(&files, &["src", "crates/core/src"])
            .into_iter()
            .map(|f| f.rel)
            .collect();
        assert_eq!(rels, ["src/lib.rs", "crates/core/src/engine.rs"]);
    }
}
