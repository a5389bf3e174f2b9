//! `cargo xtask lint` — the K-SPIN lint wall and the repo's only analysis
//! command.
//!
//! Thirteen rules run in one pass. Nine are token-level: [`crate::lex`]
//! lexes each source file with byte-accurate spans, [`crate::scope`] adds
//! per-token scope facts (enclosing item, `#[cfg(test)]` status, loop
//! nesting depth), and the passes in [`crate::rules`] encode repo policy
//! that rustc/clippy cannot express. The other four are the call-graph
//! certificates of [`crate::certifier`] (panic, allocation, determinism
//! and taint). See `cargo xtask lint --list-rules` for the catalog and
//! docs/ALGORITHMS.md for the rationale of each rule.
//!
//! A token-rule site is exempted by a justification comment on the same
//! line or in the contiguous comment block directly above it:
//!
//! ```text
//! // lint:allow(<rule>) — why this site is provably fine
//! ```
//!
//! The certificates use their own markers with the same placement
//! (`PANIC-OK`, `ALLOC-OK`, `DETER-OK`, `TAINT-OK`).
//!
//! Findings additionally pass through the committed `lint-baseline.json`
//! ratchet: the run fails only on findings *not* grandfathered there,
//! stale entries (no longer firing) are reported so the file shrinks
//! monotonically, and `--update-baseline` rewrites it from the current
//! findings, preserving surviving reasons.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::certifier;
use crate::report::{self, parse_format, Format};
use crate::rules::{scan_file, Rule, Summary};
use crate::scope::SourceFile;

/// CLI usage, shared with `cargo xtask` help output.
pub const USAGE: &str = "\
usage: cargo xtask lint [options] [rule ...]

Runs the K-SPIN lint wall and the four call-graph certificates over the
workspace sources. With rule keys given (e.g. `no-unwrap` or
`panic-reachability`), only those rules run.

options:
  --format <human|json>   report format (json is SARIF-lite; default human)
  --list-rules            print every rule key with a one-line description
  --update-baseline       rewrite lint-baseline.json from current findings
  --deny-stale            fail when baseline entries no longer fire (CI)
  -h, --help              show this help";

/// The workspace root (the parent of the xtask crate).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Collects the `.rs` files the lint wall covers: library/binary sources
/// under `crates/*/src` and the facade's `src/`. Vendored stand-ins,
/// integration tests, benches and examples are out of scope.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        for entry in entries.flatten() {
            walk_rs(&entry.path().join("src"), &mut out);
        }
    }
    walk_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Loads every source file the lint wall covers, sorted by path.
pub fn load_sources(root: &Path) -> Vec<SourceFile> {
    collect_sources(root)
        .iter()
        .filter_map(|path| SourceFile::load(root, path))
        .collect()
}

/// Lints the workspace rooted at `root` with the given rules. Errors when
/// a certificate's entry, warm-up, source or sanitizer spec has rotted.
pub fn lint_workspace_rules(root: &Path, rules: &[Rule]) -> Result<Summary, String> {
    let files = load_sources(root);
    let mut summary = Summary {
        files_scanned: files.len(),
        ..Summary::default()
    };
    for file in &files {
        scan_file(file, rules, &mut summary);
    }
    certifier::run(&files, rules, &mut summary)?;
    Ok(summary)
}

#[derive(Debug)]
struct Options {
    rules: Vec<Rule>,
    format: Format,
    update_baseline: bool,
    deny_stale: bool,
    list_rules: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        rules: Vec::new(),
        format: Format::Human,
        update_baseline: false,
        deny_stale: false,
        list_rules: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it.next().ok_or("--format needs a value: human or json")?;
                opts.format = parse_format(value)?;
            }
            "--update-baseline" => opts.update_baseline = true,
            "--deny-stale" => opts.deny_stale = true,
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => opts.help = true,
            other => {
                if let Some(value) = other.strip_prefix("--format=") {
                    opts.format = parse_format(value)?;
                } else if other.starts_with('-') {
                    return Err(format!("unknown flag `{other}`"));
                } else {
                    let rule = Rule::from_key(other).ok_or_else(|| {
                        format!(
                            "unknown rule `{other}` — available: {}",
                            Rule::ALL.map(Rule::key).join(", ")
                        )
                    })?;
                    opts.rules.push(rule);
                }
            }
        }
    }
    if opts.rules.is_empty() {
        opts.rules.extend(Rule::ALL);
    }
    Ok(opts)
}

/// CLI entry: `cargo xtask lint [options] [rule …]`.
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if opts.list_rules {
        for rule in Rule::ALL {
            println!("{:<28} {}", rule.key(), rule.doc());
        }
        return ExitCode::SUCCESS;
    }

    match lint_workspace_rules(&workspace_root(), &opts.rules) {
        Ok(summary) => report::finish(
            &opts.rules,
            &summary,
            opts.update_baseline,
            opts.deny_stale,
            opts.format,
        ),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Self-tests: planted violations with exact spans, the JSON report, CLI
// argument handling, and the live workspace against the committed baseline.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;
    use crate::json::{self, Json};
    use crate::report::{render_json, BASELINE_FILE};

    /// A fixture with one deliberately planted violation per scope-aware
    /// rule; every span is asserted byte-exactly.
    #[test]
    fn planted_h1_a1_e1_violations_are_found_with_exact_spans() {
        let src = "\
fn hot(xs: &[u32], d: Weight, w: Weight) -> Weight {
    let mut acc = 0;
    for x in xs {
        let copies = xs.to_vec();
        acc += copies[0] + x;
    }
    let nd = d + w;
    let _ = std::fs::remove_file(\"tmp\");
    out.flush().ok();
    nd
}
";
        let file = SourceFile::from_source("crates/core/src/query/fixture.rs", src);
        let mut summary = Summary::default();
        scan_file(&file, &Rule::ALL, &mut summary);

        let find = |rule: Rule| {
            summary
                .findings
                .iter()
                .find(|f| f.rule == rule)
                .unwrap_or_else(|| panic!("planted {} not found", rule.key()))
        };
        let line = |n: usize| src.lines().nth(n - 1).expect("fixture line");

        let h1 = find(Rule::NoAllocInHotLoop);
        assert_eq!(h1.file, "crates/core/src/query/fixture.rs");
        assert_eq!(h1.line, 4);
        assert_eq!(h1.col, line(4).find("to_vec").expect("pos") + 1);
        assert_eq!(h1.snippet, "let copies = xs.to_vec();");

        let a1 = find(Rule::CheckedWeightArithmetic);
        assert_eq!(a1.line, 7);
        assert_eq!(a1.col, line(7).find('+').expect("pos") + 1);

        let e1 = find(Rule::NoSwallowedResult);
        assert_eq!(e1.line, 8);
        assert_eq!(e1.col, line(8).find("let _").expect("pos") + 1);
        let bare_ok = summary
            .findings
            .iter()
            .filter(|f| f.rule == Rule::NoSwallowedResult)
            .nth(1)
            .expect("the bare .ok(); plant");
        assert_eq!(bare_ok.line, 9);
        assert_eq!(bare_ok.col, line(9).find(".ok").expect("pos") + 1);

        // `acc += copies[0] + x` is inside the loop but not weight-like;
        // only the planted `d + w` fires A1.
        assert_eq!(summary.count(Rule::CheckedWeightArithmetic), 1);
    }

    #[test]
    fn json_report_round_trips_and_carries_spans() {
        let src = "fn hot(d: Weight, w: Weight) -> Weight { d + w }\n";
        let file = SourceFile::from_source("crates/core/src/query/fixture.rs", src);
        let mut summary = Summary {
            files_scanned: 1,
            ..Summary::default()
        };
        scan_file(&file, &Rule::ALL, &mut summary);
        let ratchet = Baseline::default().apply(&summary.findings);

        let text = render_json(&summary, &ratchet).render();
        let doc = json::parse(&text).expect("report must be valid JSON");
        assert_eq!(
            doc.get("tool").and_then(Json::as_str),
            Some("cargo-xtask-lint")
        );
        assert_eq!(doc.get("new_count").and_then(Json::as_usize), Some(1));
        let findings = doc.get("findings").and_then(Json::as_arr).expect("array");
        assert_eq!(
            findings[0].get("rule").and_then(Json::as_str),
            Some("checked-weight-arithmetic")
        );
        assert_eq!(findings[0].get("line").and_then(Json::as_usize), Some(1));
        assert_eq!(
            findings[0].get("col").and_then(Json::as_usize),
            src.find("+ w").map(|p| p + 1)
        );
        assert_eq!(
            findings[0].get("snippet").and_then(Json::as_str),
            Some(src.trim())
        );
    }

    #[test]
    fn cli_rejects_unknown_flags_and_rules() {
        assert!(parse_args(&["--nope".to_string()]).is_err());
        assert!(parse_args(&["bogus-rule".to_string()]).is_err());
        assert!(parse_args(&["--format".to_string(), "xml".to_string()]).is_err());
        assert!(parse_args(&["--format".to_string()]).is_err());
    }

    #[test]
    fn cli_parses_flags_and_rule_filters() {
        let opts = parse_args(&[
            "--format=json".to_string(),
            "--deny-stale".to_string(),
            "no-unwrap".to_string(),
        ])
        .expect("valid args");
        assert_eq!(opts.format, Format::Json);
        assert!(opts.deny_stale);
        assert_eq!(opts.rules, vec![Rule::NoUnwrap]);
        let all = parse_args(&[]).expect("no args is valid");
        assert_eq!(all.rules.len(), Rule::ALL.len());
    }

    // ---- the live workspace ------------------------------------------------

    #[test]
    fn live_workspace_passes_the_ratchet() {
        let root = workspace_root();
        let summary = lint_workspace_rules(&root, &Rule::ALL).expect("every spec resolves");
        assert!(summary.files_scanned > 20, "suspiciously few files scanned");
        for rule in [
            Rule::PanicReachability,
            Rule::AllocReachability,
            Rule::Determinism,
            Rule::Taint,
        ] {
            assert!(
                summary.justified_count(rule) > 0,
                "certificate {} justified nothing — did it run?",
                rule.key()
            );
        }
        let baseline = Baseline::load(&root.join(BASELINE_FILE)).expect("baseline parses");
        assert!(
            baseline.entries.len() <= 5,
            "the ratchet must stay near-empty (≤ 5 entries), found {}",
            baseline.entries.len()
        );
        for e in &baseline.entries {
            assert!(
                e.reason.trim().len() >= 3 && !e.reason.starts_with("TODO"),
                "baseline entry {}:{} [{}] needs a real reason",
                e.file,
                e.line,
                e.rule
            );
        }
        let ratchet = baseline.apply(&summary.findings);
        let report: Vec<String> = ratchet.new.iter().map(ToString::to_string).collect();
        assert!(
            ratchet.new.is_empty(),
            "new lint findings in the live workspace:\n{}",
            report.join("\n")
        );
        let stale: Vec<String> = ratchet
            .stale
            .iter()
            .map(|e| format!("{}:{} [{}]", e.file, e.line, e.rule))
            .collect();
        assert!(
            ratchet.stale.is_empty(),
            "stale baseline entries (shrink {BASELINE_FILE}):\n{}",
            stale.join("\n")
        );
    }
}
