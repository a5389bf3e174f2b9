//! Report emission and the baseline ratchet for `cargo xtask lint`.
//!
//! Every run ends the same way: load `lint-baseline.json`, keep only the
//! entries of the rules this run actually evaluated (the rest pass
//! through untouched), either rewrite the baseline or apply the ratchet,
//! emit a human or SARIF-lite JSON report, and exit non-zero on new
//! findings or (under `--deny-stale`) stale entries. [`finish`] is that
//! tail; [`render_json`] is the report shape.

use std::fs;
use std::process::ExitCode;

use crate::baseline::{Baseline, Ratchet};
use crate::json::Json;
use crate::lint::workspace_root;
use crate::rules::{Finding, Rule, Summary};

/// File name of the committed ratchet, relative to the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// Report format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    Human,
    Json,
}

/// Parses a `--format` value.
pub(crate) fn parse_format(value: &str) -> Result<Format, String> {
    match value {
        "human" => Ok(Format::Human),
        "json" => Ok(Format::Json),
        other => Err(format!("unknown format `{other}` — use human or json")),
    }
}

/// The tail of every lint run. `rules` are the rules this run evaluated:
/// baseline entries of other rules are neither applied nor reported
/// stale, and survive `--update-baseline` untouched.
pub(crate) fn finish(
    rules: &[Rule],
    summary: &Summary,
    update_baseline: bool,
    deny_stale: bool,
    format: Format,
) -> ExitCode {
    let active: Vec<&str> = rules.iter().map(|r| r.key()).collect();
    let baseline_path = workspace_root().join(BASELINE_FILE);
    let mut baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let inactive: Vec<_> = baseline
        .entries
        .iter()
        .filter(|e| !active.contains(&e.rule.as_str()))
        .cloned()
        .collect();
    baseline
        .entries
        .retain(|e| active.contains(&e.rule.as_str()));

    if update_baseline {
        let mut updated = baseline.updated(&summary.findings);
        updated.entries.extend(inactive);
        if let Err(e) = fs::write(&baseline_path, updated.render()) {
            eprintln!("error: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{} rewritten: {} entr{}",
            BASELINE_FILE,
            updated.entries.len(),
            if updated.entries.len() == 1 {
                "y"
            } else {
                "ies"
            }
        );
        return ExitCode::SUCCESS;
    }

    let ratchet = baseline.apply(&summary.findings);
    match format {
        Format::Human => print_human(rules, summary, &ratchet),
        Format::Json => print!("{}", render_json(summary, &ratchet).render()),
    }
    if ratchet.new.is_empty() && (ratchet.stale.is_empty() || !deny_stale) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The human report: one verdict line per rule, then every new finding
/// and every stale baseline entry.
fn print_human(rules: &[Rule], summary: &Summary, ratchet: &Ratchet) {
    println!("cargo xtask lint — {} files scanned", summary.files_scanned);
    for &rule in rules {
        let total = summary.count(rule);
        let new = ratchet.new.iter().filter(|f| f.rule == rule).count();
        let status = if new == 0 { "ok" } else { "FAIL" };
        println!(
            "  {:<30} {:>3} new, {:>2} baselined, {:>3} justified   [{status}]",
            rule.label(),
            new,
            total - new,
            summary.justified_count(rule)
        );
    }
    if !ratchet.new.is_empty() {
        println!();
        for f in &ratchet.new {
            println!("{f}");
            if !f.snippet.is_empty() {
                println!("    {}", f.snippet);
            }
        }
        println!("\n{} new finding(s)", ratchet.new.len());
    }
    if !ratchet.stale.is_empty() {
        println!();
        for e in &ratchet.stale {
            println!(
                "stale baseline entry: {}:{} [{}] no longer fires — remove it from {}",
                e.file, e.line, e.rule, BASELINE_FILE
            );
        }
    }
}

/// SARIF-lite report: rule id, message, file, line, col, snippet per
/// finding, plus the ratchet's verdict and the justified count per rule.
pub(crate) fn render_json(summary: &Summary, ratchet: &Ratchet) -> Json {
    let finding = |f: &Finding, baselined: bool| {
        Json::Obj(vec![
            ("rule".into(), Json::Str(f.rule.key().to_string())),
            ("message".into(), Json::Str(f.message.clone())),
            ("file".into(), Json::Str(f.file.clone())),
            ("line".into(), Json::Num(to_f64(f.line))),
            ("col".into(), Json::Num(to_f64(f.col))),
            ("snippet".into(), Json::Str(f.snippet.clone())),
            ("baselined".into(), Json::Bool(baselined)),
        ])
    };
    let mut findings: Vec<Json> = ratchet.new.iter().map(|f| finding(f, false)).collect();
    findings.extend(ratchet.baselined.iter().map(|f| finding(f, true)));
    let stale = ratchet
        .stale
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(e.rule.clone())),
                ("file".into(), Json::Str(e.file.clone())),
                ("line".into(), Json::Num(to_f64(e.line))),
                ("reason".into(), Json::Str(e.reason.clone())),
            ])
        })
        .collect();
    let justified = summary
        .justified
        .iter()
        .map(|(&k, &n)| (k.to_string(), Json::Num(to_f64(n))))
        .collect();
    Json::Obj(vec![
        ("tool".into(), Json::Str("cargo-xtask-lint".into())),
        ("schema".into(), Json::Str("sarif-lite/2".into())),
        (
            "files_scanned".into(),
            Json::Num(to_f64(summary.files_scanned)),
        ),
        ("new_count".into(), Json::Num(to_f64(ratchet.new.len()))),
        (
            "baselined_count".into(),
            Json::Num(to_f64(ratchet.baselined.len())),
        ),
        ("findings".into(), Json::Arr(findings)),
        ("stale_baseline".into(), Json::Arr(stale)),
        ("justified".into(), Json::Obj(justified)),
    ])
}

#[allow(clippy::cast_precision_loss)]
pub(crate) fn to_f64(n: usize) -> f64 {
    n as f64
}
