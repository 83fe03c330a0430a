//! `metric-name`: every metric/span name literal handed to the
//! `treesim-obs` registry obeys the documented grammar.
//!
//! The grammar itself lives in `treesim_obs::naming` — the *same* module
//! the runtime contract test uses — so this lint cannot drift from what
//! the registry accepts. Extraction is token-based: for each call to
//! `counter` / `gauge` / `histogram` / `span!` / `record_metrics`
//! (macro, function or method form) the first string literal of the
//! first argument is taken as the name; `format!` templates validate
//! with `{…}` placeholders as wildcard segments, so
//! `"cascade.{}.evaluated"` and `"{prefix}.filter.us"` are checked too.
//!
//! The cascade contract is cross-checked statically: every string literal
//! returned from a `fn stage_name` body must be a member of
//! `naming::CASCADE_STAGES`, every `cascade.<stage>.*` literal must name
//! a member, and every member must be returned by some `stage_name`
//! implementation — so the table, the filters and the metric names cannot
//! drift apart without a finding.
//!
//! The `/metrics` exporter renders registry names through
//! `naming::prometheus_name` (dots → underscores), which is not injective
//! when segments themselves contain underscores: `engine.knn_filter.us`
//! and `engine.knn.filter.us` would silently merge into one exposition
//! series. This lint therefore also checks **sanitized uniqueness**:
//! every pair of distinct concrete name literals must stay distinct after
//! sanitization — the guarantee `naming::prometheus_name`'s docs promise.

use std::collections::{BTreeMap, BTreeSet};

use treesim_obs::naming::{prometheus_name, validate_metric_template, CASCADE_STAGES};

use super::Lint;
use crate::lex::TokenKind;
use crate::lint::{Finding, Severity, SourceFile};

/// Identifiers that take a metric/span name as their first argument.
const NAME_SINKS: &[&str] = &["counter", "gauge", "histogram", "span", "record_metrics"];

/// The `metric-name` pass.
#[derive(Debug, Default)]
pub struct MetricNames {
    /// Stage-name literals collected from `fn stage_name` bodies.
    stages_returned: BTreeSet<String>,
    /// Where the first `fn stage_name` was seen (anchor for finish()).
    stage_fn_site: Option<(String, u32, u32)>,
    /// Prometheus-sanitized name → the first concrete literal (and its
    /// site) that produced it, for cross-file collision detection.
    sanitized_seen: BTreeMap<String, (String, String, u32, u32)>,
}

/// Crates whose sources emit metrics (obs itself is the registry and is
/// exempt: its names are caller-supplied).
fn in_scope(path: &str) -> bool {
    ["crates/search/src/", "crates/cli/src/", "crates/bench/src/"]
        .iter()
        .any(|prefix| path.starts_with(prefix))
}

impl Lint for MetricNames {
    fn id(&self) -> &'static str {
        "metric-name"
    }

    fn description(&self) -> &'static str {
        "metric/span name literals parse under the obs::naming grammar; \
         cascade stages match Filter::stage_name"
    }

    fn check_file(&mut self, file: &SourceFile) -> Vec<Finding> {
        if !in_scope(&file.path) {
            return Vec::new();
        }
        let mut findings = Vec::new();
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            if t.kind != TokenKind::Ident || file.in_test_code(t.start) {
                continue;
            }
            if NAME_SINKS.contains(&t.value.as_str()) {
                // Skip definitions (`fn counter(…)`) — only call sites.
                if file
                    .prev_code(i)
                    .is_some_and(|p| file.tokens[p].is_ident("fn"))
                {
                    continue;
                }
                // Macro form consumes a `!`; both forms then need `(`.
                let Some(mut open) = file.next_code(i + 1) else {
                    continue;
                };
                if file.tokens[open].is_punct('!') {
                    let Some(next) = file.next_code(open + 1) else {
                        continue;
                    };
                    open = next;
                }
                if !file.tokens[open].is_punct('(') {
                    continue;
                }
                if let Some(name_tok) = first_str_in_first_arg(file, open) {
                    let name = file.tokens[name_tok].value.clone();
                    if let Err(e) = validate_metric_template(&name) {
                        findings.extend(file.finding(
                            self.id(),
                            &file.tokens[name_tok],
                            format!("metric name {name:?} violates the naming contract: {e}"),
                        ));
                    } else if !name.contains('{') {
                        // Concrete literal: its Prometheus-sanitized form
                        // (dots → underscores) must stay unique, or two
                        // registry series merge on /metrics.
                        let sanitized = prometheus_name(&name);
                        let token = &file.tokens[name_tok];
                        match self.sanitized_seen.get(&sanitized) {
                            Some((other, path, line, _)) if *other != name => {
                                findings.extend(file.finding(
                                    self.id(),
                                    token,
                                    format!(
                                        "metric names {name:?} and {other:?} ({path}:{line}) \
                                         both sanitize to Prometheus name {sanitized:?} — the \
                                         /metrics exporter would merge them; rename one"
                                    ),
                                ));
                            }
                            Some(_) => {}
                            None => {
                                self.sanitized_seen.insert(
                                    sanitized,
                                    (name, file.path.clone(), token.line, token.col),
                                );
                            }
                        }
                    }
                }
            }
            // `fn stage_name` bodies: collect and validate returned
            // stage literals.
            if t.value == "stage_name"
                && file
                    .prev_code(i)
                    .is_some_and(|p| file.tokens[p].is_ident("fn"))
            {
                if self.stage_fn_site.is_none() {
                    self.stage_fn_site = Some((file.path.clone(), t.line, t.col));
                }
                for s in body_string_literals(file, i) {
                    let value = file.tokens[s].value.clone();
                    if CASCADE_STAGES.contains(&value.as_str()) {
                        self.stages_returned.insert(value);
                    } else {
                        findings.extend(file.finding(
                            self.id(),
                            &file.tokens[s],
                            format!(
                                "stage_name returns {value:?}, which is not in \
                                 naming::CASCADE_STAGES ({}) — extend the contract table \
                                 (and the README naming table) in the same change",
                                CASCADE_STAGES.join(", ")
                            ),
                        ));
                    }
                }
            }
        }
        findings
    }

    fn finish(&mut self) -> Vec<Finding> {
        // Only meaningful when the scanned set actually contained filter
        // implementations (fixtures usually don't).
        let Some((path, line, col)) = self.stage_fn_site.clone() else {
            return Vec::new();
        };
        CASCADE_STAGES
            .iter()
            .filter(|stage| !self.stages_returned.contains(**stage))
            .map(|stage| Finding {
                lint: self.id(),
                severity: Severity::Error,
                path: path.clone(),
                line,
                col,
                message: format!(
                    "naming::CASCADE_STAGES lists {stage:?} but no Filter::stage_name \
                     implementation returns it — remove it from the table or restore the stage"
                ),
                snippet: String::new(),
            })
            .collect()
    }
}

/// First string literal inside the first argument of the call whose `(`
/// is at token index `open`. Stops at a top-level `,` or the matching
/// `)`; descends into nested calls (`&format!(…)`).
fn first_str_in_first_arg(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while let Some(t) = file.tokens.get(i) {
        if t.is_trivia() {
            i += 1;
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if t.is_punct(',') && depth == 1 {
            return None;
        } else if t.kind == TokenKind::Str {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// All string-literal token indices in the `{…}` body following the item
/// whose name token is at `name_idx` (skips the signature), excluding
/// test code.
fn body_string_literals(file: &SourceFile, name_idx: usize) -> Vec<usize> {
    let mut i = name_idx;
    // Find the body opening brace, skipping the parameter list.
    let mut paren = 0usize;
    let open = loop {
        i += 1;
        let Some(t) = file.tokens.get(i) else {
            return Vec::new();
        };
        if t.is_trivia() {
            continue;
        }
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('{') && paren == 0 {
            break i;
        } else if t.is_punct(';') && paren == 0 {
            return Vec::new(); // trait method without a default body
        }
    };
    let mut depth = 0usize;
    let mut out = Vec::new();
    let mut j = open;
    while let Some(t) = file.tokens.get(j) {
        if !t.is_trivia() {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Str && !file.in_test_code(t.start) {
                out.push(j);
            }
        }
        j += 1;
    }
    out
}

impl MetricNames {
    /// Stages collected so far (test hook).
    #[cfg(test)]
    fn stages(&self) -> Vec<String> {
        self.stages_returned.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        MetricNames::default().check_file(&SourceFile::parse(path, src))
    }

    #[test]
    fn accepts_conforming_literals_and_templates() {
        let findings = run(
            "crates/search/src/engine.rs",
            r#"
            fn f(stats: &SearchStats, n: u64) {
                let _span = treesim_obs::span!("engine.knn", k = n);
                treesim_obs::counter!("dynamic.push").inc();
                treesim_obs::histogram!("cascade.propt.iters").record(n);
                stats.record_metrics("engine.knn");
                counter(&format!("cascade.{}.evaluated", "size")).add(n);
                histogram(&format!("{prefix}.filter.us")).record(n);
            }
            "#,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn rejects_bad_prefix_segment_and_stage() {
        let findings = run(
            "crates/search/src/engine.rs",
            r#"
            fn f() {
                treesim_obs::counter!("widget.count").inc();
                treesim_obs::span!("engine.Knn");
                counter(&format!("cascade.{}.evaluated", x));
                treesim_obs::counter!("cascade.warp.evaluated").inc();
            }
            "#,
        );
        // widget prefix, Knn segment, warp stage — the wildcard template
        // is fine.
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings[0].message.contains("unknown prefix"));
        assert!(findings[1].message.contains("not of the form"));
        assert!(findings[2].message.contains("unknown cascade stage"));
    }

    #[test]
    fn stage_name_literals_are_cross_checked() {
        let mut lint = MetricNames::default();
        let file = SourceFile::parse(
            "crates/search/src/filter.rs",
            r#"
            impl Filter for F {
                fn stage_name(&self, stage: usize) -> &'static str {
                    match stage { 0 => "size", 1 => "bdist", _ => "warp" }
                }
            }
            "#,
        );
        let findings = lint.check_file(&file);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("\"warp\""));
        assert_eq!(lint.stages(), vec!["bdist".to_owned(), "size".to_owned()]);
        // propt, histo, scan and postings were never returned →
        // finish() findings.
        let missing = lint.finish();
        assert_eq!(missing.len(), 4, "{missing:?}");
        assert!(missing.iter().any(|f| f.message.contains("\"propt\"")));
        assert!(missing.iter().any(|f| f.message.contains("\"histo\"")));
        assert!(missing.iter().any(|f| f.message.contains("\"scan\"")));
        assert!(missing.iter().any(|f| f.message.contains("\"postings\"")));
    }

    #[test]
    fn full_stage_coverage_passes_finish() {
        let mut lint = MetricNames::default();
        lint.check_file(&SourceFile::parse(
            "crates/search/src/filter.rs",
            r#"
            fn stage_name(&self, stage: usize) -> &'static str {
                match stage { 0 => "postings", 1 => "size", 2 => "bdist", 3 => "histo", 4 => "scan", _ => "propt" }
            }
            "#,
        ));
        assert!(lint.finish().is_empty());
    }

    #[test]
    fn out_of_scope_and_test_code_are_ignored() {
        assert!(run(
            "crates/obs/src/metrics.rs",
            r#"fn f() { counter("anything goes here"); }"#
        )
        .is_empty());
        assert!(run(
            "crates/search/src/stats.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { counter(\"test.stats.queries\"); }\n}\n"
        )
        .is_empty());
        // Dynamic names (no literal) are the runtime test's job.
        assert!(run(
            "crates/search/src/stats.rs",
            "fn f(name: &str) { counter(name).inc(); }"
        )
        .is_empty());
    }

    #[test]
    fn sanitized_collisions_are_flagged_across_files() {
        let mut lint = MetricNames::default();
        let a = lint.check_file(&SourceFile::parse(
            "crates/search/src/engine.rs",
            r#"fn f() { treesim_obs::counter!("engine.knn.queries").inc(); }"#,
        ));
        assert!(a.is_empty(), "{a:?}");
        // The same literal at another site is the same series — fine.
        let b = lint.check_file(&SourceFile::parse(
            "crates/cli/src/commands.rs",
            r#"fn g() { treesim_obs::counter!("engine.knn.queries").inc(); }"#,
        ));
        assert!(b.is_empty(), "{b:?}");
        // A *different* dotted name with the same Prometheus form merges
        // two series on /metrics — flagged, pointing at the first site.
        let c = lint.check_file(&SourceFile::parse(
            "crates/bench/src/report.rs",
            r#"fn h() { treesim_obs::counter!("engine.knn_queries").inc(); }"#,
        ));
        assert_eq!(c.len(), 1, "{c:?}");
        assert!(c[0].message.contains("engine_knn_queries"));
        assert!(c[0].message.contains("crates/search/src/engine.rs"));
    }

    #[test]
    fn inline_allow_works_for_experimental_names() {
        let findings = run(
            "crates/bench/src/report.rs",
            "fn f() {\n\
                 // treesim-lint: allow(metric-name)\n\
                 counter(\"scratch.tmp\").inc();\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
