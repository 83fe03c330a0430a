//! `atomics-audit`: every atomic memory ordering in the workspace is
//! accounted for.
//!
//! Two rules:
//!
//! 1. `Ordering::SeqCst` is deny-by-default **everywhere** — a `SeqCst`
//!    that actually means something deserves an explicit justification
//!    (inline allow or `analyze.allow` entry); most are cargo-culted.
//! 2. Inside `crates/obs` (the only crate that hand-rolls lock-free
//!    protocols) every ordering use must match the per-module table
//!    below. Adding an atomic to `treesim-obs` means extending the table
//!    in the same change — which puts the intended happens-before edge
//!    in front of a reviewer.
//!
//! Only the five atomic orderings are matched; `std::cmp::Ordering`
//! (`Less`/`Equal`/`Greater`) never collides.

use super::Lint;
use crate::lex::TokenKind;
use crate::lint::{Finding, SourceFile};

/// The per-module contract for `crates/obs`. Each entry documents *why*
/// those orderings (and only those) are sound in that module.
const OBS_ALLOWED: &[(&str, &[&str])] = &[
    // Counters/gauges/histogram cells are independent monotone values;
    // snapshot consistency is explicitly best-effort, so every access is
    // Relaxed. Anything stronger would be a lie about what snapshots
    // guarantee.
    ("crates/obs/src/metrics.rs", &["Relaxed"]),
    // The flight recorder's only atomic is the sequence-id counter:
    // fetch_add is an atomic RMW, so Relaxed already guarantees unique
    // monotone ids, and no other memory is published through the counter
    // (record contents travel under the shard mutex). The per-kind
    // dropped counts are independent monotone tallies like metrics.rs.
    ("crates/obs/src/recorder.rs", &["Relaxed"]),
    // Trace ids and per-trace span ids come from fetch_add RMWs (unique
    // and monotone under Relaxed, like the recorder's sequence); the
    // sampler knobs are independent configuration cells read best-effort;
    // span contents travel under the per-trace mutex and the thread-local
    // context, never through an atomic. No cross-atomic happens-before
    // edge exists to strengthen.
    ("crates/obs/src/trace.rs", &["Relaxed"]),
    // The model checker *interprets* orderings rather than relying on
    // them: its classification helpers name Relaxed/Acquire/Release to
    // sort orderings into release/acquire classes, and its own inner
    // state travels under a std mutex. Its shim methods accept any
    // ordering from the code under test; none of these literals is a
    // synchronization decision of the module itself.
    (
        "crates/obs/src/model.rs",
        &["Relaxed", "Acquire", "Release"],
    ),
];

/// Atomic ordering names (as written after `Ordering::`).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The `atomics-audit` pass.
#[derive(Debug, Default)]
pub struct AtomicsAudit;

impl Lint for AtomicsAudit {
    fn id(&self) -> &'static str {
        "atomics-audit"
    }

    fn description(&self) -> &'static str {
        "atomic orderings match the crates/obs module table; SeqCst is deny-by-default"
    }

    fn check_file(&mut self, file: &SourceFile) -> Vec<Finding> {
        let mut findings = Vec::new();
        let in_obs = file.path.starts_with("crates/obs/src/");
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            if t.kind != TokenKind::Ident || !t.is_ident("Ordering") || file.in_test_code(t.start) {
                continue;
            }
            // Match `Ordering :: <atomic-ordering>`.
            let Some(c1) = file.next_code(i + 1) else {
                continue;
            };
            let Some(c2) = file.next_code(c1 + 1) else {
                continue;
            };
            let Some(v) = file.next_code(c2 + 1) else {
                continue;
            };
            if !file.tokens[c1].is_punct(':') || !file.tokens[c2].is_punct(':') {
                continue;
            }
            let ordering = &file.tokens[v];
            if ordering.kind != TokenKind::Ident
                || !ATOMIC_ORDERINGS.contains(&ordering.value.as_str())
            {
                continue;
            }
            if ordering.value == "SeqCst" {
                findings.extend(
                    file.finding(
                        self.id(),
                        ordering,
                        "Ordering::SeqCst is deny-by-default — name the happens-before edge \
                     you need and use Acquire/Release/AcqRel, or allowlist with the reason \
                     SeqCst is genuinely required"
                            .to_owned(),
                    ),
                );
                continue;
            }
            if in_obs {
                let allowed = OBS_ALLOWED
                    .iter()
                    .find(|(path, _)| *path == file.path)
                    .map(|(_, orderings)| *orderings);
                match allowed {
                    Some(orderings) if orderings.contains(&ordering.value.as_str()) => {}
                    Some(orderings) => findings.extend(file.finding(
                        self.id(),
                        ordering,
                        format!(
                            "Ordering::{} is not in the {} allowlist table ({}) — if the \
                             new edge is sound, extend OBS_ALLOWED in \
                             crates/xtask/src/lints/atomics.rs with a comment deriving it",
                            ordering.value,
                            file.path,
                            orderings.join(", ")
                        ),
                    )),
                    None => findings.extend(file.finding(
                        self.id(),
                        ordering,
                        format!(
                            "{} uses atomics but has no entry in the OBS_ALLOWED module \
                             table — add one with a comment deriving the protocol",
                            file.path
                        ),
                    )),
                }
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        AtomicsAudit.check_file(&SourceFile::parse(path, src))
    }

    #[test]
    fn seqcst_denied_everywhere() {
        let findings = run(
            "crates/search/src/engine.rs",
            "fn f(x: &std::sync::atomic::AtomicU64) { x.store(1, Ordering::SeqCst); }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SeqCst"));
    }

    #[test]
    fn obs_modules_must_match_the_table() {
        // model.rs may use Release/Acquire…
        let ok = run(
            "crates/obs/src/model.rs",
            "fn f(x: &AtomicBool) -> bool { x.store(true, Ordering::Release); \
             x.load(Ordering::Acquire) }",
        );
        assert!(ok.is_empty(), "{ok:?}");
        // …but an ordering outside its entry is exactly what the audit flags.
        let acq_rel = run(
            "crates/obs/src/model.rs",
            "fn f(x: &AtomicBool) -> bool { x.swap(true, Ordering::AcqRel) }",
        );
        assert_eq!(acq_rel.len(), 1);
        assert!(acq_rel[0].message.contains("allowlist table"));
        // metrics.rs is Relaxed-only.
        let acquire = run(
            "crates/obs/src/metrics.rs",
            "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Acquire) }",
        );
        assert_eq!(acquire.len(), 1);
        // A new obs module with atomics needs a table entry.
        let untabled = run(
            "crates/obs/src/ringbuf.rs",
            "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }",
        );
        assert_eq!(untabled.len(), 1);
        assert!(untabled[0].message.contains("no entry"));
    }

    #[test]
    fn non_obs_relaxed_is_fine_and_cmp_ordering_ignored() {
        let findings = run(
            "crates/search/src/engine.rs",
            "fn f(x: &AtomicU64, a: u32, b: u32) -> std::cmp::Ordering {\n\
                 x.fetch_add(1, Ordering::Relaxed);\n\
                 match a.cmp(&b) { Ordering::Less => a.cmp(&b), o => o }\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn inline_allow_covers_a_justified_seqcst() {
        let findings = run(
            "crates/core/src/lib.rs",
            "fn f(x: &AtomicU64) {\n\
                 // single-writer init fence; see DESIGN.md §9\n\
                 // treesim-lint: allow(atomics-audit)\n\
                 x.store(1, Ordering::SeqCst);\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let findings = run(
            "crates/obs/src/trace.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(x: &AtomicBool) { x.store(true, Ordering::SeqCst); }\n}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
