//! The metric/span naming contract: one machine-checkable grammar shared
//! by the runtime (integration tests drain the registry and validate every
//! emitted name), the `xtask analyze` metric-name lint (which extracts
//! name literals statically), and the documentation tables in README /
//! DESIGN §9.
//!
//! Grammar (see the crate-level *Naming scheme* section):
//!
//! ```text
//! name     := segment ("." segment)+        // at least two segments
//! segment  := [a-z][a-z0-9_]*
//! name[0]  ∈ KNOWN_PREFIXES ∪ { "test" }    // "test" only in test code
//! ```
//!
//! Cascade funnel names additionally pin their second segment:
//! `cascade.<stage>.*` requires `<stage>` ∈ [`CASCADE_STAGES`], which must
//! stay in lockstep with every `Filter::stage_name` implementation — the
//! `xtask` lint checks that statically and
//! `crates/search/tests/metric_names.rs` checks it at runtime.

/// Top-level name prefixes with a defined meaning. Adding a subsystem
/// means adding its prefix here *and* documenting it in the README
/// Observability table — the analyzer rejects unknown prefixes.
pub const KNOWN_PREFIXES: &[&str] = &[
    "cascade", "refine", "engine", "batch", "dynamic", "recorder", "server", "join", "cluster",
    "classify", "trace", "model", "analyze", "arena",
];

/// The namespace reserved for metrics created inside `#[cfg(test)]` code
/// and test binaries. Production code must never emit names under it.
pub const TEST_PREFIX: &str = "test";

/// Every cascade stage name any [`Filter::stage_name`] implementation may
/// return. `cascade.<stage>.*` metric names are only valid for these
/// stages: the cheap `size` screen, the paper's `bdist`/`propt` binary
/// branch bounds, the `histo` baseline, the `scan` pseudo-stage of the
/// sequential-scan (no-filter) baseline, and the `postings` inverted-list
/// candidate generator (stage −1 of the default cascade).
///
/// [`Filter::stage_name`]: https://docs.rs/treesim-search
pub const CASCADE_STAGES: &[&str] = &["size", "bdist", "propt", "histo", "scan", "postings"];

/// Reserved `cascade.<segment>.*` second segments that are *not* stage
/// names (and must never appear as a [`Filter::stage_name`]): mechanism
/// counters that cut across stages, like the batched-sweep instrumentation
/// `cascade.batch.evaluated`. Kept separate from [`CASCADE_STAGES`] so the
/// stage-table lockstep checks (runtime and `xtask`) stay exact.
///
/// [`Filter::stage_name`]: https://docs.rs/treesim-search
pub const CASCADE_EXTRAS: &[&str] = &["batch"];

/// Why a name failed [`validate_metric_name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// Fewer than two dot-separated segments.
    TooFewSegments,
    /// A segment is empty or contains a character outside `[a-z0-9_]`, or
    /// starts with a non-letter.
    BadSegment(String),
    /// The first segment is not in [`KNOWN_PREFIXES`] (or [`TEST_PREFIX`]
    /// when test names are allowed).
    UnknownPrefix(String),
    /// A `cascade.<stage>.*` name whose stage is not in [`CASCADE_STAGES`].
    UnknownStage(String),
}

impl std::fmt::Display for NameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NameError::TooFewSegments => {
                write!(f, "metric names need at least two dotted segments")
            }
            NameError::BadSegment(s) => {
                write!(f, "segment {s:?} is not of the form [a-z][a-z0-9_]*")
            }
            NameError::UnknownPrefix(s) => write!(
                f,
                "unknown prefix {s:?} (known: {})",
                KNOWN_PREFIXES.join("|")
            ),
            NameError::UnknownStage(s) => write!(
                f,
                "unknown cascade stage {s:?} (known: {})",
                CASCADE_STAGES.join("|")
            ),
        }
    }
}

/// Whether `name` lives in the reserved test namespace (`test.*`).
pub fn is_test_name(name: &str) -> bool {
    name.split('.').next() == Some(TEST_PREFIX)
}

fn valid_segment(segment: &str) -> bool {
    let mut chars = segment.chars();
    matches!(chars.next(), Some('a'..='z'))
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Validates a concrete (fully-expanded) metric or span name against the
/// grammar. Test names (`test.*`) are accepted when `allow_test` is set —
/// integration tests drain registries that other tests may have touched.
pub fn validate_metric_name(name: &str, allow_test: bool) -> Result<(), NameError> {
    let mut head = name.split('.');
    let (Some(prefix), Some(second)) = (head.next(), head.next()) else {
        return Err(NameError::TooFewSegments);
    };
    for segment in name.split('.') {
        if !valid_segment(segment) {
            return Err(NameError::BadSegment(segment.to_owned()));
        }
    }
    let known = KNOWN_PREFIXES.contains(&prefix) || (allow_test && prefix == TEST_PREFIX);
    if !known {
        return Err(NameError::UnknownPrefix(prefix.to_owned()));
    }
    if prefix == "cascade" && !CASCADE_STAGES.contains(&second) && !CASCADE_EXTRAS.contains(&second)
    {
        return Err(NameError::UnknownStage(second.to_owned()));
    }
    Ok(())
}

/// The Prometheus exposition form of a registry name: dots become
/// underscores (the exposition grammar allows `[a-zA-Z_:][a-zA-Z0-9_:]*`
/// and dots are illegal). Because registry segments are `[a-z][a-z0-9_]*`
/// the result is always a valid exposition name; the mapping is not
/// injective in general (`a.b_c` and `a_b.c` collide) but the underscore
/// convention in our registry names (`.us` suffixes, `workers_active`
/// style) never produces a collision — the `xtask` metric-name lint
/// checks sanitized uniqueness over every literal.
pub fn prometheus_name(name: &str) -> String {
    name.replace('.', "_")
}

/// Validates a name *template* as it appears in source: `{…}` format
/// placeholders (e.g. `"{prefix}.filter.us"`, `"cascade.{}.evaluated"`)
/// act as wildcard segments that match any valid expansion. A placeholder
/// embedded in a segment (`"cascade.{}.us"`) wildcards that segment only.
pub fn validate_metric_template(template: &str) -> Result<(), NameError> {
    let mut head = template.split('.');
    let (Some(prefix), Some(stage)) = (head.next(), head.next()) else {
        return Err(NameError::TooFewSegments);
    };
    let is_wild = |s: &str| s.contains('{') && s.contains('}');
    for segment in template.split('.') {
        if !is_wild(segment) && !valid_segment(segment) {
            return Err(NameError::BadSegment(segment.to_owned()));
        }
    }
    if !is_wild(prefix) {
        if !KNOWN_PREFIXES.contains(&prefix) {
            return Err(NameError::UnknownPrefix(prefix.to_owned()));
        }
        if prefix == "cascade"
            && !is_wild(stage)
            && !CASCADE_STAGES.contains(&stage)
            && !CASCADE_EXTRAS.contains(&stage)
        {
            return Err(NameError::UnknownStage(stage.to_owned()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_every_documented_name_shape() {
        for name in [
            "engine.knn.queries",
            "engine.knn.filter.us",
            "engine.batch.workers.active",
            "cascade.size.evaluated",
            "cascade.propt.iters",
            "cascade.postings.evaluated",
            "cascade.batch.evaluated",
            "arena.trees",
            "arena.entries",
            "refine.zs.nodes",
            "refine.bounded.cutoffs",
            "refine.bounded.bands_skipped",
            "join.pairs.considered",
            "join.pairs.refined",
            "join.pairs.joined",
            "join.pairs.cutoffs",
            "join.cells_skipped",
            "join.queries",
            "dynamic.push",
            "batch.pending",
            "recorder.recorded",
            "recorder.overwritten",
            "recorder.dropped.knn",
            "recorder.dropped.dynamic_range",
            "server.requests",
            "cluster.queries",
            "cluster.clusters",
            "classify.queries",
            "trace.captured",
            "trace.retained",
            "trace.evicted",
            "trace.spans.dropped",
            "trace.ring.capacity",
            "model.schedules",
            "model.states.pruned",
            "model.failures",
            "analyze.findings.happens_before",
            "analyze.findings.lock_order",
        ] {
            assert_eq!(validate_metric_name(name, false), Ok(()), "{name}");
        }
    }

    #[test]
    fn test_namespace_is_opt_in() {
        assert!(validate_metric_name("test.stats.queries", true).is_ok());
        assert_eq!(
            validate_metric_name("test.stats.queries", false),
            Err(NameError::UnknownPrefix("test".to_owned()))
        );
        assert!(is_test_name("test.stats.queries"));
        assert!(!is_test_name("engine.knn.queries"));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert_eq!(
            validate_metric_name("engine", false),
            Err(NameError::TooFewSegments)
        );
        assert_eq!(
            validate_metric_name("Engine.knn", false),
            Err(NameError::BadSegment("Engine".to_owned()))
        );
        assert_eq!(
            validate_metric_name("engine..us", false),
            Err(NameError::BadSegment(String::new()))
        );
        assert_eq!(
            validate_metric_name("engine.2fast", false),
            Err(NameError::BadSegment("2fast".to_owned()))
        );
        assert_eq!(
            validate_metric_name("widget.count", false),
            Err(NameError::UnknownPrefix("widget".to_owned()))
        );
        assert_eq!(
            validate_metric_name("shard.merge", false),
            Err(NameError::UnknownPrefix("shard".to_owned()))
        );
        // The SLO engine and its window ring are gone, and so are their
        // namespaces.
        for removed in ["slo.burn_rate.engine_knn", "window.rotations"] {
            assert!(
                matches!(
                    validate_metric_name(removed, false),
                    Err(NameError::UnknownPrefix(_))
                ),
                "{removed}"
            );
        }
        assert_eq!(
            validate_metric_name("cascade.warp.evaluated", false),
            Err(NameError::UnknownStage("warp".to_owned()))
        );
        // Errors render with context.
        let message = NameError::UnknownStage("warp".to_owned()).to_string();
        assert!(message.contains("warp") && message.contains("size|bdist|propt|histo"));
    }

    #[test]
    fn prometheus_names_are_exposition_legal() {
        assert_eq!(
            prometheus_name("engine.knn.filter.us"),
            "engine_knn_filter_us"
        );
        assert_eq!(prometheus_name("recorder.recorded"), "recorder_recorded");
        // Any valid registry name sanitizes to the exposition grammar
        // [a-zA-Z_:][a-zA-Z0-9_:]*.
        for name in ["cascade.size.evaluated", "engine.batch.workers.active"] {
            let p = prometheus_name(name);
            let mut chars = p.chars();
            assert!(matches!(chars.next(), Some('a'..='z' | '_')));
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
    }

    #[test]
    fn templates_treat_placeholders_as_wildcards() {
        for template in [
            "{prefix}.queries",
            "{prefix}.filter.us",
            "cascade.{}.evaluated",
            "cascade.{stage}.us",
            "engine.knn.queries",
        ] {
            assert_eq!(validate_metric_template(template), Ok(()), "{template}");
        }
        assert!(validate_metric_template("widget.{}.count").is_err());
        assert!(validate_metric_template("cascade.warp.{}").is_err());
        assert!(validate_metric_template("{prefix}").is_err());
        assert!(validate_metric_template("cascade.{}.Bad").is_err());
    }
}
