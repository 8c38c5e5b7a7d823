//! The metric tables `BENCHMARK.json` declares, and the report a
//! workload fills in.
//!
//! Every workload prints every metric of the class its run asks for:
//! end-to-end metrics on untraced runs, per-layer metrics on traced runs.
//! A per-layer metric a workload does not exercise reads 0 (its layer did
//! no work there).

use std::collections::BTreeMap;

/// Whether a value must repeat exactly between runs of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A host timing or a scheduling-dependent quantity.
    Wall,
    /// A work count that repeats exactly across runs and thread counts.
    Count,
}

/// One declared metric.
pub struct Def {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Determinism class.
    pub class: Class,
}

const fn wall(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        class: Class::Wall,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        class: Class::Count,
    }
}

/// End-to-end metrics (untraced runs).
pub const END_TO_END: &[Def] = &[
    wall("setup_s", "s"),
    wall("pass_s", "s"),
    wall("qps", "1/s"),
    wall("rtt_us_p50", "us"),
    wall("rtt_us_p99", "us"),
    wall("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs). Times are self times per pass (batch
/// layers), per window (stream layers and snapshot rotation), per
/// request (`serve.*_ns`), per burst (`serve.acquire_ns`) or per set-up
/// (`store.*`). Counts are per pass.
pub const PER_LAYER: &[Def] = &[
    wall("expr.pearson_ms", "ms"),
    count("expr.tile_pairs", "count"),
    count("expr.edges_retained", "count"),
    count("expr.keep_ratio", "ratio"),
    wall("graph.ordering_ms", "ms"),
    wall("core.filter_ms", "ms"),
    count("core.retained_edges", "count"),
    count("core.border_edges", "count"),
    count("core.messages", "count"),
    count("chordal.dsw_ops", "count"),
    count("core.sim_makespan_ms", "ms"),
    wall("mcode.cluster_ms", "ms"),
    count("mcode.clusters", "count"),
    wall("ontology.aees_ms", "ms"),
    count("ontology.clusters_scored", "count"),
    wall("analysis.overlap_ms", "ms"),
    wall("stream.correlate_ms", "ms"),
    count("stream.scan_pairs", "count"),
    wall("stream.delta_apply_ms", "ms"),
    wall("stream.inc_chordal_ms", "ms"),
    wall("stream.mcode_ms", "ms"),
    wall("stream.window_ms_p50", "ms"),
    wall("serve.snapshot_build_ms", "ms"),
    wall("serve.publish_us", "us"),
    wall("serve.decode_ns", "ns"),
    wall("serve.encode_ns", "ns"),
    wall("serve.acquire_ns", "ns"),
    wall("serve.answer_ns.neighborhood", "ns"),
    wall("serve.answer_ns.cluster", "ns"),
    wall("serve.answer_ns.rho", "ns"),
    wall("serve.answer_ns.enrich", "ns"),
    wall("serve.answer_ns.stats", "ns"),
    wall("serve.requests", "req"),
    wall("serve.errors", "req"),
    wall("store.open_ms", "ms"),
    wall("store.resume_ms", "ms"),
    wall("trace.cover_pct", "%"),
    wall("trace.overhead_ms", "ms"),
    wall("fail_frac", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (passes, sweep runs, windows, requests).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record one operation and whether its output checked out.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record `n` operations of which `failed` did not check out.
    pub fn check_many(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: every metric of `table`, in table order.
    pub fn to_json(&self, table: &[Def]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which JSON cannot carry) print 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut r = Report::default();
        r.check(true);
        r.set("setup_s", 0.25);
        let line = r.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\"", d.name)));
        }
    }
}
