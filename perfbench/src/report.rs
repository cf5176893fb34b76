//! The result line, host facts and attribution tables.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
/// Every workload reports every one of them, in these units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_wall_s", "s"),
    ("cpu_s_per_round", "s"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
/// Every workload reports every one of them; figures only one workload
/// has go to [`Report::extra`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.sha256_ns_per_byte", "ns"),
    ("crypto.key_decode_us", "us"),
    ("crypto.sig_verify_us", "us"),
    ("crypto.vrf_verify_us", "us"),
    ("sortition.verify_us", "us"),
    ("sortition.select_us", "us"),
    ("ba.verify_vote_us", "us"),
    ("ba.certificate_verify_ms", "ms"),
    ("core.wire.decode_vote_us", "us"),
    ("core.wire.decode_tx_us", "us"),
    ("core.wire.decode_block_us_per_tx", "us"),
    ("core.verify.cache_hit_us", "us"),
    ("core.verify.cache_misses_per_round", "count"),
    ("core.verify.lookups_per_round", "count"),
    ("core.pipeline.ingested_per_round", "count"),
    ("gossip.relay.classify_ns", "ns"),
    ("txpool.admit_us", "us"),
    ("ledger.apply_block_us_per_tx", "us"),
    ("net.messages_per_round", "count"),
    ("net.bytes_per_round", "B"),
    ("attribution.unattributed_frac", "ratio"),
    ("baseline.single_node_round_s", "s"),
];

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Everything one run produces.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (transactions sent, or rounds simulated).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (reported with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub layers: Vec<Metric>,
    /// Per-layer figures of this workload alone, printed on their own
    /// line ahead of the result but not in it.
    pub extras: Vec<Metric>,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Run facts printed ahead of the result (host, seed, sample sizes).
    pub facts: Vec<(String, String)>,
    /// Human-readable tables printed ahead of the result.
    pub tables: Vec<String>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a per-layer figure that only this workload has.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check unless the metrics for this mode are
    /// exactly the manifest's list, each in its unit.
    pub fn check_metric_set(&mut self, traced: bool) {
        let (list, want) = if traced {
            (&self.layers, PER_LAYER)
        } else {
            (&self.e2e, END_TO_END)
        };
        let mut got: Vec<(&str, &str)> = list.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        got.sort_unstable();
        let mut want = want.to_vec();
        want.sort_unstable();
        if got != want {
            let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
            let stray: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
            self.problems.push(format!(
                "metrics differ from the manifest: missing {missing:?}, not listed {stray:?}"
            ));
        }
    }

    /// Records a run fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.into(), value.to_string()));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The final JSON line. A run that failed a check reports no numbers.
    pub fn result_line(&self, traced: bool) -> String {
        let correct = self.problems.is_empty();
        let metrics = if !correct {
            String::new()
        } else if traced {
            render(&self.layers)
        } else {
            render(&self.e2e)
        };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }

    /// Workload-only per-layer figures as one JSON object line.
    pub fn extras_line(&self) -> String {
        format!("{{\"workload_layers\": {{{}}}}}", render(&self.extras))
    }

    /// Facts as one JSON object line.
    pub fn facts_line(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"facts\": {{{}}}}}", body.join(", "))
    }
}

/// Metrics as the body of a JSON object: `"name": {"value": v, "unit": u}`.
fn render(list: &[Metric]) -> String {
    let mut out = String::new();
    for (i, m) in list.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out
}

/// A JSON number with every digit kept (non-finite values become null,
/// which the reader rejects rather than misreads).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Renders an attribution table: per-row share of `total`, plus the
/// unattributed remainder.
pub fn attribution_table(title: &str, total: f64, rows: &[(&str, f64)]) -> (String, f64) {
    let mut out = format!("{title}\n");
    let mut covered = 0.0;
    for (name, v) in rows {
        covered += v;
        let _ = writeln!(out, "  {name:<28} {v:>12.4}  {:>6.1}%", 100.0 * v / total);
    }
    let unattributed = ((total - covered) / total).max(0.0);
    let _ = writeln!(
        out,
        "  {:<28} {:>12.4}  {:>6.1}%\n  {:<28} {total:>12.4}",
        "unattributed",
        (total - covered).max(0.0),
        100.0 * unattributed,
        "total"
    );
    (out, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_check_reports_no_numbers() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.e2e("setup_s", 1.25, "s");
        assert!(r
            .result_line(false)
            .contains("\"setup_s\": {\"value\": 1.25"));
        r.check(false, || "digest mismatch".into());
        let line = r.result_line(false);
        assert!(line.contains("\"correct\": false"), "{line}");
        assert!(line.ends_with("\"metrics\": {}}"), "{line}");
    }

    /// (name, unit) of each metric listed under `key` in the manifest.
    fn manifest_metrics(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closed")];
        let field = |entry: &str, name: &str| {
            let at = entry
                .find(&format!("\"{name}\": \""))
                .expect("field present")
                + name.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("field closed")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest_metrics(&text, "end_to_end"), owned(END_TO_END));
        assert_eq!(manifest_metrics(&text, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn metric_set_check_names_the_gap() {
        let mut r = Report::default();
        for (name, unit) in END_TO_END.iter().skip(1) {
            r.e2e(name, 1.0, unit);
        }
        r.e2e("stray", 1.0, "s");
        r.check_metric_set(false);
        assert_eq!(r.problems.len(), 1);
        assert!(r.problems[0].contains("setup_s"), "{}", r.problems[0]);
        assert!(r.problems[0].contains("stray"), "{}", r.problems[0]);
    }

    #[test]
    fn attribution_states_unattributed_share() {
        let (table, rest) = attribution_table("t", 10.0, &[("a", 6.0), ("b", 1.0)]);
        assert!((rest - 0.3).abs() < 1e-9);
        assert!(table.contains("unattributed"));
    }
}
