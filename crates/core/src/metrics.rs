//! The metrics snapshot: the observability plane's data model.
//!
//! Two layers. The live instruments they sample are plain values owned by
//! their subsystem — [`Counter`] (lock-free monotonic, the I/O backends'
//! tallies), [`Gauge`](crate::telemetry::Gauge) (lock-free level +
//! high-watermark, the ring depths) and [`LatencyHistogram`]
//! (single-writer, merged on snapshot):
//!
//! * **[`MetricsSnapshot`]** — a point-in-time, order-canonical set of
//!   samples. Snapshots **merge** exactly (counters and gauge levels add,
//!   gauge watermarks max, histograms add bucket counts), and merging is
//!   commutative and associative, so per-shard snapshots folded in any
//!   order equal one central recording.
//! * **Exporters** — Prometheus text exposition (`to_prometheus`) and JSON
//!   (`to_json`, via `menshen-json`); both std-only. A strict
//!   line-validator ([`validate_prometheus`]) backs the test suite and the
//!   CI smoke job.
//!
//! Naming convention (see README "Observability"): every series is
//! `menshen_<subsystem>_<what>[_total|_ns]`, labeled by `tenant`, `shard`,
//! `dispatcher` or `stage` as applicable.
//!
//! The per-tenant SLO types live here too: [`VerdictLedger`] attributes
//! every packet to a verdict (forwarded, or one of the five
//! [`DropReason`]s), and [`TenantTelemetry`] pairs a ledger with a sojourn
//! histogram. The runtime threads one per tenant through every shard and
//! folds them on snapshot; the conservation audit cross-checks the ledgers
//! against the ingress count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use menshen_json::Json;

use crate::pipeline::{DropReason, Verdict};
use crate::telemetry::{BaselineMismatch, LatencyHistogram};

/// A lock-free monotonically increasing counter.
///
/// The hot paths touch it with relaxed atomics only — it is telemetry, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// Label set type: `(key, value)` pairs, canonically sorted by key.
pub type Labels = Vec<(String, String)>;

/// Builds a canonical (key-sorted) label set from string pairs.
pub fn labels<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Labels {
    let mut out: Labels = pairs
        .into_iter()
        .map(|(k, v)| (k.into(), v.into()))
        .collect();
    out.sort();
    out
}

/// True for a legal Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// True for a legal Prometheus label key: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label_key(key: &str) -> bool {
    let mut chars = key.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value per the Prometheus text exposition rules:
/// backslash, double-quote and newline.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// One sampled value: counter total, gauge level + watermark, or a full
/// (mergeable) histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter total. Merges by addition.
    Counter(u64),
    /// Instantaneous level plus lifetime high-watermark. Levels merge by
    /// addition (occupancies across shards sum); watermarks by max.
    Gauge {
        /// The level at snapshot time.
        value: u64,
        /// The largest level ever observed.
        high_watermark: u64,
    },
    /// A full log-bucketed histogram. Merges bucket-exactly.
    Histogram(LatencyHistogram),
}

impl MetricValue {
    /// The Prometheus `# TYPE` keyword for this value.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(mine), MetricValue::Counter(theirs)) => *mine += *theirs,
            (
                MetricValue::Gauge {
                    value,
                    high_watermark,
                },
                MetricValue::Gauge {
                    value: other_value,
                    high_watermark: other_hwm,
                },
            ) => {
                *value += *other_value;
                *high_watermark = (*high_watermark).max(*other_hwm);
            }
            (MetricValue::Histogram(mine), MetricValue::Histogram(theirs)) => mine.merge(theirs),
            (mine, theirs) => panic!(
                "metric type conflict: cannot merge {} into {}",
                theirs.kind(),
                mine.kind()
            ),
        }
    }
}

/// One series at snapshot time: a name, a canonical label set, a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name (Prometheus-legal, by construction).
    pub name: String,
    /// Canonically sorted label pairs.
    pub labels: Labels,
    /// The sampled value.
    pub value: MetricValue,
}

/// A point-in-time set of metric samples, canonically ordered by
/// `(name, labels)`.
///
/// `merge` is exact, commutative and associative (see the merge rules on
/// [`MetricValue`]), so snapshots taken per shard / per dispatcher fold in
/// any order into the same aggregate, which the property tests pin down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no series were sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in canonical `(name, labels)` order.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Adds a sample, folding it into an existing series with the same
    /// `(name, labels)` identity (same merge rules as [`Self::merge`]).
    ///
    /// # Panics
    /// On a Prometheus-illegal name or label key, or when the series
    /// already exists with a different metric type.
    pub fn push(&mut self, sample: MetricSample) {
        assert!(
            valid_metric_name(&sample.name),
            "illegal metric name {:?}",
            sample.name
        );
        for (key, _) in &sample.labels {
            assert!(valid_label_key(key), "illegal label key {key:?}");
        }
        let probe = self.samples.binary_search_by(|s| {
            (s.name.as_str(), &s.labels).cmp(&(sample.name.as_str(), &sample.labels))
        });
        match probe {
            Ok(found) => self.samples[found].value.merge(&sample.value),
            Err(insert_at) => self.samples.insert(insert_at, sample),
        }
    }

    /// Convenience: adds a counter sample.
    pub fn push_counter(&mut self, name: &str, labels: Labels, value: u64) {
        self.push(MetricSample {
            name: name.to_owned(),
            labels,
            value: MetricValue::Counter(value),
        });
    }

    /// Convenience: adds a gauge sample.
    pub fn push_gauge(&mut self, name: &str, labels: Labels, value: u64, high_watermark: u64) {
        self.push(MetricSample {
            name: name.to_owned(),
            labels,
            value: MetricValue::Gauge {
                value,
                high_watermark,
            },
        });
    }

    /// Convenience: adds a histogram sample.
    pub fn push_histogram(&mut self, name: &str, labels: Labels, histogram: LatencyHistogram) {
        self.push(MetricSample {
            name: name.to_owned(),
            labels,
            value: MetricValue::Histogram(histogram),
        });
    }

    /// Looks up one series by name and (unsorted is fine) labels.
    pub fn get(&self, name: &str, label_pairs: &[(&str, &str)]) -> Option<&MetricValue> {
        let wanted = labels(label_pairs.iter().map(|&(k, v)| (k, v)));
        self.samples
            .binary_search_by(|s| (s.name.as_str(), &s.labels).cmp(&(name, &wanted)))
            .ok()
            .map(|found| &self.samples[found].value)
    }

    /// Folds `other` into `self`, series by series: counters and gauge
    /// levels add, gauge watermarks max, histograms add bucket counts.
    /// Exact, commutative, associative.
    ///
    /// # Panics
    /// When the two snapshots disagree on a series' metric type.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for sample in &other.samples {
            self.push(sample.clone());
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` comment per metric name, label values
    /// escaped, histograms as cumulative `_bucket{le=…}` series at
    /// power-of-two bounds plus `_sum`/`_count`. Deterministic: samples are
    /// already canonically ordered.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for sample in &self.samples {
            if last_name != Some(sample.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", sample.name, sample.value.kind()));
                last_name = Some(sample.name.as_str());
            }
            match &sample.value {
                MetricValue::Counter(value) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        value
                    ));
                }
                MetricValue::Gauge {
                    value,
                    high_watermark,
                } => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        value
                    ));
                    // The watermark rides along as a `peak` label variant of
                    // the same gauge rather than a second metric name, so the
                    // TYPE grouping stays one-name-one-type.
                    out.push_str(&format!(
                        "{}{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, Some(("peak", "true"))),
                        high_watermark
                    ));
                }
                MetricValue::Histogram(histogram) => {
                    for (bound, count_le) in histogram.cumulative_octaves() {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            sample.name,
                            render_labels(&sample.labels, Some(("le", &bound.to_string()))),
                            count_le
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, Some(("le", "+Inf"))),
                        histogram.count()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        histogram.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        histogram.count()
                    ));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document: an array of series objects
    /// under `"metrics"`. Counters carry `value`; gauges `value` and
    /// `high_watermark`; histograms count/min/mean/max plus the
    /// [`REPORTED_QUANTILES`](crate::telemetry::REPORTED_QUANTILES) set.
    pub fn to_json(&self) -> Json {
        let series: Vec<Json> = self
            .samples
            .iter()
            .map(|sample| {
                let mut obj = Json::obj([
                    ("name", Json::from(sample.name.as_str())),
                    ("type", Json::from(sample.value.kind())),
                    (
                        "labels",
                        Json::obj(
                            sample
                                .labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                        ),
                    ),
                ]);
                match &sample.value {
                    MetricValue::Counter(value) => obj.set("value", Json::from(*value)),
                    MetricValue::Gauge {
                        value,
                        high_watermark,
                    } => {
                        obj.set("value", Json::from(*value));
                        obj.set("high_watermark", Json::from(*high_watermark));
                    }
                    MetricValue::Histogram(histogram) => {
                        let p = histogram.percentiles();
                        obj.set("count", Json::from(p.count));
                        obj.set("min_ns", Json::from(p.min_ns));
                        obj.set("mean_ns", Json::from(p.mean_ns));
                        for (_, label, value) in p.reported() {
                            obj.set(label, Json::from(value));
                        }
                        obj.set("max_ns", Json::from(p.max_ns));
                    }
                }
                obj
            })
            .collect();
        Json::obj([("metrics", Json::Arr(series))])
    }
}

/// Renders `{k="v",…}` with optional one extra pair, or the empty string
/// when there are no labels at all.
fn render_labels(label_set: &Labels, extra: Option<(&str, &str)>) -> String {
    if label_set.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = label_set
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Strictly validates a Prometheus text exposition: every line is a
/// well-formed comment or sample, label values are correctly escaped, every
/// metric name has exactly one `# TYPE`, and no `(name, labels)` series
/// appears twice. Returns the number of sample lines.
///
/// This is the checker the unit tests, the CI observability smoke and the
/// bench assertions share — intentionally stricter than a scraper needs to
/// be.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_series: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (line_no, line) in text.lines().enumerate() {
        let describe = |msg: &str| format!("line {}: {msg}: {line:?}", line_no + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            match words.next() {
                Some("TYPE") => {
                    let name = words.next().ok_or_else(|| describe("TYPE without name"))?;
                    let kind = words.next().ok_or_else(|| describe("TYPE without kind"))?;
                    if !valid_metric_name(name) {
                        return Err(describe("illegal metric name in TYPE"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(describe("unknown TYPE kind"));
                    }
                    if typed.insert(name.to_owned(), kind.to_owned()).is_some() {
                        return Err(describe("duplicate TYPE for metric"));
                    }
                }
                Some("HELP") => {}
                _ => return Err(describe("unknown comment (only # TYPE / # HELP)")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| describe("sample without value"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(describe("illegal metric name"));
        }
        let rest = &line[name_end..];
        let (label_text, value_text) = if let Some(body) = rest.strip_prefix('{') {
            let close = find_label_close(body).ok_or_else(|| describe("unterminated labels"))?;
            (&body[..close], body[close + 1..].trim_start())
        } else {
            ("", rest.trim_start())
        };
        let parsed = parse_label_pairs(label_text).map_err(|e| describe(&e))?;
        if value_text.is_empty() {
            return Err(describe("missing value"));
        }
        if value_text != "+Inf"
            && value_text != "-Inf"
            && value_text != "NaN"
            && value_text.parse::<f64>().is_err()
        {
            return Err(describe("unparseable value"));
        }
        let series_key = format!("{name}|{parsed:?}");
        if seen_series.contains(&series_key) {
            return Err(describe("duplicate series"));
        }
        seen_series.push(series_key);
        samples += 1;
    }
    Ok(samples)
}

/// Index of the unescaped closing `}` in a label body.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (index, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(index),
            _ => {}
        }
    }
    None
}

/// Parses `k="v",k2="v2"` (escapes honoured) into sorted pairs.
fn parse_label_pairs(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = &rest[..eq];
        if !valid_label_key(key) {
            return Err(format!("illegal label key {key:?}"));
        }
        let after = &rest[eq + 1..];
        let body = after.strip_prefix('"').ok_or("label value not quoted")?;
        let mut value = String::new();
        let mut escaped = false;
        let mut end = None;
        for (index, c) in body.char_indices() {
            if escaped {
                match c {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("bad escape \\{other}")),
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(index);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        pairs.push((key.to_owned(), value));
        rest = &body[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err("junk after label value".to_owned());
        }
    }
    pairs.sort();
    Ok(pairs)
}

/// Attributes every packet a tenant offered to exactly one outcome:
/// forwarded, one of the five [`DropReason`]s, or a backpressure shed. The
/// conservation audit cross-checks `total()` against the runtime's ingress
/// count — a packet the ledger never saw is a packet the runtime lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictLedger {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Dropped: no VLAN tag, so no module ID.
    pub dropped_no_vlan: u64,
    /// Dropped: VLAN maps to no loaded module.
    pub dropped_unknown_module: u64,
    /// Dropped: the module was being reconfigured.
    pub dropped_reconfiguring: u64,
    /// Dropped: the module's program executed `discard`.
    pub dropped_module_discard: u64,
    /// Dropped: reconfiguration traffic on the untrusted path.
    pub dropped_untrusted_reconfig: u64,
    /// Shed before processing: this tenant's submission could not be queued
    /// within the bounded wait (its shard's ring stayed full), so the packet
    /// was dropped at ingress instead of head-of-line-blocking other
    /// tenants. The overloaded tenant pays for its own overload.
    pub dropped_backpressure: u64,
}

impl VerdictLedger {
    /// Attributes one verdict.
    pub fn record(&mut self, verdict: &Verdict) {
        match verdict {
            Verdict::Forwarded { .. } => self.forwarded += 1,
            Verdict::Dropped { reason, .. } => self.record_drop(*reason),
        }
    }

    /// Attributes one drop by reason.
    pub fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::NoVlan => self.dropped_no_vlan += 1,
            DropReason::UnknownModule => self.dropped_unknown_module += 1,
            DropReason::BeingReconfigured => self.dropped_reconfiguring += 1,
            DropReason::ModuleDiscard => self.dropped_module_discard += 1,
            DropReason::UntrustedReconfiguration => self.dropped_untrusted_reconfig += 1,
        }
    }

    /// Attributes `count` packets shed at submission because the tenant's
    /// ring stayed full past the bounded wait.
    pub fn record_backpressure(&mut self, count: u64) {
        self.dropped_backpressure += count;
    }

    /// Total drops, all reasons (backpressure sheds included).
    pub fn dropped(&self) -> u64 {
        self.dropped_no_vlan
            + self.dropped_unknown_module
            + self.dropped_reconfiguring
            + self.dropped_module_discard
            + self.dropped_untrusted_reconfig
            + self.dropped_backpressure
    }

    /// Every packet the ledger attributed (forwarded + dropped).
    pub fn total(&self) -> u64 {
        self.forwarded + self.dropped()
    }

    /// Folds another ledger in (exact).
    pub fn add(&mut self, other: &VerdictLedger) {
        self.forwarded += other.forwarded;
        self.dropped_no_vlan += other.dropped_no_vlan;
        self.dropped_unknown_module += other.dropped_unknown_module;
        self.dropped_reconfiguring += other.dropped_reconfiguring;
        self.dropped_module_discard += other.dropped_module_discard;
        self.dropped_untrusted_reconfig += other.dropped_untrusted_reconfig;
        self.dropped_backpressure += other.dropped_backpressure;
    }

    /// `self − baseline`, or `None` when `baseline` is not an earlier
    /// snapshot of this ledger (some field would go negative).
    pub fn subtracting(&self, baseline: &VerdictLedger) -> Option<VerdictLedger> {
        let sub = |a: u64, b: u64| a.checked_sub(b);
        Some(VerdictLedger {
            forwarded: sub(self.forwarded, baseline.forwarded)?,
            dropped_no_vlan: sub(self.dropped_no_vlan, baseline.dropped_no_vlan)?,
            dropped_unknown_module: sub(
                self.dropped_unknown_module,
                baseline.dropped_unknown_module,
            )?,
            dropped_reconfiguring: sub(self.dropped_reconfiguring, baseline.dropped_reconfiguring)?,
            dropped_module_discard: sub(
                self.dropped_module_discard,
                baseline.dropped_module_discard,
            )?,
            dropped_untrusted_reconfig: sub(
                self.dropped_untrusted_reconfig,
                baseline.dropped_untrusted_reconfig,
            )?,
            dropped_backpressure: sub(self.dropped_backpressure, baseline.dropped_backpressure)?,
        })
    }

    /// The drop counts paired with their metric label values, in a fixed
    /// order — what the exporters iterate.
    pub fn drop_reasons(&self) -> [(&'static str, u64); 6] {
        [
            ("no_vlan", self.dropped_no_vlan),
            ("unknown_module", self.dropped_unknown_module),
            ("reconfiguring", self.dropped_reconfiguring),
            ("module_discard", self.dropped_module_discard),
            ("untrusted_reconfig", self.dropped_untrusted_reconfig),
            ("backpressure", self.dropped_backpressure),
        ]
    }
}

/// One tenant's SLO view: a sojourn histogram (ingress-to-verdict
/// nanoseconds, forwarded *and* dropped packets both count — a tenant's
/// experience includes its drops) plus the verdict ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantTelemetry {
    /// Ingress-to-verdict sojourn per packet.
    pub sojourn_ns: LatencyHistogram,
    /// Where every packet went.
    pub ledger: VerdictLedger,
}

impl TenantTelemetry {
    /// Records one packet's outcome and sojourn.
    pub fn record(&mut self, verdict: &Verdict, sojourn_ns: u64) {
        self.ledger.record(verdict);
        self.sojourn_ns.record(sojourn_ns);
    }

    /// Folds another tenant view in (exact — bucket addition plus ledger
    /// addition), so per-shard views merge into the tenant's global view.
    pub fn merge(&mut self, other: &TenantTelemetry) {
        self.ledger.add(&other.ledger);
        self.sojourn_ns.merge(&other.sojourn_ns);
    }

    /// `self − baseline` for measuring one run on a reused runtime; errors
    /// when the baseline is not a prefix of this stream.
    pub fn subtracting(
        &self,
        baseline: &TenantTelemetry,
    ) -> Result<TenantTelemetry, BaselineMismatch> {
        let ledger = self
            .ledger
            .subtracting(&baseline.ledger)
            .ok_or(BaselineMismatch {
                bucket: None,
                current: self.ledger.total(),
                baseline: baseline.ledger.total(),
            })?;
        Ok(TenantTelemetry {
            sojourn_ns: self.sojourn_ns.subtracting(&baseline.sojourn_ns)?,
            ledger,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(seed: u64) -> MetricsSnapshot {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut snap = MetricsSnapshot::new();
        for tenant in 0..rng.gen_range(1..5u32) {
            snap.push_counter(
                "menshen_tenant_forwarded_total",
                labels([("tenant", tenant.to_string())]),
                rng.gen_range(0..1_000_000),
            );
        }
        for shard in 0..rng.gen_range(1..4u32) {
            let value = rng.gen_range(0u64..64);
            snap.push_gauge(
                "menshen_ring_occupancy",
                labels([("shard", shard.to_string())]),
                value,
                value + rng.gen_range(0u64..64),
            );
            let mut h = LatencyHistogram::new();
            for _ in 0..rng.gen_range(1..500) {
                h.record(rng.gen_range(50..5_000_000));
            }
            snap.push_histogram(
                "menshen_shard_sojourn_ns",
                labels([("shard", shard.to_string())]),
                h,
            );
        }
        snap
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        for seed in 1u64..=6 {
            let a = sample_snapshot(seed);
            let b = sample_snapshot(seed + 100);
            let c = sample_snapshot(seed + 200);

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "seed {seed}: commutativity");

            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "seed {seed}: associativity");

            // Identity: merging an empty snapshot changes nothing.
            let mut with_empty = a.clone();
            with_empty.merge(&MetricsSnapshot::new());
            assert_eq!(with_empty, a, "seed {seed}: identity");
        }
    }

    #[test]
    fn merge_sums_counters_and_levels_maxes_watermarks() {
        let mut a = MetricsSnapshot::new();
        a.push_counter("pkts_total", labels([("tenant", "1")]), 10);
        a.push_gauge("depth", labels([("shard", "0")]), 3, 9);
        let mut b = MetricsSnapshot::new();
        b.push_counter("pkts_total", labels([("tenant", "1")]), 32);
        b.push_counter("pkts_total", labels([("tenant", "2")]), 7);
        b.push_gauge("depth", labels([("shard", "0")]), 4, 5);
        a.merge(&b);
        assert_eq!(
            a.get("pkts_total", &[("tenant", "1")]),
            Some(&MetricValue::Counter(42))
        );
        assert_eq!(
            a.get("pkts_total", &[("tenant", "2")]),
            Some(&MetricValue::Counter(7))
        );
        assert_eq!(
            a.get("depth", &[("shard", "0")]),
            Some(&MetricValue::Gauge {
                value: 7,
                high_watermark: 9
            })
        );
        assert_eq!(a.get("depth", &[("shard", "1")]), None);
    }

    #[test]
    #[should_panic(expected = "metric type conflict")]
    fn merging_mismatched_types_panics() {
        let mut a = MetricsSnapshot::new();
        a.push_counter("x", Vec::new(), 1);
        a.push_gauge("x", Vec::new(), 1, 1);
    }

    #[test]
    fn prometheus_output_validates_line_by_line() {
        for seed in 1u64..=4 {
            let snap = sample_snapshot(seed);
            let text = snap.to_prometheus();
            let samples = validate_prometheus(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: invalid exposition: {e}\n{text}"));
            assert!(samples >= snap.len(), "every series appears at least once");
        }
    }

    #[test]
    fn prometheus_escapes_label_values_and_forbids_duplicates() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("odd_labels_total", labels([("path", "a\\b\"c\nd")]), 1);
        let text = snap.to_prometheus();
        assert!(
            text.contains(r#"path="a\\b\"c\nd""#),
            "escaped exposition, got: {text}"
        );
        assert_eq!(validate_prometheus(&text), Ok(1));

        // The validator really rejects duplicate series…
        let dup = "# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n";
        assert!(validate_prometheus(dup)
            .unwrap_err()
            .contains("duplicate series"));
        // …and duplicate TYPE lines.
        let dup_type = "# TYPE x counter\n# TYPE x counter\n";
        assert!(validate_prometheus(dup_type)
            .unwrap_err()
            .contains("duplicate TYPE"));
        // …and garbage.
        assert!(validate_prometheus("x{a=1} 5\n").is_err());
        assert!(validate_prometheus("x nope\n").is_err());
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_complete() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 100, 100, 5_000, 1_000_000] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::new();
        snap.push_histogram("sojourn_ns", labels([("tenant", "1")]), h.clone());
        let text = snap.to_prometheus();
        assert!(validate_prometheus(&text).is_ok(), "{text}");
        assert!(text.contains("# TYPE sojourn_ns histogram"));
        assert!(text.contains(r#"sojourn_ns_bucket{tenant="1",le="+Inf"} 5"#));
        assert!(text.contains(r#"sojourn_ns_count{tenant="1"} 5"#));
        assert!(text.contains(&format!(
            "sojourn_ns_sum{{tenant=\"1\"}} {}",
            3 + 100 + 100 + 5_000 + 1_000_000
        )));
        // Bucket counts are cumulative and end at the total.
        let octaves = h.cumulative_octaves();
        assert!(octaves
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        assert_eq!(octaves.last().unwrap().1, 5);
        assert!(octaves.last().unwrap().0 >= 1_000_000);
    }

    #[test]
    fn json_export_parses_and_reports_quantile_convention() {
        let snap = sample_snapshot(3);
        let text = snap.to_json().pretty();
        let parsed = Json::parse(&text).expect("self-produced JSON parses");
        let metrics = match parsed.get("metrics") {
            Some(Json::Arr(items)) => items,
            other => panic!("metrics array missing: {other:?}"),
        };
        assert_eq!(metrics.len(), snap.len());
        for metric in metrics {
            assert!(metric.get("name").is_some());
            if let Some(Json::Str(kind)) = metric.get("type") {
                if kind == "histogram" {
                    for (_, label) in crate::telemetry::REPORTED_QUANTILES {
                        assert!(metric.get(label).is_some(), "missing {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn ledger_attributes_every_reason_and_subtracts() {
        let mut ledger = VerdictLedger::default();
        ledger.record(&Verdict::Dropped {
            reason: DropReason::NoVlan,
            module_id: None,
        });
        ledger.record_drop(DropReason::ModuleDiscard);
        ledger.record_drop(DropReason::UnknownModule);
        ledger.record_drop(DropReason::BeingReconfigured);
        ledger.record_drop(DropReason::UntrustedReconfiguration);
        ledger.record_backpressure(1);
        assert_eq!(ledger.dropped(), 6);
        assert_eq!(ledger.forwarded, 0);
        assert_eq!(ledger.total(), 6);
        let reasons = ledger.drop_reasons();
        assert_eq!(reasons.iter().map(|(_, n)| n).sum::<u64>(), 6);
        assert!(reasons.iter().all(|(_, n)| *n == 1));

        let baseline = ledger;
        let mut later = ledger;
        later.record_drop(DropReason::ModuleDiscard);
        let delta = later.subtracting(&baseline).unwrap();
        assert_eq!(delta.dropped_module_discard, 1);
        assert_eq!(delta.total(), 1);
        assert_eq!(
            baseline.subtracting(&later),
            None,
            "negative delta detected"
        );
    }

    #[test]
    fn tenant_telemetry_merges_like_central_recording() {
        let mut shard_a = TenantTelemetry::default();
        let mut shard_b = TenantTelemetry::default();
        let mut central = TenantTelemetry::default();
        for i in 0..1000u64 {
            let verdict = if i % 10 == 0 {
                Verdict::Dropped {
                    reason: DropReason::ModuleDiscard,
                    module_id: Some(7),
                }
            } else {
                Verdict::Dropped {
                    reason: DropReason::NoVlan,
                    module_id: None,
                }
            };
            let sojourn = 100 + (i * 37) % 50_000;
            if i % 2 == 0 {
                shard_a.record(&verdict, sojourn);
            } else {
                shard_b.record(&verdict, sojourn);
            }
            central.record(&verdict, sojourn);
        }
        let mut merged = shard_a.clone();
        merged.merge(&shard_b);
        assert_eq!(merged, central);
        assert_eq!(merged.ledger.total(), 1000);
        assert_eq!(merged.sojourn_ns.count(), 1000);

        // Baseline subtraction recovers the other shard's view: ledger
        // exactly, histogram bucket-exactly.
        let delta = central.subtracting(&shard_a).unwrap();
        assert_eq!(delta.ledger, shard_b.ledger);
        assert_eq!(delta.sojourn_ns.count(), shard_b.sojourn_ns.count());
        for q in [0.5, 0.99] {
            assert_eq!(delta.sojourn_ns.quantile(q), shard_b.sojourn_ns.quantile(q));
        }
    }
}
