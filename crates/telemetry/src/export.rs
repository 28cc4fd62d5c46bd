//! Snapshot exporters: Prometheus text exposition, JSON, and a
//! human-readable interval report.
//!
//! The Prometheus module also ships a small validating parser
//! ([`prometheus::parse`]) so tests (and debugging sessions) can check
//! that rendered output is well-formed and round-trips losslessly.

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricSample, MetricValue, Snapshot};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        // Rust's shortest round-trip formatting; re-parses to the same bits.
        format!("{v}")
    }
}

/// `name{k="v",...}`, or the bare name of an unlabeled series.
fn render_series(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prometheus::escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{name}{{{body}}}")
}

/// Prometheus text exposition format (version 0.0.4).
pub mod prometheus {
    use super::*;

    /// Escapes a label value per the exposition format: backslash,
    /// double quote, and newline must be backslash-escaped.
    pub fn escape_label_value(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }

    /// Renders a snapshot in Prometheus text exposition format.
    ///
    /// Samples sharing a name are one metric family: the family gets one
    /// `# HELP` and one `# TYPE` (from its first sample), followed by
    /// every series of the family, so a labeled counter with one series
    /// per tenant is exported as a single family.
    // `fmt::Write` into a `String` cannot fail.
    #[allow(clippy::unwrap_used)]
    pub fn render(snapshot: &Snapshot) -> String {
        let mut families: BTreeMap<&str, Vec<&MetricSample>> = BTreeMap::new();
        for sample in &snapshot.samples {
            families.entry(&sample.name).or_default().push(sample);
        }
        let mut out = String::new();
        for (name, samples) in families {
            let first = samples[0];
            let kind = match first.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            writeln!(out, "# HELP {name} {}", first.help.replace('\n', " ")).unwrap();
            writeln!(out, "# TYPE {name} {kind}").unwrap();
            for sample in samples {
                let series = render_series(name, &sample.labels);
                match &sample.value {
                    MetricValue::Counter(v) => writeln!(out, "{series} {v}").unwrap(),
                    MetricValue::Gauge(v) => writeln!(out, "{series} {}", fmt_f64(*v)).unwrap(),
                    MetricValue::Histogram(h) => {
                        for (bound, cum) in h.bounds.iter().zip(h.cumulative()) {
                            writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_f64(*bound))
                                .unwrap();
                        }
                        writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count).unwrap();
                        writeln!(out, "{name}_sum {}", fmt_f64(h.sum)).unwrap();
                        writeln!(out, "{name}_count {}", h.count).unwrap();
                    }
                }
            }
        }
        out
    }

    /// Parses Prometheus text exposition back into a [`Snapshot`].
    ///
    /// Validates the structure this crate emits: every sample line must
    /// be covered by a preceding `# TYPE`, a family has one `# TYPE`
    /// (its labeled series all follow it, each label set once),
    /// histogram series must be complete (`_bucket` cumulative and
    /// ascending, `+Inf` equal to `_count`), and values must parse.
    /// Returns a description of the first problem found.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut samples: Vec<MetricSample> = Vec::new();
        let mut help: Option<(String, String)> = None;
        let mut current: Option<PendingMetric> = None;
        let mut typed: HashSet<String> = HashSet::new();

        for (lineno, line) in text.lines().enumerate() {
            let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, text) = rest
                    .split_once(' ')
                    .map(|(n, h)| (n.to_string(), h.to_string()))
                    .unwrap_or_else(|| (rest.to_string(), String::new()));
                help = Some((name, text));
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').ok_or_else(|| err("bad TYPE line"))?;
                if !typed.insert(name.to_string()) {
                    return Err(err("second TYPE for a family already typed"));
                }
                if let Some(done) = current.take() {
                    samples.extend(done.finish()?);
                }
                let help_text = match &help {
                    Some((n, h)) if n == name => h.clone(),
                    _ => String::new(),
                };
                current = Some(PendingMetric::new(name, kind, help_text, &err)?);
                continue;
            }
            if line.starts_with('#') {
                continue; // comment
            }
            let (series, value) = line.rsplit_once(' ').ok_or_else(|| err("bad sample"))?;
            let pending = current.as_mut().ok_or_else(|| err("sample before TYPE"))?;
            pending.accept(series, value, &err)?;
        }
        if let Some(done) = current.take() {
            samples.extend(done.finish()?);
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Ok(Snapshot { samples })
    }

    /// Parses the interior of a `{...}` label set, unescaping values.
    fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
        let mut labels = Vec::new();
        let mut chars = body.chars().peekable();
        loop {
            let mut key = String::new();
            for c in chars.by_ref() {
                if c == '=' {
                    break;
                }
                key.push(c);
            }
            if key.is_empty() {
                return Err("empty label name".to_string());
            }
            if !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("bad label name {key:?}"));
            }
            if chars.next() != Some('"') {
                return Err(format!("label {key:?} value must be quoted"));
            }
            let mut value = String::new();
            let mut closed = false;
            while let Some(c) = chars.next() {
                match c {
                    '"' => {
                        closed = true;
                        break;
                    }
                    '\\' => match chars.next() {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => return Err(format!("bad escape {other:?} in label {key:?}")),
                    },
                    c => value.push(c),
                }
            }
            if !closed {
                return Err(format!("unterminated value for label {key:?}"));
            }
            labels.push((key, value));
            match chars.next() {
                None => return Ok(labels),
                Some(',') => continue,
                Some(c) => return Err(format!("unexpected {c:?} after label value")),
            }
        }
    }

    /// Parsed labels of one series: `(key, value)` pairs in input order.
    type ParsedLabels = Vec<(String, String)>;

    /// Splits a sample series into `(name, labels)`.
    fn parse_series(series: &str) -> Result<(&str, ParsedLabels), String> {
        match series.split_once('{') {
            None => Ok((series, Vec::new())),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unterminated label set in {series:?}"))?;
                Ok((name, parse_labels(body)?))
            }
        }
    }

    fn parse_value(text: &str) -> Result<f64, String> {
        match text {
            "+Inf" => Ok(f64::INFINITY),
            "-Inf" => Ok(f64::NEG_INFINITY),
            "NaN" => Ok(f64::NAN),
            other => other
                .parse::<f64>()
                .map_err(|e| format!("bad value {other:?}: {e}")),
        }
    }

    /// The labels of `series`, a sample line of the counter or gauge
    /// family `family`, unless the line names another metric or repeats
    /// a label set the family already has.
    fn new_series<T>(
        family: &str,
        series: &str,
        seen: &[(T, ParsedLabels)],
        err: &dyn Fn(&str) -> String,
    ) -> Result<ParsedLabels, String> {
        let (name, labels) = parse_series(series).map_err(|e| err(&e))?;
        if name != family {
            return Err(err(&format!("sample outside the {family} family")));
        }
        if seen.iter().any(|(_, l)| *l == labels) {
            return Err(err("duplicate series in one family"));
        }
        Ok(labels)
    }

    enum PendingKind {
        /// One `(value, labels)` entry per series of the family.
        Counter(Vec<(u64, ParsedLabels)>),
        Gauge(Vec<(f64, ParsedLabels)>),
        Histogram {
            bounds: Vec<f64>,
            cumulative: Vec<u64>,
            inf: Option<u64>,
            sum: Option<f64>,
            count: Option<u64>,
        },
    }

    struct PendingMetric {
        name: String,
        help: String,
        kind: PendingKind,
    }

    impl PendingMetric {
        fn new(
            name: &str,
            kind: &str,
            help: String,
            err: &dyn Fn(&str) -> String,
        ) -> Result<Self, String> {
            let kind = match kind {
                "counter" => PendingKind::Counter(Vec::new()),
                "gauge" => PendingKind::Gauge(Vec::new()),
                "histogram" => PendingKind::Histogram {
                    bounds: Vec::new(),
                    cumulative: Vec::new(),
                    inf: None,
                    sum: None,
                    count: None,
                },
                other => return Err(err(&format!("unknown metric type {other:?}"))),
            };
            Ok(PendingMetric {
                name: name.to_string(),
                help,
                kind,
            })
        }

        fn accept(
            &mut self,
            series: &str,
            value: &str,
            err: &dyn Fn(&str) -> String,
        ) -> Result<(), String> {
            match &mut self.kind {
                PendingKind::Counter(series_seen) => {
                    let labels = new_series(&self.name, series, series_seen, err)?;
                    let v = value
                        .parse::<u64>()
                        .map_err(|e| err(&format!("counter must be a u64: {e}")))?;
                    series_seen.push((v, labels));
                }
                PendingKind::Gauge(series_seen) => {
                    let labels = new_series(&self.name, series, series_seen, err)?;
                    let v = parse_value(value).map_err(|e| err(&e))?;
                    series_seen.push((v, labels));
                }
                PendingKind::Histogram {
                    bounds,
                    cumulative,
                    inf,
                    sum,
                    count,
                } => {
                    let bucket_prefix = format!("{}_bucket{{le=\"", self.name);
                    if let Some(rest) = series.strip_prefix(&bucket_prefix) {
                        let le = rest
                            .strip_suffix("\"}")
                            .ok_or_else(|| err("malformed bucket label"))?;
                        let n = value
                            .parse::<u64>()
                            .map_err(|e| err(&format!("bucket count must be a u64: {e}")))?;
                        if le == "+Inf" {
                            *inf = Some(n);
                        } else {
                            let bound = parse_value(le).map_err(|e| err(&e))?;
                            if let Some(&prev) = bounds.last() {
                                if bound <= prev {
                                    return Err(err("bucket bounds must ascend"));
                                }
                            }
                            if let Some(&prev) = cumulative.last() {
                                if n < prev {
                                    return Err(err("bucket counts must be cumulative"));
                                }
                            }
                            bounds.push(bound);
                            cumulative.push(n);
                        }
                    } else if series == format!("{}_sum", self.name) {
                        *sum = Some(parse_value(value).map_err(|e| err(&e))?);
                    } else if series == format!("{}_count", self.name) {
                        *count = Some(
                            value
                                .parse::<u64>()
                                .map_err(|e| err(&format!("count must be a u64: {e}")))?,
                        );
                    } else {
                        return Err(err("unexpected histogram series"));
                    }
                }
            }
            Ok(())
        }

        /// The family's samples, one per series.
        fn finish(self) -> Result<Vec<MetricSample>, String> {
            let Self { name, help, kind } = self;
            let series: Vec<(ParsedLabels, MetricValue)> = match kind {
                PendingKind::Counter(series) => series
                    .into_iter()
                    .map(|(v, labels)| (labels, MetricValue::Counter(v)))
                    .collect(),
                PendingKind::Gauge(series) => series
                    .into_iter()
                    .map(|(v, labels)| (labels, MetricValue::Gauge(v)))
                    .collect(),
                PendingKind::Histogram {
                    bounds,
                    cumulative,
                    inf,
                    sum,
                    count,
                } => {
                    let count = count.ok_or_else(|| format!("histogram {name} missing _count"))?;
                    let sum = sum.ok_or_else(|| format!("histogram {name} missing _sum"))?;
                    let inf = inf.ok_or_else(|| format!("histogram {name} missing +Inf bucket"))?;
                    if inf != count {
                        return Err(format!(
                            "histogram {name}: +Inf bucket {inf} != count {count}"
                        ));
                    }
                    if let Some(&last) = cumulative.last() {
                        if last > count {
                            return Err(format!(
                                "histogram {name}: cumulative bucket exceeds count"
                            ));
                        }
                    }
                    // De-cumulate back to per-bucket counts.
                    let mut counts = Vec::with_capacity(cumulative.len());
                    let mut prev = 0;
                    for c in cumulative {
                        counts.push(c - prev);
                        prev = c;
                    }
                    let histogram = HistogramSnapshot {
                        bounds,
                        counts,
                        count,
                        sum,
                    };
                    vec![(Vec::new(), MetricValue::Histogram(histogram))]
                }
            };
            if series.is_empty() {
                return Err(format!("{name} has a TYPE but no sample"));
            }
            Ok(series
                .into_iter()
                .map(|(labels, value)| MetricSample {
                    name: name.clone(),
                    help: help.clone(),
                    labels,
                    value,
                })
                .collect())
        }
    }
}

/// JSON export (hand-rendered; the telemetry crate is std-only).
pub mod json {
    use super::*;

    // `fmt::Write` into a `String` cannot fail.
    #[allow(clippy::unwrap_used)]
    fn escape(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).unwrap();
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn json_num(v: f64) -> String {
        if v.is_finite() {
            let s = format!("{v}");
            if s.contains(['.', 'e', 'E']) {
                s
            } else {
                format!("{s}.0")
            }
        } else {
            // JSON has no Inf/NaN; export as null.
            "null".to_string()
        }
    }

    /// Renders a snapshot as a JSON document:
    /// `{"metrics": [{"name", "help", "type", ...}, ...]}`.
    // `fmt::Write` into a `String` cannot fail.
    #[allow(clippy::unwrap_used)]
    pub fn render(snapshot: &Snapshot) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, sample) in snapshot.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape(&sample.name, &mut out);
            out.push_str(",\"help\":");
            escape(&sample.help, &mut out);
            if !sample.labels.is_empty() {
                out.push_str(",\"labels\":{");
                for (j, (k, v)) in sample.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    escape(k, &mut out);
                    out.push(':');
                    escape(v, &mut out);
                }
                out.push('}');
            }
            match &sample.value {
                MetricValue::Counter(v) => {
                    write!(out, ",\"type\":\"counter\",\"value\":{v}").unwrap();
                }
                MetricValue::Gauge(v) => {
                    write!(out, ",\"type\":\"gauge\",\"value\":{}", json_num(*v)).unwrap();
                }
                MetricValue::Histogram(h) => {
                    out.push_str(",\"type\":\"histogram\",\"bounds\":[");
                    for (j, b) in h.bounds.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_num(*b));
                    }
                    out.push_str("],\"counts\":[");
                    for (j, c) in h.counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        write!(out, "{c}").unwrap();
                    }
                    write!(out, "],\"count\":{},\"sum\":{}", h.count, json_num(h.sum)).unwrap();
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Human-readable interval reports for live `--metrics-interval` output.
pub mod human {
    use super::*;

    /// Renders a snapshot as an aligned text block. When `previous` is
    /// given along with the elapsed trace seconds since it was taken,
    /// counters additionally show their delta and rate over the
    /// interval.
    // `fmt::Write` into a `String` cannot fail.
    #[allow(clippy::unwrap_used)]
    pub fn render(snapshot: &Snapshot, previous: Option<(&Snapshot, f64)>) -> String {
        let series: Vec<String> = snapshot
            .samples
            .iter()
            .map(|s| render_series(&s.name, &s.labels))
            .collect();
        let width = series.iter().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (sample, series) in snapshot.samples.iter().zip(&series) {
            match &sample.value {
                MetricValue::Counter(v) => {
                    write!(out, "{series:<width$} {v}").unwrap();
                    if let Some((prev, elapsed)) = previous {
                        let same = prev
                            .samples
                            .iter()
                            .find(|p| p.name == sample.name && p.labels == sample.labels);
                        if let Some(&MetricValue::Counter(p)) = same.map(|p| &p.value) {
                            let delta = v.saturating_sub(p);
                            write!(out, "  (+{delta}").unwrap();
                            if elapsed > 0.0 {
                                write!(out, ", {:.1}/s", delta as f64 / elapsed).unwrap();
                            }
                            out.push(')');
                        }
                    }
                    out.push('\n');
                }
                MetricValue::Gauge(v) => {
                    writeln!(out, "{series:<width$} {}", fmt_f64(*v)).unwrap();
                }
                MetricValue::Histogram(h) => {
                    let mean = if h.count > 0 {
                        h.sum / h.count as f64
                    } else {
                        0.0
                    };
                    write!(
                        out,
                        "{series:<width$} count={} sum={} mean={}",
                        h.count,
                        fmt_f64(h.sum),
                        fmt_f64(mean)
                    )
                    .unwrap();
                    // Quantile summary (bucket-upper-bound estimates).
                    if let (Some(p50), Some(p90), Some(p99)) =
                        (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99))
                    {
                        write!(
                            out,
                            "  p50<={} p90<={} p99<={}",
                            fmt_f64(p50),
                            fmt_f64(p90),
                            fmt_f64(p99)
                        )
                        .unwrap();
                    }
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let registry = Registry::new();
        registry
            .counter("upbound_test_packets_total", "Packets seen")
            .add(12345);
        registry
            .gauge("upbound_test_drop_probability", "Live P_d")
            .set(0.375);
        let h = registry.latency("upbound_test_delay_seconds", "Delays");
        // The last one lies past the largest finite bound (2^38 ns).
        for nanos in [500, 2_000, 50_000, 300_000_000_000] {
            h.record_nanos(nanos);
        }
        registry
    }

    #[test]
    fn prometheus_round_trips() {
        let snapshot = sample_registry().snapshot();
        let text = prometheus::render(&snapshot);
        let parsed = prometheus::parse(&text).expect("rendered output parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn prometheus_text_shape() {
        let text = prometheus::render(&sample_registry().snapshot());
        assert!(text.contains("# TYPE upbound_test_packets_total counter"));
        assert!(text.contains("upbound_test_packets_total 12345"));
        assert!(text.contains("# TYPE upbound_test_drop_probability gauge"));
        assert!(text.contains("upbound_test_drop_probability 0.375"));
        // 500 ns and 2 µs lie under 2^12 ns; 300 s only under +Inf.
        let bucket = |exp: u32, cumulative: u64| {
            let le = fmt_f64((1u64 << exp) as f64 * 1e-9);
            format!("upbound_test_delay_seconds_bucket{{le=\"{le}\"}} {cumulative}\n")
        };
        assert!(text.contains(&bucket(12, 2)));
        assert!(text.contains(&bucket(38, 3)));
        assert!(text.contains("upbound_test_delay_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("upbound_test_delay_seconds_count 4"));
    }

    #[test]
    fn parser_rejects_malformed_histograms() {
        let bad = "\
# TYPE upbound_x histogram
upbound_x_bucket{le=\"1\"} 5
upbound_x_bucket{le=\"2\"} 3
upbound_x_bucket{le=\"+Inf\"} 5
upbound_x_sum 1.0
upbound_x_count 5
";
        let e = prometheus::parse(bad).unwrap_err();
        assert!(e.contains("cumulative"), "{e}");

        let bad_inf = "\
# TYPE upbound_y histogram
upbound_y_bucket{le=\"1\"} 2
upbound_y_bucket{le=\"+Inf\"} 3
upbound_y_sum 1.0
upbound_y_count 5
";
        let e = prometheus::parse(bad_inf).unwrap_err();
        assert!(e.contains("+Inf"), "{e}");
    }

    #[test]
    fn labeled_samples_round_trip_with_escaping() {
        let registry = Registry::new();
        registry.build_info("1.2.3", Some("v1.2.3-4-gabcdef"));
        registry
            .labeled_gauge(
                "upbound_test_weird",
                "weird label",
                &[("note", "a\"b\\c\nd")],
            )
            .set(2.0);
        let snapshot = registry.snapshot();
        let text = prometheus::render(&snapshot);
        assert!(
            text.contains("upbound_build_info{version=\"1.2.3\",revision=\"v1.2.3-4-gabcdef\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("upbound_test_weird{note=\"a\\\"b\\\\c\\nd\"} 2"),
            "{text}"
        );
        let parsed = prometheus::parse(&text).expect("rendered labeled output parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn labeled_family_renders_one_help_and_type() {
        let registry = Registry::new();
        for (tenant, drops) in [("b", 144), ("a", 253)] {
            registry
                .labeled_counter(
                    "upbound_test_drops_total",
                    "Drops",
                    &[("subscriber", tenant)],
                )
                .add(drops);
        }
        registry
            .counter("upbound_test_packets_total", "Packets")
            .add(7);
        let snapshot = registry.snapshot();
        let text = prometheus::render(&snapshot);
        assert_eq!(
            text.lines().take(4).collect::<Vec<_>>(),
            [
                "# HELP upbound_test_drops_total Drops",
                "# TYPE upbound_test_drops_total counter",
                "upbound_test_drops_total{subscriber=\"a\"} 253",
                "upbound_test_drops_total{subscriber=\"b\"} 144",
            ],
            "{text}"
        );
        assert_eq!(text.matches("# TYPE").count(), 2, "{text}");
        assert_eq!(text.matches("# HELP").count(), 2, "{text}");
        let parsed = prometheus::parse(&text).expect("one family of two series parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn parser_rejects_a_family_typed_twice() {
        let split = "\
# TYPE upbound_x_total counter
upbound_x_total{subscriber=\"a\"} 1
# TYPE upbound_x_total counter
upbound_x_total{subscriber=\"b\"} 2
";
        let e = prometheus::parse(split).unwrap_err();
        assert!(e.contains("line 3") && e.contains("second TYPE"), "{e}");
        // Not only when the two TYPE lines are adjacent.
        let apart = "\
# TYPE upbound_x gauge
upbound_x 1
# TYPE upbound_y gauge
upbound_y 2
# TYPE upbound_x gauge
upbound_x{a=\"1\"} 3
";
        assert!(prometheus::parse(apart).unwrap_err().contains("line 5"));
    }

    #[test]
    fn parser_rejects_a_repeated_or_foreign_series() {
        for bad in [
            "# TYPE upbound_x gauge\nupbound_x{a=\"1\"} 1\nupbound_x{a=\"1\"} 2\n",
            "# TYPE upbound_x counter\nupbound_x 1\nupbound_x 2\n",
            "# TYPE upbound_x counter\nupbound_x 1\nupbound_y 2\n",
            "# TYPE upbound_x counter\n",
        ] {
            assert!(prometheus::parse(bad).is_err(), "{bad:?}");
        }
        let ok =
            "# TYPE upbound_x gauge\nupbound_x{a=\"1\"} 1\nupbound_x{a=\"2\"} 2\nupbound_x 3\n";
        assert_eq!(prometheus::parse(ok).unwrap().samples.len(), 3);
    }

    #[test]
    fn parser_rejects_malformed_labels() {
        for bad in [
            "# TYPE upbound_x gauge\nupbound_x{note=\"unterminated} 1\n",
            "# TYPE upbound_x gauge\nupbound_x{=\"v\"} 1\n",
            "# TYPE upbound_x gauge\nupbound_x{note=unquoted} 1\n",
        ] {
            assert!(prometheus::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn latency_recorder_exports_and_round_trips() {
        let registry = Registry::new();
        let r = registry.latency("upbound_test_stage_latency_seconds", "Stage latency");
        r.record_nanos(500);
        r.record_nanos(2_000_000);
        let snapshot = registry.snapshot();
        let text = prometheus::render(&snapshot);
        let parsed = prometheus::parse(&text).expect("latency histogram parses");
        assert_eq!(parsed, snapshot);
        assert!(text.contains("# TYPE upbound_test_stage_latency_seconds histogram"));
        assert!(text.contains("upbound_test_stage_latency_seconds_count 2"));
    }

    #[test]
    fn human_report_shows_quantiles() {
        let report = human::render(&sample_registry().snapshot(), None);
        assert!(report.contains("p50<="), "{report}");
        assert!(report.contains("p99<="), "{report}");
    }

    #[test]
    fn json_is_valid_shape() {
        let out = json::render(&sample_registry().snapshot());
        assert!(out.starts_with("{\"metrics\":["));
        assert!(out.contains("\"name\":\"upbound_test_packets_total\""));
        assert!(out.contains("\"type\":\"counter\",\"value\":12345"));
        assert!(out.contains("\"type\":\"gauge\",\"value\":0.375"));
        assert!(out.contains("\"type\":\"histogram\",\"bounds\":["));
        assert!(out.contains("\"count\":4,"));
        assert!(out.ends_with("]}"));
    }

    #[test]
    fn human_report_shows_rates() {
        let registry = sample_registry();
        let before = registry.snapshot();
        registry
            .counter("upbound_test_packets_total", "Packets seen")
            .add(100);
        let after = registry.snapshot();
        let report = human::render(&after, Some((&before, 2.0)));
        assert!(report.contains("upbound_test_packets_total"), "{report}");
        assert!(report.contains("(+100, 50.0/s)"), "{report}");
        assert!(report.contains("mean="), "{report}");
    }

    #[test]
    fn human_report_keys_labeled_series_by_name_and_labels() {
        let registry = Registry::new();
        let tenant = |t: &str| {
            registry.labeled_counter("upbound_test_drops_total", "Drops", &[("subscriber", t)])
        };
        tenant("a").add(253);
        tenant("b").add(144);
        let before = registry.snapshot();
        tenant("a").add(10);
        tenant("b").add(171);
        let report = human::render(&registry.snapshot(), Some((&before, 1.0)));
        assert!(
            report.contains("upbound_test_drops_total{subscriber=\"a\"} 263  (+10, 10.0/s)"),
            "{report}"
        );
        assert!(
            report.contains("upbound_test_drops_total{subscriber=\"b\"} 315  (+171, 171.0/s)"),
            "{report}"
        );
    }
}
