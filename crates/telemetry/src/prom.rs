//! Prometheus text-exposition rendering.
//!
//! Emits the [text-based exposition format]: a `# HELP` and `# TYPE`
//! header per metric family, all samples of a family consecutive, label
//! values escaped, and histograms rendered as cumulative `_bucket{le=...}`
//! series (in **seconds**, the Prometheus convention for durations) plus
//! `_sum` and `_count`.
//!
//! [text-based exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::{Display, Write};

use crate::metrics::{FamilySnapshot, HistogramSnapshot, RecorderSnapshot, BUCKET_BOUNDS_NS};

/// Renders a label set as `name="value",...`, escaping backslash,
/// double-quote and newline in the values; empty for no labels. This is
/// the text of a [`Labels`](crate::Labels), which [`write_snapshot`] puts
/// between a sample's braces.
pub(crate) fn render_labels(labels: &[(&str, &str)]) -> String {
    let len = labels.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
    let mut out = String::with_capacity(len);
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for ch in value.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// Escapes HELP text: backslash and newline (quotes are legal there).
pub fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn write_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(&escape_help(help));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Writes a histogram family with its headers: cumulative buckets with
/// `le` bounds in seconds, a `+Inf` bucket, `_sum` (seconds) and `_count`.
pub fn write_histogram(out: &mut String, name: &str, help: &str, snapshot: &HistogramSnapshot) {
    write_header(out, name, help, "histogram");
    let mut cumulative = 0u64;
    for (idx, &count) in snapshot.counts.iter().enumerate() {
        cumulative += count;
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        if idx < BUCKET_BOUNDS_NS.len() {
            out.push_str(&format!("{}", BUCKET_BOUNDS_NS[idx] as f64 / 1e9));
        } else {
            out.push_str("+Inf");
        }
        out.push_str("\"} ");
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&format!("{}", snapshot.sum_ns as f64 / 1e9));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&cumulative.to_string());
    out.push('\n');
}

/// Writes counter or gauge families: one header each, then every series,
/// a plain one without label braces.
fn write_families<V: Display>(out: &mut String, kind: &str, families: &[FamilySnapshot<V>]) {
    for (name, help, series) in families {
        write_header(out, name, help, kind);
        for (labels, value) in series {
            out.push_str(name);
            if !labels.as_str().is_empty() {
                out.push('{');
                out.push_str(labels.as_str());
                out.push('}');
            }
            let _ = writeln!(out, " {value}");
        }
    }
}

/// Writes every metric in a [`RecorderSnapshot`] in the snapshot's order:
/// counter families, then gauge families, then histograms.
pub fn write_snapshot(out: &mut String, snapshot: &RecorderSnapshot) {
    write_families(out, "counter", &snapshot.counters);
    write_families(out, "gauge", &snapshot.gauges);
    for (name, help, hist) in &snapshot.histograms {
        write_histogram(out, name, help, hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, Labels, Recorder};

    #[test]
    fn escapes() {
        assert_eq!(
            render_labels(&[("k", "a\\b\"c\nd"), ("j", "x")]),
            "k=\"a\\\\b\\\"c\\nd\",j=\"x\""
        );
        assert_eq!(render_labels(&[]), "");
        assert_eq!(
            escape_help("multi\nline \\ with \"quotes\""),
            "multi\\nline \\\\ with \"quotes\""
        );
    }

    #[test]
    fn counter_and_gauge_families() {
        let recorder = Recorder::new();
        recorder.counter("aarc_things_total", "Things seen.").add(7);
        recorder.gauge("aarc_rate", "Current rate.").set(2.5);
        let mut out = String::new();
        write_snapshot(&mut out, &recorder.snapshot());
        assert_eq!(
            out,
            "# HELP aarc_things_total Things seen.\n\
             # TYPE aarc_things_total counter\n\
             aarc_things_total 7\n\
             # HELP aarc_rate Current rate.\n\
             # TYPE aarc_rate gauge\n\
             aarc_rate 2.5\n"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let h = Histogram::new();
        h.record_ns(1_500); // (1µs, 2µs]
        h.record_ns(1_500);
        h.record_ns(3_000_000); // (2ms, 5ms]
        h.record_ns(u64::MAX); // overflow
        let mut out = String::new();
        write_histogram(&mut out, "aarc_test_seconds", "Test.", &h.snapshot());

        assert!(
            out.starts_with("# HELP aarc_test_seconds Test.\n# TYPE aarc_test_seconds histogram\n")
        );
        // First bound 1µs = 0.000001s with zero observations.
        assert!(out.contains("aarc_test_seconds_bucket{le=\"0.000001\"} 0\n"));
        // 2µs bucket holds the two 1.5µs records.
        assert!(out.contains("aarc_test_seconds_bucket{le=\"0.000002\"} 2\n"));
        // By 5ms all but the overflow record are included.
        assert!(out.contains("aarc_test_seconds_bucket{le=\"0.005\"} 3\n"));
        assert!(out.contains("aarc_test_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(out.contains("aarc_test_seconds_count 4\n"));

        // Bucket values never decrease and +Inf equals _count.
        let mut last = 0u64;
        let mut inf = None;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("aarc_test_seconds_bucket{le=\"") {
                let (bound, count) = rest.split_once("\"} ").unwrap();
                let count: u64 = count.parse().unwrap();
                assert!(count >= last, "bucket counts must be monotonic");
                last = count;
                if bound == "+Inf" {
                    inf = Some(count);
                }
            }
        }
        assert_eq!(inf, Some(4));
    }

    #[test]
    fn labeled_counter_families_share_one_header() {
        let recorder = Recorder::new();
        recorder
            .labeled_counter("reqs_total", "Requests.", &Labels::new(&[("tenant", "b")]))
            .add(2);
        recorder
            .labeled_counter("reqs_total", "Requests.", &Labels::new(&[("tenant", "a")]))
            .add(1);
        recorder
            .labeled_counter(
                "rejected_total",
                "Rejections.",
                &Labels::new(&[("tenant", "a"), ("reason", "rate")]),
            )
            .inc();
        // One family holding both a plain and a labelled sample.
        recorder
            .labeled_counter("hits_total", "Hits.", &Labels::new(&[("tenant", "a")]))
            .add(4);
        recorder.counter("hits_total", "Hits.").add(5);
        // A labelled gauge family put into the snapshot directly, as the
        // daemon does with the values it reads at scrape time.
        let mut snapshot = recorder.snapshot();
        snapshot.gauges.push((
            "live".to_owned(),
            "Live sessions.".to_owned(),
            vec![
                (Labels::new(&[("tenant", "b")]), 3.0),
                (Labels::new(&[("tenant", "a\"x")]), 0.5),
            ],
        ));
        let mut out = String::new();
        write_snapshot(&mut out, &snapshot);
        // One header per family, samples consecutive and label-sorted.
        for family in ["reqs_total", "rejected_total", "live", "hits_total"] {
            assert_eq!(out.matches(&format!("# TYPE {family} ")).count(), 1);
            assert_eq!(out.matches(&format!("# HELP {family} ")).count(), 1);
        }
        assert!(out.contains("# TYPE live gauge\n"));
        assert!(out.contains("# TYPE hits_total counter\n"));
        assert!(out.contains("reqs_total{tenant=\"a\"} 1\n"));
        assert!(out.contains("reqs_total{tenant=\"b\"} 2\n"));
        let a = out.find("reqs_total{tenant=\"a\"}").unwrap();
        let b = out.find("reqs_total{tenant=\"b\"}").unwrap();
        assert!(a < b);
        assert!(out.contains("rejected_total{tenant=\"a\",reason=\"rate\"} 1\n"));
        // Label values are escaped; a labelled gauge renders its f64.
        assert!(out.contains("live{tenant=\"a\\\"x\"} 0.5\n"));
        assert!(out.contains("live{tenant=\"b\"} 3\n"));
        // The plain sample sorts first and renders without braces.
        assert!(
            out.contains("# TYPE hits_total counter\nhits_total 5\nhits_total{tenant=\"a\"} 4\n")
        );
        // The same (name, labels) pair resolves to the same instrument.
        recorder
            .labeled_counter("reqs_total", "Requests.", &Labels::new(&[("tenant", "a")]))
            .inc();
        let snap = recorder.snapshot();
        let (_, _, series) = snap.counters.iter().find(|f| f.0 == "reqs_total").unwrap();
        let series: Vec<(&str, u64)> = series.iter().map(|(l, v)| (l.as_str(), *v)).collect();
        assert_eq!(series, [("tenant=\"a\"", 2), ("tenant=\"b\"", 2)]);
    }

    #[test]
    fn snapshot_rendering_is_deterministic() {
        let recorder = Recorder::new();
        recorder.counter("b_total", "B.").add(1);
        recorder.counter("a_total", "A.").add(2);
        recorder.gauge("g", "G.").set(1.0);
        recorder.histogram("h_seconds", "H.").record_ns(10);
        let mut first = String::new();
        write_snapshot(&mut first, &recorder.snapshot());
        let mut second = String::new();
        write_snapshot(&mut second, &recorder.snapshot());
        assert_eq!(first, second);
        // Counters render in name order.
        let a = first.find("a_total 2").unwrap();
        let b = first.find("b_total 1").unwrap();
        assert!(a < b);
    }
}
