//! Rendering a [`TelemetrySnapshot`] for the outside world.
//!
//! Two dialects, both carrying every histogram and counter:
//!
//! - **Prometheus-style text** ([`render_prometheus`]): `# HELP`/`# TYPE`
//!   comments, one cumulative-histogram series per (stage, shard) with
//!   `le` labels at occupied bucket boundaries plus `+Inf`, one family per
//!   shard counter with a `shard` label (totals are their sums), the
//!   front door's counters, then the event ring's statistics. Every
//!   sample value is an integer.
//! - **All-integer JSON** ([`render_json`], [`render_events_json`]): the
//!   workspace's machine-diffing dialect — no floats, parseable by the
//!   in-tree `fourcycle_store::json` reader.
//!
//! [`validate_prometheus`] is a lightweight checker used by tests: it
//! verifies line shapes, label syntax, and that each histogram series is
//! cumulative with a matching `_count`.

use crate::hist::{bucket_ceil, BUCKETS};
use crate::ring::Event;
use crate::{Stage, TelemetrySnapshot};

/// Metric name of the per-stage latency histogram family.
pub const STAGE_METRIC: &str = "fourcycle_stage_latency_nanos";

/// Renders the Prometheus-style text exposition.
pub fn render_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# HELP {STAGE_METRIC} Per-stage request latency in nanoseconds\n"
    ));
    out.push_str(&format!("# TYPE {STAGE_METRIC} histogram\n"));
    for (shard, stages) in snapshot.stages.iter().enumerate() {
        for stage in Stage::ALL {
            let hist = &stages[stage.index()];
            let labels = format!("stage=\"{}\",shard=\"{shard}\"", stage.name());
            let mut cumulative = 0u64;
            for (index, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative = cumulative.saturating_add(n);
                // The last bucket's ceiling is u64::MAX; fold it into +Inf.
                if index + 1 < BUCKETS {
                    out.push_str(&format!(
                        "{STAGE_METRIC}_bucket{{{labels},le=\"{}\"}} {cumulative}\n",
                        bucket_ceil(index)
                    ));
                }
            }
            let count = hist.count();
            out.push_str(&format!(
                "{STAGE_METRIC}_bucket{{{labels},le=\"+Inf\"}} {count}\n"
            ));
            out.push_str(&format!("{STAGE_METRIC}_sum{{{labels}}} {}\n", hist.sum));
            out.push_str(&format!("{STAGE_METRIC}_count{{{labels}}} {count}\n"));
        }
    }
    for (i, (stem, _)) in snapshot.totals.fields().into_iter().enumerate() {
        let name = format!("fourcycle_shard_{stem}_total");
        out.push_str(&format!(
            "# HELP {name} Per-shard `{stem}` counter\n# TYPE {name} counter\n"
        ));
        for (shard, stats) in snapshot.per_shard.iter().enumerate() {
            let value = stats.fields()[i].1;
            out.push_str(&format!("{name}{{shard=\"{shard}\"}} {value}\n"));
        }
    }
    for (stem, value) in snapshot.server.fields() {
        let (name, kind) = match stem {
            "open_connections" => (format!("fourcycle_server_{stem}"), "gauge"),
            _ => (format!("fourcycle_server_{stem}_total"), "counter"),
        };
        out.push_str(&format!(
            "# HELP {name} Server front-door `{stem}`\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    }
    for (help, name, value) in [
        (
            "Total events emitted into the ring",
            "fourcycle_events_emitted_total",
            snapshot.events_emitted,
        ),
        (
            "Events dropped due to emit-side contention",
            "fourcycle_events_dropped_total",
            snapshot.events_dropped,
        ),
    ] {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        out.push_str(&format!("{name} {value}\n"));
    }
    out.push_str("# HELP fourcycle_events_buffered Events currently buffered in the ring\n");
    out.push_str("# TYPE fourcycle_events_buffered gauge\n");
    out.push_str(&format!(
        "fourcycle_events_buffered {}\n",
        snapshot.events_buffered
    ));
    out
}

/// `"name": value` pairs, comma-separated, for a JSON object.
pub fn json_fields(fields: &[(&str, u64)]) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    pairs.join(", ")
}

/// Renders the all-integer JSON document: one object per (shard, stage)
/// with count/sum/max/mean and nearest-rank p50/p90/p99, one counter
/// object per shard, the shard totals, the front door's counters and the
/// ring statistics.
pub fn render_json(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::from("{\n  \"stages\": [\n");
    let mut first = true;
    for (shard, stages) in snapshot.stages.iter().enumerate() {
        for stage in Stage::ALL {
            let hist = &stages[stage.index()];
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"shard\": {shard}, \"stage\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"max\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                stage.name(),
                hist.count(),
                hist.sum,
                hist.max,
                hist.mean(),
                hist.p50(),
                hist.p90(),
                hist.p99(),
            ));
        }
    }
    out.push_str("\n  ],\n  \"shards\": [\n");
    let shards: Vec<String> = snapshot
        .per_shard
        .iter()
        .enumerate()
        .map(|(shard, stats)| {
            let fields = json_fields(&stats.fields());
            format!("    {{\"shard\": {shard}, {fields}}}")
        })
        .collect();
    out.push_str(&shards.join(",\n"));
    out.push_str(&format!(
        "\n  ],\n  \"totals\": {{{}}},\n  \"server\": {{{}}},\n",
        json_fields(&snapshot.totals.fields()),
        json_fields(&snapshot.server.fields())
    ));
    out.push_str(&format!(
        "  \"events\": {{\"emitted\": {}, \"dropped\": {}, \"buffered\": {}}}\n}}",
        snapshot.events_emitted, snapshot.events_dropped, snapshot.events_buffered
    ));
    out
}

/// Renders drained ring events as an all-integer JSON document:
/// `{"events": [...]}` with one object per event, oldest first.
pub fn render_events_json(events: &[Event]) -> String {
    let mut out = String::from("{\n  \"events\": [\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"seq\": {}, \"at_nanos\": {}, \"shard\": {}, \"kind\": \"{}\", \
             \"a\": {}, \"b\": {}}}",
            event.seq,
            event.at_nanos,
            event.shard,
            event.kind.name(),
            event.a,
            event.b
        ));
    }
    out.push_str("\n  ]\n}");
    out
}

/// Validates a Prometheus-style exposition: every line is a comment or a
/// `name{labels} integer` / `name integer` sample, `_bucket` series are
/// cumulative (non-decreasing within a series) and closed by a matching
/// `_count`. Returns the first problem found.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut series: Option<(String, u64)> = None; // (bucket series key, last cumulative)
    let mut inf_seen: Option<(String, u64)> = None; // (series key, +Inf value)
    for (number, line) in text.lines().enumerate() {
        let describe = |msg: &str| format!("line {}: {msg}: {line}", number + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| describe("no sample value"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| describe("sample value is not an unsigned integer"))?;
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| describe("unterminated label set"))?;
                for pair in labels.split(',') {
                    let (_, label_value) = pair
                        .split_once('=')
                        .ok_or_else(|| describe("label without '='"))?;
                    if !(label_value.starts_with('"') && label_value.ends_with('"')) {
                        return Err(describe("unquoted label value"));
                    }
                }
                (name, labels)
            }
            None => (name_and_labels, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(describe("bad metric name"));
        }
        if name.ends_with("_bucket") {
            let key = format!(
                "{name}{{{}}}",
                labels
                    .split(',')
                    .filter(|pair| !pair.starts_with("le="))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            if let Some((ref prev_key, prev)) = series {
                if *prev_key == key && value < prev {
                    return Err(describe("bucket series not cumulative"));
                }
            }
            series = Some((key.clone(), value));
            if labels.split(',').any(|pair| pair == "le=\"+Inf\"") {
                inf_seen = Some((key, value));
            }
        } else if name.ends_with("_count") {
            if let Some((_, inf)) = inf_seen.take() {
                if value != inf {
                    return Err(describe("_count disagrees with +Inf bucket"));
                }
            }
            series = None;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;
    use crate::{Telemetry, TelemetryConfig};

    fn sample_snapshot() -> TelemetrySnapshot {
        let tel = Telemetry::new(TelemetryConfig::default(), 2);
        for v in [3u64, 100, 5_000, 250_000] {
            tel.stage(0, Stage::Apply).record(v);
        }
        for _ in 0..4 {
            tel.stage(1, Stage::QueueWait).record(250);
        }
        tel.stage(0, Stage::Reply).record(40);
        tel.counters(1).updates_applied.add(9);
        tel.counters(1).busy_nanos.add(u64::MAX);
        tel.front_door().connections.add(2);
        tel.front_door().open_connections.add(1);
        tel.front_door().bytes_in.add(42);
        tel.ring().emit(0, EventKind::GroupCommit, 4, 900);
        tel.snapshot()
    }

    /// The exposition passes its own validator and carries the stage
    /// series with correct counts, every shard counter per shard (the
    /// reply stage's count as `commands`) and the front door's counters.
    #[test]
    fn prometheus_rendering_validates_and_counts() {
        let snapshot = sample_snapshot();
        let text = snapshot.render_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("fourcycle_stage_latency_nanos_count{stage=\"apply\",shard=\"0\"} 4"));
        assert!(text
            .contains("fourcycle_stage_latency_nanos_count{stage=\"queue_wait\",shard=\"1\"} 4"));
        assert!(text.contains("le=\"+Inf\"} 4"));
        assert!(text.contains("fourcycle_events_emitted_total 1"));
        for (name, _) in snapshot.totals.fields() {
            for shard in 0..2 {
                let series = format!("fourcycle_shard_{name}_total{{shard=\"{shard}\"}} ");
                assert!(text.contains(&series), "{series} missing:\n{text}");
            }
        }
        assert!(text.contains("fourcycle_shard_commands_total{shard=\"0\"} 1\n"));
        assert!(text.contains("fourcycle_shard_updates_applied_total{shard=\"1\"} 9\n"));
        assert!(text.contains(&format!(
            "fourcycle_shard_busy_nanos_total{{shard=\"1\"}} {}\n",
            u64::MAX
        )));
        assert!(text.contains("fourcycle_server_connections_total 2\n"));
        assert!(text.contains("# TYPE fourcycle_server_open_connections gauge\n"));
        assert!(text.contains("fourcycle_server_open_connections 1\n"));
        assert!(text.contains("fourcycle_server_bytes_in_total 42\n"));
    }

    /// The validator actually rejects malformed expositions.
    #[test]
    fn validator_rejects_bad_lines() {
        assert!(validate_prometheus("metric_name 1.5").is_err());
        assert!(validate_prometheus("metric{le=\"10\" 3").is_err());
        assert!(validate_prometheus("met ric 3").is_err());
        let shrinking = "m_bucket{stage=\"a\",le=\"10\"} 5\nm_bucket{stage=\"a\",le=\"20\"} 3\n";
        assert!(validate_prometheus(shrinking).is_err());
        let mismatched = "m_bucket{le=\"+Inf\"} 5\nm_count 4\n";
        assert!(validate_prometheus(mismatched).is_err());
        assert!(validate_prometheus("# comment only\n").is_ok());
    }

    /// The JSON document is all-integer (no '.', no floats) and contains
    /// a row per (shard, stage).
    #[test]
    fn json_rendering_is_all_integer() {
        let snapshot = sample_snapshot();
        let json = snapshot.render_json();
        assert!(!json.contains('.'), "floats leaked into JSON: {json}");
        let rows = json.matches("\"stage\": ").count();
        assert_eq!(rows, 2 * Stage::COUNT);
        assert!(json.contains("\"emitted\": 1"));
        assert!(json.contains("{\"shard\": 0, \"commands\": 1, \"updates_applied\": 0, "));
        assert!(json.contains("{\"shard\": 1, \"commands\": 0, \"updates_applied\": 9, "));
        assert!(json.contains("\"totals\": {\"commands\": 1, \"updates_applied\": 9, "));
        assert!(json.contains("\"server\": {\"connections\": 2, \"open_connections\": 1, "));
        assert!(json.contains("\"bytes_in\": 42, \"bytes_out\": 0}"));
    }

    /// Drained events render with their kind names and payloads.
    #[test]
    fn events_render_to_json() {
        let tel = Telemetry::new(TelemetryConfig::default(), 1);
        tel.ring().emit(0, EventKind::ChaosFault, 1, 0);
        tel.ring().emit(crate::NO_SHARD, EventKind::ConnOpen, 7, 0);
        let events = tel.ring().drain();
        let json = render_events_json(&events);
        assert!(json.contains("\"kind\": \"chaos_fault\""));
        assert!(json.contains("\"kind\": \"conn_open\""));
        assert!(json.contains(&format!("\"shard\": {}", u32::MAX)));
        assert!(!json.contains('.'));
        assert_eq!(render_events_json(&[]), "{\n  \"events\": [\n\n  ]\n}");
    }
}
