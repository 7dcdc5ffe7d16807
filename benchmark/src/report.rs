//! The metrics the benchmark can print — the same names `BENCHMARK.json`
//! declares, which a test checks — and how a run turns into them.

use crate::stats;
use crate::workloads::{Run, Window, Workload};
use menshen_json::Json;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics with the share of the baseline's median each may
/// worsen by. Every workload reports every one of them.
pub const END_TO_END: [(Metric, f64); 5] = [
    (lower("setup_s", "s"), 0.25),
    (higher("throughput_mpps", "Mpps"), 0.20),
    (lower("cpu_ns_per_packet", "ns"), 0.20),
    (lower("latency_p50_us", "us"), 0.20),
    (lower("peak_rss_mb", "MB"), 0.15),
];

/// Per-layer metrics, by the crate they time from outside. A workload that
/// makes no call into a layer reports 0 for the metrics its own run would
/// produce; the isolated probes run in every traced run.
pub const PER_LAYER: [Metric; 67] = [
    // packet
    lower("packet.build_ns", "ns"),
    lower("packet.clone_ns", "ns"),
    lower("packet.from_bytes_ns", "ns"),
    // rmt
    lower("rmt.exact_lookup_ns", "ns"),
    lower("rmt.lpm_lookup_ns", "ns"),
    lower("rmt.lpm_insert_us_per_1k", "us"),
    lower("rmt.lpm_bytes_per_rule", "B"),
    // core
    lower("core.process_batch_ns", "ns"),
    lower("core.process_batch_b1_ns", "ns"),
    lower("core.drop_path_ns", "ns"),
    lower("core.apply_digest_ns", "ns"),
    lower("core.load_module_us", "us"),
    lower("core.update_module_us", "us"),
    lower("core.unload_module_us", "us"),
    lower("core.install_rules_us_per_1k", "us"),
    lower("core.config_replica_us", "us"),
    lower("core.process_batch_span_ns", "ns"),
    // compiler
    lower("compiler.compile_source_us", "us"),
    // runtime
    lower("runtime.steer_ns", "ns"),
    lower("runtime.digest_extract_ns", "ns"),
    lower("runtime.digest_bytes_per_packet", "B"),
    lower("runtime.ring_handoff_ns", "ns"),
    lower("runtime.det_batch_ns", "ns"),
    lower("runtime.threaded1_ns", "ns"),
    lower("runtime.submit_ns", "ns"),
    lower("runtime.flush_wait_ns", "ns"),
    lower("runtime.submit_32k_ns", "ns"),
    lower("runtime.shard_balance", "ratio"),
    lower("runtime.ring_depth_hwm", "count"),
    lower("runtime.sojourn_p50_us", "us"),
    lower("runtime.sojourn_p99_us", "us"),
    lower("runtime.latency_p99_us", "us"),
    lower("runtime.gen_lateness_p99_us", "us"),
    lower("runtime.shed_packets", "count"),
    lower("runtime.lost_packets", "count"),
    lower("runtime.control_load_us", "us"),
    lower("runtime.control_update_us", "us"),
    lower("runtime.control_unload_us", "us"),
    lower("runtime.control_op_p50_us", "us"),
    lower("runtime.control_op_p99_us", "us"),
    higher("runtime.control_ops", "count"),
    higher("runtime.isolation_ratio", "ratio"),
    lower("runtime.spawn_ms", "ms"),
    lower("runtime.shutdown_ms", "ms"),
    // io
    lower("io.echo_encode_ns", "ns"),
    lower("io.udp_rx_burst_ns", "ns"),
    lower("io.udp_tx_ns", "ns"),
    lower("io.inprocess_service_ns", "ns"),
    lower("io.service_poll_ns", "ns"),
    lower("io.send_ns", "ns"),
    lower("io.recv_ns", "ns"),
    lower("io.rtt_p99_us", "us"),
    lower("io.loss_ratio_100k", "ratio"),
    lower("io.loss_ratio_200k", "ratio"),
    lower("io.rx_discarded", "count"),
    lower("io.tx_errors", "count"),
    lower("io.resent", "count"),
    // the benchmark's own side of the traced run
    lower("gen.materialise_ns", "ns"),
    higher("trace.throughput_mpps", "Mpps"),
    lower("trace.cpu_ns_per_packet", "ns"),
    lower("trace.latency_p50_us", "us"),
    higher("trace.spans", "count"),
    lower("trace.spans_dropped", "count"),
    lower("bench.failed_ratio", "ratio"),
    higher("bench.latency_samples", "count"),
    higher("bench.offered_ratio", "ratio"),
    higher("bench.windows", "count"),
];

/// The windows a workload's throughput and CPU figures come from: for
/// `reconfig_churn` those with control ops running beside the traffic, so
/// its gated figures are the victims' service under churn.
fn gated_windows(workload: Workload, run: &Run) -> Vec<Window> {
    let churn = workload == Workload::ReconfigChurn;
    run.windows
        .iter()
        .filter(|w| w.churn == churn)
        .copied()
        .collect()
}

/// One metric's value and the samples it is the median of (empty when it is
/// a single measurement).
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

pub fn end_to_end(workload: Workload, run: &Run) -> Vec<Value> {
    let windows = gated_windows(workload, run);
    let mpps: Vec<f64> = windows.iter().map(Window::mpps).collect();
    let cpu: Vec<f64> = windows.iter().map(Window::cpu_ns_per_packet).collect();
    let median = |samples: &[f64]| stats::median(samples).unwrap_or(0.0);
    vec![
        Value {
            name: "setup_s",
            value: median(&run.setup_s),
            samples: run.setup_s.clone(),
        },
        Value {
            name: "throughput_mpps",
            value: median(&mpps),
            samples: mpps,
        },
        Value {
            name: "cpu_ns_per_packet",
            value: median(&cpu),
            samples: cpu,
        },
        Value {
            name: "latency_p50_us",
            value: run.open_loop.p50_us,
            samples: Vec::new(),
        },
        Value {
            name: "peak_rss_mb",
            value: run.peak_rss_mb,
            samples: Vec::new(),
        },
    ]
}

/// Every per-layer metric, in declaration order: the traced run's own
/// figures, then `probes` (name, value) pairs; 0 where neither has one.
pub fn per_layer(workload: Workload, run: &Run, probes: &[(&'static str, f64)]) -> Vec<Value> {
    let traced = end_to_end(workload, run);
    let of = |name: &str| {
        traced
            .iter()
            .find(|v| v.name == name)
            .map_or(0.0, |v| v.value)
    };
    let own = [
        ("trace.throughput_mpps", of("throughput_mpps")),
        ("trace.cpu_ns_per_packet", of("cpu_ns_per_packet")),
        ("trace.latency_p50_us", of("latency_p50_us")),
        ("bench.failed_ratio", run.failed_ratio()),
        ("bench.latency_samples", run.open_loop.samples as f64),
        ("bench.offered_ratio", run.open_loop.offered_ratio),
        ("bench.windows", run.windows.len() as f64),
    ];
    for (name, _) in own.iter().chain(&run.layer).chain(probes) {
        assert!(
            PER_LAYER.iter().any(|metric| metric.name == *name),
            "{name} is measured but not declared in PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = own
                .iter()
                .chain(&run.layer)
                .chain(probes)
                .find(|(name, _)| *name == metric.name)
                .map_or(0.0, |(_, value)| *value);
            Value {
                name: metric.name,
                value,
                samples: Vec::new(),
            }
        })
        .collect()
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(metric, _)| metric)
        .chain(&PER_LAYER)
        .find(|metric| metric.name == name)
        .map_or("", |metric| metric.unit)
}

/// The result object the driver reads from the last line of standard output.
pub fn result_line(run: &Run, values: &[Value]) -> String {
    let metrics = Json::obj(values.iter().map(|v| {
        (
            v.name,
            Json::obj([
                ("value", Json::from(v.value)),
                ("unit", Json::from(unit_of(v.name))),
            ]),
        )
    }));
    compact(&Json::obj([
        ("correct", Json::Bool(run.faults.is_empty())),
        ("attempted", Json::from(run.attempted)),
        ("failed", Json::from(run.failed)),
        ("metrics", metrics),
    ]))
}

/// Everything behind the metrics: every window, every set-up, the open-loop
/// phase and the faults.
pub fn detail(run: &Run, values: &[Value]) -> Json {
    Json::obj([
        (
            "samples",
            Json::obj(
                values
                    .iter()
                    .filter(|v| !v.samples.is_empty())
                    .map(|v| (v.name, Json::arr(v.samples.iter().copied()))),
            ),
        ),
        (
            "windows",
            Json::arr(run.windows.iter().map(|w| {
                Json::obj([
                    ("churn", Json::Bool(w.churn)),
                    ("packets", Json::from(w.packets)),
                    ("wall_ns", Json::from(w.wall_ns)),
                    ("cpu_ns", Json::from(w.cpu_ns)),
                ])
            })),
        ),
        (
            "open_loop",
            Json::obj([
                ("rate_pps", Json::from(run.open_loop.rate_pps)),
                ("samples", Json::from(run.open_loop.samples)),
                ("p50_us", Json::from(run.open_loop.p50_us)),
                ("p99_us", Json::from(run.open_loop.p99_us)),
                ("lateness_p99_us", Json::from(run.open_loop.lateness_p99_us)),
                ("offered_ratio", Json::from(run.open_loop.offered_ratio)),
            ]),
        ),
        ("failed_ratio", Json::from(run.failed_ratio())),
        (
            "faults",
            Json::arr(run.faults.iter().map(|f| Json::from(f.as_str()))),
        ),
    ])
}

/// `Json` on one line (the in-tree printer only pretty-prints).
pub fn compact(json: &Json) -> String {
    fn write(json: &Json, out: &mut String) {
        match json {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&Json::from(key.as_str()).pretty());
                    out.push_str(": ");
                    write(value, out);
                }
                out.push('}');
            }
            scalar => out.push_str(&scalar.pretty()),
        }
    }
    let mut out = String::new();
    write(json, &mut out);
    out
}

/// The table a person reads.
pub fn print_table(title: &str, values: &[Value]) {
    println!("{title}");
    for v in values {
        let samples = if v.samples.is_empty() {
            String::new()
        } else {
            format!("  (median of {})", v.samples.len())
        };
        println!(
            "  {:<36} {:>14.4} {}{samples}",
            v.name,
            v.value,
            unit_of(v.name)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("{section} missing");
        };
        let text = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        items
            .iter()
            .map(|item| {
                let bound = match item.get("bound") {
                    Some(Json::Num(n)) => Some(*n),
                    _ => None,
                };
                (
                    text(item, "name"),
                    text(item, "unit"),
                    text(item, "better"),
                    bound,
                )
            })
            .collect()
    }

    fn better(metric: &Metric) -> &'static str {
        if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_prints() {
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|(m, bound)| (m.name.into(), m.unit.into(), better(m).into(), Some(*bound)))
            .collect();
        assert_eq!(declared("end_to_end"), ours);
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m).into(), None))
            .collect();
        assert_eq!(declared("per_layer"), ours);

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<_> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{}", metric.unit);
            assert!(seen.insert(metric.name), "{} twice", metric.name);
        }
        for workload in Workload::ALL {
            assert!(name_ok(workload.name()));
            assert!(seen.insert(workload.name()));
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert!(END_TO_END
            .iter()
            .all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
        assert_eq!(END_TO_END[0].0.name, "setup_s");
    }

    #[test]
    fn compact_is_one_line_and_parses_back() {
        let json = Json::obj([
            ("a", Json::arr([1.5, 2.0])),
            ("b", Json::obj([("c", Json::from("x\"y"))])),
        ]);
        let line = compact(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), json);
    }
}
