//! `menshen-benchmark`: the repository's one benchmark. See README.md.
//!
//! ```text
//! menshen-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! menshen-benchmark all [--seed <n>] [--quick] [--out <results.json>]
//! menshen-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload and what the driver of
//! `BENCHMARK.json` calls: it ends with the result object on the last line of
//! standard output. `all` runs every workload, untraced and traced, each in a
//! fresh child process, and writes everything to one results file; `compare`
//! applies the metrics' bounds to two such files.

mod compare;
mod gen;
mod host;
mod probes;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use menshen_json::Json;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Plan, Workload};

/// Seconds one run measures unless told otherwise: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
/// Seconds one run of the smoke mode measures.
const QUICK_SECONDS: u64 = 3;
const DEFAULT_SEED: u64 = 1;
/// Prefix of the line a run prints before its result with everything behind
/// the metrics; `all` collects it.
const DETAIL_PREFIX: &str = "#detail ";
const QUICK_BANNER: &str =
    "*** --quick smoke mode: short run, 10^5 LPM rules, one set-up. Do NOT cite these numbers. ***";

fn usage() -> ExitCode {
    eprintln!(
        "usage: menshen-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      menshen-benchmark all [--seed <n>] [--quick] [--out <results.json>]\n\
         \x20      menshen-benchmark compare <a.json> <b.json>\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Option<Args> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
            quick: false,
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if arg == "--quick" {
                args.quick = true;
            } else if let Some(flag) = arg.strip_prefix("--") {
                args.flags.push((flag.to_owned(), raw.next()?));
            } else {
                args.words.push(arg);
            }
        }
        Some(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Option<u64> {
        self.flag(name).map_or(Some(default), |v| v.parse().ok())
    }
}

fn main() -> ExitCode {
    let Some(args) = Args::parse(std::env::args().skip(1)) else {
        return usage();
    };
    match args.words.first().map(String::as_str) {
        None if args.flag("workload").is_some() => one_run(&args),
        Some("all") => all(&args),
        Some("compare") if args.words.len() == 3 => compare::run(&args.words[1], &args.words[2]),
        _ => usage(),
    }
}

/// One run of one workload: what `BENCHMARK.json`'s command does.
fn one_run(args: &Args) -> ExitCode {
    let parsed = (
        args.flag("workload").and_then(Workload::from_name),
        args.number("seed", DEFAULT_SEED),
        args.number(
            "seconds",
            if args.quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            },
        ),
        args.number("trace", 0),
    );
    let (Some(workload), Some(seed), Some(seconds @ 1..=60), Some(trace @ 0..=1)) = parsed else {
        return usage();
    };
    let traced = trace == 1;
    if args.quick {
        println!("{QUICK_BANNER}");
    }
    println!(
        "{} seed {seed}, {seconds} s, {} run (UDP traffic crosses the loopback interface, not a link)",
        workload.name(),
        if traced { "traced" } else { "untraced" }
    );
    let plan = Plan::new(seed, seconds, traced, args.quick);
    let run = workloads::run(workload, &plan);
    let values = if traced {
        let probes = probes::run(seed, plan.lpm_rules);
        report::per_layer(workload, &run, &probes)
    } else {
        report::end_to_end(workload, &run)
    };
    report::print_table(
        if traced {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &values,
    );
    println!(
        "  open loop: {} pps, {} samples, p50 {:.2} us, p99 {:.2} us (ungated), generator lateness p99 {:.2} us",
        run.open_loop.rate_pps,
        run.open_loop.samples,
        run.open_loop.p50_us,
        run.open_loop.p99_us,
        run.open_loop.lateness_p99_us
    );
    println!(
        "  attempted {}, failed {} (failed_ratio {:.6}), {} windows",
        run.attempted,
        run.failed,
        run.failed_ratio(),
        run.windows.len()
    );
    for fault in &run.faults {
        println!("  FAULT: {fault}");
    }
    if args.quick {
        println!("{QUICK_BANNER}");
    }
    println!(
        "{DETAIL_PREFIX}{}",
        report::compact(&report::detail(&run, &values))
    );
    println!("{}", report::result_line(&run, &values));
    if run.faults.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What `all` keeps of one child run.
struct Child {
    result: Json,
    detail: Json,
}

fn child_run(workload: Workload, seed: u64, traced: bool, quick: bool) -> Option<Child> {
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        command.arg("--quick");
    }
    let output = command.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = Json::parse(lines.pop()?).ok()?;
    let detail = Json::parse(lines.pop()?.strip_prefix(DETAIL_PREFIX)?).ok()?;
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        eprintln!("{} exited with {}", workload.name(), output.status);
    }
    Some(Child { result, detail })
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Json::Num(value) => Some(*value),
        _ => None,
    }
}

/// Every workload, untraced then traced, each in a fresh child process.
fn all(args: &Args) -> ExitCode {
    let Some(seed) = args.number("seed", DEFAULT_SEED) else {
        return usage();
    };
    let quick = args.quick;
    let mut ok = true;
    let mut workloads = Vec::new();
    let mut traced_runs = Vec::new();
    for workload in Workload::ALL {
        let (Some(untraced), Some(traced)) = (
            child_run(workload, seed, false, quick),
            child_run(workload, seed, true, quick),
        ) else {
            eprintln!("{}: a run printed no result", workload.name());
            return ExitCode::FAILURE;
        };
        for child in [&untraced, &traced] {
            ok &= child.result.get("correct") == Some(&Json::Bool(true));
        }
        let overhead = match (
            metric(&untraced.result, "throughput_mpps"),
            metric(&traced.result, "trace.throughput_mpps"),
        ) {
            (Some(plain), Some(traced)) if plain > 0.0 => (1.0 - traced / plain) * 100.0,
            _ => 0.0,
        };
        println!(
            "{}: trace_overhead_pct {overhead:.2} % (untraced vs traced throughput_mpps)\n",
            workload.name()
        );
        workloads.push((
            workload.name(),
            Json::obj([
                ("untraced", untraced.result.clone()),
                ("untraced_detail", untraced.detail),
                ("traced", traced.result.clone()),
                ("traced_detail", traced.detail),
                ("trace_overhead_pct", Json::from(overhead)),
            ]),
        ));
        traced_runs.push((workload, untraced.result, traced.result));
    }
    let waterfall = waterfall(&traced_runs);
    let host = host::fingerprint();
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |output| String::from_utf8_lossy(&output.stdout).trim().to_owned(),
        );
    let results = Json::obj([
        ("seed", Json::from(seed)),
        ("quick", Json::Bool(quick)),
        (
            "run_seconds",
            Json::from(if quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
        ),
        (
            "host",
            Json::obj([
                ("nproc", Json::from(host.nproc)),
                ("cpu_model", Json::from(host.cpu_model)),
                ("kernel", Json::from(host.kernel)),
            ]),
        ),
        ("git_commit", Json::from(commit)),
        (
            "traffic",
            Json::from("UDP crosses the loopback interface, not a link"),
        ),
        ("workloads", Json::obj(workloads)),
        ("waterfall", waterfall),
        ("claim", Json::Null),
    ]);
    let path = args.flag("out").map_or_else(
        || {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("results-seed{seed}.json"))
        },
        std::path::PathBuf::from,
    );
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, results.pretty() + "\n"));
    match written {
        Ok(()) => println!("results: {}", path.display()),
        Err(error) => {
            eprintln!("could not write {}: {error}", path.display());
            ok = false;
        }
    }
    if quick {
        println!("{QUICK_BANNER}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The layer waterfall: ns per packet for the same `mix8` frames at each
/// boundary from the bare match table to the UDP service, with what each
/// boundary adds. Probe steps are the median over the traced runs.
fn waterfall(runs: &[(Workload, Json, Json)]) -> Json {
    let probe = |name: &str| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|(_, _, traced)| metric(traced, name))
            .collect();
        stats::median(&values).unwrap_or(0.0)
    };
    let workload = |which: Workload| {
        runs.iter()
            .find(|(workload, _, _)| *workload == which)
            .and_then(|(_, untraced, _)| metric(untraced, "throughput_mpps"))
            .map_or(0.0, |mpps| 1e3 / mpps)
    };
    let steps = [
        ("rmt.exact_lookup_ns", probe("rmt.exact_lookup_ns")),
        ("core.process_batch_ns", probe("core.process_batch_ns")),
        ("runtime.det_batch_ns", probe("runtime.det_batch_ns")),
        ("runtime.threaded1_ns", probe("runtime.threaded1_ns")),
        ("sharded_rss", workload(Workload::ShardedRss)),
        ("io.inprocess_service_ns", probe("io.inprocess_service_ns")),
        ("service_udp", workload(Workload::ServiceUdp)),
    ];
    println!("waterfall (ns per packet on mix8, and what each boundary adds)");
    let mut previous = 0.0;
    let mut rows = Vec::new();
    for (step, ns) in steps {
        println!("  {step:<28} {ns:>10.1} ns  {:>+10.1} ns", ns - previous);
        rows.push(Json::obj([
            ("step", Json::from(step)),
            ("ns_per_packet", Json::from(ns)),
            ("delta_ns", Json::from(ns - previous)),
        ]));
        previous = ns;
    }
    Json::Arr(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seconds_is_what_benchmark_json_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Json::Num(DEFAULT_SECONDS as f64))
        );
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        let bytes = |seed: u64| -> Vec<Vec<u8>> {
            sut::build_frames(&gen::mix8(seed, 2, true).frames)
                .into_iter()
                .map(sut::Frame::into_bytes)
                .collect()
        };
        assert_eq!(bytes(7), bytes(7));
        assert_ne!(bytes(7), bytes(8));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let raw = "--workload lone_exact --seed 9 --seconds 12 --trace 1";
        let args = Args::parse(raw.split(' ').map(str::to_owned)).unwrap();
        assert_eq!(args.flag("workload"), Some("lone_exact"));
        assert_eq!(args.number("seed", 1), Some(9));
        assert_eq!(args.number("trace", 0), Some(1));
        assert!(args.words.is_empty() && !args.quick);
        assert!(Args::parse(["--seed".to_owned()].into_iter()).is_none());
    }
}
