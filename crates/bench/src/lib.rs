//! Shared helpers for the benchmark harness binaries.
//!
//! Every table/figure of the paper's evaluation has a binary in `src/bin/`
//! that regenerates it (see DESIGN.md for the index). Each binary prints a
//! human-readable table to stdout and, via [`write_json`], drops a
//! machine-readable copy under `results/` so EXPERIMENTS.md numbers can be
//! re-derived mechanically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use menshen_json::{Json, ToJson};
use std::fs;
use std::path::PathBuf;

pub mod service_proc;
pub mod workloads;

/// Directory the harness binaries write their JSON results into.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serialises `value` as pretty JSON into `results/<name>.json`.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    write_json_at(&results_dir().join(format!("{name}.json")), value);
}

/// Serialises `value` as pretty JSON into an explicit `path`.
pub fn write_json_at<T: ToJson + ?Sized>(path: &std::path::Path, value: &T) {
    if let Err(error) = fs::write(path, value.to_json().pretty()) {
        eprintln!("warning: could not write {}: {error}", path.display());
    } else {
        println!("(wrote {})", path.display());
    }
}

/// Path of the committed machine-readable baseline at the repository root.
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_throughput.json")
}

/// Merge-updates one top-level section of the committed
/// `BENCH_throughput.json` baseline: the existing document is parsed, `key`
/// is inserted or replaced, and everything else is preserved — so each bench
/// can own a section without clobbering the others. A pre-sectioned legacy
/// document (recognised by its top-level `"benchmark"` name field) is wrapped
/// under that name first.
///
/// Fails **loudly** (panics, so the bench binary exits non-zero and CI goes
/// red) if the merge would drop any section that existed before — a bench
/// run must never silently lose another bench's committed series.
pub fn update_baseline<T: ToJson + ?Sized>(key: &str, value: &T) {
    let path = baseline_path();
    let existing = fs::read_to_string(&path).ok();
    let merged = merge_baseline_section(existing.as_deref(), key, value.to_json())
        .unwrap_or_else(|message| panic!("{}: {message}", path.display()));
    write_json_at(&path, &merged);
}

/// The pure merge step behind [`update_baseline`], separated so the
/// no-section-dropped guarantee is unit-testable. Returns the merged
/// document, or an error message when the existing text must not be
/// overwritten (unparseable / non-object) or the merge would lose a
/// section.
pub fn merge_baseline_section(
    existing: Option<&str>,
    key: &str,
    value: Json,
) -> Result<Json, String> {
    let mut doc = match existing {
        // Never silently clobber the other benches' committed series: a
        // baseline that exists but does not parse *as an object* (merge
        // conflict, stray edit) must be repaired by a human, not overwritten
        // — `Json::set` on a non-object would replace the whole document.
        Some(text) => match Json::parse(text) {
            Ok(doc @ Json::Obj(_)) => doc,
            Ok(_) => return Err("exists but is not a JSON object; refusing to overwrite".into()),
            Err(error) => {
                return Err(format!(
                    "exists but is not valid JSON ({error}); refusing to overwrite"
                ))
            }
        },
        None => Json::Obj(Vec::new()),
    };
    if let Some(Json::Str(name)) = doc.get("benchmark").cloned() {
        let legacy = std::mem::replace(&mut doc, Json::Obj(Vec::new()));
        doc.set(&name, legacy);
    }
    let sections_before: Vec<String> = match &doc {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    doc.set(key, value);
    // The loud-failure guard: every pre-existing section must survive the
    // merge. `Json::set` preserves siblings today; this check makes that a
    // contract rather than an implementation detail.
    for section in &sections_before {
        if doc.get(section).is_none() {
            return Err(format!(
                "merge-updating section {key:?} dropped existing section {section:?}; \
                 refusing to write"
            ));
        }
    }
    Ok(doc)
}

/// Prints a section header in the style used by all harness binaries.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_existing_sections() {
        let existing = r#"{ "hot_path": { "mpps": 5 }, "shard_scaling": { "x": 1 } }"#;
        let merged =
            merge_baseline_section(Some(existing), "latency_percentiles", Json::from(42)).unwrap();
        assert!(merged.get("hot_path").is_some());
        assert!(merged.get("shard_scaling").is_some());
        assert_eq!(merged.get("latency_percentiles"), Some(&Json::from(42)));
        // Replacing an existing section keeps the others too.
        let replaced =
            merge_baseline_section(Some(existing), "hot_path", Json::from("new")).unwrap();
        assert_eq!(replaced.get("hot_path"), Some(&Json::from("new")));
        assert!(replaced.get("shard_scaling").is_some());
    }

    #[test]
    fn match_scaling_merge_preserves_every_committed_section() {
        // Merging a new section into a baseline already carrying every
        // committed section must keep them all, whether the section is new
        // or replaced.
        const SECTIONS: &[&str] = &["capacity_knee", "reshard", "fault_recovery"];
        let existing = Json::Obj(
            SECTIONS
                .iter()
                .map(|&s| (s.to_string(), Json::obj([("mpps", Json::from(1))])))
                .collect(),
        )
        .pretty();
        let section = Json::obj([("tiers", vec![1_000usize].to_json())]);
        let merged =
            merge_baseline_section(Some(&existing), "match_scaling", section.clone()).unwrap();
        for s in SECTIONS {
            assert!(merged.get(s).is_some(), "section {s} must survive");
        }
        assert!(merged.get("match_scaling").is_some());
        // Re-merging (a later full run updating its own numbers) keeps the
        // rest too.
        let again =
            merge_baseline_section(Some(&merged.pretty()), "match_scaling", section).unwrap();
        for s in SECTIONS {
            assert!(again.get(s).is_some(), "section {s} must survive re-merge");
        }
    }

    #[test]
    fn merge_wraps_legacy_documents_and_rejects_garbage() {
        let legacy = r#"{ "benchmark": "hot_path", "mpps": 5 }"#;
        let merged = merge_baseline_section(Some(legacy), "new_section", Json::from(1)).unwrap();
        assert!(merged.get("hot_path").is_some(), "legacy doc wrapped");
        assert!(merged.get("new_section").is_some());

        assert!(merge_baseline_section(Some("[1, 2]"), "k", Json::Null).is_err());
        assert!(merge_baseline_section(Some("{ not json"), "k", Json::Null).is_err());
        // A missing baseline starts fresh.
        let fresh = merge_baseline_section(None, "only", Json::from(7)).unwrap();
        assert_eq!(fresh.get("only"), Some(&Json::from(7)));
    }

    #[test]
    fn results_dir_is_creatable_and_json_written() {
        let dir = results_dir();
        assert!(dir.exists());
        write_json("bench_selftest", &vec![1, 2, 3]);
        let path = dir.join("bench_selftest.json");
        assert!(path.exists());
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.contains('1'));
    }
}
