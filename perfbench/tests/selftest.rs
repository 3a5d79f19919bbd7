//! Tiny-input self-test: every metric `BENCHMARK.json` names is emitted
//! with its unit, and the reference check catches corrupted output.

use std::path::PathBuf;

use dmpi_workloads::ExecWorkload;
use perfbench::reference::{self, Reference};
use perfbench::run::{run, Options};
use perfbench::spec::{self, Spec};

/// Split size of the tiny inputs (the spill budget scales with it).
const TINY: usize = 16 << 10;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-selftest-{name}"))
}

/// The objects of one top-level array of `BENCHMARK.json`, as raw text.
fn section(name: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{name}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {name}"));
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    body.split('}')
        .filter(|o| o.contains('{'))
        .map(str::to_string)
        .collect()
}

/// The string value of `key` in one raw JSON object.
fn field(object: &str, key: &str) -> String {
    let at = object.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &object[at..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("closing quote");
    rest[open..close].to_string()
}

fn declared(name: &str) -> Vec<(String, String)> {
    section(name)
        .iter()
        .map(|o| (field(o, "name"), field(o, "unit")))
        .collect()
}

#[test]
fn the_declared_workloads_are_the_benchmarks_workloads() {
    let names: Vec<String> = section("workloads")
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    let specs: Vec<&str> = spec::all().iter().map(|s| s.name).collect();
    assert_eq!(names, specs);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(list);
        for spec in spec::all() {
            let opts = Options {
                seed: 7,
                seconds: 0.0,
                trace,
                out_dir: scratch(if trace { "traced" } else { "timed" }),
            };
            let outcome = run(&spec.clone().scaled(TINY), &opts).expect("tiny run completes");
            assert!(
                outcome.correct,
                "{}: output differs from the reference",
                spec.name
            );
            assert_eq!(outcome.failed, 0);
            let got: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} with trace={trace}", spec.name);
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    spec.name,
                    m.name,
                    m.value
                );
            }
            let line = outcome.to_json();
            for (name, unit) in &want {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{name} missing from {line}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
        }
    }
}

/// A job's output: one list of owned `(key, value)` pairs per partition.
type Partitions = Vec<Vec<(Vec<u8>, Vec<u8>)>>;

/// Runs one tiny job of `spec` and returns its reference and output.
fn tiny_job(spec: &Spec) -> (Reference, Partitions) {
    let spec = spec.clone().scaled(TINY);
    let inputs = spec.inputs(3);
    let reference = reference::compute(spec.workload, &inputs);
    let dir = scratch(&format!("job-{}", spec.name));
    let out = spec
        .workload
        .run_inproc(&spec.config(&dir), inputs)
        .expect("tiny job runs");
    let _ = std::fs::remove_dir_all(&dir);
    let partitions = out
        .partitions
        .iter()
        .map(|p| {
            p.records()
                .iter()
                .map(|r| (r.key.to_vec(), r.value.to_vec()))
                .collect()
        })
        .collect();
    (reference, partitions)
}

fn matches(reference: &Reference, workload: ExecWorkload, parts: &Partitions) -> bool {
    let views: Vec<Vec<(&[u8], &[u8])>> = parts
        .iter()
        .map(|p| p.iter().map(|(k, v)| (&k[..], &v[..])).collect())
        .collect();
    reference::matches(reference, workload, &views)
}

#[test]
fn the_reference_check_catches_corrupted_output() {
    for spec in [
        spec::by_name("wordcount").unwrap(),
        spec::by_name("sort-tcp-spill").unwrap(),
    ] {
        let (reference, parts) = tiny_job(&spec);
        let w = spec.workload;
        assert!(
            matches(&reference, w, &parts),
            "{}: clean output must match",
            spec.name
        );

        let corrupted_digest = Reference {
            digest: reference.digest ^ 1,
            ..reference
        };
        assert!(
            !matches(&corrupted_digest, w, &parts),
            "{}: corrupted digest",
            spec.name
        );

        let mut changed = parts.clone();
        let record = &mut changed[0][0];
        record.1 = match w {
            ExecWorkload::TextSort => b"x".to_vec(),
            _ => vec![record.1[0].wrapping_add(1) & 0x7f],
        };
        assert!(
            !matches(&reference, w, &changed),
            "{}: changed value",
            spec.name
        );

        let mut dropped = parts.clone();
        dropped[1].pop();
        assert!(
            !matches(&reference, w, &dropped),
            "{}: dropped record",
            spec.name
        );

        let mut reordered = parts.clone();
        let last = reordered[0].len() - 1;
        reordered[0].swap(0, last);
        assert!(
            !matches(&reference, w, &reordered),
            "{}: reordered partition",
            spec.name
        );
    }
}
