//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host record, one line per metric, and as its last line
//! the JSON result. Exits non-zero, without a result, when a run cannot
//! complete or a workload fails to exercise the layers it is chosen for.

use std::path::Path;
use std::process::ExitCode;

use perfbench::run::{self, Options};
use perfbench::spec;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<_> = spec::all().iter().map(|s| s.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42u64, 10.0f64, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = spec::by_name(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => {
                    seconds = v;
                    true
                }
                _ => false,
            },
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(spec) = workload else {
        return usage("--workload is required");
    };
    let opts = Options {
        seed,
        seconds,
        trace,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    match run::run(&spec, &opts) {
        Ok(outcome) => {
            println!("{{\"host\": {}}}", outcome.host);
            for m in &outcome.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("error_rate {} ratio", outcome.error_rate());
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}
