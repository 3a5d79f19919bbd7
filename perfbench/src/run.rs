//! One benchmark run: set up a workload's inputs, then either time its
//! jobs (end-to-end metrics) or make the traced run (per-layer metrics).

use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;

use datampi::{JobConfig, JobStats, Observer};

use crate::procfs;
use crate::reference::{self, Reference};
use crate::replay::{self, Replay};
use crate::spans::Recorder;
use crate::spec::Spec;

/// Times input generation is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// How to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed jobs after the warm-up job: jobs start while
    /// one more fits in the window, and at least one always runs.
    pub seconds: f64,
    /// Make the traced run instead of the timed one.
    pub trace: bool,
    /// Where span files and spill directories go.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// What a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every checked output matched the reference.
    pub correct: bool,
    /// Outputs checked (jobs, plus the replay on a traced run).
    pub attempted: u64,
    /// Outputs that were an error or did not match the reference.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The host record, a JSON object.
    pub host: String,
}

impl Outcome {
    /// Failed outputs over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A directory removed, with everything in it, when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(out_dir: &Path, name: &str) -> Result<Self, String> {
        let dir = out_dir.join(format!("spill-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Measurements of one job.
struct Job {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_bytes: u64,
    ok: bool,
    stats: Option<JobStats>,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `amount / secs`, or 0 when nothing was timed.
fn rate(amount: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        amount / secs
    } else {
        0.0
    }
}

/// Runs one job, checks its output against the reference, and checks
/// that it exercised the layers its workload was chosen for.
fn run_job(
    spec: &Spec,
    config: &JobConfig,
    inputs: &[Bytes],
    reference: &Reference,
) -> Result<Job, String> {
    if let Err(e) = procfs::reset_peak_rss() {
        eprintln!("perfbench: cannot reset peak RSS ({e}); peak_rss_mb includes set-up");
    }
    let cpu0 = procfs::cpu_secs();
    let start = Instant::now();
    let result = spec.workload.run_inproc(config, inputs.to_vec());
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_secs() - cpu0;
    let peak_rss_bytes = procfs::peak_rss_bytes();
    let (ok, stats) = match result {
        Ok(out) => {
            let partitions: Vec<Vec<(&[u8], &[u8])>> = out
                .partitions
                .iter()
                .map(|p| {
                    p.records()
                        .iter()
                        .map(|r| (&r.key[..], &r.value[..]))
                        .collect()
                })
                .collect();
            let ok = reference::matches(reference, spec.workload, &partitions);
            if !ok {
                eprintln!(
                    "perfbench: {} output does not match the reference",
                    spec.name
                );
            }
            (ok, Some(out.stats))
        }
        Err(e) => {
            eprintln!("perfbench: {} job failed: {e}", spec.name);
            (false, None)
        }
    };
    if let Some(stats) = &stats {
        check_job_layers(spec, stats)?;
    }
    Ok(Job {
        wall_s,
        cpu_s,
        peak_rss_bytes,
        ok,
        stats,
    })
}

/// Fails unless the job spilled exactly when its workload should, and
/// combined exactly when its workload should.
fn check_job_layers(spec: &Spec, stats: &JobStats) -> Result<(), String> {
    if spec.tcp_spill != (stats.spills > 0) {
        return Err(format!(
            "{}: job made {} spills; the workload is chosen to {}spill",
            spec.name,
            stats.spills,
            if spec.tcp_spill { "" } else { "never " }
        ));
    }
    let combined = stats.combiner_records_out < stats.combiner_records_in;
    if spec.combine != combined {
        return Err(format!(
            "{}: combiner folded {} records into {}; the workload is chosen to {}combine",
            spec.name,
            stats.combiner_records_in,
            stats.combiner_records_out,
            if spec.combine { "" } else { "never " }
        ));
    }
    Ok(())
}

/// Runs `spec` once as `opts` says.
pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let scratch = ScratchDir::new(&opts.out_dir, spec.name)?;
    let mut rec = Recorder::default();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        inputs.clear();
        inputs = rec.time("datagen.generate", None, || spec.inputs(opts.seed));
    }
    let setup_secs = rec.durations("datagen.generate");
    let input_bytes: u64 = inputs.iter().map(|i| i.len() as u64).sum();
    let input_mb = input_bytes as f64 / 1e6;
    let reference = rec.time("reference.compute", None, || {
        reference::compute(spec.workload, &inputs)
    });
    let config = spec.config(&scratch.0);
    let host = procfs::host_json(spec.name, opts.seed, input_bytes);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |job: &Job| {
        attempted += 1;
        failed += u64::from(!job.ok);
    };
    tally(&run_job(spec, &config, &inputs, &reference)?); // warm-up

    let metrics = if !opts.trace {
        let mut jobs = Vec::new();
        let start = Instant::now();
        loop {
            let job = run_job(spec, &config, &inputs, &reference)?;
            eprintln!(
                "perfbench: job {} wall {:.3} s, cpu {:.2} s, peak rss {:.1} MB",
                jobs.len(),
                job.wall_s,
                job.cpu_s,
                job.peak_rss_bytes as f64 / 1e6
            );
            tally(&job);
            jobs.push(job);
            // Stop once a job of the median length would overrun the
            // window, so a run lasts about `seconds` whatever the job size.
            let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
            if start.elapsed().as_secs_f64() + median(&walls) > opts.seconds {
                break;
            }
        }
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
        let cpus: Vec<f64> = jobs.iter().map(|j| j.cpu_s).collect();
        let rss: Vec<f64> = jobs.iter().map(|j| j.peak_rss_bytes as f64).collect();
        vec![
            metric("throughput_mb_s", "MB/s", input_mb / median(&walls)),
            metric("cpu_s", "s", median(&cpus)),
            metric("peak_rss_mb", "MB", median(&rss) / 1e6),
            metric("setup_s", "s", median(&setup_secs)),
        ]
    } else {
        let plain = run_job(spec, &config, &inputs, &reference)?;
        tally(&plain);
        let observer = Observer::new();
        let observed = run_job(
            spec,
            &config.clone().with_observer(observer.clone()),
            &inputs,
            &reference,
        )?;
        tally(&observed);
        let job_wire_bytes = observer.registry().snapshot().wire_bytes_sent;
        let replay = replay::run(spec, &config, &inputs, &reference, &scratch.0, &mut rec)?;
        attempted += 1;
        failed += u64::from(!replay.output_ok);
        check_replay_layers(spec, &replay, job_wire_bytes)?;
        let path = opts
            .out_dir
            .join(format!("spans-{}-seed{}.json", spec.name, opts.seed));
        std::fs::write(&path, rec.to_json(&host))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let stats = observed.stats.unwrap_or_default();
        layer_metrics(
            &rec, &replay, &reference, input_mb, &plain, &observed, &stats,
        )
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        host,
    })
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Fails unless the replay (and the observed job, for wire bytes) used
/// the transport and spilled exactly when the workload should, and
/// combined only on the combining workload.
fn check_replay_layers(spec: &Spec, replay: &Replay, job_wire_bytes: u64) -> Result<(), String> {
    let checks = [
        ("store.spills > 0", replay.spills > 0, spec.tcp_spill),
        (
            "transport.wire_bytes > 0",
            replay.wire_bytes > 0,
            spec.tcp_spill,
        ),
        ("job wire bytes > 0", job_wire_bytes > 0, spec.tcp_spill),
        (
            "buffer.combine_ratio < 1",
            replay.combiner_out < replay.combiner_in,
            spec.combine,
        ),
    ];
    for (what, seen, wanted) in checks {
        if seen != wanted {
            return Err(format!(
                "{}: `{what}` is {seen} in the traced run; the workload is chosen for it to be {wanted}",
                spec.name
            ));
        }
    }
    Ok(())
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    rec: &Recorder,
    replay: &Replay,
    reference: &Reference,
    input_mb: f64,
    plain: &Job,
    observed: &Job,
    stats: &JobStats,
) -> Vec<Metric> {
    let selfs = rec.self_secs();
    let totals = rec.total_secs();
    let own = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let combine_ratio = if replay.combiner_in > 0 {
        replay.combiner_out as f64 / replay.combiner_in as f64
    } else {
        1.0
    };
    // The layers the job itself runs; the codec, sort-kernel and
    // spill-format probes repeat work the store already did.
    let busy: f64 = [
        "workloads.map",
        "buffer.emit",
        "crc.verify",
        "store.ingest",
        "store.merge",
        "workloads.reduce",
    ]
    .iter()
    .map(|n| own(n))
    .sum::<f64>()
        + total("transport.stream");
    let phase = stats.phase_us;
    let us = |v: u64| v as f64 / 1e6;
    vec![
        metric(
            "datagen.mb_s",
            "MB/s",
            input_mb / median(&rec.durations("datagen.generate")),
        ),
        metric("reference.mb_s", "MB/s", rate(input_mb, reference.secs)),
        metric("workloads.o_busy_s", "s", own("workloads.map")),
        metric("workloads.records_out", "count", replay.records_out as f64),
        metric("workloads.a_busy_s", "s", own("workloads.reduce")),
        metric(
            "partition.ns_per_record",
            "ns",
            rate(own("partition.hash") * 1e9, replay.records_out as f64),
        ),
        metric("buffer.busy_s", "s", own("buffer.emit")),
        metric("buffer.frames", "count", replay.frames as f64),
        metric("buffer.bytes_out", "bytes", replay.bytes_out as f64),
        metric("buffer.combine_ratio", "ratio", combine_ratio),
        metric(
            "ser.encode_mb_s",
            "MB/s",
            rate(mb(replay.codec_bytes), own("ser.encode")),
        ),
        metric(
            "ser.decode_mb_s",
            "MB/s",
            rate(mb(replay.codec_bytes), own("ser.decode")),
        ),
        metric(
            "transport.mb_s",
            "MB/s",
            rate(mb(replay.wire_bytes), total("transport.stream")),
        ),
        metric("transport.send_wait_s", "s", total("transport.send")),
        metric("transport.wire_bytes", "bytes", replay.wire_bytes as f64),
        metric(
            "crc.mb_s",
            "MB/s",
            rate(mb(replay.payload_bytes), own("crc.verify")),
        ),
        metric("store.ingest_s", "s", own("store.ingest")),
        metric("store.merge_s", "s", own("store.merge")),
        metric("store.groups", "count", replay.groups as f64),
        metric(
            "store.peak_resident_records",
            "count",
            replay.peak_resident_records as f64,
        ),
        metric("store.spills", "count", replay.spills as f64),
        metric("compare.radix_s", "s", own("compare.radix")),
        metric("compare.std_s", "s", own("compare.std")),
        metric(
            "spillfmt.write_mb_s",
            "MB/s",
            rate(mb(replay.spill_raw_bytes), own("spillfmt.write")),
        ),
        metric(
            "spillfmt.read_mb_s",
            "MB/s",
            rate(mb(replay.spill_raw_bytes), own("spillfmt.read")),
        ),
        metric(
            "spillfmt.stored_bytes",
            "bytes",
            replay.spill_stored_bytes as f64,
        ),
        metric(
            "spillfmt.blocks_read",
            "count",
            replay.spill_blocks_read as f64,
        ),
        metric(
            "runtime.records_emitted",
            "count",
            stats.records_emitted as f64,
        ),
        metric("runtime.bytes_emitted", "bytes", stats.bytes_emitted as f64),
        metric("runtime.frames", "count", stats.frames as f64),
        metric("runtime.early_flushes", "count", stats.early_flushes as f64),
        metric("runtime.spilled_bytes", "bytes", stats.spilled_bytes as f64),
        metric("runtime.phase.o_task_s", "s", us(phase.o_task_us)),
        metric("runtime.phase.send_s", "s", us(phase.send_us)),
        metric("runtime.phase.recv_s", "s", us(phase.recv_us)),
        metric("runtime.phase.sort_s", "s", us(phase.sort_us)),
        metric("runtime.phase.spill_s", "s", us(phase.spill_us)),
        metric("runtime.phase.a_compute_s", "s", us(phase.a_compute_us)),
        metric("runtime.overhead_cpu_s", "s", plain.cpu_s - busy),
        metric(
            "runtime.trace_overhead",
            "ratio",
            observed.wall_s / plain.wall_s,
        ),
    ]
}
