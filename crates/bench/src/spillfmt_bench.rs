//! `figures spillfmt-bench` — the indexed spill-run format experiment.
//!
//! Four probes, all landing in `BENCH_spillfmt.json`:
//!
//! * **Storage grid** — the TextSort job under spill pressure across
//!   {memory, disk} x {raw, lz4}; every cell's partition outputs are
//!   verified byte-identical to the seed (in-memory, uncompressed)
//!   grouping before any number is reported.
//! * **Indexed-skip probe** — a range-restricted merge over sealed runs;
//!   the footer index must let the merge read **less than half** of the
//!   runs' stored bytes (the CI gate).
//! * **Lookup probe** — cold full scan vs warm indexed point lookups on
//!   one sealed run: the index turns O(run) reads into O(block).
//! * **External-sort probe** — input ≥ 8x the memory budget; the
//!   forming run's byte high-water mark must stay pinned at the budget
//!   (plus one frame) while the sort completes through disk runs.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use datampi::store::PartitionStore;
use datampi::{JobConfig, KeyRange, SealedRun, SpillConfig, SpillReadCounters, WireCompression};
use dmpi_common::{ser, Error, Record, Result};
use dmpi_workloads::ExecWorkload;

use crate::table::Table;

/// The indexed-skip gate: a range-restricted merge must read strictly
/// less than this fraction of the runs' stored bytes.
pub const SKIP_GATE_FRACTION: f64 = 0.5;

/// One cell of the {memory,disk} x {raw,lz4} grid.
#[derive(Clone, Debug)]
pub struct SpillCell {
    /// `"memory"` or `"disk"`.
    pub storage: &'static str,
    /// `"raw"` or `"lz4"`.
    pub compression: &'static str,
    /// Wall time of the whole job.
    pub seconds: f64,
    /// Sealed runs across partitions.
    pub spills: u64,
    /// Raw framed-record bytes spilled.
    pub spilled_bytes: u64,
    /// Bytes the sealed runs occupy (blocks post-compression + index).
    pub spilled_wire_bytes: u64,
    /// Blocks the merge read back.
    pub blocks_read: u64,
}

/// The range-restricted merge probe.
#[derive(Clone, Debug)]
pub struct SkipProbe {
    /// Blocks across all sealed runs.
    pub total_blocks: u64,
    /// Blocks the restricted merge actually read.
    pub blocks_read: u64,
    /// Blocks skipped whole via the footer index.
    pub blocks_skipped: u64,
    /// Stored bytes across all sealed runs.
    pub run_bytes: u64,
    /// Stored bytes the restricted merge read.
    pub stored_bytes_read: u64,
}

impl SkipProbe {
    /// Fraction of the runs' stored bytes the restricted merge read.
    pub fn read_fraction(&self) -> f64 {
        self.stored_bytes_read as f64 / self.run_bytes.max(1) as f64
    }
}

/// Cold full scan vs warm indexed point lookups on one sealed run.
#[derive(Clone, Debug)]
pub struct LookupProbe {
    /// Blocks in the probed run.
    pub run_blocks: u64,
    /// Point lookups issued.
    pub lookups: u64,
    /// Blocks read by one cold full scan.
    pub cold_blocks: u64,
    /// Blocks read by all indexed lookups together.
    pub indexed_blocks: u64,
    /// Wall time of the cold scan.
    pub cold_seconds: f64,
    /// Wall time of all indexed lookups.
    pub indexed_seconds: f64,
}

/// The external-sort probe: residency stays bounded as input grows.
#[derive(Clone, Debug)]
pub struct ExtSortProbe {
    /// A-side memory budget, bytes.
    pub memory_budget: usize,
    /// Total ingested record bytes (>= 8x the budget).
    pub input_bytes: u64,
    /// Sealed disk runs.
    pub spills: u64,
    /// Forming-run byte high-water mark.
    pub peak_mem_bytes: u64,
    /// Largest single ingested frame (the allowed overshoot).
    pub max_frame_bytes: u64,
}

/// The full benchmark.
#[derive(Clone, Debug)]
pub struct SpillfmtBenchData {
    /// Ranks used for the storage grid.
    pub ranks: usize,
    /// O tasks per grid job.
    pub tasks: usize,
    /// Input bytes per O task.
    pub bytes_per_task: usize,
    /// The storage grid, seed cell first.
    pub cells: Vec<SpillCell>,
    /// The indexed-skip probe.
    pub skip: SkipProbe,
    /// The lookup probe.
    pub lookup: LookupProbe,
    /// The external-sort probe.
    pub extsort: ExtSortProbe,
}

/// A spill directory unique to this call: concurrent runs in one process
/// (the unit tests) must never share, or delete, each other's spill files.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dmpi-spillbench-{label}-{}-{n}",
        std::process::id()
    ))
}

/// Deterministic record stream with a wide, collision-heavy key space.
fn gen_records(n: usize, keys: u64, seed: u64) -> Vec<Record> {
    let mut x = seed | 1;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Record {
                key: Bytes::from(format!("k{:08}", x % keys)),
                value: Bytes::from(format!("v{i:08}-{}", "q".repeat((x % 29) as usize))),
            }
        })
        .collect()
}

fn fill_store(
    records: &[Record],
    budget: usize,
    cfg: SpillConfig,
) -> Result<(PartitionStore, u64)> {
    let mut store = PartitionStore::new(budget, true);
    store.set_spill_config(cfg);
    let mut max_frame = 0u64;
    for chunk in records.chunks(32) {
        let mut payload = Vec::new();
        for r in chunk {
            ser::frame_record(&mut payload, r);
        }
        max_frame = max_frame.max(payload.len() as u64);
        store.ingest(Bytes::from(payload))?;
    }
    store.finish_ingest();
    Ok((store, max_frame))
}

/// Runs the grid, the skip/lookup probes, and the external-sort probe.
///
/// Correctness is asserted before any number is reported: every grid
/// cell's partitions must equal the seed cell's byte for byte, and the
/// external-sort residency bound must hold.
pub fn spillfmt_bench_data(
    ranks: usize,
    tasks: usize,
    bytes_per_task: usize,
) -> Result<SpillfmtBenchData> {
    // ---- Storage grid: TextSort under spill pressure ----
    let workload = ExecWorkload::TextSort;
    let inputs = workload.inputs(tasks, bytes_per_task, 42);
    let budget = (tasks * bytes_per_task * 2 / ranks / 16).max(512);
    let mut cells = Vec::new();
    let mut seed_partitions: Option<Vec<dmpi_common::RecordBatch>> = None;
    for (storage, disk) in [("memory", false), ("disk", true)] {
        for (compression, lz4) in [("raw", false), ("lz4", true)] {
            let mut config = JobConfig::new(ranks)
                .with_sorted_grouping(true)
                .with_memory_budget(budget);
            let dir = disk.then(|| scratch_dir(compression));
            if let Some(d) = &dir {
                config = config.with_spill_dir(d.clone());
            }
            if lz4 {
                config = config.with_spill_compression(WireCompression::Lz4);
            }
            let start = Instant::now();
            let out = workload.run_inproc(&config, inputs.clone())?;
            let seconds = start.elapsed().as_secs_f64();
            match &seed_partitions {
                None => seed_partitions = Some(out.partitions.clone()),
                Some(seed) => {
                    let same = seed.len() == out.partitions.len()
                        && seed
                            .iter()
                            .zip(&out.partitions)
                            .all(|(p, q)| p.records() == q.records());
                    if !same {
                        return Err(Error::InvalidState(format!(
                            "spillfmt grid cell ({storage}, {compression}) diverged \
                             from the seed grouping"
                        )));
                    }
                }
            }
            cells.push(SpillCell {
                storage,
                compression,
                seconds,
                spills: out.stats.spills,
                spilled_bytes: out.stats.spilled_bytes,
                spilled_wire_bytes: out.stats.spilled_wire_bytes,
                blocks_read: out.stats.spill_blocks_read,
            });
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(&d);
            }
        }
    }

    // ---- Indexed-skip probe: merge restricted to ~5% of the keyspace ----
    // Geometry is fixed, not scaled with the grid: the gate needs runs
    // of many narrow blocks (16 KiB runs of 1 KiB blocks) so the footer
    // index has something to skip.
    let records = gen_records(8192, 100_000, 7);
    let skip_budget = 16 * 1024;
    let (mut store, _) = fill_store(
        &records,
        skip_budget,
        SpillConfig::default().with_block_bytes(1024),
    )?;
    // Seal everything so the probe measures pure indexed-run reads.
    store.seal_all();
    let run_bytes: u64 = store
        .sealed_run_handles()
        .iter()
        .map(|r| r.index().stored_bytes)
        .sum();
    let total_blocks: u64 = store
        .sealed_run_handles()
        .iter()
        .map(|r| r.index().blocks.len() as u64)
        .sum();
    let counters = store.read_counters();
    let range = KeyRange::new(&b"k00047000"[..], &b"k00052000"[..]);
    let mut stream = store.into_group_stream_range(Some(range))?;
    let mut groups = 0u64;
    while let Some(_g) = stream.next_group()? {
        groups += 1;
    }
    if groups == 0 {
        return Err(Error::InvalidState(
            "skip probe range matched no groups".into(),
        ));
    }
    let snap = counters.snapshot();
    let skip = SkipProbe {
        total_blocks,
        blocks_read: snap.blocks_read,
        blocks_skipped: snap.blocks_skipped,
        run_bytes,
        stored_bytes_read: snap.stored_bytes_read,
    };

    // ---- Lookup probe: cold scan vs warm indexed lookups ----
    let mut sorted = gen_records(tasks * bytes_per_task / 64, 50_000, 11);
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut writer = datampi::spillfmt::RunWriter::new(2048, true, true);
    for r in &sorted {
        writer.push(r);
    }
    let (image, index) = writer.finish();
    let run = SealedRun::mem(image, index);
    let cold = SpillReadCounters::new();
    let cold_start = Instant::now();
    let mut reader = run.open(&cold, None)?;
    while reader.next_record()?.is_some() {}
    let cold_seconds = cold_start.elapsed().as_secs_f64();
    let warm = SpillReadCounters::new();
    let probes: Vec<Bytes> = sorted
        .iter()
        .step_by((sorted.len() / 16).max(1))
        .map(|r| r.key.clone())
        .collect();
    let warm_start = Instant::now();
    for key in &probes {
        if run.lookup(key, &warm)?.is_empty() {
            return Err(Error::InvalidState("indexed lookup missed a key".into()));
        }
    }
    let indexed_seconds = warm_start.elapsed().as_secs_f64();
    let lookup = LookupProbe {
        run_blocks: run.index().blocks.len() as u64,
        lookups: probes.len() as u64,
        cold_blocks: cold.snapshot().blocks_read,
        indexed_blocks: warm.snapshot().blocks_read,
        cold_seconds,
        indexed_seconds,
    };

    // ---- External-sort probe: 8x-budget input, bounded residency ----
    let ext_budget = 4096usize;
    let ext_records = gen_records(6_000, 5_000, 23);
    let input_bytes: u64 = ext_records
        .iter()
        .map(|r| (r.key.len() + r.value.len()) as u64)
        .sum();
    let ext_dir = scratch_dir("extsort");
    let (mut ext_store, max_frame) = fill_store(
        &ext_records,
        ext_budget,
        SpillConfig::default()
            .with_dir(ext_dir.clone())
            .with_compression(true),
    )?;
    ext_store.seal_all();
    let st = ext_store.stats();
    if input_bytes < 8 * ext_budget as u64 {
        return Err(Error::InvalidState(
            "external-sort probe input must be >= 8x the budget".into(),
        ));
    }
    if st.peak_mem_bytes > ext_budget as u64 + max_frame {
        return Err(Error::InvalidState(format!(
            "external sort residency unbounded: peak {} > budget {} + frame {}",
            st.peak_mem_bytes, ext_budget, max_frame
        )));
    }
    let mut stream = ext_store.into_group_stream()?;
    let mut ext_groups = 0u64;
    while let Some(_g) = stream.next_group()? {
        ext_groups += 1;
    }
    if ext_groups == 0 {
        return Err(Error::InvalidState(
            "external sort produced no groups".into(),
        ));
    }
    drop(stream);
    let _ = std::fs::remove_dir_all(&ext_dir);
    let extsort = ExtSortProbe {
        memory_budget: ext_budget,
        input_bytes,
        spills: st.spills,
        peak_mem_bytes: st.peak_mem_bytes,
        max_frame_bytes: max_frame,
    };

    Ok(SpillfmtBenchData {
        ranks,
        tasks,
        bytes_per_task,
        cells,
        skip,
        lookup,
        extsort,
    })
}

/// The CI gate: the range-restricted merge must have read less than
/// [`SKIP_GATE_FRACTION`] of the runs' stored bytes.
pub fn skip_gate(data: &SpillfmtBenchData) -> Result<String> {
    let f = data.skip.read_fraction();
    if f >= SKIP_GATE_FRACTION {
        return Err(Error::InvalidState(format!(
            "indexed-skip gate failed: restricted merge read {:.1}% of run bytes \
             ({} of {}), gate is {:.0}%",
            f * 100.0,
            data.skip.stored_bytes_read,
            data.skip.run_bytes,
            SKIP_GATE_FRACTION * 100.0
        )));
    }
    Ok(format!(
        "indexed-skip gate ok: restricted merge read {:.1}% of run bytes \
         ({} of {} blocks) < {:.0}%",
        f * 100.0,
        data.skip.blocks_read,
        data.skip.total_blocks,
        SKIP_GATE_FRACTION * 100.0
    ))
}

/// Renders the report table.
pub fn render_table(data: &SpillfmtBenchData) -> Table {
    let mut table = Table::new(
        "spillfmt-bench",
        format!(
            "Indexed spill runs: {} ranks, {} tasks, {} B/task; skip probe read \
             {}/{} blocks ({:.1}% of bytes); lookup {} probes read {} blocks vs {} cold; \
             external sort peak {} B under budget {} B",
            data.ranks,
            data.tasks,
            data.bytes_per_task,
            data.skip.blocks_read,
            data.skip.total_blocks,
            data.skip.read_fraction() * 100.0,
            data.lookup.lookups,
            data.lookup.indexed_blocks,
            data.lookup.cold_blocks,
            data.extsort.peak_mem_bytes,
            data.extsort.memory_budget,
        ),
        &[
            "Storage",
            "Seconds",
            "Spills",
            "Raw KB",
            "Stored KB",
            "Blocks read",
        ],
    );
    for c in &data.cells {
        table.push_row(vec![
            format!("{}/{}", c.storage, c.compression),
            format!("{:.4}", c.seconds),
            c.spills.to_string(),
            format!("{:.1}", c.spilled_bytes as f64 / 1024.0),
            format!("{:.1}", c.spilled_wire_bytes as f64 / 1024.0),
            c.blocks_read.to_string(),
        ]);
    }
    table
}

/// Renders the `BENCH_spillfmt.json` artifact.
pub fn render_artifact_json(data: &SpillfmtBenchData) -> String {
    let mut out = String::from("{\n  \"experiment\": \"spillfmt-bench\",\n");
    let _ = writeln!(
        out,
        "  \"ranks\": {}, \"tasks\": {}, \"bytes_per_task\": {},",
        data.ranks, data.tasks, data.bytes_per_task
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in data.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"storage\": \"{}\", \"compression\": \"{}\", \"seconds\": {:.4}, \
             \"spills\": {}, \"spilled_bytes\": {}, \"spilled_wire_bytes\": {}, \
             \"blocks_read\": {}, \"identical_to_seed\": true}}{}",
            c.storage,
            c.compression,
            c.seconds,
            c.spills,
            c.spilled_bytes,
            c.spilled_wire_bytes,
            c.blocks_read,
            if i + 1 < data.cells.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let s = &data.skip;
    let _ = writeln!(
        out,
        "  \"skip_probe\": {{\"total_blocks\": {}, \"blocks_read\": {}, \
         \"blocks_skipped\": {}, \"run_bytes\": {}, \"stored_bytes_read\": {}, \
         \"read_fraction\": {:.4}}},",
        s.total_blocks,
        s.blocks_read,
        s.blocks_skipped,
        s.run_bytes,
        s.stored_bytes_read,
        s.read_fraction()
    );
    let l = &data.lookup;
    let _ = writeln!(
        out,
        "  \"lookup_probe\": {{\"run_blocks\": {}, \"lookups\": {}, \
         \"cold_blocks\": {}, \"indexed_blocks\": {}, \"cold_seconds\": {:.6}, \
         \"indexed_seconds\": {:.6}}},",
        l.run_blocks, l.lookups, l.cold_blocks, l.indexed_blocks, l.cold_seconds, l.indexed_seconds
    );
    let e = &data.extsort;
    let _ = writeln!(
        out,
        "  \"external_sort\": {{\"memory_budget\": {}, \"input_bytes\": {}, \
         \"spills\": {}, \"peak_mem_bytes\": {}, \"max_frame_bytes\": {}}}",
        e.memory_budget, e.input_bytes, e.spills, e.peak_mem_bytes, e.max_frame_bytes
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_identical_and_gates_hold() {
        let data = spillfmt_bench_data(2, 4, 16 * 1024).unwrap();
        // 2 storages x 2 compressions.
        assert_eq!(data.cells.len(), 4);
        for c in &data.cells {
            assert!(c.spills > 0, "{}/{} must spill", c.storage, c.compression);
        }
        // LZ4 cells store less than they spilled; raw cells store more
        // (index + trailer overhead on top of the raw framing).
        for c in data.cells.iter().filter(|c| c.compression == "lz4") {
            assert!(c.spilled_wire_bytes < c.spilled_bytes);
        }
        // The indexed-skip gate holds with margin at bench scale.
        let msg = skip_gate(&data).unwrap();
        assert!(msg.contains("ok"));
        assert!(data.skip.read_fraction() < SKIP_GATE_FRACTION);
        // Indexed lookups touch far fewer blocks than the cold scan.
        assert_eq!(data.lookup.cold_blocks, data.lookup.run_blocks);
        assert!(data.lookup.indexed_blocks < data.lookup.cold_blocks * 2);
        // The external-sort probe is 8x-budget and bounded by build.
        assert!(data.extsort.input_bytes >= 8 * data.extsort.memory_budget as u64);
        assert!(
            data.extsort.peak_mem_bytes
                <= data.extsort.memory_budget as u64 + data.extsort.max_frame_bytes
        );
        assert!(data.extsort.spills >= 8);
    }

    #[test]
    fn artifact_json_is_complete() {
        let data = spillfmt_bench_data(2, 3, 8 * 1024).unwrap();
        let json = render_artifact_json(&data);
        assert!(json.contains("\"experiment\": \"spillfmt-bench\""));
        assert!(json.contains("\"skip_probe\""));
        assert!(json.contains("\"lookup_probe\""));
        assert!(json.contains("\"external_sort\""));
        assert!(json.contains("\"identical_to_seed\": true"));
        assert!(render_table(&data).render_text().contains("disk/lz4"));
    }
}
