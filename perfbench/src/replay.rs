//! The traced per-layer replay.
//!
//! One copy of a workload's data goes through each layer's public API
//! in pipeline order — O function, partitioner, `KvBuffer`, transport,
//! frame CRC, record codec, sort kernels, spill-run format, A store,
//! A function — on one thread, with a span around every call site (per
//! task, per frame or per batch of groups; never per record). Nothing
//! here runs inside the timed end-to-end jobs.

use std::hint::black_box;
use std::path::Path;
use std::thread;

use bytes::Bytes;

use datampi::buffer::KvBuffer;
use datampi::comm::Frame;
use datampi::store::PartitionStore;
use datampi::transport::{self, FrameReceiver};
use datampi::{JobConfig, SealedRun, SpillReadCounters};
use dmpi_common::compare::SortKernel;
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::partition::{HashPartitioner, Partitioner};
use dmpi_common::ser::{self, SharedRecordReader};
use dmpi_common::Record;
use dmpi_workloads::{sort, wordcount, ExecWorkload};

use crate::reference::{self, Reference};
use crate::spans::Recorder;
use crate::spec::{Spec, RANKS};

/// Groups pulled from the merge per `store.merge` span.
const GROUP_BATCH: usize = 4096;

type OFn = fn(usize, &[u8], &mut dyn Collector);
type AFn = fn(&GroupedValues, &mut dyn Collector);

/// Key/value pairs packed into one arena.
#[derive(Default)]
struct Arena {
    data: Vec<u8>,
    /// `(key_end, value_end)` offsets into `data`, one per pair.
    ends: Vec<(usize, usize)>,
}

impl Collector for Arena {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        self.data.extend_from_slice(key);
        let key_end = self.data.len();
        self.data.extend_from_slice(value);
        self.ends.push((key_end, self.data.len()));
    }
}

impl Arena {
    fn pairs(&self) -> Vec<(&[u8], &[u8])> {
        let mut start = 0;
        self.ends
            .iter()
            .map(|&(k, v)| {
                let pair = (&self.data[start..k], &self.data[k..v]);
                start = v;
                pair
            })
            .collect()
    }
}

/// Counts the replay measured, beside the spans it recorded.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Records the O function emitted (each hashed by the partitioner).
    pub records_out: u64,
    /// Frames the buffers shipped.
    pub frames: u64,
    /// Framed bytes the buffers shipped (after the combiner).
    pub bytes_out: u64,
    /// Records fed into the combiner (0 without one).
    pub combiner_in: u64,
    /// Records the combiner shipped.
    pub combiner_out: u64,
    /// Frame payload bytes shipped by the buffers.
    pub payload_bytes: u64,
    /// Bytes the transport wrote to its sockets (0 in-proc).
    pub wire_bytes: u64,
    /// Framed record bytes decoded and re-encoded by the codec probe.
    pub codec_bytes: u64,
    /// Sealed spill runs the replayed stores produced.
    pub spills: u64,
    /// Largest forming run any replayed store held, records.
    pub peak_resident_records: u64,
    /// Groups the merges yielded.
    pub groups: u64,
    /// Raw record bytes the spill-format probe wrote (and read back).
    pub spill_raw_bytes: u64,
    /// Bytes the probe's runs occupy on disk.
    pub spill_stored_bytes: u64,
    /// Blocks the probe read back.
    pub spill_blocks_read: u64,
    /// Whether the replay's A output matched the reference.
    pub output_ok: bool,
}

fn functions(workload: ExecWorkload) -> (OFn, AFn) {
    match workload {
        ExecWorkload::WordCount => (wordcount::map, wordcount::reduce),
        ExecWorkload::TextSort => (sort::text_map, sort::identity_reduce),
        ExecWorkload::Grep => unimplemented!("no benchmark workload runs grep"),
    }
}

/// Collects data frames from a mailbox until every rank's EOF arrived.
fn drain(rx: FrameReceiver) -> Result<Vec<Frame>, String> {
    let mut frames = Vec::new();
    let mut eofs = 0;
    while eofs < RANKS {
        match rx.recv().map_err(|e| e.to_string())? {
            Some(Frame::Eof { .. }) => eofs += 1,
            Some(frame) => frames.push(frame),
            None => return Err("mailbox closed before every EOF arrived".into()),
        }
    }
    Ok(frames)
}

/// Runs the replay, recording its spans into `rec` under one `replay`
/// root. Spill files go under `spill_dir` and are gone on return.
pub fn run(
    spec: &Spec,
    config: &JobConfig,
    inputs: &[Bytes],
    reference: &Reference,
    spill_dir: &Path,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let (o_fn, a_fn) = functions(spec.workload);
    let mut out = Replay::default();
    let root = rec.open("replay", None);

    // O side: map, partition, buffer — per task, frames captured in
    // per-destination mailboxes.
    let mut capture = transport::for_config(&JobConfig::new(RANKS))
        .open()
        .map_err(|e| e.to_string())?;
    let senders: Vec<_> = capture.iter().map(|ep| ep.senders()).collect();
    let receivers: Vec<_> = capture.iter_mut().map(|ep| ep.take_receiver()).collect();
    let captured = thread::scope(|s| {
        let drains: Vec<_> = receivers
            .into_iter()
            .map(|rx| s.spawn(move || drain(rx)))
            .collect();
        let partitioner = HashPartitioner::new(RANKS);
        for (task, input) in inputs.iter().enumerate() {
            let rank = task % RANKS;
            let task_span = rec.open("o.task", Some(root));
            let arena = rec.time("workloads.map", Some(task_span), || {
                let mut arena = Arena::default();
                o_fn(task, input, &mut arena);
                arena
            });
            let pairs = arena.pairs();
            rec.time("partition.hash", Some(task_span), || {
                black_box(
                    pairs
                        .iter()
                        .map(|(k, _)| partitioner.partition(k))
                        .sum::<usize>(),
                )
            });
            let stats = rec.time("buffer.emit", Some(task_span), || {
                let mut buffer = KvBuffer::new(
                    senders[rank].clone(),
                    rank,
                    task,
                    config.flush_threshold,
                    config.pipelined,
                );
                if let Some(c) = &config.combiner {
                    buffer.set_combiner(c.clone());
                }
                for (k, v) in &pairs {
                    buffer.emit_kv(k, v);
                }
                buffer.finish()
            });
            rec.close(task_span);
            out.records_out += pairs.len() as u64;
            out.frames += stats.frames;
            out.bytes_out += stats.bytes;
            out.combiner_in += stats.combiner_records_in;
            out.combiner_out += stats.combiner_records_out;
        }
        for (from_rank, to) in senders.iter().enumerate() {
            for sender in to {
                sender.send(Frame::Eof { from_rank });
            }
        }
        drains
            .into_iter()
            .map(|h| h.join().expect("capture drain panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    drop(senders);
    for ep in capture {
        ep.close();
    }
    out.payload_bytes = captured
        .iter()
        .flatten()
        .map(|f| f.payload_len() as u64)
        .sum();

    // Transport: the spilling workload ships the captured frames over
    // the job's real loopback TCP mesh; in-proc workloads bypass it.
    let frames_by_dest = if spec.tcp_spill {
        ship_over_tcp(config, captured, root, rec, &mut out)?
    } else {
        captured
    };

    // A side, one destination partition at a time.
    let mut outputs: Vec<Arena> = Vec::with_capacity(RANKS);
    for (dest, frames) in frames_by_dest.into_iter().enumerate() {
        let part = rec.open("a.partition", Some(root));
        rec.time("crc.verify", Some(part), || {
            frames.iter().try_for_each(Frame::verify)
        })
        .map_err(|e| e.to_string())?;
        let payloads: Vec<Bytes> = frames
            .into_iter()
            .filter_map(|f| match f {
                Frame::Data { payload, .. } => Some(payload),
                Frame::Eof { .. } => None,
            })
            .collect();
        codec_sort_and_spill_probes(config, &payloads, spill_dir, dest, part, rec, &mut out)?;

        let mut store = PartitionStore::new(config.memory_budget, true);
        store.set_spill_config(
            config
                .spill_config()
                .with_tag(format!("replay-store-{dest}")),
        );
        store.set_sort_kernel(config.sort_kernel);
        rec.time("store.ingest", Some(part), || {
            for p in &payloads {
                store.ingest(p.clone())?;
            }
            store.finish_ingest();
            Ok(())
        })
        .map_err(|e: dmpi_common::Error| e.to_string())?;
        drop(payloads);
        let stats = store.stats();
        out.spills += stats.spills;
        out.peak_resident_records = out.peak_resident_records.max(stats.peak_resident_records);
        let mut groups = rec
            .time("store.merge", Some(part), || store.into_group_stream())
            .map_err(|e| e.to_string())?;
        let mut arena = Arena::default();
        loop {
            let batch = rec
                .time("store.merge", Some(part), || {
                    let mut batch = Vec::with_capacity(GROUP_BATCH);
                    while batch.len() < GROUP_BATCH {
                        match groups.next_group()? {
                            Some(g) => batch.push(g),
                            None => break,
                        }
                    }
                    Ok(batch)
                })
                .map_err(|e: dmpi_common::Error| e.to_string())?;
            if batch.is_empty() {
                break;
            }
            out.groups += batch.len() as u64;
            rec.time("workloads.reduce", Some(part), || {
                for g in &batch {
                    a_fn(g, &mut arena);
                }
            });
        }
        rec.close(part);
        outputs.push(arena);
    }
    rec.close(root);

    let partitions: Vec<_> = outputs.iter().map(Arena::pairs).collect();
    out.output_ok = reference::matches(reference, spec.workload, &partitions);
    Ok(out)
}

/// Sends every captured frame over a fresh TCP mesh built from
/// `config`, interleaving destinations, and returns what each rank
/// received — ordered by sending rank, then arrival, so later stages
/// see the same order on every run.
fn ship_over_tcp(
    config: &JobConfig,
    captured: Vec<Vec<Frame>>,
    root: usize,
    rec: &mut Recorder,
    out: &mut Replay,
) -> Result<Vec<Vec<Frame>>, String> {
    let mut mesh = transport::for_config(config)
        .open()
        .map_err(|e| e.to_string())?;
    let stream = rec.open("transport.stream", Some(root));
    let senders: Vec<_> = mesh.iter().map(|ep| ep.senders()).collect();
    let receivers: Vec<_> = mesh.iter_mut().map(|ep| ep.take_receiver()).collect();
    let received = thread::scope(|s| {
        let drains: Vec<_> = receivers
            .into_iter()
            .map(|rx| s.spawn(move || drain(rx)))
            .collect();
        let mut queues: Vec<_> = captured.into_iter().map(Vec::into_iter).collect();
        let mut sent = true;
        while sent {
            sent = false;
            for (dest, queue) in queues.iter_mut().enumerate() {
                if let Some(frame) = queue.next() {
                    let from = frame.from_rank();
                    rec.time("transport.send", Some(stream), || {
                        senders[from][dest].send(frame)
                    });
                    sent = true;
                }
            }
        }
        for (from_rank, to) in senders.iter().enumerate() {
            for sender in to {
                rec.time("transport.send", Some(stream), || {
                    sender.send(Frame::Eof { from_rank })
                });
            }
        }
        rec.time("transport.drain", Some(stream), || {
            drains
                .into_iter()
                .map(|h| h.join().expect("receiver drain panicked"))
                .collect::<Result<Vec<_>, String>>()
        })
    })?;
    rec.close(stream);
    drop(senders);
    out.wire_bytes = mesh.into_iter().map(|ep| ep.close().bytes_sent).sum();
    Ok(received
        .into_iter()
        .map(|mut frames| {
            frames.sort_by_key(Frame::from_rank);
            frames
        })
        .collect())
}

/// The standalone layer probes on one partition's data: record decode
/// and encode, both sort kernels (which must agree), and — on the
/// spilling workload — one sorted spill run written to disk and read
/// back through the run format.
fn codec_sort_and_spill_probes(
    config: &JobConfig,
    payloads: &[Bytes],
    spill_dir: &Path,
    dest: usize,
    part: usize,
    rec: &mut Recorder,
    out: &mut Replay,
) -> Result<(), String> {
    let records = rec
        .time("ser.decode", Some(part), || {
            let mut records = Vec::new();
            for p in payloads {
                let mut reader = SharedRecordReader::new(p.clone());
                while let Some(r) = reader.next_record()? {
                    records.push(r);
                }
            }
            Ok(records)
        })
        .map_err(|e: dmpi_common::Error| e.to_string())?;
    let encoded = rec.time("ser.encode", Some(part), || {
        let mut buf = Vec::new();
        for r in &records {
            ser::frame_record(&mut buf, r);
        }
        buf.len() as u64
    });
    out.codec_bytes += encoded;

    let mut radix: Vec<Record> = records.clone();
    rec.time("compare.radix", Some(part), || {
        SortKernel::Radix.sort(&mut radix)
    });
    let mut sorted = records;
    rec.time("compare.std", Some(part), || {
        SortKernel::Comparison.sort(&mut sorted)
    });
    if radix != sorted {
        return Err("radix and comparison sort kernels disagree".into());
    }
    drop(radix);

    if config.spill_dir.is_none() {
        return Ok(());
    }
    let cfg = config.spill_config();
    let run = rec
        .time("spillfmt.write", Some(part), || {
            let mut writer = datampi::spillfmt::RunWriter::new(cfg.block_bytes, cfg.compress, true);
            for r in &sorted {
                writer.push(r);
            }
            let (image, index) = writer.finish();
            SealedRun::to_file(
                &image,
                index,
                spill_dir.join(format!("replay-probe-{dest}.spill")),
            )
        })
        .map_err(|e| e.to_string())?;
    let counters = SpillReadCounters::new();
    let read = rec
        .time("spillfmt.read", Some(part), || {
            let mut reader = run.open(&counters, None)?;
            let mut n = 0usize;
            while reader.next_record()?.is_some() {
                n += 1;
            }
            Ok(n)
        })
        .map_err(|e: dmpi_common::Error| e.to_string())?;
    if read != sorted.len() {
        return Err(format!(
            "spill run read back {read} of {} records",
            sorted.len()
        ));
    }
    out.spill_raw_bytes += run.index().raw_bytes;
    out.spill_stored_bytes += run.index().file_len;
    out.spill_blocks_read += counters.snapshot().blocks_read;
    Ok(())
}
