//! Partitioned key-value send buffers — the pipelining mechanism.
//!
//! An O task emits key-value pairs through a [`KvBuffer`]: pairs are
//! hash-partitioned to their destination A partition and framed into
//! per-destination byte buffers. In pipelined mode a buffer is shipped the
//! moment it crosses the flush threshold, so communication proceeds while
//! the O task keeps computing — the overlap the paper identifies as
//! DataMPI's main advantage. In staged mode (the Hadoop-like ablation)
//! everything is held until [`KvBuffer::finish`].
//!
//! With an O-side combiner installed, emits are not framed directly but
//! staged per destination in a `Staged` window — an FNV key index over
//! one contiguous byte arena — and key-folded through the combiner
//! right before the window's frame is built.

use std::ops::Range;

use bytes::Bytes;

use dmpi_common::group::GroupedValues;
use dmpi_common::hashing::FnvHashMap;
use dmpi_common::partition::{HashPartitioner, Partitioner};
use dmpi_common::ser;
use dmpi_common::varint;
use dmpi_common::Record;

use crate::checkpoint::CheckpointStore;
use crate::comm::Frame;
use crate::fault::Corruption;
use crate::observe::{SpanKind, Tracer};
use crate::task::{Collector, Combiner};
use crate::transport::FrameSender;

/// Counters reported by a finished buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Records emitted by user code (pre-combiner).
    pub records: u64,
    /// Framed bytes shipped (post-combiner when one is installed).
    pub bytes: u64,
    /// Frames shipped before `finish` (the pipelined flushes).
    pub early_flushes: u64,
    /// Total frames shipped.
    pub frames: u64,
    /// Records fed into the combiner (0 without one).
    pub combiner_records_in: u64,
    /// Records the combiner emitted for shipping (0 without one).
    pub combiner_records_out: u64,
}

/// A partitioned, flush-on-threshold emit buffer bound to one O task.
pub struct KvBuffer {
    partitioner: HashPartitioner,
    senders: Vec<FrameSender>,
    buffers: Vec<Vec<u8>>,
    from_rank: usize,
    o_task: usize,
    flush_threshold: usize,
    pipelined: bool,
    stats: BufferStats,
    /// Checkpoint tee: every shipped frame is also recorded here so a
    /// completed task's output can be replayed after a restart.
    tee: Option<CheckpointStore>,
    /// Fault injection: flip one byte of the next flushed frame *after*
    /// its CRC is computed and *after* the tee records the clean copy —
    /// wire corruption, not stable-store corruption.
    corruption: Option<Corruption>,
    /// Observability: when set, flushes record `Send` spans and feed the
    /// per-peer byte counters; `finish` reports the occupancy high-water
    /// mark. `None` costs one branch per emit.
    tracer: Option<Tracer>,
    /// Largest single-partition buffer occupancy seen, bytes.
    hwm_bytes: usize,
    /// O-side pre-aggregation: when set, emits are staged per
    /// destination (see [`Staged`]) and key-folded through this function
    /// right before their frame is built, so repeated keys collapse
    /// locally instead of crossing the wire.
    combiner: Option<Combiner>,
    /// Per-destination combiner staging (empty when none). Each window's
    /// index, arena and value list are cleared, not dropped, after the
    /// fold, so once they have grown only a key's first appearance in a
    /// window allocates.
    staged: Vec<Staged>,
}

/// End of a group's value chain in [`Staged::values`].
const NONE: usize = usize::MAX;

/// One destination's combiner window: every pair emitted to it since the
/// last fold, held as key groups over a single byte arena.
///
/// A key is copied into the index and the arena on its first appearance
/// only; values are appended in arrival order and threaded onto their
/// group through `next` links.
/// All offsets are `usize`, so a staged-mode window (a whole task's
/// emissions, held until `finish`) may outgrow 4 GiB.
#[derive(Default)]
struct Staged {
    /// Each distinct key's index in `groups`.
    index: FnvHashMap<Box<[u8]>, usize>,
    /// Distinct keys in first-appearance order.
    groups: Vec<StagedGroup>,
    /// Every staged value in arrival order.
    values: Vec<StagedValue>,
    /// Key and value bytes, contiguous.
    arena: Vec<u8>,
    /// Framed-size equivalent of the window (`varint(key_len) +
    /// varint(value_len) + key + value` per pair) — the quantity the
    /// flush threshold is compared against.
    framed_bytes: usize,
    /// The reused value list of the group handed to the combiner.
    scratch: Vec<Bytes>,
}

/// A distinct key of a [`Staged`] window.
struct StagedGroup {
    key: Range<usize>,
    /// First and last of the group's values (indices into `values`).
    first: usize,
    last: usize,
}

/// One staged value: its arena bytes and the next value of its group.
struct StagedValue {
    bytes: Range<usize>,
    next: usize,
}

impl Staged {
    /// Stages one pair: one index lookup and an append of the value
    /// bytes; the key is copied (and allocated in the index) only the
    /// first time it appears in this window.
    fn push(&mut self, key: &[u8], value: &[u8]) {
        self.framed_bytes += varint::encoded_len(key.len() as u64)
            + varint::encoded_len(value.len() as u64)
            + key.len()
            + value.len();
        let v = self.values.len();
        let start = self.arena.len();
        self.arena.extend_from_slice(value);
        self.values.push(StagedValue {
            bytes: start..self.arena.len(),
            next: NONE,
        });
        match self.index.get(key) {
            Some(&g) => {
                let group = &mut self.groups[g];
                self.values[group.last].next = v;
                group.last = v;
            }
            None => {
                self.index.insert(key.into(), self.groups.len());
                let key_start = self.arena.len();
                self.arena.extend_from_slice(key);
                self.groups.push(StagedGroup {
                    key: key_start..self.arena.len(),
                    first: v,
                    last: v,
                });
            }
        }
    }

    /// Folds the window through `combiner` into `out` and resets it for
    /// the next window, keeping the capacity of the index, arena and value
    /// list. Returns the number of values folded.
    ///
    /// The arena is frozen into one shared [`Bytes`] so each group's key
    /// and values reach the combiner as zero-copy windows of it. Groups
    /// go in first-appearance order and values in arrival order — the
    /// order `group_hashed` over the same pairs produces — so the framed
    /// output is the same as grouping decoded records.
    fn fold(&mut self, combiner: &Combiner, out: &mut dyn Collector) -> usize {
        let frozen = Bytes::copy_from_slice(&self.arena);
        let mut group = GroupedValues {
            key: Bytes::new(),
            values: std::mem::take(&mut self.scratch),
        };
        for g in &self.groups {
            group.key = frozen.slice(g.key.clone());
            group.values.clear();
            let mut v = g.first;
            while v != NONE {
                group
                    .values
                    .push(frozen.slice(self.values[v].bytes.clone()));
                v = self.values[v].next;
            }
            combiner.apply(&group, out);
        }
        // Hold no views of the frozen window past the fold.
        group.values.clear();
        self.scratch = group.values;
        let folded = self.values.len();
        self.index.clear();
        self.groups.clear();
        self.values.clear();
        self.arena.clear();
        self.framed_bytes = 0;
        folded
    }
}

/// Frames a combiner's output records straight into a destination
/// buffer, counting them.
struct FrameCollector<'a> {
    buf: &'a mut Vec<u8>,
    records: u64,
}

impl Collector for FrameCollector<'_> {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        dmpi_common::varint::write_u64(self.buf, key.len() as u64);
        dmpi_common::varint::write_u64(self.buf, value.len() as u64);
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        self.records += 1;
    }
}

impl KvBuffer {
    /// Creates a buffer for O task `o_task` running on `from_rank`.
    /// `senders[p]` ships to partition `p` over whichever transport the
    /// job selected; a full destination (bounded mailbox or TCP send
    /// window) blocks the emitting task — that is the backpressure.
    pub fn new(
        senders: Vec<FrameSender>,
        from_rank: usize,
        o_task: usize,
        flush_threshold: usize,
        pipelined: bool,
    ) -> Self {
        let parts = senders.len();
        KvBuffer {
            partitioner: HashPartitioner::new(parts),
            buffers: (0..parts).map(|_| Vec::new()).collect(),
            senders,
            from_rank,
            o_task,
            flush_threshold,
            pipelined,
            stats: BufferStats::default(),
            tee: None,
            corruption: None,
            tracer: None,
            hwm_bytes: 0,
            combiner: None,
            staged: Vec::new(),
        }
    }

    /// Installs an O-side combiner; see
    /// [`JobConfig::with_combiner`](crate::JobConfig::with_combiner).
    pub fn set_combiner(&mut self, combiner: Combiner) {
        self.staged = (0..self.buffers.len()).map(|_| Staged::default()).collect();
        self.combiner = Some(combiner);
    }

    /// Enables the checkpoint tee.
    pub fn set_tee(&mut self, tee: CheckpointStore) {
        self.tee = Some(tee);
    }

    /// Arms wire corruption of the next flushed frame (fault injection).
    pub fn set_corruption(&mut self, corruption: Corruption) {
        self.corruption = Some(corruption);
    }

    /// Installs an observability tracer (usually task-scoped via
    /// [`Tracer::for_task`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Emits one key-value pair.
    pub fn emit(&mut self, record: &Record) {
        if self.combiner.is_some() {
            let p = self.partitioner.partition(&record.key);
            self.stage(p, &record.key, &record.value);
            return;
        }
        let p = self.partitioner.partition(&record.key);
        ser::frame_record(&mut self.buffers[p], record);
        self.stats.records += 1;
        self.stats.bytes += record.framed_len() as u64;
        self.hwm_bytes = self.hwm_bytes.max(self.buffers[p].len());
        if self.pipelined && self.buffers[p].len() >= self.flush_threshold {
            self.flush_partition(p);
            self.stats.early_flushes += 1;
        }
    }

    /// Emits a raw key/value pair without constructing a `Record`.
    pub fn emit_kv(&mut self, key: &[u8], value: &[u8]) {
        if self.combiner.is_some() {
            let p = self.partitioner.partition(key);
            self.stage(p, key, value);
            return;
        }
        // Avoid the Bytes round trip on the hot path.
        let p = self.partitioner.partition(key);
        let buf = &mut self.buffers[p];
        let before = buf.len();
        dmpi_common::varint::write_u64(buf, key.len() as u64);
        dmpi_common::varint::write_u64(buf, value.len() as u64);
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        self.stats.records += 1;
        self.stats.bytes += (buf.len() - before) as u64;
        self.hwm_bytes = self.hwm_bytes.max(buf.len());
        if self.pipelined && buf.len() >= self.flush_threshold {
            self.flush_partition(p);
            self.stats.early_flushes += 1;
        }
    }

    /// Combiner path of both emit surfaces: stage the pair in
    /// destination `p`'s window and fold + ship the window once its
    /// framed-size equivalent crosses the flush threshold.
    fn stage(&mut self, p: usize, key: &[u8], value: &[u8]) {
        self.stats.records += 1;
        let staged = &mut self.staged[p];
        staged.push(key, value);
        self.hwm_bytes = self.hwm_bytes.max(staged.framed_bytes);
        if self.pipelined && staged.framed_bytes >= self.flush_threshold {
            self.combine_partition(p);
            self.flush_partition(p);
            self.stats.early_flushes += 1;
        }
    }

    /// Folds destination `p`'s staged window through the combiner into
    /// its frame buffer: one group per distinct key, in first-appearance
    /// order (the A side regroups anyway), values in arrival order.
    fn combine_partition(&mut self, p: usize) {
        let staged = &mut self.staged[p];
        if staged.values.is_empty() {
            return;
        }
        let combiner = self.combiner.as_ref().expect("stage requires a combiner");
        let buf = &mut self.buffers[p];
        let before = buf.len();
        let mut out = FrameCollector { buf, records: 0 };
        let folded = staged.fold(combiner, &mut out);
        self.stats.combiner_records_in += folded as u64;
        self.stats.combiner_records_out += out.records;
        self.stats.bytes += (self.buffers[p].len() - before) as u64;
    }

    fn flush_partition(&mut self, p: usize) {
        if self.buffers[p].is_empty() {
            return;
        }
        let send_start = self.tracer.as_ref().map(Tracer::start);
        let payload = Bytes::from(std::mem::take(&mut self.buffers[p]));
        self.stats.frames += 1;
        if let Some(tee) = &self.tee {
            tee.record_frame(self.o_task, p, payload.clone());
        }
        // The CRC is stamped over the clean payload; an armed corruption
        // then flips a wire byte, so the receiver's verify must fail.
        let mut frame = Frame::data(self.from_rank, self.o_task, payload);
        if let Some(corruption) = self.corruption.take() {
            if let Frame::Data { payload, .. } = &mut frame {
                // This copy is unavoidable: `Bytes` is immutable shared
                // storage (the checkpoint tee above may hold the clean
                // payload), so flipping a wire byte needs its own buffer.
                // It only runs on injected-corruption frames, never the
                // hot path.
                let mut bytes = payload.to_vec();
                corruption.apply(&mut bytes);
                *payload = Bytes::from(bytes);
            }
        }
        // A false return means the peer is gone and the job is tearing
        // down (a failure is propagating); dropping the frame is correct.
        let bytes = frame.payload_len();
        self.senders[p].send(frame);
        if let Some(t) = &self.tracer {
            t.registry().add_frame_sent(self.from_rank, p, bytes as u64);
            t.span(
                SpanKind::Send,
                send_start.unwrap_or(0),
                vec![("peer", p.to_string()), ("bytes", bytes.to_string())],
            );
        }
    }

    /// Flushes all remaining data (folding staged records through the
    /// combiner first, when one is installed) and returns the task's
    /// counters.
    pub fn finish(mut self) -> BufferStats {
        for p in 0..self.buffers.len() {
            if self.combiner.is_some() {
                self.combine_partition(p);
            }
            self.flush_partition(p);
        }
        if let Some(t) = &self.tracer {
            t.registry().add_records_out(self.stats.records);
            t.registry().observe_buffer_level(self.hwm_bytes as u64);
            t.registry().add_combiner(
                self.stats.combiner_records_in,
                self.stats.combiner_records_out,
            );
        }
        self.stats
    }

    /// Current counters (non-consuming view).
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Interconnect;

    fn frame_senders(net: &Interconnect) -> Vec<FrameSender> {
        net.senders()
            .into_iter()
            .map(FrameSender::from_channel)
            .collect()
    }

    fn drain(rx: &crossbeam::channel::Receiver<Frame>) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Ok(f) = rx.try_recv() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn records_land_in_consistent_partitions() {
        let mut net = Interconnect::new(4);
        let senders = frame_senders(&net);
        let rxs: Vec<_> = (0..4).map(|r| net.take_receiver(r)).collect();
        let mut buf = KvBuffer::new(senders, 0, 0, usize::MAX, true);
        let part = HashPartitioner::new(4);
        let mut expected = [0u64; 4];
        for i in 0..100 {
            let r = Record::from_strs(&format!("key{i}"), "v");
            expected[part.partition(&r.key)] += 1;
            buf.emit(&r);
        }
        let stats = buf.finish();
        assert_eq!(stats.records, 100);
        assert_eq!(stats.early_flushes, 0, "threshold never crossed");
        for (p, rx) in rxs.iter().enumerate() {
            let frames = drain(rx);
            let records: u64 = frames
                .iter()
                .map(|f| match f {
                    Frame::Data { payload, .. } => {
                        ser::unframe_batch(payload).unwrap().len() as u64
                    }
                    _ => 0,
                })
                .sum();
            assert_eq!(records, expected[p], "partition {p}");
        }
    }

    #[test]
    fn pipelined_mode_flushes_early() {
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 0, 64, true);
        for i in 0..100 {
            buf.emit_kv(format!("k{i}").as_bytes(), b"value-bytes");
        }
        let stats = buf.finish();
        assert!(stats.early_flushes > 0, "should flush during emission");
        assert!(stats.frames > 1);
        let total: usize = drain(&rx).iter().map(Frame::payload_len).sum();
        assert_eq!(total as u64, stats.bytes);
    }

    #[test]
    fn staged_mode_ships_once_at_finish() {
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 3, 64, false);
        for i in 0..100 {
            buf.emit_kv(format!("k{i}").as_bytes(), b"value-bytes");
        }
        assert!(drain(&rx).is_empty(), "nothing shipped before finish");
        let stats = buf.finish();
        assert_eq!(stats.early_flushes, 0);
        assert_eq!(stats.frames, 1);
        let frames = drain(&rx);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Data { o_task, .. } => assert_eq!(*o_task, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn armed_corruption_flips_the_wire_but_not_the_checkpoint() {
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let cp = crate::checkpoint::CheckpointStore::new();
        let mut buf = KvBuffer::new(senders, 0, 4, usize::MAX, false);
        buf.set_tee(cp.clone());
        buf.set_corruption(Corruption {
            offset_seed: 3,
            mask: 0x10,
        });
        buf.emit_kv(b"key", b"value");
        buf.finish();
        let frame = rx.try_recv().unwrap();
        let err = frame.verify().unwrap_err();
        assert_eq!(
            err.fault_cause().unwrap().kind,
            dmpi_common::FaultKind::CorruptFrame
        );
        // The checkpointed copy is the clean payload.
        cp.mark_complete(4);
        let clean = &cp.recover_frames(4)[0].1;
        match frame {
            Frame::Data { payload, .. } => assert_ne!(&payload[..], &clean[..]),
            other => panic!("unexpected {other:?}"),
        }
        Frame::data(0, 4, clean.clone()).verify().unwrap();
    }

    /// The WordCount-style sum combiner used by the tests below.
    fn sum_combiner() -> Combiner {
        use dmpi_common::ser::Writable;
        Combiner::new(|g, out| {
            let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
            out.collect(&g.key, &total.to_bytes());
        })
    }

    #[test]
    fn combiner_collapses_repeated_keys_before_the_wire() {
        use dmpi_common::ser::Writable;
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 0, usize::MAX, true);
        buf.set_combiner(sum_combiner());
        for _ in 0..50 {
            buf.emit_kv(b"apple", &1u64.to_bytes());
            buf.emit_kv(b"pear", &1u64.to_bytes());
        }
        let stats = buf.finish();
        assert_eq!(stats.records, 100, "user emits counted pre-combine");
        assert_eq!(stats.combiner_records_in, 100);
        assert_eq!(stats.combiner_records_out, 2);
        let frames = drain(&rx);
        let records: Vec<Record> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Data { payload, .. } => Some(ser::unframe_batch(payload).unwrap()),
                _ => None,
            })
            .flat_map(|b| b.into_records())
            .collect();
        assert_eq!(records.len(), 2, "only folded records cross the wire");
        let total_payload: usize = frames.iter().map(Frame::payload_len).sum();
        assert_eq!(total_payload as u64, stats.bytes, "bytes count the wire");
        for r in records {
            assert_eq!(u64::from_bytes(&r.value).unwrap(), 50);
        }
    }

    #[test]
    fn combiner_respects_the_flush_threshold() {
        use dmpi_common::ser::Writable;
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 0, 256, true);
        buf.set_combiner(sum_combiner());
        for i in 0..200 {
            buf.emit_kv(format!("key{:02}", i % 10).as_bytes(), &1u64.to_bytes());
        }
        let stats = buf.finish();
        assert!(
            stats.early_flushes > 0,
            "staged bytes must trip the threshold"
        );
        assert!(stats.frames > 1);
        // Each early flush folds its own window, so per-key partial sums
        // appear once per flushed frame — still far fewer than 200.
        assert!(stats.combiner_records_out < stats.combiner_records_in);
        let shipped: u64 = drain(&rx)
            .iter()
            .filter_map(|f| match f {
                Frame::Data { payload, .. } => {
                    Some(ser::unframe_batch(payload).unwrap().len() as u64)
                }
                _ => None,
            })
            .sum();
        assert_eq!(shipped, stats.combiner_records_out);
    }

    #[test]
    fn combiner_emit_and_emit_kv_agree() {
        let mut net_a = Interconnect::new(2);
        let mut net_b = Interconnect::new(2);
        let rx_a: Vec<_> = (0..2).map(|r| net_a.take_receiver(r)).collect();
        let rx_b: Vec<_> = (0..2).map(|r| net_b.take_receiver(r)).collect();
        let mut a = KvBuffer::new(frame_senders(&net_a), 0, 0, usize::MAX, true);
        let mut b = KvBuffer::new(frame_senders(&net_b), 0, 0, usize::MAX, true);
        a.set_combiner(sum_combiner());
        b.set_combiner(sum_combiner());
        use dmpi_common::ser::Writable;
        for i in 0..40 {
            let rec = Record::new(format!("k{}", i % 5).into_bytes(), 1u64.to_bytes().to_vec());
            a.emit(&rec);
            b.emit_kv(&rec.key, &rec.value);
        }
        assert_eq!(a.finish(), b.finish());
        for (ra, rb) in rx_a.iter().zip(&rx_b) {
            let payload = |rx: &crossbeam::channel::Receiver<Frame>| -> Vec<u8> {
                drain(rx)
                    .iter()
                    .flat_map(|f| match f {
                        Frame::Data { payload, .. } => payload.to_vec(),
                        _ => vec![],
                    })
                    .collect()
            };
            assert_eq!(payload(ra), payload(rb));
        }
    }

    #[test]
    fn emit_and_emit_kv_agree() {
        let mut net_a = Interconnect::new(2);
        let mut net_b = Interconnect::new(2);
        let rx_a: Vec<_> = (0..2).map(|r| net_a.take_receiver(r)).collect();
        let rx_b: Vec<_> = (0..2).map(|r| net_b.take_receiver(r)).collect();
        let mut a = KvBuffer::new(frame_senders(&net_a), 0, 0, usize::MAX, true);
        let mut b = KvBuffer::new(frame_senders(&net_b), 0, 0, usize::MAX, true);
        for i in 0..20 {
            let rec = Record::from_strs(&format!("k{i}"), &format!("v{i}"));
            a.emit(&rec);
            b.emit_kv(&rec.key, &rec.value);
        }
        let sa = a.finish();
        let sb = b.finish();
        assert_eq!(sa, sb);
        for (ra, rb) in rx_a.iter().zip(&rx_b) {
            let da: Vec<u8> = drain(ra)
                .iter()
                .flat_map(|f| match f {
                    Frame::Data { payload, .. } => payload.to_vec(),
                    _ => vec![],
                })
                .collect();
            let db: Vec<u8> = drain(rb)
                .iter()
                .flat_map(|f| match f {
                    Frame::Data { payload, .. } => payload.to_vec(),
                    _ => vec![],
                })
                .collect();
            assert_eq!(da, db);
        }
    }

    /// The staging this buffer used before the key index and arena:
    /// decoded `Record`s per destination, grouped by `group_hashed` at
    /// fold time and framed by the same [`FrameCollector`]. Kept as the
    /// byte-identity reference for [`Staged`].
    struct RecordStaging {
        partitioner: HashPartitioner,
        combiner: Combiner,
        flush_threshold: usize,
        pipelined: bool,
        pending: Vec<Vec<Record>>,
        pending_bytes: Vec<usize>,
        buffers: Vec<Vec<u8>>,
        /// Shipped frame payloads, per destination.
        frames: Vec<Vec<Vec<u8>>>,
        stats: BufferStats,
        hwm_bytes: usize,
    }

    impl RecordStaging {
        fn new(parts: usize, flush_threshold: usize, pipelined: bool, combiner: Combiner) -> Self {
            RecordStaging {
                partitioner: HashPartitioner::new(parts),
                combiner,
                flush_threshold,
                pipelined,
                pending: vec![Vec::new(); parts],
                pending_bytes: vec![0; parts],
                buffers: vec![Vec::new(); parts],
                frames: vec![Vec::new(); parts],
                stats: BufferStats::default(),
                hwm_bytes: 0,
            }
        }

        fn emit(&mut self, key: &[u8], value: &[u8]) {
            let p = self.partitioner.partition(key);
            let record = Record::new(key.to_vec(), value.to_vec());
            self.stats.records += 1;
            self.pending_bytes[p] += record.framed_len();
            self.pending[p].push(record);
            self.hwm_bytes = self.hwm_bytes.max(self.pending_bytes[p]);
            if self.pipelined && self.pending_bytes[p] >= self.flush_threshold {
                self.combine(p);
                self.flush(p);
                self.stats.early_flushes += 1;
            }
        }

        fn combine(&mut self, p: usize) {
            if self.pending[p].is_empty() {
                return;
            }
            let staged = std::mem::take(&mut self.pending[p]);
            self.pending_bytes[p] = 0;
            self.stats.combiner_records_in += staged.len() as u64;
            let before = self.buffers[p].len();
            let mut out = FrameCollector {
                buf: &mut self.buffers[p],
                records: 0,
            };
            for group in &dmpi_common::group::group_hashed(staged) {
                self.combiner.apply(group, &mut out);
            }
            self.stats.combiner_records_out += out.records;
            self.stats.bytes += (self.buffers[p].len() - before) as u64;
        }

        fn flush(&mut self, p: usize) {
            if !self.buffers[p].is_empty() {
                self.frames[p].push(std::mem::take(&mut self.buffers[p]));
                self.stats.frames += 1;
            }
        }

        fn finish(mut self) -> (Vec<Vec<Vec<u8>>>, BufferStats, usize) {
            for p in 0..self.buffers.len() {
                self.combine(p);
                self.flush(p);
            }
            (self.frames, self.stats, self.hwm_bytes)
        }
    }

    /// An order-sensitive combiner with a variable output count: folds
    /// each group to its length-prefixed value concatenation, emits a
    /// second record for odd-sized groups and nothing for groups whose
    /// key starts with `z`. Any staging difference — grouping, group
    /// order, value order, window boundaries — changes the frames.
    fn witness_combiner() -> Combiner {
        Combiner::new(|g, out| {
            if g.key.first() == Some(&b'z') {
                return;
            }
            let mut folded = Vec::new();
            for v in &g.values {
                folded.extend_from_slice(&(v.len() as u32).to_le_bytes());
                folded.extend_from_slice(v);
            }
            out.collect(&g.key, &folded);
            if g.len() % 2 == 1 {
                out.collect(&g.key, &(g.len() as u64).to_le_bytes());
            }
        })
    }

    /// Seeded emissions: a small hot key set (heavy repetition), empty
    /// keys and values, occasional keys up to 1 KiB and values long
    /// enough for a multi-byte length prefix.
    fn random_emissions(seed: u64, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let key = match rng.gen_range(0..10u32) {
                    0 => Vec::new(),
                    1 => {
                        let len = rng.gen_range(1..=1024usize);
                        let fill = rng.gen_range(0..4u8);
                        vec![b'a' + fill; len]
                    }
                    2 => format!("z{}", rng.gen_range(0..8u32)).into_bytes(),
                    _ => format!("k{}", rng.gen_range(0..24u32)).into_bytes(),
                };
                let len = match rng.gen_range(0..8u32) {
                    0 => 0,
                    // Two-byte varint length prefix.
                    1 => rng.gen_range(128..400usize),
                    _ => rng.gen_range(1..40usize),
                };
                let value = (0..len).map(|_| rng.gen::<u8>()).collect();
                (key, value)
            })
            .collect()
    }

    #[test]
    fn arena_staging_ships_the_frames_of_record_staging() {
        const PARTS: usize = 3;
        let thresholds = [1, 64, 4096, crate::JobConfig::new(1).flush_threshold];
        for seed in 0..4u64 {
            let emissions = random_emissions(seed, 3000);
            for &threshold in &thresholds {
                for pipelined in [true, false] {
                    for via_record in [false, true] {
                        let mut reference =
                            RecordStaging::new(PARTS, threshold, pipelined, witness_combiner());
                        // Room for one frame per emit: nothing drains the
                        // mailboxes until the buffer finishes.
                        let mut net = Interconnect::with_capacity(PARTS, emissions.len() + 1);
                        let rxs: Vec<_> = (0..PARTS).map(|r| net.take_receiver(r)).collect();
                        let mut buf =
                            KvBuffer::new(frame_senders(&net), 0, 0, threshold, pipelined);
                        buf.set_combiner(witness_combiner());
                        for (key, value) in &emissions {
                            reference.emit(key, value);
                            if via_record {
                                buf.emit(&Record::new(key.clone(), value.clone()));
                            } else {
                                buf.emit_kv(key, value);
                            }
                        }
                        let hwm = buf.hwm_bytes;
                        let stats = buf.finish();
                        let (want_frames, want_stats, want_hwm) = reference.finish();
                        let case = format!(
                            "seed {seed}, threshold {threshold}, pipelined {pipelined}, \
                             emit(&Record) {via_record}"
                        );
                        assert_eq!(stats, want_stats, "{case}");
                        assert_eq!(hwm, want_hwm, "{case}");
                        for (p, rx) in rxs.iter().enumerate() {
                            let got: Vec<Vec<u8>> = drain(rx)
                                .iter()
                                .filter_map(|f| match f {
                                    Frame::Data { payload, .. } => Some(payload.to_vec()),
                                    _ => None,
                                })
                                .collect();
                            assert_eq!(got, want_frames[p], "{case}, partition {p}");
                        }
                    }
                }
            }
        }
    }
}
