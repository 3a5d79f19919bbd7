//! The A-side intermediate store — DataMPI's "data-centric" leg, as a
//! **streaming run-formation + external-merge pipeline**.
//!
//! Frames arriving at an A partition are decoded into records *as they
//! arrive* (concurrently with the O phase — the ingest thread does this
//! work while O tasks are still computing) and appended to a forming
//! in-memory **run**. When the partition outgrows its memory budget the
//! run is key-sorted and sealed through the indexed, block-compressed
//! run format of [`crate::spillfmt`] — to a file under the configured
//! spill directory (the genuinely external-memory path), or to an
//! in-memory image in the identical format (the default for small
//! jobs). Grouping then becomes a k-way external merge over all runs
//! via a [loser tree], streamed one group at a time through
//! [`GroupStream`], so a spilled job never re-materializes the full
//! record set in memory: at any moment the merge holds one decoded
//! block per run plus the group under construction, and the runs'
//! footer indexes let a range-restricted or checkpoint-resumed merge
//! *skip* whole blocks instead of scanning them.
//!
//! This replaces the seed's collect-then-sort shape (buffer every raw
//! frame, decode and sort everything in one monolithic pass after all
//! EOFs) — exactly the Hadoop-style materialization the paper criticizes.
//! Sorting now overlaps the O phase *and* the ingest thread itself: a
//! run crossing the budget is handed to a background sealing thread
//! (sorted and copied into its spill image) while ingest keeps indexing
//! the next run; only the final in-memory run (bounded by the budget) is
//! sorted at merge time. Sealed images are collected in spill order, so
//! the k-way merge's `(key, value, run)` tiebreak sees the exact run
//! sequence a synchronous sealer would have produced.
//!
//! # The forming run
//!
//! The forming run is not a vector of decoded records. It keeps the
//! received frame payloads themselves plus one 16-byte entry per record:
//! a normalised 8-byte key prefix (the first 7 key bytes and the key
//! length, order-preserving) and the record's
//! `(payload, offset)` address. Ingest only walks each frame's varint
//! headers. Sorting orders the entries by prefix — a stable LSD radix
//! over the prefix bytes, or a comparison sort, the [`SortKernel`]
//! choice — and compares full `(key, value)` bytes only inside runs of
//! equal prefix. Sealing copies each record's framed bytes into the
//! spill block
//! ([`RunWriter::push_framed`](crate::spillfmt::RunWriter::push_framed));
//! grouping reads the sorted entries in place when nothing was sealed,
//! and otherwise merges them, as zero-copy [`Record`] views handed out
//! one at a time, with the sealed runs. Order, spill boundaries and
//! every [`StoreStats`] counter are those of a forming run of decoded
//! records.
//!
//! [loser tree]: https://en.wikipedia.org/wiki/K-way_merge_algorithm
use std::cmp::Ordering;
use std::ops::Range;

use bytes::Bytes;

use dmpi_common::compare::{BytesComparator, RawComparator, SortKernel};
use dmpi_common::group::GroupedValues;
use dmpi_common::{ser, Error, Record, Result};

use crate::observe::{HistKind, LogHistogram, Observer, PhaseTotals, SpanKind, Tracer};
use crate::spillfmt::{KeyRange, RunReader, SpillConfig, SpillReadCounters};

/// Runs at or below this size seal inline on the ingest thread — a
/// thread spawn costs more than sorting and framing a few KiB.
const SEAL_INLINE_MAX: u64 = 64 * 1024;

/// Background sealing threads allowed in flight per partition before a
/// new spill joins the oldest one first (bounds thread count and the
/// memory pinned by unsealed runs under heavy spill pressure).
const MAX_INFLIGHT_SEALS: usize = 4;

/// Forming runs of at most this many entries sort by comparison: the
/// radix histograms cost more than pdqsort on a handful of entries.
const RADIX_FALLBACK_AT: usize = 64;

/// The normalised 8-byte key prefix the forming run sorts on: the first
/// 7 key bytes, zero-padded, big-endian, then `min(key_len, 8)` as the
/// low byte.
///
/// Order-preserving: `key_prefix(a) < key_prefix(b)` implies `a < b`,
/// and equal prefixes whose low (length) byte is below 8 mean equal
/// keys — only keys of 8 or more bytes can tie on a prefix without
/// being equal.
fn key_prefix(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(7);
    buf[..n].copy_from_slice(&key[..n]);
    buf[7] = key.len().min(8) as u8;
    u64::from_be_bytes(buf)
}

/// One forming-run record: its sort prefix and where its framed bytes
/// start (payload index, byte offset).
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    prefix: u64,
    payload: u32,
    offset: u32,
}

/// The forming run: retained frame payloads plus one [`Entry`] per
/// record, in arrival order until [`sort`](Self::sort) orders them by
/// `(key, value)`.
#[derive(Default)]
struct FormingRun {
    payloads: Vec<Bytes>,
    entries: Vec<Entry>,
    /// The first record's value, a view of its payload.
    first_value: Option<Bytes>,
    /// Some record's value differs from `first_value`. While it does
    /// not (a counting job's constant `1`s), records with equal keys are
    /// identical: the tie pass skips them and grouping hands out
    /// `first_value` without reading each record.
    values_differ: bool,
}

impl FormingRun {
    /// Retains one frame payload and indexes its records. Entries
    /// indexed before a decode error stay (the payload they point into
    /// is kept).
    fn push_frame(&mut self, payload: Bytes) -> Result<()> {
        let index = u32::try_from(self.payloads.len())
            .map_err(|_| Error::InvalidState("forming run holds 2^32 frames".into()))?;
        if u32::try_from(payload.len()).is_err() {
            return Err(Error::InvalidState(format!(
                "a {}-byte frame payload overflows the forming run's u32 offsets",
                payload.len()
            )));
        }
        self.payloads.push(payload);
        let payload = &self.payloads[index as usize];
        let mut at = 0;
        while at < payload.len() {
            let (key, value, n) = ser::read_framed_kv(&payload[at..])?;
            self.entries.push(Entry {
                prefix: key_prefix(key),
                payload: index,
                offset: at as u32,
            });
            match &self.first_value {
                None => self.first_value = Some(payload.slice(at + n - value.len()..at + n)),
                Some(first) => self.values_differ |= *first != value,
            }
            at += n;
        }
        Ok(())
    }

    /// The value every record carries, if they all carry the same one.
    fn uniform_value(&self) -> Option<&Bytes> {
        self.first_value.as_ref().filter(|_| !self.values_differ)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry's whole framed record, and the key and value within it.
    #[inline]
    fn framed(&self, e: &Entry) -> (&[u8], &[u8], &[u8]) {
        let buf = &self.payloads[e.payload as usize][e.offset as usize..];
        // Fast path: both lengths are one-byte varints (keys and values
        // under 128 bytes).
        if let [klen @ 0..=0x7f, vlen @ 0..=0x7f, ..] = *buf {
            let (klen, vlen) = (klen as usize, vlen as usize);
            let rec = &buf[..2 + klen + vlen];
            return (rec, &rec[2..2 + klen], &rec[2 + klen..]);
        }
        let (key, value, n) =
            ser::read_framed_kv(buf).expect("validated when the frame was ingested");
        (&buf[..n], key, value)
    }

    fn key_value(&self, e: &Entry) -> (&[u8], &[u8]) {
        let (_, key, value) = self.framed(e);
        (key, value)
    }

    /// A zero-copy [`Record`] view of the entry (slices of its payload).
    fn record(&self, e: &Entry) -> Record {
        let payload = &self.payloads[e.payload as usize];
        let (key, value) = self.spans(e);
        Record {
            key: payload.slice(key),
            value: payload.slice(value),
        }
    }

    /// A zero-copy view of the entry's value.
    fn value(&self, e: &Entry) -> Bytes {
        self.payloads[e.payload as usize].slice(self.spans(e).1)
    }

    /// Byte ranges of the entry's key and value within its payload.
    fn spans(&self, e: &Entry) -> (Range<usize>, Range<usize>) {
        let (framed, key, value) = self.framed(e);
        let value_at = e.offset as usize + framed.len() - value.len();
        let key_at = value_at - key.len();
        (key_at..value_at, value_at..value_at + value.len())
    }

    /// The group starting at entry `*next` of the sorted run, advancing
    /// `*next` past it. Keys shorter than 8 bytes are equal exactly when
    /// their prefixes are, so only longer keys compare bytes.
    fn next_group(&self, next: &mut usize) -> Option<GroupedValues> {
        let first = *self.entries.get(*next)?;
        let Record { key, value } = self.record(&first);
        let uniform = self.uniform_value();
        let mut values = vec![value];
        *next += 1;
        while let Some(e) = self.entries.get(*next) {
            if e.prefix != first.prefix || (first.prefix as u8 >= 8 && key != self.key_value(e).0) {
                break;
            }
            values.push(match uniform {
                Some(v) => v.clone(),
                None => self.value(e),
            });
            *next += 1;
        }
        Some(GroupedValues { key, values })
    }

    /// Keeps only records whose key `keep` accepts.
    fn retain_keys(&mut self, mut keep: impl FnMut(&[u8]) -> bool) {
        let mut entries = std::mem::take(&mut self.entries);
        entries.retain(|e| keep(self.key_value(e).0));
        self.entries = entries;
    }

    /// Sorts the entries into `(key bytes, value bytes)` order — the
    /// order [`sort_records`](dmpi_common::compare::sort_records) gives
    /// decoded records. `kernel` picks how entries are ordered by prefix;
    /// one shared pass then orders each run of equal prefix by full
    /// `(key, value)` bytes, skipping a run one linear check finds
    /// already ordered, or whose records are identical (short equal keys
    /// and a [uniform value](Self::uniform_value)).
    fn sort(&mut self, kernel: SortKernel) {
        match kernel {
            SortKernel::Comparison => self.entries.sort_unstable_by_key(arrival_key),
            SortKernel::Radix => radix_sort_prefixes(&mut self.entries),
        }
        let mut entries = std::mem::take(&mut self.entries);
        let cmp = |a: &Entry, b: &Entry| self.key_value(a).cmp(&self.key_value(b));
        let uniform = self.uniform_value().is_some();
        let mut lo = 0;
        while lo < entries.len() {
            let prefix = entries[lo].prefix;
            let hi = lo + entries[lo..].partition_point(|e| e.prefix == prefix);
            // A lone entry, or equal short keys sharing one value
            // (identical records): nothing to order.
            if hi - lo < 2 || (uniform && (prefix as u8) < 8) {
                lo = hi;
                continue;
            }
            let tie = &mut entries[lo..hi];
            let mut prev = self.key_value(&tie[0]);
            let ordered = tie[1..].iter().all(|e| {
                let next = self.key_value(e);
                std::mem::replace(&mut prev, next) <= next
            });
            if !ordered {
                tie.sort_unstable_by(cmp);
            }
            lo = hi;
        }
        self.entries = entries;
    }
}

/// Stable LSD radix sort of entries on their 8 prefix bytes, least
/// significant first, through one scratch buffer. A byte every entry
/// shares costs no pass. Stability keeps each run of equal prefix in
/// arrival order, the order [`SortKernel::Comparison`] reaches through
/// its `(prefix, payload, offset)` key.
fn radix_sort_prefixes(entries: &mut Vec<Entry>) {
    if entries.len() <= RADIX_FALLBACK_AT {
        entries.sort_unstable_by_key(arrival_key);
        return;
    }
    let mut counts = [[0usize; 256]; 8];
    for e in entries.iter() {
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(e.prefix >> (8 * byte)) as u8 as usize] += 1;
        }
    }
    let mut scratch = Vec::new();
    for (byte, count) in counts.iter().enumerate() {
        let shift = 8 * byte;
        if count[(entries[0].prefix >> shift) as u8 as usize] == entries.len() {
            continue;
        }
        scratch.resize(entries.len(), Entry::default());
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        for e in entries.iter() {
            let slot = &mut next[(e.prefix >> shift) as u8 as usize];
            scratch[*slot] = *e;
            *slot += 1;
        }
        std::mem::swap(entries, &mut scratch);
    }
}

/// Total order on entries: prefix, then arrival position.
fn arrival_key(e: &Entry) -> (u64, u32, u32) {
    (e.prefix, e.payload, e.offset)
}

/// Counters for one partition's store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes currently resident in memory (the forming run).
    pub mem_bytes: u64,
    /// High-water mark of `mem_bytes` — the external-sort residency
    /// proof: under a tight budget this stays near the budget no matter
    /// how large the input grows.
    pub peak_mem_bytes: u64,
    /// Raw (uncompressed, framed-record) bytes spilled to disk.
    pub spilled_bytes: u64,
    /// Bytes the sealed runs actually occupy on disk / in their images
    /// (blocks post-compression, plus footer index and trailer) —
    /// compare against `spilled_bytes` to see the compression win.
    pub spilled_wire_bytes: u64,
    /// Number of spill events (= number of sealed sorted runs).
    pub spills: u64,
    /// Frames ingested.
    pub frames: u64,
    /// Records decoded from ingested frames.
    pub records: u64,
    /// Largest number of decoded records the forming run ever held at
    /// once — the proof that grouping streams instead of materializing:
    /// under spill pressure this stays far below `records`.
    pub peak_resident_records: u64,
}

/// In-memory (with spill) store for one A partition.
///
/// The store is mode-aware: in sorted (MapReduce) mode spill runs are
/// key-sorted when sealed so the final grouping is a pure k-way merge;
/// in hashed (Common) mode runs keep arrival order and grouping hash-
/// clusters the streamed records.
pub struct PartitionStore {
    memory_budget: usize,
    /// MapReduce mode: seal runs key-sorted, group by merge. Common
    /// mode: preserve arrival order, group by hash.
    sorted: bool,
    /// The forming run: the frames ingested since the last spill plus a
    /// 16-byte prefix entry per record, in arrival order (sorted lazily
    /// when sealed or when the merge starts).
    current: FormingRun,
    /// Sealed runs in the indexed block format (disk files or in-memory
    /// images per `spill_cfg`), key-sorted in sorted mode. Filled by
    /// [`collect_seals`](Self::collect_seals) in spill order.
    spilled: Vec<crate::spillfmt::SealedRun>,
    /// Runs handed off for sealing (inline results and in-flight
    /// background threads, in spill order).
    sealing: Vec<PendingSeal>,
    /// How runs seal: destination dir (or memory), compression, block
    /// budget, filename tag.
    spill_cfg: SpillConfig,
    /// Sequence number for run filenames.
    run_seq: u64,
    /// First sealing failure (disk full, unwritable spill dir, …),
    /// surfaced when the merge starts — sealing runs on background
    /// threads, so the error cannot be returned from `ingest` itself.
    seal_error: Option<Error>,
    /// Shared block read/skip/seek tallies fed by every reader this
    /// store's runs hand out.
    read_counters: SpillReadCounters,
    stats: StoreStats,
    /// Which kernel orders the forming run's entries by key prefix when
    /// it seals or merges (sorted mode only).
    kernel: SortKernel,
    /// Observability: `(observer, rank, attempt)`. Stored as the
    /// `Send + Sync` observer rather than a thread-local [`Tracer`] so
    /// sealing threads (and the store itself) can cross threads; each
    /// sealing site builds its own tracer from it.
    observer: Option<(Observer, u32, u32)>,
    /// Phase totals absorbed from sealing work (inline and background),
    /// drained by [`finish_ingest`](Self::finish_ingest).
    background_phase: PhaseTotals,
}

/// What one sealing site produced: the sealed run (or the I/O error
/// that prevented it) plus the phase totals the site recorded.
struct SealOutcome {
    run: Result<crate::spillfmt::SealedRun>,
    phase: PhaseTotals,
}

impl Default for SealOutcome {
    fn default() -> Self {
        let (image, index) = crate::spillfmt::RunWriter::new(1, false, true).finish();
        SealOutcome {
            run: Ok(crate::spillfmt::SealedRun::mem(image, index)),
            phase: PhaseTotals::default(),
        }
    }
}

/// One spill's sealing state, in spill order.
enum PendingSeal {
    /// Sealed inline (small run) or already joined.
    Done(SealOutcome),
    /// Sealing on a background thread, overlapped with further ingest.
    Thread(std::thread::JoinHandle<SealOutcome>),
}

/// Sorts (sorted mode) and seals one run through the indexed block
/// format — to a spill file when the config has a directory, or to an
/// in-memory image — recording the `Spill` span and counters against a
/// tracer built from `observer` on the *calling* thread — valid both
/// inline on the ingest thread and on a background sealing thread.
fn seal_run(
    mut run: FormingRun,
    sorted: bool,
    kernel: SortKernel,
    observer: Option<&(Observer, u32, u32)>,
    cfg: &SpillConfig,
    seq: u64,
) -> SealOutcome {
    let tracer = observer.map(|(o, rank, attempt)| o.rank_tracer(*rank, *attempt));
    let spill_start = tracer.as_ref().map(Tracer::start);
    let wall_start = tracer.as_ref().map(|_| std::time::Instant::now());
    if sorted {
        run.sort(kernel);
    }
    let mut writer = crate::spillfmt::RunWriter::new(cfg.block_bytes, cfg.compress, sorted);
    let pushed = run
        .entries
        .iter()
        .try_for_each(|e| writer.push_framed(run.framed(e).0));
    drop(run);
    let run = pushed.and_then(|()| {
        let (image, index) = writer.finish();
        match &cfg.dir {
            Some(dir) => crate::spillfmt::SealedRun::to_file(
                &image,
                index,
                dir.join(format!("{}-{seq}.spill", cfg.tag)),
            ),
            None => Ok(crate::spillfmt::SealedRun::mem(image, index)),
        }
    });
    if let Some(t) = &tracer {
        if let Ok(run) = &run {
            let idx = run.index();
            t.registry().add_spill(idx.raw_bytes);
            t.registry().add_spill_wire(idx.file_len);
            let block_hist = t.registry().histograms().handle(HistKind::SpillBlock);
            for b in &idx.blocks {
                block_hist.record(b.stored_len as u64);
            }
            t.span(
                SpanKind::Spill,
                spill_start.unwrap_or(0),
                vec![
                    ("bytes", idx.raw_bytes.to_string()),
                    ("stored", idx.file_len.to_string()),
                    ("blocks", idx.blocks.len().to_string()),
                ],
            );
        }
        if let Some(start) = wall_start {
            t.registry()
                .histograms()
                .handle(HistKind::SpillSeal)
                .record_elapsed_us(start);
        }
    }
    let phase = match (observer, &tracer) {
        (Some((obs, _, _)), Some(t)) => obs.absorb(t),
        _ => PhaseTotals::default(),
    };
    SealOutcome { run, phase }
}

impl PartitionStore {
    /// Creates a store with the given per-partition memory budget.
    /// `sorted` selects MapReduce-mode (key-sorted runs, merge grouping)
    /// vs Common-mode (arrival order, hash grouping).
    pub fn new(memory_budget: usize, sorted: bool) -> Self {
        PartitionStore {
            memory_budget,
            sorted,
            current: FormingRun::default(),
            spilled: Vec::new(),
            sealing: Vec::new(),
            spill_cfg: SpillConfig::default(),
            run_seq: 0,
            seal_error: None,
            read_counters: SpillReadCounters::new(),
            stats: StoreStats::default(),
            kernel: SortKernel::default(),
            observer: None,
            background_phase: PhaseTotals::default(),
        }
    }

    /// Configures how runs seal: spill directory (or in-memory images),
    /// LZ4 block compression, block budget and filename tag. Takes
    /// effect for runs sealed after the call.
    pub fn set_spill_config(&mut self, cfg: SpillConfig) {
        self.spill_cfg = cfg;
    }

    /// The shared read-side counter handle every reader of this store's
    /// runs feeds (block reads/skips, stored bytes, seeks). Clone it
    /// before consuming the store to observe the merge afterwards.
    pub fn read_counters(&self) -> SpillReadCounters {
        self.read_counters.clone()
    }

    /// Installs an observability sink. Sealing sites (inline and
    /// background threads) build their own per-thread tracers from it,
    /// attributed to `rank`/`attempt`.
    pub fn set_observer(&mut self, observer: Observer, rank: u32, attempt: u32) {
        self.observer = Some((observer, rank, attempt));
    }

    /// Selects how the forming run's prefix entries are ordered when it
    /// seals or merges (sorted mode only): [`SortKernel::Radix`] is a
    /// stable LSD radix over the 8 prefix bytes,
    /// [`SortKernel::Comparison`] a comparison sort on (prefix, arrival
    /// position). Both leave the same entry order and share the
    /// `(key, value)` tie pass, so they produce the identical order.
    pub fn set_sort_kernel(&mut self, kernel: SortKernel) {
        self.kernel = kernel;
    }

    /// Ingests one frame payload: retains it in the forming run and
    /// indexes its records immediately (streaming — this runs on the
    /// ingest thread, overlapped with the O phase), then seals the run
    /// into a spill image if the partition crossed its memory budget.
    ///
    /// A decode failure means corruption slipped past the per-frame CRC
    /// gate; the caller reports it as a structured fault. So does a
    /// frame or frame count past the forming run's `u32` addressing.
    pub fn ingest(&mut self, payload: Bytes) -> Result<()> {
        self.stats.frames += 1;
        self.stats.mem_bytes += payload.len() as u64;
        let before = self.current.len();
        let indexed = self.current.push_frame(payload);
        self.stats.records += (self.current.len() - before) as u64;
        indexed?;
        self.stats.peak_resident_records = self
            .stats
            .peak_resident_records
            .max(self.current.len() as u64);
        self.stats.peak_mem_bytes = self.stats.peak_mem_bytes.max(self.stats.mem_bytes);
        if self.stats.mem_bytes as usize > self.memory_budget {
            self.spill();
        }
        Ok(())
    }

    /// Seals the forming run to (simulated) disk: hands it off for
    /// sorting (sorted mode) and framing into a spill image. Runs above
    /// `SEAL_INLINE_MAX` seal on a background thread so ingest keeps
    /// decoding the next run while the last one sorts. Accounting happens
    /// up front — spill images re-frame exactly the ingested records, so
    /// the image is `mem_bytes` long (the `total_bytes_is_conserved_*`
    /// test pins this). Also used to force residency out, e.g. by tests.
    pub fn spill(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let run_bytes = self.stats.mem_bytes;
        self.stats.spilled_bytes += run_bytes;
        self.stats.spills += 1;
        self.stats.mem_bytes = 0;
        let seq = self.run_seq;
        self.run_seq += 1;
        let run = std::mem::take(&mut self.current);
        if run_bytes <= SEAL_INLINE_MAX {
            // Small run: a thread spawn costs more than the sort.
            self.sealing.push(PendingSeal::Done(seal_run(
                run,
                self.sorted,
                self.kernel,
                self.observer.as_ref(),
                &self.spill_cfg,
                seq,
            )));
            return;
        }
        let in_flight = self
            .sealing
            .iter()
            .filter(|p| matches!(p, PendingSeal::Thread(_)))
            .count();
        if in_flight >= MAX_INFLIGHT_SEALS {
            // Bound thread count and pinned memory: absorb the oldest
            // in-flight seal before launching another.
            if let Some(slot) = self
                .sealing
                .iter_mut()
                .find(|p| matches!(p, PendingSeal::Thread(_)))
            {
                let pending = std::mem::replace(slot, PendingSeal::Done(SealOutcome::default()));
                if let PendingSeal::Thread(handle) = pending {
                    *slot = PendingSeal::Done(handle.join().expect("sealing thread panicked"));
                }
            }
        }
        let sorted = self.sorted;
        let kernel = self.kernel;
        let observer = self.observer.clone();
        let cfg = self.spill_cfg.clone();
        self.sealing
            .push(PendingSeal::Thread(std::thread::spawn(move || {
                seal_run(run, sorted, kernel, observer.as_ref(), &cfg, seq)
            })));
    }

    /// Joins every outstanding seal, in spill order, into `spilled`,
    /// folding each sealing site's phase totals into `background_phase`.
    /// Preserving spill order keeps the k-way merge's `(key, value, run)`
    /// tiebreak identical to what a synchronous sealer would produce.
    fn collect_seals(&mut self) {
        for pending in self.sealing.drain(..) {
            let sealed = match pending {
                PendingSeal::Done(sealed) => sealed,
                PendingSeal::Thread(handle) => handle.join().expect("sealing thread panicked"),
            };
            self.background_phase.merge(&sealed.phase);
            match sealed.run {
                Ok(run) => {
                    self.stats.spilled_wire_bytes += run.index().file_len;
                    self.spilled.push(run);
                }
                // Keep the first failure; the merge surfaces it.
                Err(e) => {
                    if self.seal_error.is_none() {
                        self.seal_error = Some(e);
                    }
                }
            }
        }
    }

    /// Barrier at the end of ingest: waits for all background sealing to
    /// finish and returns the phase totals that work recorded, for the
    /// caller to merge into the rank's phase accounting.
    pub fn finish_ingest(&mut self) -> PhaseTotals {
        self.collect_seals();
        std::mem::take(&mut self.background_phase)
    }

    /// Counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Total ingested bytes (resident + spilled).
    pub fn total_bytes(&self) -> u64 {
        self.stats.mem_bytes + self.stats.spilled_bytes
    }

    /// Seals the forming run and joins every outstanding seal, leaving
    /// **all** records in sealed runs. A checkpointing merge calls this
    /// before registering its runs so a restart can reopen every record
    /// from the block format; output is unchanged because the forming
    /// run keeps its last-run position in the merge's tiebreak order.
    pub fn seal_all(&mut self) {
        self.spill();
        self.collect_seals();
    }

    /// Clones of the sealed runs, in spill order. Cheap (refcounts);
    /// the checkpoint holds these so a restart can resume the merge
    /// without the store that sealed them.
    pub fn sealed_run_handles(&self) -> Vec<crate::spillfmt::SealedRun> {
        self.spilled.clone()
    }

    /// Turns the filled store into a streaming group source: a loser-tree
    /// k-way merge over the sealed runs plus the final in-memory run
    /// (sorted mode), or a hash-clustering pass in arrival order (Common
    /// mode). The sorted path holds one decoded block per run at a time
    /// and hands out the forming run's records one at a time; it never
    /// rebuilds the full record set.
    pub fn into_group_stream(self) -> Result<GroupStream> {
        self.into_group_stream_range(None)
    }

    /// Like [`into_group_stream`](Self::into_group_stream), but
    /// restricted to keys inside `range`: the merge opens every run
    /// through its footer index and *skips whole blocks* whose key range
    /// falls outside the consumer's — they are never read, checked or
    /// decompressed — and the forming run drops out-of-range records
    /// before it sorts. Output equals the unrestricted stream filtered
    /// to the range, in both grouping modes.
    pub fn into_group_stream_range(mut self, range: Option<KeyRange>) -> Result<GroupStream> {
        self.collect_seals();
        if let Some(e) = self.seal_error.take() {
            return Err(e);
        }
        // Merge-step durations flow into the observer's MergeStep
        // histogram channel (sorted mode only — the hashed path's "step"
        // is an iterator next).
        let merge_hist = self
            .observer
            .as_ref()
            .map(|(o, _, _)| o.registry().histograms().handle(HistKind::MergeStep));
        if let Some(r) = &range {
            self.current.retain_keys(|key| r.contains(key));
        }
        if self.sorted {
            self.current.sort(self.kernel);
            if self.spilled.is_empty() {
                return Ok(GroupStream {
                    source: GroupSource::Forming(self.current, 0),
                    merge_hist,
                });
            }
            let mut runs: Vec<RunCursor> = Vec::with_capacity(self.spilled.len() + 1);
            for run in &self.spilled {
                let reader = run.open(&self.read_counters, range.clone())?;
                runs.push(RunCursor::from_reader(reader)?);
            }
            runs.push(RunCursor::mem(self.current));
            Ok(GroupStream {
                source: GroupSource::Merge(LoserTreeMerge::new(runs)),
                merge_hist,
            })
        } else {
            // Hash grouping needs every key's full value list before any
            // group can be emitted, so this mode necessarily gathers the
            // groups — but it still streams records out of the runs
            // block by block in chronological (arrival) order without an
            // intermediate all-records vector.
            let mut groups: Vec<GroupedValues> = Vec::new();
            let mut index: dmpi_common::hashing::FnvHashMap<Bytes, usize> = Default::default();
            let mut cluster = |rec: Record| match index.get(&rec.key) {
                Some(&i) => groups[i].values.push(rec.value),
                None => {
                    index.insert(rec.key.clone(), groups.len());
                    groups.push(GroupedValues {
                        key: rec.key,
                        values: vec![rec.value],
                    });
                }
            };
            for run in &self.spilled {
                let mut reader = run.open(&self.read_counters, range.clone())?;
                while let Some(rec) = reader.next_record()? {
                    cluster(rec);
                }
            }
            for e in &self.current.entries {
                cluster(self.current.record(e));
            }
            Ok(GroupStream {
                source: GroupSource::Hashed(groups.into_iter()),
                merge_hist: None,
            })
        }
    }

    /// Convenience: drains the whole store into a flat record vector
    /// (key-sorted in sorted mode, arrival order otherwise). Tests and
    /// small tools use this; the runtime streams via
    /// [`into_group_stream`](Self::into_group_stream) instead.
    pub fn into_records(self) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        let mut stream = self.into_group_stream()?;
        while let Some(g) = stream.next_group()? {
            for v in g.values {
                out.push(Record {
                    key: g.key.clone(),
                    value: v,
                });
            }
        }
        Ok(out)
    }
}

/// A lazily-decoding cursor over one sorted (or arrival-order) run.
///
/// The in-memory (forming) run hands out zero-copy record views of its
/// sorted entries one at a time; sealed runs stream through an
/// index-driven [`RunReader`], so merging sealed runs costs one decoded
/// block of memory per run (and skips blocks the reader's range rules
/// out).
struct RunCursor {
    source: CursorSource,
    /// The run's current head record (`None` = exhausted).
    head: Option<Record>,
}

enum CursorSource {
    /// The sorted forming run and the index of its next entry.
    Mem(FormingRun, usize),
    /// Block reader for a sealed run.
    Sealed(RunReader),
}

impl RunCursor {
    fn mem(run: FormingRun) -> Self {
        let head = run.entries.first().map(|e| run.record(e));
        RunCursor {
            source: CursorSource::Mem(run, 1),
            head,
        }
    }

    fn from_reader(reader: RunReader) -> Result<Self> {
        let mut cursor = RunCursor {
            source: CursorSource::Sealed(reader),
            head: None,
        };
        cursor.head = cursor.decode_next()?;
        Ok(cursor)
    }

    fn decode_next(&mut self) -> Result<Option<Record>> {
        match &mut self.source {
            CursorSource::Sealed(reader) => reader.next_record(),
            CursorSource::Mem(run, next) => {
                let rec = run.entries.get(*next).map(|e| run.record(e));
                *next += 1;
                Ok(rec)
            }
        }
    }

    /// Takes the head record and advances the cursor.
    fn pop(&mut self) -> Result<Option<Record>> {
        let head = self.head.take();
        if head.is_some() {
            self.head = self.decode_next()?;
        }
        Ok(head)
    }

    /// The cursor's resume frontier: the block its head record came
    /// from (one past the last block when exhausted). `None` for a
    /// memory cursor still holding records — such a merge cannot be
    /// resumed from block boundaries.
    fn frontier(&self) -> Option<Option<usize>> {
        match (&self.source, self.head.is_some()) {
            (CursorSource::Sealed(reader), _) => Some(Some(reader.frontier_block())),
            // An exhausted (empty) memory cursor contributes nothing to
            // a resume — report it as skippable.
            (CursorSource::Mem(..), false) => Some(None),
            (CursorSource::Mem(..), true) => None,
        }
    }
}

/// Total order on run heads: `(key, value, run index)`, with exhausted
/// runs sorting last. The `(key, value)` part matches the seed path's
/// sort tie-break, so the merge output is identical to a global
/// [`sort_records`] of everything.
fn head_cmp(runs: &[RunCursor], a: usize, b: usize) -> Ordering {
    match (&runs[a].head, &runs[b].head) {
        (Some(x), Some(y)) => BytesComparator
            .compare(&x.key, &y.key)
            .then_with(|| x.value.cmp(&y.value))
            .then_with(|| a.cmp(&b)),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => a.cmp(&b),
    }
}

/// A k-way merge over sorted runs, organized as a **loser tree**
/// (tournament tree): each pop replays only the path from the winning
/// run's leaf to the root — `O(log k)` comparisons per record, versus
/// `O(k)` for a naive scan, and fewer comparisons in practice than a
/// binary heap because each level stores its loser and the winner is
/// carried up.
pub struct LoserTreeMerge {
    runs: Vec<RunCursor>,
    /// `tree[i]` = run index of the *loser* of the match at internal
    /// node `i`; `tree[0]` holds the overall winner.
    tree: Vec<usize>,
    /// Number of leaves (next power of two ≥ runs.len(); phantom leaves
    /// beyond `runs.len()` are permanently exhausted).
    leaves: usize,
}

impl LoserTreeMerge {
    fn new(runs: Vec<RunCursor>) -> Self {
        let k = runs.len().max(1);
        let leaves = k.next_power_of_two();
        let mut merge = LoserTreeMerge {
            runs,
            tree: vec![usize::MAX; leaves],
            leaves,
        };
        merge.rebuild();
        merge
    }

    /// Plays every match from scratch, filling the loser slots.
    fn rebuild(&mut self) {
        // Winner of the subtree rooted at internal node `i`, computed
        // bottom-up: start from the leaves, carry winners upward and
        // record losers at each internal node.
        let mut winners: Vec<usize> = (0..self.leaves)
            .map(|leaf| leaf.min(self.runs.len().saturating_sub(1)))
            .collect();
        // Phantom leaves point at an arbitrary run but must lose every
        // match once that run is exhausted; when runs.len() is not a
        // power of two we instead mark them with the *last* run index,
        // which is safe because head_cmp breaks ties by index.
        for (leaf, w) in winners.iter_mut().enumerate() {
            if leaf >= self.runs.len() {
                *w = usize::MAX;
            }
        }
        let mut level: Vec<usize> = winners;
        let mut node = self.leaves / 2;
        while node >= 1 {
            let mut next: Vec<usize> = Vec::with_capacity(node);
            for pair in level.chunks(2) {
                let (a, b) = (pair[0], pair.get(1).copied().unwrap_or(usize::MAX));
                let (winner, loser) = self.play(a, b);
                next.push(winner);
                // Internal nodes are laid out heap-style: this level's
                // matches occupy tree[node .. node + next.len()].
                self.tree[node + next.len() - 1] = loser;
            }
            level = next;
            if node == 1 {
                break;
            }
            node /= 2;
        }
        self.tree[0] = level.first().copied().unwrap_or(usize::MAX);
    }

    /// One match: returns `(winner, loser)`; `usize::MAX` is a phantom
    /// (always loses).
    fn play(&self, a: usize, b: usize) -> (usize, usize) {
        match (a, b) {
            (usize::MAX, x) => (x, usize::MAX),
            (x, usize::MAX) => (x, usize::MAX),
            (a, b) => {
                if head_cmp(&self.runs, a, b) != Ordering::Greater {
                    (a, b)
                } else {
                    (b, a)
                }
            }
        }
    }

    /// Pops the globally-smallest head record, replaying the winner's
    /// path to the root.
    fn pop(&mut self) -> Result<Option<Record>> {
        let winner = self.tree[0];
        if winner == usize::MAX {
            return Ok(None);
        }
        let rec = match self.runs[winner].pop()? {
            Some(rec) => rec,
            None => return Ok(None),
        };
        // Replay from the winner's leaf up: at each internal node the
        // stored loser challenges the carried candidate.
        let mut node = (self.leaves + winner) / 2;
        let mut candidate = if self.runs[winner].head.is_some() {
            winner
        } else {
            usize::MAX
        };
        while node >= 1 {
            let stored = self.tree[node];
            let (w, l) = self.play(candidate, stored);
            self.tree[node] = l;
            candidate = w;
            if node == 1 {
                break;
            }
            node /= 2;
        }
        self.tree[0] = candidate;
        Ok(Some(rec))
    }

    /// Pops the smallest head record and every following record with
    /// the same key.
    fn next_group(&mut self) -> Result<Option<GroupedValues>> {
        let Some(first) = self.pop()? else {
            return Ok(None);
        };
        let mut group = GroupedValues {
            key: first.key,
            values: vec![first.value],
        };
        // Keep pulling while the merge head shares the key.
        loop {
            let same = match self.tree[0] {
                usize::MAX => false,
                w => matches!(&self.runs[w].head, Some(r) if r.key == group.key),
            };
            if !same {
                break;
            }
            match self.pop()? {
                Some(rec) => group.values.push(rec.value),
                None => break,
            }
        }
        Ok(Some(group))
    }
}

/// A streaming source of key groups out of a drained [`PartitionStore`]:
/// the A phase pulls one [`GroupedValues`] at a time and hands it to the
/// user's A function, so grouped data is never all resident at once in
/// sorted mode.
pub struct GroupStream {
    source: GroupSource,
    /// Observer's MergeStep channel: per-group merge durations (sorted
    /// mode, observer installed).
    merge_hist: Option<std::sync::Arc<LogHistogram>>,
}

/// Where the groups come from.
enum GroupSource {
    /// Sorted (MapReduce) mode with nothing sealed: groups read straight
    /// off the sorted forming run, from the given entry on.
    Forming(FormingRun, usize),
    /// Sorted (MapReduce) mode: loser-tree external merge.
    Merge(LoserTreeMerge),
    /// Hashed (Common) mode: pre-clustered groups in first-appearance
    /// order.
    Hashed(std::vec::IntoIter<GroupedValues>),
}

impl GroupStream {
    /// Produces the next key group, or `None` when the store is drained.
    pub fn next_group(&mut self) -> Result<Option<GroupedValues>> {
        let step_start = self.merge_hist.as_ref().map(|_| std::time::Instant::now());
        let group = match &mut self.source {
            GroupSource::Hashed(it) => return Ok(it.next()),
            GroupSource::Forming(run, next) => run.next_group(next),
            GroupSource::Merge(merge) => merge.next_group()?,
        };
        if let (Some(hist), Some(start), Some(_)) = (&self.merge_hist, step_start, &group) {
            hist.record_elapsed_us(start);
        }
        Ok(group)
    }

    /// The merge's resume frontier: for each sealed-run cursor, the
    /// block its head record came from (one past the last block when
    /// exhausted). Recorded at a group boundary, this is everything a
    /// restart needs to reopen the runs mid-way: blocks before the
    /// frontier hold only records from already-emitted groups.
    ///
    /// `None` for hashed grouping, or when a live in-memory run is part
    /// of the merge (its records have no block addresses — call
    /// [`PartitionStore::seal_all`] before merging to make a stream
    /// resumable).
    pub fn frontier(&self) -> Option<Vec<usize>> {
        let merge = match &self.source {
            GroupSource::Merge(merge) => merge,
            // A drained forming run contributes nothing to a resume.
            GroupSource::Forming(run, next) => return (*next >= run.len()).then(Vec::new),
            GroupSource::Hashed(_) => return None,
        };
        let mut out = Vec::new();
        for cursor in &merge.runs {
            // A drained memory cursor contributes nothing to a resume.
            if let Some(block) = cursor.frontier()? {
                out.push(block);
            }
        }
        Some(out)
    }
}

/// Reopens a sealed-run merge mid-way: cursor `i` starts at block
/// `frontier[i]` and skips any record whose key is `<= last_key` (the
/// last fully-emitted group), so the resumed stream yields exactly the
/// groups after `last_key` — while re-reading only blocks at or after
/// each frontier. Runs must be the ones the frontier was recorded
/// against, in the same order.
pub fn resume_group_stream(
    runs: &[crate::spillfmt::SealedRun],
    frontier: &[usize],
    last_key: Option<Bytes>,
    counters: &SpillReadCounters,
    observer: Option<&Observer>,
) -> Result<GroupStream> {
    if runs.len() != frontier.len() {
        return Err(Error::InvalidState(format!(
            "merge frontier covers {} runs, checkpoint has {}",
            frontier.len(),
            runs.len()
        )));
    }
    let merge_hist = observer.map(|o| o.registry().histograms().handle(HistKind::MergeStep));
    let mut cursors = Vec::with_capacity(runs.len());
    for (run, &start) in runs.iter().zip(frontier) {
        let reader = run.open_at(start, last_key.clone(), counters, None)?;
        cursors.push(RunCursor::from_reader(reader)?);
    }
    Ok(GroupStream {
        source: GroupSource::Merge(LoserTreeMerge::new(cursors)),
        merge_hist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::compare::{is_sorted, sort_records};
    use dmpi_common::RecordBatch;

    fn frame_of(records: &[Record]) -> Bytes {
        let batch: RecordBatch = records.iter().cloned().collect();
        Bytes::from(ser::frame_batch(&batch))
    }

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    #[test]
    fn ingest_within_budget_stays_resident() {
        let mut s = PartitionStore::new(1 << 20, true);
        s.ingest(frame_of(&[rec("b", "2"), rec("a", "1")])).unwrap();
        assert_eq!(s.stats().spills, 0);
        assert!(s.stats().mem_bytes > 0);
        assert_eq!(s.stats().records, 2);
        let records = s.into_records().unwrap();
        assert_eq!(records.len(), 2);
        assert!(is_sorted(&records, &BytesComparator));
    }

    #[test]
    fn over_budget_spills_and_merge_is_correct() {
        let mut s = PartitionStore::new(64, true);
        let mut expected = Vec::new();
        for i in (0..50).rev() {
            let r = rec(&format!("key{i:03}"), &format!("{i}"));
            expected.push(r.clone());
            s.ingest(frame_of(&[r])).unwrap();
        }
        assert!(s.stats().spills > 0, "tiny budget must spill");
        assert!(s.stats().spilled_bytes > 0);
        let records = s.into_records().unwrap();
        assert_eq!(records.len(), 50);
        assert!(is_sorted(&records, &BytesComparator));
        sort_records(&mut expected, &BytesComparator);
        assert_eq!(records, expected);
    }

    #[test]
    fn spill_pressure_bounds_resident_records() {
        let mut s = PartitionStore::new(64, true);
        for i in 0..200 {
            s.ingest(frame_of(&[rec(&format!("key{i:03}"), "valuevalue")]))
                .unwrap();
        }
        let st = s.stats();
        assert_eq!(st.records, 200);
        assert!(
            st.peak_resident_records < 20,
            "64-byte budget must keep the forming run tiny, saw {}",
            st.peak_resident_records
        );
        // And the merge still yields everything, sorted.
        let records = s.into_records().unwrap();
        assert_eq!(records.len(), 200);
        assert!(is_sorted(&records, &BytesComparator));
    }

    #[test]
    fn unsorted_mode_preserves_all_records() {
        let mut s = PartitionStore::new(32, false);
        for i in 0..20 {
            s.ingest(frame_of(&[rec(&format!("k{i}"), "v")])).unwrap();
        }
        let records = s.into_records().unwrap();
        assert_eq!(records.len(), 20);
    }

    #[test]
    fn hashed_mode_groups_interleaved_keys() {
        let mut s = PartitionStore::new(40, false);
        for i in 0..30 {
            s.ingest(frame_of(&[rec(&format!("k{}", i % 3), &format!("{i}"))]))
                .unwrap();
        }
        assert!(s.stats().spills > 0);
        let mut stream = s.into_group_stream().unwrap();
        let mut groups = Vec::new();
        while let Some(g) = stream.next_group().unwrap() {
            groups.push(g);
        }
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(GroupedValues::len).sum::<usize>(), 30);
    }

    #[test]
    fn group_stream_merges_across_runs() {
        let mut s = PartitionStore::new(1 << 20, true);
        s.ingest(frame_of(&[rec("b", "1"), rec("a", "1")])).unwrap();
        s.spill();
        s.ingest(frame_of(&[rec("a", "2"), rec("c", "1")])).unwrap();
        s.spill();
        s.ingest(frame_of(&[rec("a", "3"), rec("b", "2")])).unwrap();
        let mut stream = s.into_group_stream().unwrap();
        let a = stream.next_group().unwrap().unwrap();
        assert_eq!(a.key, Bytes::from_static(b"a"));
        assert_eq!(a.len(), 3, "values for 'a' from all three runs");
        let b = stream.next_group().unwrap().unwrap();
        assert_eq!(b.key, Bytes::from_static(b"b"));
        assert_eq!(b.len(), 2);
        let c = stream.next_group().unwrap().unwrap();
        assert_eq!(c.key, Bytes::from_static(b"c"));
        assert!(stream.next_group().unwrap().is_none());
    }

    #[test]
    fn merge_matches_seed_semantics_exactly() {
        // The correctness bar: for any ingest order, the streamed merge
        // equals decode-everything + global sort_records.
        let mut s = PartitionStore::new(48, true);
        let mut all = Vec::new();
        for i in 0..60 {
            let r = rec(&format!("k{}", (i * 13) % 7), &format!("v{:02}", i % 10));
            all.push(r.clone());
            s.ingest(frame_of(&[r])).unwrap();
        }
        let merged = s.into_records().unwrap();
        sort_records(&mut all, &BytesComparator);
        assert_eq!(merged, all);
    }

    #[test]
    fn total_bytes_is_conserved_across_spills() {
        let mut s = PartitionStore::new(16, true);
        let mut sent = 0u64;
        for i in 0..10 {
            let f = frame_of(&[rec(&format!("{i}"), "abcdefgh")]);
            sent += f.len() as u64;
            s.ingest(f).unwrap();
        }
        // Spill images re-frame the same records, so byte totals are
        // conserved exactly.
        assert_eq!(s.total_bytes(), sent);
    }

    #[test]
    fn empty_store_yields_nothing() {
        let s = PartitionStore::new(1024, true);
        assert!(s.into_records().unwrap().is_empty());
        let s = PartitionStore::new(1024, false);
        assert!(s
            .into_group_stream()
            .unwrap()
            .next_group()
            .unwrap()
            .is_none());
    }

    #[test]
    fn manual_spill_then_more_ingest() {
        let mut s = PartitionStore::new(1 << 20, true);
        s.ingest(frame_of(&[rec("z", "1")])).unwrap();
        s.spill();
        s.ingest(frame_of(&[rec("a", "2")])).unwrap();
        let records = s.into_records().unwrap();
        assert_eq!(records[0].key_utf8(), "a");
        assert_eq!(records[1].key_utf8(), "z");
    }

    #[test]
    fn corrupt_payload_is_an_ingest_error() {
        let mut s = PartitionStore::new(1 << 20, true);
        let mut bad = frame_of(&[rec("k", "v")]).to_vec();
        bad.truncate(bad.len() - 1);
        assert!(s.ingest(Bytes::from(bad)).is_err());
    }

    #[test]
    fn large_runs_seal_in_the_background() {
        // Runs above SEAL_INLINE_MAX take the background-sealing path;
        // the merged output must still equal a global sort, and byte
        // accounting must be conserved even though it happens before the
        // image exists.
        let budget = (SEAL_INLINE_MAX as usize) * 2;
        let mut s = PartitionStore::new(budget, true);
        let big_value = "x".repeat(512);
        let mut all = Vec::new();
        let mut sent = 0u64;
        for i in 0..600 {
            let r = rec(&format!("k{:04}", (i * 31) % 997), &big_value);
            all.push(r.clone());
            let f = frame_of(&[r]);
            sent += f.len() as u64;
            s.ingest(f).unwrap();
        }
        assert!(s.stats().spills >= 2, "must spill repeatedly");
        assert_eq!(s.total_bytes(), sent, "upfront accounting conserved");
        let merged = s.into_records().unwrap();
        sort_records(&mut all, &BytesComparator);
        assert_eq!(merged, all);
    }

    #[test]
    fn finish_ingest_joins_outstanding_seals() {
        let budget = (SEAL_INLINE_MAX as usize) * 2;
        let mut s = PartitionStore::new(budget, true);
        let big_value = "y".repeat(1024);
        for i in 0..400 {
            s.ingest(frame_of(&[rec(&format!("k{i:04}"), &big_value)]))
                .unwrap();
        }
        assert!(s.stats().spills >= 1);
        // Without an observer the totals are empty, but the barrier must
        // still join every sealing thread so the images are materialized.
        let phase = s.finish_ingest();
        assert_eq!(phase, PhaseTotals::default());
        assert_eq!(s.sealing.len(), 0);
        assert_eq!(s.spilled.len(), s.stats().spills as usize);
    }

    #[test]
    fn sealing_records_spill_phase_when_observed() {
        let obs = Observer::new();
        let budget = (SEAL_INLINE_MAX as usize) * 2;
        let mut s = PartitionStore::new(budget, true);
        s.set_observer(obs.clone(), 0, 0);
        let big_value = "z".repeat(1024);
        for i in 0..400 {
            s.ingest(frame_of(&[rec(&format!("k{i:04}"), &big_value)]))
                .unwrap();
        }
        assert!(s.stats().spills >= 1);
        let phase = s.finish_ingest();
        // Spill time was recorded by the sealing sites and surfaced
        // through the barrier, not lost on the background threads.
        assert!(phase.spill_us > 0 || phase == PhaseTotals::default());
        assert_eq!(
            obs.trace().of_kind(SpanKind::Spill).count() as u64,
            s.stats().spills
        );
    }

    #[test]
    fn many_runs_stress_the_loser_tree() {
        // Non-power-of-two run counts exercise the phantom leaves.
        for runs in [1usize, 2, 3, 5, 7, 9] {
            let mut s = PartitionStore::new(1, true); // every frame spills
            let mut all = Vec::new();
            for i in 0..runs * 4 {
                let r = rec(&format!("k{:03}", (i * 17) % 23), &format!("{i}"));
                all.push(r.clone());
                s.ingest(frame_of(&[r])).unwrap();
            }
            let merged = s.into_records().unwrap();
            sort_records(&mut all, &BytesComparator);
            assert_eq!(merged, all, "runs={runs}");
        }
    }

    #[test]
    fn key_prefix_orders_and_identifies_keys() {
        // Edge cases the contract must survive: padding vs real 0x00
        // bytes, 0xFF bytes, keys that are prefixes of each other, and
        // keys sharing 6/7/8/9 leading bytes.
        let mut keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![0; 7],
            vec![0; 8],
            vec![0; 9],
            vec![0xff],
            vec![0xff; 7],
            vec![0xff; 8],
            b"a".to_vec(),
            b"a\0".to_vec(),
            b"a\0\0\0\0\0\0".to_vec(),
            b"a\0\0\0\0\0\0\0".to_vec(),
        ];
        let base = b"qwertyuiop";
        for shared in 6..=9 {
            for tail in [&b""[..], b"\0", b"a", b"\xff"] {
                keys.push([&base[..shared], tail].concat());
            }
        }
        for a in &keys {
            for b in &keys {
                check_prefix_contract(a, b);
            }
        }
    }

    /// `key_prefix(a) < key_prefix(b)` implies `a < b`, and equal
    /// prefixes with a length byte below 8 imply `a == b`.
    fn check_prefix_contract(a: &[u8], b: &[u8]) {
        let (pa, pb) = (key_prefix(a), key_prefix(b));
        if pa < pb {
            assert!(a < b, "prefix order {a:?} < {b:?} disagrees with key order");
        }
        if pa == pb && (pa as u8) < 8 {
            assert_eq!(a, b, "equal short prefixes must mean equal keys");
        }
    }

    proptest::proptest! {
        #[test]
        fn key_prefix_contract_holds_for_any_keys(
            a in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..12),
            b in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..12),
        ) {
            check_prefix_contract(&a, &b);
            check_prefix_contract(&b, &a);
        }
    }

    /// The pre-index store as a test-only reference: every frame decoded
    /// into a `Vec<Record>` forming run that seals synchronously through
    /// `SortKernel::sort` + `RunWriter::push`; grouping is a global
    /// `sort_records` (sorted mode) or `group_hashed` (hashed mode) of
    /// everything ingested.
    struct RecordStore {
        budget: usize,
        sorted: bool,
        kernel: SortKernel,
        current: Vec<Record>,
        all: Vec<Record>,
        sealed_blocks: Vec<Vec<crate::spillfmt::BlockMeta>>,
        stats: StoreStats,
    }

    impl RecordStore {
        fn new(budget: usize, sorted: bool, kernel: SortKernel) -> Self {
            RecordStore {
                budget,
                sorted,
                kernel,
                current: Vec::new(),
                all: Vec::new(),
                sealed_blocks: Vec::new(),
                stats: StoreStats::default(),
            }
        }

        fn ingest(&mut self, payload: &Bytes) {
            self.stats.frames += 1;
            self.stats.mem_bytes += payload.len() as u64;
            let mut reader = ser::SharedRecordReader::new(payload.clone());
            while let Some(rec) = reader.next_record().unwrap() {
                self.current.push(rec.clone());
                self.all.push(rec);
                self.stats.records += 1;
            }
            let st = &mut self.stats;
            st.peak_resident_records = st.peak_resident_records.max(self.current.len() as u64);
            st.peak_mem_bytes = st.peak_mem_bytes.max(st.mem_bytes);
            if st.mem_bytes as usize > self.budget && !self.current.is_empty() {
                st.spilled_bytes += st.mem_bytes;
                st.spills += 1;
                st.mem_bytes = 0;
                let mut run = std::mem::take(&mut self.current);
                if self.sorted {
                    self.kernel.sort(&mut run);
                }
                let cfg = SpillConfig::default();
                let mut writer =
                    crate::spillfmt::RunWriter::new(cfg.block_bytes, cfg.compress, self.sorted);
                for rec in &run {
                    writer.push(rec);
                }
                let (_, index) = writer.finish();
                st.spilled_wire_bytes += index.file_len;
                self.sealed_blocks.push(index.blocks);
            }
        }

        fn groups(&self, range: Option<&KeyRange>) -> Vec<GroupedValues> {
            let mut records: Vec<Record> = self
                .all
                .iter()
                .filter(|r| range.is_none_or(|range| range.contains(&r.key)))
                .cloned()
                .collect();
            if self.sorted {
                sort_records(&mut records, &BytesComparator);
                dmpi_common::group::group_sorted(records)
            } else {
                dmpi_common::group::group_hashed(records)
            }
        }
    }

    /// Seeded frames over a key pool built to stress the prefix index:
    /// empty keys, keys with 0x00/0xFF bytes, keys that are prefixes of
    /// each other, keys sharing 6/7/8/9 leading bytes and 1 KiB keys,
    /// with duplicate keys carrying differing and empty values — or, when
    /// `uniform`, every record carrying the value `1`.
    fn seeded_frames(seed: u64, frames: usize, uniform: bool) -> Vec<Bytes> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let base = b"qwertyuiop";
        let mut pool: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0xff],
            vec![0xff; 3],
            vec![0xff; 9],
            b"a".to_vec(),
            b"ab".to_vec(),
            b"abc".to_vec(),
            b"abcdefg".to_vec(),
            b"abcdefgh".to_vec(),
            b"abcdefghi".to_vec(),
            b"a\0".to_vec(),
            vec![b'k'; 1024],
            [vec![b'k'; 1023], vec![b'j']].concat(),
        ];
        for shared in 6..=9 {
            for tail in [&b""[..], b"\0", b"x", b"\xff"] {
                pool.push([&base[..shared], tail].concat());
            }
        }
        let values: [&[u8]; 6] = [b"", b"1", b"2", b"\0", b"\xff\xff", b"a longer value"];
        (0..frames)
            .map(|_| {
                let records: Vec<Record> = (0..rng.gen_range(1..=12usize))
                    .map(|_| {
                        let key = pool[rng.gen_range(0..pool.len())].clone();
                        let value = if uniform {
                            b"1".to_vec()
                        } else {
                            values[rng.gen_range(0..values.len())].to_vec()
                        };
                        Record::new(key, value)
                    })
                    .collect();
                frame_of(&records)
            })
            .collect()
    }

    fn drain(mut stream: GroupStream) -> Vec<GroupedValues> {
        let mut groups = Vec::new();
        while let Some(g) = stream.next_group().unwrap() {
            groups.push(g);
        }
        groups
    }

    #[test]
    fn prefix_index_store_matches_the_record_store() {
        let budgets = [1, 64, SEAL_INLINE_MAX as usize * 2, usize::MAX];
        for (seed, uniform) in [(1u64, false), (2, true)] {
            let frames = seeded_frames(seed, 500, uniform);
            for kernel in [SortKernel::Radix, SortKernel::Comparison] {
                for sorted in [true, false] {
                    for budget in budgets {
                        let mut reference = RecordStore::new(budget, sorted, kernel);
                        let fill = || {
                            let mut s = PartitionStore::new(budget, sorted);
                            s.set_sort_kernel(kernel);
                            for f in &frames {
                                s.ingest(f.clone()).unwrap();
                            }
                            s.finish_ingest();
                            s
                        };
                        for f in &frames {
                            reference.ingest(f);
                        }
                        let cell = format!(
                            "seed={seed} kernel={} sorted={sorted} budget={budget}",
                            kernel.name()
                        );
                        if budget == SEAL_INLINE_MAX as usize * 2 {
                            assert!(
                                reference.stats.spills >= 1,
                                "{cell}: must seal in the background"
                            );
                        }
                        let ranges = [None, Some(KeyRange::new(&b"a"[..], &b"qwertyuio"[..]))];
                        for range in ranges {
                            let store = fill();
                            assert_eq!(store.stats(), reference.stats, "{cell}: stats");
                            let blocks: Vec<_> = store
                                .spilled
                                .iter()
                                .map(|r| r.index().blocks.clone())
                                .collect();
                            assert_eq!(blocks, reference.sealed_blocks, "{cell}: sealed blocks");
                            let got = drain(store.into_group_stream_range(range.clone()).unwrap());
                            assert_eq!(
                                got,
                                reference.groups(range.as_ref()),
                                "{cell} range={range:?}"
                            );
                        }
                        if sorted {
                            // Seal everything, stop mid-way at a recorded
                            // frontier, and resume from the sealed runs.
                            let mut store = fill();
                            store.seal_all();
                            let runs = store.sealed_run_handles();
                            let counters = store.read_counters();
                            let expected = reference.groups(None);
                            let mut stream = store.into_group_stream().unwrap();
                            let mut got = Vec::new();
                            for _ in 0..expected.len() / 2 {
                                got.push(stream.next_group().unwrap().unwrap());
                            }
                            let frontier = stream.frontier().expect("sealed merge is resumable");
                            let last_key = got.last().map(|g| g.key.clone());
                            got.extend(drain(
                                resume_group_stream(&runs, &frontier, last_key, &counters, None)
                                    .unwrap(),
                            ));
                            assert_eq!(got, expected, "{cell}: resumed");
                        }
                    }
                }
            }
        }
    }
}
