//! Key-value grouping abstractions shared by every engine: emission
//! surfaces (`Collector`), grouped values, and the two grouping
//! disciplines (key-sorted vs hash-clustered).
//!
//! DataMPI's A tasks, Hadoop's reducers and Spark's `reduceByKey` all
//! consume `(key, [values])` groups produced from a stream of records;
//! defining the surface once keeps the three engines' user functions
//! interchangeable, which the integration tests exploit to check that all
//! engines compute identical results.

use bytes::Bytes;

use crate::kv::{Record, RecordBatch};

/// Emission surface handed to O functions (wraps the partitioned buffer).
pub trait Collector {
    /// Emits one key-value pair.
    fn collect(&mut self, key: &[u8], value: &[u8]);
}

/// A key and all values received for it at one A partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupedValues {
    /// The group's key.
    pub key: Bytes,
    /// All values emitted for the key, in arrival (or sorted) order.
    pub values: Vec<Bytes>,
}

impl GroupedValues {
    /// Number of values in the group.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the group carries no values (cannot normally happen).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Groups a run of records by key. If the records are key-sorted the
/// grouping is a single pass; for unsorted (Common-mode) input, equal keys
/// are still adjacent only if pre-grouped, so this helper always handles
/// the general case by keeping a map for non-adjacent keys being
/// impossible after sorting — the runtime sorts or hash-clusters first.
pub fn group_sorted(records: Vec<Record>) -> Vec<GroupedValues> {
    let mut groups: Vec<GroupedValues> = Vec::new();
    for rec in records {
        match groups.last_mut() {
            Some(g) if g.key == rec.key => g.values.push(rec.value),
            _ => groups.push(GroupedValues {
                key: rec.key,
                values: vec![rec.value],
            }),
        }
    }
    groups
}

/// Clusters unsorted records by key using a hash map (Common mode).
/// Group order follows first appearance of each key, which keeps the
/// output deterministic for a given arrival order.
pub fn group_hashed(records: Vec<Record>) -> Vec<GroupedValues> {
    use crate::hashing::FnvHashMap;
    let mut index: FnvHashMap<Bytes, usize> = FnvHashMap::default();
    let mut groups: Vec<GroupedValues> = Vec::new();
    for rec in records {
        match index.get(&rec.key) {
            Some(&i) => groups[i].values.push(rec.value),
            None => {
                index.insert(rec.key.clone(), groups.len());
                groups.push(GroupedValues {
                    key: rec.key,
                    values: vec![rec.value],
                });
            }
        }
    }
    groups
}

/// Bytes per collector chunk: big enough that the per-chunk allocation
/// and copy vanish against the records it holds, small enough that a
/// collector holding a few output records does not pin much memory.
const CHUNK_BYTES: usize = 1 << 20;

/// A collector writing into a [`RecordBatch`] — the A-side output surface
/// of every engine and a convenient test double for O functions.
///
/// Records are staged in a chunk arena rather than allocated one by one:
/// [`Collector::collect`] appends the key and value bytes to one reused
/// chunk buffer of at most 1 MiB and records where they end. When the
/// chunk would overflow, or when the batch is read through
/// [`batch`](Self::batch), [`into_batch`](Self::into_batch) or
/// [`append`](Self::append), the staged bytes are frozen into one shared
/// [`Bytes`] and each pending record becomes two zero-copy windows into
/// it. A record larger than a chunk gets a chunk of its own. So an emit
/// costs no heap allocation of its own, only its share of one per chunk;
/// record order and bytes are exactly what a per-record copy would give.
///
/// A record window keeps its whole chunk alive: a consumer that retains
/// a few output records and drops the rest still pins the chunks those
/// few point into.
#[derive(Default)]
pub struct BatchCollector {
    /// Records already frozen into shared chunks.
    batch: RecordBatch,
    /// Key and value bytes of the pending records, back to back.
    chunk: Vec<u8>,
    /// `(key end, value end)` in `chunk` per pending record; each key
    /// starts where the previous record's value ends.
    pending: Vec<(usize, usize)>,
}

impl BatchCollector {
    /// The collected records, with every pending record materialised.
    pub fn batch(&mut self) -> &RecordBatch {
        self.freeze();
        &self.batch
    }

    /// Consumes the collector, yielding every collected record.
    pub fn into_batch(mut self) -> RecordBatch {
        self.freeze();
        self.batch
    }

    /// Moves all records of `other` after the records collected so far.
    pub fn append(&mut self, other: &mut RecordBatch) {
        self.freeze();
        self.batch.append(other);
    }

    /// Freezes the pending records' bytes into one shared chunk and pushes
    /// each record as two windows into it.
    fn freeze(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let chunk = Bytes::copy_from_slice(&self.chunk);
        let mut start = 0;
        for (key_end, value_end) in self.pending.drain(..) {
            self.batch.push(Record {
                key: chunk.slice(start..key_end),
                value: chunk.slice(key_end..value_end),
            });
            start = value_end;
        }
        self.chunk.clear();
    }
}

impl Collector for BatchCollector {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        let len = key.len() + value.len();
        if self.chunk.len() + len > CHUNK_BYTES {
            self.freeze();
            if len > CHUNK_BYTES {
                let own = Bytes::from([key, value].concat());
                self.batch.push(Record {
                    key: own.slice(..key.len()),
                    value: own.slice(key.len()..),
                });
                return;
            }
        }
        self.chunk.extend_from_slice(key);
        let key_end = self.chunk.len();
        self.chunk.extend_from_slice(value);
        self.pending.push((key_end, self.chunk.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    #[test]
    fn group_sorted_merges_adjacent_keys() {
        let groups = group_sorted(vec![
            rec("a", "1"),
            rec("a", "2"),
            rec("b", "3"),
            rec("c", "4"),
            rec("c", "5"),
        ]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 1);
        assert_eq!(groups[2].values[1], Bytes::from_static(b"5"));
    }

    #[test]
    fn group_hashed_handles_interleaved_keys() {
        let groups = group_hashed(vec![
            rec("x", "1"),
            rec("y", "2"),
            rec("x", "3"),
            rec("y", "4"),
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].key, Bytes::from_static(b"x"));
        assert_eq!(groups[0].values.len(), 2);
        assert_eq!(groups[1].values.len(), 2);
    }

    #[test]
    fn empty_input_empty_groups() {
        assert!(group_sorted(vec![]).is_empty());
        assert!(group_hashed(vec![]).is_empty());
        let g = GroupedValues {
            key: Bytes::new(),
            values: vec![],
        };
        assert!(g.is_empty());
    }

    /// The collector [`BatchCollector`] replaced, kept as the reference:
    /// one fresh heap copy per key and per value.
    #[derive(Default)]
    struct PerRecordCollector {
        batch: RecordBatch,
    }

    impl Collector for PerRecordCollector {
        fn collect(&mut self, key: &[u8], value: &[u8]) {
            self.batch.push(Record::new(key.to_vec(), value.to_vec()));
        }
    }

    fn assert_same_batch(arena: &RecordBatch, reference: &RecordBatch) {
        assert_eq!(arena.len(), reference.len());
        assert!(arena.iter().eq(reference.iter()), "records differ");
        assert_eq!(arena.payload_bytes(), reference.payload_bytes());
        assert_eq!(arena.framed_bytes(), reference.framed_bytes());
    }

    /// Seeded emissions around every chunk edge; `None` reads the
    /// arena's batch mid-stream, which freezes a partial chunk.
    fn edge_emissions(seed: u64) -> Vec<Option<(Vec<u8>, Vec<u8>)>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen::<u8>()).collect() };
        let mut ops = vec![
            Some((vec![], vec![])),
            Some((vec![], b"v".to_vec())),
            Some((b"k".to_vec(), vec![])),
        ];
        // ~1.2 MiB of 4 KiB records: one straddles the first chunk edge.
        for _ in 0..300 {
            ops.push(Some((bytes(2048), bytes(2051))));
        }
        ops.push(None);
        for i in 0..500 {
            let (k, v) = (i % 61, (i * 7) % 67);
            ops.push(Some((bytes(k), bytes(v))));
            if i % 97 == 0 {
                ops.push(None);
            }
        }
        // A record of exactly one chunk, one a byte over, an oversized
        // key, an oversized value, and one that fills a chunk exactly.
        ops.push(Some((bytes(CHUNK_BYTES / 2), bytes(CHUNK_BYTES / 2))));
        ops.push(Some((bytes(3), bytes(5))));
        ops.push(Some((bytes(CHUNK_BYTES), bytes(1))));
        ops.push(Some((bytes(CHUNK_BYTES + 9), vec![])));
        ops.push(Some((vec![], bytes(CHUNK_BYTES + 9))));
        ops.push(Some((vec![], vec![])));
        ops.push(Some((bytes(CHUNK_BYTES - 10), bytes(10))));
        ops.push(Some((bytes(1), vec![])));
        ops
    }

    #[test]
    fn chunk_arena_collects_what_per_record_copies_collect() {
        for seed in [3, 41] {
            let mut arena = BatchCollector::default();
            let mut reference = PerRecordCollector::default();
            for op in edge_emissions(seed) {
                match op {
                    Some((k, v)) => {
                        arena.collect(&k, &v);
                        reference.collect(&k, &v);
                    }
                    None => assert_same_batch(arena.batch(), &reference.batch),
                }
            }
            let mut tail = RecordBatch::new();
            tail.push(Record::from_strs("appended", "last"));
            arena.append(&mut tail.clone());
            reference.batch.append(&mut tail);
            assert_same_batch(&arena.into_batch(), &reference.batch);
        }
    }

    #[test]
    fn tiny_records_share_one_allocation_per_chunk() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: usize = 1 << 20;
        let mut arena = BatchCollector::default();
        let mut reference = PerRecordCollector::default();
        let mut rng = StdRng::seed_from_u64(2026);
        let (mut key, mut value) = (Vec::new(), Vec::new());
        // Greedy packing model: a record opens a new chunk iff it does
        // not fit in what is left of the current one.
        let (mut chunks, mut used) = (1, 0);
        for _ in 0..N {
            key.clear();
            value.clear();
            key.extend((0..rng.gen_range(0..=4)).map(|_| rng.gen::<u8>()));
            value.extend((0..rng.gen_range(0..=8)).map(|_| rng.gen::<u8>()));
            arena.collect(&key, &value);
            reference.collect(&key, &value);
            used += key.len() + value.len();
            if used > CHUNK_BYTES {
                chunks += 1;
                used = key.len() + value.len();
            }
        }
        let batch = arena.into_batch();
        assert_same_batch(&batch, &reference.batch);
        // A record's value follows its key, and the next record follows
        // it, in the same allocation — except where a new chunk opens.
        let end = |b: &Bytes| b.as_ptr() as usize + b.len();
        let mut breaks = 0;
        let mut prev_end = None;
        for rec in &batch {
            assert_eq!(end(&rec.key), rec.value.as_ptr() as usize);
            if prev_end.is_some_and(|p| p != rec.key.as_ptr() as usize) {
                breaks += 1;
            }
            prev_end = Some(end(&rec.value));
        }
        assert!(chunks > 4, "the corpus spans several chunks");
        assert_eq!(breaks + 1, chunks);
    }

    #[test]
    fn batch_collector_collects() {
        let mut c = BatchCollector::default();
        c.collect(b"k", b"v");
        c.collect(b"k2", b"v2");
        assert_eq!(c.batch().len(), 2);
        assert_eq!(c.batch().records()[1].key_utf8(), "k2");
    }
}
