//! Raw-byte comparators, after Hadoop's `RawComparator`.
//!
//! Sorting serialized records without deserializing them is one of the core
//! MapReduce efficiency tricks; both the mapred engine's sort/spill path and
//! DataMPI's A-side grouping use these comparators.

use std::cmp::Ordering;

use crate::kv::Record;
use crate::varint;

/// Compares two serialized keys.
pub trait RawComparator: Send + Sync {
    /// Compares raw key bytes.
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering;

    /// Compares two records by key (default: delegate to `compare`).
    fn compare_records(&self, a: &Record, b: &Record) -> Ordering {
        self.compare(&a.key, &b.key)
    }
}

/// Lexicographic byte comparison — correct for UTF-8 text keys and for the
/// sequence-file keys used by the Sort workloads.
#[derive(Clone, Copy, Debug, Default)]
pub struct BytesComparator;

impl RawComparator for BytesComparator {
    #[inline]
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }
}

/// Compares keys that are varint-encoded `u64`s numerically.
#[derive(Clone, Copy, Debug, Default)]
pub struct VarintU64Comparator;

impl RawComparator for VarintU64Comparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        let av = varint::read_u64(a).map(|(v, _)| v).unwrap_or(u64::MAX);
        let bv = varint::read_u64(b).map(|(v, _)| v).unwrap_or(u64::MAX);
        av.cmp(&bv)
    }
}

/// Reverses another comparator (descending sorts).
#[derive(Clone, Copy, Debug)]
pub struct Reversed<C>(pub C);

impl<C: RawComparator> RawComparator for Reversed<C> {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        self.0.compare(b, a)
    }
}

/// Sorts a mutable slice of records with a raw comparator, breaking key ties
/// by value bytes so results are fully deterministic.
///
/// # Stability invariant
///
/// This uses an **unstable** sort on purpose. The effective comparator —
/// `(cmp(key), value)` everywhere in this codebase, `(key, value, run)`
/// in the A-side merge — is *total up to indistinguishability*: two
/// records it reports `Equal` for have byte-identical keys and values, so
/// any permutation of them is the same output. Stability therefore buys
/// nothing, while `sort_unstable_by` (pdqsort) avoids the stable sort's
/// allocation and runs faster on the spill path. Callers adding a new
/// comparator must preserve that property (or sort stably themselves) if
/// they care about the relative order of equal-comparing records.
pub fn sort_records<C: RawComparator>(records: &mut [Record], cmp: &C) {
    records.sort_unstable_by(|a, b| {
        cmp.compare(&a.key, &b.key)
            .then_with(|| a.value.cmp(&b.value))
    });
}

/// Partitions at or below this size sort via the comparison fallback
/// instead of another radix pass — counting 257 buckets costs more than
/// pdqsort on tiny slices.
const RADIX_FALLBACK_AT: usize = 64;

/// A sort kernel choice. Both kernels produce the exact same order —
/// `(key bytes lexicographic, then value)` — so the choice is purely a
/// performance dimension (benchmarked by `figures hotpath-bench`).
///
/// Inside the DataMPI A-side store (`datampi::store`) the kernel orders
/// the forming run's 16-byte key-prefix entries, not records: `Radix` is
/// a stable LSD radix over the 8 prefix bytes, `Comparison` a
/// `sort_unstable_by_key` on (prefix, arrival position); one shared pass
/// then compares full `(key, value)` bytes within equal prefixes.
/// [`SortKernel::sort`] applies the kernel to decoded records directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SortKernel {
    /// `sort_unstable_by` over the `(key, value)` comparator (pdqsort).
    Comparison,
    /// MSD radix on key bytes with the comparison fallback on small
    /// partitions — the default kernel.
    #[default]
    Radix,
}

impl SortKernel {
    /// Kernel name for benchmark tables (`"std"` / `"radix"`).
    pub fn name(self) -> &'static str {
        match self {
            SortKernel::Comparison => "std",
            SortKernel::Radix => "radix",
        }
    }

    /// Sorts `records` into `(key, value)` order with this kernel.
    pub fn sort(self, records: &mut [Record]) {
        match self {
            SortKernel::Comparison => sort_records(records, &BytesComparator),
            SortKernel::Radix => radix_sort_records(records),
        }
    }
}

/// Sorts records by raw key bytes (then value) with an MSD radix sort —
/// equivalent to `sort_records(records, &BytesComparator)`, byte for
/// byte, but distribution-based: one counting pass per shared-prefix
/// depth instead of `O(n log n)` full key comparisons.
///
/// Partitions at or below `RADIX_FALLBACK_AT` records fall back to
/// `sort_unstable_by` with the same `(key, value)` tiebreak (the total
/// order documented on [`sort_records`], so unstable is safe). Keys
/// shorter than the current depth form their own leading bucket; records
/// inside it have fully-equal keys and are ordered by value only.
pub fn radix_sort_records(records: &mut [Record]) {
    // Explicit work stack: recursion depth would otherwise track the
    // longest shared key prefix, which adversarial inputs control.
    let mut work: Vec<(usize, usize, usize)> = vec![(0, records.len(), 0)];
    while let Some((lo, hi, depth)) = work.pop() {
        let part = &mut records[lo..hi];
        if part.len() <= RADIX_FALLBACK_AT {
            // All keys in this partition share their first `depth` bytes,
            // so comparing full keys is equivalent and simplest.
            part.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
            continue;
        }
        // Bucket 0 = keys exhausted at this depth (they sort first);
        // bucket b+1 = key byte `b` at this depth.
        let bucket = |r: &Record| -> usize {
            match r.key.get(depth) {
                Some(&b) => b as usize + 1,
                None => 0,
            }
        };
        let mut counts = [0usize; 257];
        for r in part.iter() {
            counts[bucket(r)] += 1;
        }
        let mut starts = [0usize; 257];
        let mut sum = 0usize;
        for (s, c) in starts.iter_mut().zip(counts.iter()) {
            *s = sum;
            sum += c;
        }
        // American-flag pass: swap each record into its bucket region.
        let mut heads = starts;
        let mut ends = [0usize; 257];
        for b in 0..257 {
            ends[b] = starts[b] + counts[b];
        }
        for b in 0..257 {
            while heads[b] < ends[b] {
                let tb = bucket(&part[heads[b]]);
                if tb == b {
                    heads[b] += 1;
                } else {
                    part.swap(heads[b], heads[tb]);
                    heads[tb] += 1;
                }
            }
        }
        // Exhausted-key bucket: keys are fully equal here (shorter keys
        // landed in bucket 0 at an earlier depth), so order by value.
        if counts[0] > 1 {
            part[starts[0]..starts[0] + counts[0]].sort_unstable_by(|a, b| a.value.cmp(&b.value));
        }
        for b in 1..257 {
            if counts[b] > 1 {
                work.push((lo + starts[b], lo + starts[b] + counts[b], depth + 1));
            }
        }
    }
}

/// Checks that `records` is non-decreasing under `cmp` — used by tests and
/// by merge-phase debug assertions.
pub fn is_sorted<C: RawComparator>(records: &[Record], cmp: &C) -> bool {
    records
        .windows(2)
        .all(|w| cmp.compare(&w[0].key, &w[1].key) != Ordering::Greater)
}

/// K-way merge of already-sorted runs into one sorted vector.
///
/// This is the algorithm both the mapred engine's spill merge and DataMPI's
/// A-side grouped iteration use. Runs must each be sorted under `cmp`.
pub fn merge_sorted_runs<C: RawComparator>(runs: Vec<Vec<Record>>, cmp: &C) -> Vec<Record> {
    use std::collections::BinaryHeap;

    struct HeapItem {
        /// Sort key ordering is inverted because BinaryHeap is a max-heap.
        ord: Vec<u8>,
        tiebreak: Vec<u8>,
        run: usize,
        idx: usize,
    }
    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.ord == other.ord && self.tiebreak == other.tiebreak && self.run == other.run
        }
    }
    impl Eq for HeapItem {}
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse for min-heap behaviour; run index keeps it total.
            other
                .ord
                .cmp(&self.ord)
                .then_with(|| other.tiebreak.cmp(&self.tiebreak))
                .then_with(|| other.run.cmp(&self.run))
        }
    }

    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        if let Some(first) = run.first() {
            debug_assert!(is_sorted(run, cmp), "merge input run {i} not sorted");
            heap.push(HeapItem {
                ord: first.key.to_vec(),
                tiebreak: first.value.to_vec(),
                run: i,
                idx: 0,
            });
        }
    }
    while let Some(item) = heap.pop() {
        let rec = runs[item.run][item.idx].clone();
        out.push(rec);
        let next = item.idx + 1;
        if next < runs[item.run].len() {
            let r = &runs[item.run][next];
            heap.push(HeapItem {
                ord: r.key.to_vec(),
                tiebreak: r.value.to_vec(),
                run: item.run,
                idx: next,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    #[test]
    fn bytes_comparator_is_lexicographic() {
        let c = BytesComparator;
        assert_eq!(c.compare(b"a", b"b"), Ordering::Less);
        assert_eq!(c.compare(b"ab", b"a"), Ordering::Greater);
        assert_eq!(c.compare(b"", b""), Ordering::Equal);
    }

    #[test]
    fn varint_comparator_is_numeric() {
        let c = VarintU64Comparator;
        let mut a = Vec::new();
        let mut b = Vec::new();
        varint::write_u64(&mut a, 300); // two bytes
        varint::write_u64(&mut b, 5); // one byte but numerically smaller
        assert_eq!(c.compare(&a, &b), Ordering::Greater);
        // Lexicographic on raw bytes would have said Less (0xAC < 0x05 is
        // false, but multi-byte comparisons are what trips naive code).
    }

    #[test]
    fn reversed_flips_order() {
        let c = Reversed(BytesComparator);
        assert_eq!(c.compare(b"a", b"b"), Ordering::Greater);
    }

    #[test]
    fn sort_and_check() {
        let mut v = vec![rec("c", "1"), rec("a", "2"), rec("b", "3"), rec("a", "1")];
        assert!(!is_sorted(&v, &BytesComparator));
        sort_records(&mut v, &BytesComparator);
        assert!(is_sorted(&v, &BytesComparator));
        assert_eq!(v[0].value_utf8(), "1"); // ("a","1") before ("a","2")
    }

    #[test]
    fn merge_of_sorted_runs_equals_global_sort() {
        let run1 = vec![rec("a", "1"), rec("d", "4"), rec("f", "6")];
        let run2 = vec![rec("b", "2"), rec("e", "5")];
        let run3 = vec![rec("c", "3")];
        let merged = merge_sorted_runs(
            vec![run1.clone(), run2.clone(), run3.clone()],
            &BytesComparator,
        );
        let mut all: Vec<Record> = run1.into_iter().chain(run2).chain(run3).collect();
        sort_records(&mut all, &BytesComparator);
        assert_eq!(merged, all);
    }

    #[test]
    fn merge_handles_empty_runs_and_duplicates() {
        let merged = merge_sorted_runs(
            vec![
                vec![],
                vec![rec("x", "2"), rec("x", "3")],
                vec![rec("x", "1")],
            ],
            &BytesComparator,
        );
        assert_eq!(merged.len(), 3);
        assert!(is_sorted(&merged, &BytesComparator));
        let values: Vec<String> = merged.iter().map(|r| r.value_utf8()).collect();
        assert_eq!(values, ["1", "2", "3"]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_sorted_runs(vec![], &BytesComparator).is_empty());
        assert!(merge_sorted_runs(vec![vec![], vec![]], &BytesComparator).is_empty());
    }

    /// Reference order: the stable comparison sort the radix kernel must
    /// reproduce byte-for-byte.
    fn reference_sort(mut v: Vec<Record>) -> Vec<Record> {
        v.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        v
    }

    fn assert_radix_matches(v: Vec<Record>) {
        let expected = reference_sort(v.clone());
        let mut radix = v.clone();
        radix_sort_records(&mut radix);
        assert_eq!(radix, expected, "radix kernel diverged from sort_by");
        let mut std = v;
        SortKernel::Comparison.sort(&mut std);
        assert_eq!(std, expected, "comparison kernel diverged from sort_by");
    }

    /// Deterministic pseudo-random byte strings (xorshift; no external RNG).
    fn rand_bytes(state: &mut u64, max_len: usize) -> Vec<u8> {
        let mut step = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        };
        let len = (step() as usize) % (max_len + 1);
        (0..len).map(|_| (step() & 0xff) as u8).collect()
    }

    #[test]
    fn radix_handles_shared_prefixes() {
        // Hundreds of keys sharing a long common prefix: forces deep
        // recursion through single-occupancy depths (work-stack path).
        let mut v = Vec::new();
        for i in 0..300u32 {
            let key = format!("shared/prefix/deeply/nested/{:03}", i % 150);
            v.push(rec(&key, &format!("{}", 299 - i)));
        }
        assert_radix_matches(v);
    }

    #[test]
    fn radix_handles_empty_and_tiny_keys() {
        let mut v = Vec::new();
        for i in 0..200u32 {
            // Empty keys, 1-byte keys (all 256 values appear via i % 256
            // over two laps), and a sprinkle of 2-byte keys.
            match i % 3 {
                0 => v.push(Record::new(
                    Bytes::new(),
                    Bytes::from(vec![(i & 0xff) as u8]),
                )),
                1 => v.push(Record::new(
                    Bytes::from(vec![((i * 7) & 0xff) as u8]),
                    Bytes::from(format!("{i}")),
                )),
                _ => v.push(Record::new(
                    Bytes::from(vec![(i & 0xff) as u8, ((i * 3) & 0xff) as u8]),
                    Bytes::new(),
                )),
            }
        }
        assert_radix_matches(v);
    }

    #[test]
    fn radix_handles_identical_long_keys() {
        // All keys equal: everything funnels into the exhausted bucket at
        // the deepest level; order must come from values alone.
        let key = "k".repeat(100);
        let v: Vec<Record> = (0..200u32)
            .map(|i| rec(&key, &format!("{:03}", (i * 37) % 200)))
            .collect();
        assert_radix_matches(v);
    }

    #[test]
    fn radix_matches_reference_on_random_inputs() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for case in 0..8 {
            let n = 1 + (case * 157) % 1500; // spans fallback and radix paths
            let v: Vec<Record> = (0..n)
                .map(|_| {
                    Record::new(
                        Bytes::from(rand_bytes(&mut state, 12)),
                        Bytes::from(rand_bytes(&mut state, 6)),
                    )
                })
                .collect();
            assert_radix_matches(v);
        }
    }

    #[test]
    fn radix_handles_keys_that_are_prefixes_of_each_other() {
        // "a", "aa", "aaa", ... interleaved in reverse: each depth has a
        // nonempty exhausted bucket alongside a continuing bucket.
        let mut v = Vec::new();
        for len in (0..80usize).rev() {
            v.push(rec(&"a".repeat(len), &format!("{len}")));
            v.push(rec(&"a".repeat(len), "dup"));
        }
        assert_radix_matches(v);
    }

    #[test]
    fn sort_kernel_names_and_default() {
        assert_eq!(SortKernel::default(), SortKernel::Radix);
        assert_eq!(SortKernel::Radix.name(), "radix");
        assert_eq!(SortKernel::Comparison.name(), "std");
    }
}
