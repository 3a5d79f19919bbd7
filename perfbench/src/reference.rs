//! The independent reference every job's output is checked against.
//!
//! The reference recomputes the answer from the generated inputs with
//! naive single-threaded code that shares nothing with the runtime: a
//! `HashMap` word count for the word-count workloads and a plain sort
//! of the input lines for the sort workload. Outputs are compared by a
//! digest of the key-ordered `(key, value)` sequence, so a mismatch in
//! any record, any count, or the order inside a partition changes it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::time::Instant;

use bytes::Bytes;

use dmpi_common::varint;
use dmpi_workloads::ExecWorkload;

/// The reference answer of one input set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reference {
    /// Digest of the expected key-ordered output.
    pub digest: u64,
    /// Seconds the naive computation took (counting or sorting, not
    /// digesting).
    pub secs: f64,
}

fn lines(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    data.split(|&b| b == b'\n').filter(|l| !l.is_empty())
}

/// Computes the reference answer of `workload` over `inputs`.
pub fn compute(workload: ExecWorkload, inputs: &[Bytes]) -> Reference {
    match workload {
        ExecWorkload::WordCount => {
            let start = Instant::now();
            let mut counts: HashMap<&[u8], u64> = HashMap::new();
            for input in inputs {
                for line in lines(input) {
                    for word in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                        *counts.entry(word).or_insert(0) += 1;
                    }
                }
            }
            let secs = start.elapsed().as_secs_f64();
            let mut sorted: Vec<(&[u8], u64)> = counts.into_iter().collect();
            sorted.sort_unstable();
            Reference {
                digest: digest(sorted.iter().copied()),
                secs,
            }
        }
        ExecWorkload::TextSort => {
            let start = Instant::now();
            let mut sorted: Vec<&[u8]> = inputs.iter().flat_map(|i| lines(i)).collect();
            sorted.sort_unstable();
            let secs = start.elapsed().as_secs_f64();
            Reference {
                digest: digest(sorted.iter().map(|l| (*l, 0))),
                secs,
            }
        }
        ExecWorkload::Grep => unimplemented!("no benchmark workload runs grep"),
    }
}

/// Digest of a key-ordered `(key, value)` sequence.
fn digest<'a>(items: impl Iterator<Item = (&'a [u8], u64)>) -> u64 {
    let mut h = DefaultHasher::new();
    let mut n = 0u64;
    for (key, value) in items {
        h.write_u64(key.len() as u64);
        h.write(key);
        h.write_u64(value);
        n += 1;
    }
    h.write_u64(n);
    h.finish()
}

/// The value a record carries, as the reference states it: a word count
/// for the word-count workloads, nothing (0) for sort. `None` when the
/// bytes do not hold exactly that.
fn decode_value(workload: ExecWorkload, value: &[u8]) -> Option<u64> {
    match workload {
        ExecWorkload::TextSort => value.is_empty().then_some(0),
        _ => match varint::read_u64(value) {
            Ok((v, used)) if used == value.len() => Some(v),
            _ => None,
        },
    }
}

/// Digest of a job's output, given as one `(key, value)` list per
/// partition. Each partition must be key-sorted on its own; the
/// partitions are then merged so the digest covers the single
/// key-ordered sequence the reference describes. `None` when a value
/// does not decode or a partition is out of order.
fn digest_output(workload: ExecWorkload, partitions: &[Vec<(&[u8], &[u8])>]) -> Option<u64> {
    let mut decoded: Vec<Vec<(&[u8], u64)>> = Vec::with_capacity(partitions.len());
    for part in partitions {
        let mut items = Vec::with_capacity(part.len());
        for &(key, value) in part {
            items.push((key, decode_value(workload, value)?));
        }
        if items.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        decoded.push(items);
    }
    // k-way merge by repeated minimum: k is the rank count (2).
    let mut heads = vec![0usize; decoded.len()];
    let merged = std::iter::from_fn(|| {
        let (p, _) = decoded
            .iter()
            .enumerate()
            .filter_map(|(p, items)| items.get(heads[p]).map(|item| (p, item)))
            .min_by(|a, b| a.1.cmp(b.1))?;
        heads[p] += 1;
        Some(decoded[p][heads[p] - 1])
    });
    Some(digest(merged))
}

/// Whether a job's output matches the reference.
pub fn matches(
    reference: &Reference,
    workload: ExecWorkload,
    partitions: &[Vec<(&[u8], &[u8])>],
) -> bool {
    digest_output(workload, partitions) == Some(reference.digest)
}
