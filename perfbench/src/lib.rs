//! BigDataBench-scale benchmark of the DataMPI runtime.
//!
//! Each run generates one workload's inputs from a seed, computes an
//! independent reference answer, and then either times repeated jobs on
//! the threaded runtime (end-to-end metrics: throughput, CPU, peak
//! memory, set-up time) or makes one traced run that replays the same
//! data through every layer's public API under the benchmark's own
//! spans (per-layer metrics). Every job's output is checked against the
//! reference.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | Layer metrics | Moves | On |
//! |---|---|---|
//! | `datagen.*` | `setup_s` | all |
//! | `workloads.o_busy_s`, `workloads.records_out` | `throughput_mb_s` | `wordcount*` |
//! | `workloads.a_busy_s` | `throughput_mb_s` | `wordcount` |
//! | `buffer.*`, `ser.*`, `partition.*` | `throughput_mb_s`, `cpu_s` | `wordcount` |
//! | `buffer.combine_ratio` | `throughput_mb_s` | `wordcount-combine` (1.0 elsewhere) |
//! | `transport.*`, `crc.*` | `throughput_mb_s`, `cpu_s` | `sort-tcp-spill` (bypassed in-proc) |
//! | `store.*` (time, groups), `compare.*` | `throughput_mb_s` | `wordcount`, `sort-tcp-spill` |
//! | `store.peak_resident_records` | `peak_rss_mb` | `wordcount`, `sort-tcp-spill` |
//! | `store.spills`, `spillfmt.*` | `throughput_mb_s` | `sort-tcp-spill` only |
//! | `runtime.*` | read from the job's own counters and phase spans | all |

mod procfs;
pub mod reference;
mod replay;
pub mod run;
mod spans;
pub mod spec;
