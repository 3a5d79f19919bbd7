//! The three workloads: what each one runs, at what size, and on which
//! job configuration.

use std::path::Path;

use bytes::Bytes;

use datampi::{Backend, JobConfig};
use dmpi_workloads::ExecWorkload;

const MIB: usize = 1 << 20;

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    /// The catalogue entry whose O and A functions the job runs.
    pub workload: ExecWorkload,
    /// O tasks, one generated split each.
    pub tasks: usize,
    /// Minimum generated bytes per split.
    pub task_bytes: usize,
    /// Install the workload's O-side combiner.
    pub combine: bool,
    /// Move frames over loopback TCP and spill the A store to disk under
    /// a memory budget of 1/32 of the input.
    pub tcp_spill: bool,
}

/// Ranks of every job: two, so with one O worker per rank the O threads
/// match a two-core host.
pub const RANKS: usize = 2;

/// The workload table, in the order the benchmark documents them.
pub fn all() -> [Spec; 3] {
    [
        Spec {
            name: "wordcount",
            workload: ExecWorkload::WordCount,
            tasks: 8,
            task_bytes: 8 * MIB,
            combine: false,
            tcp_spill: false,
        },
        Spec {
            name: "wordcount-combine",
            workload: ExecWorkload::WordCount,
            tasks: 8,
            task_bytes: 8 * MIB,
            combine: true,
            tcp_spill: false,
        },
        Spec {
            name: "sort-tcp-spill",
            workload: ExecWorkload::TextSort,
            tasks: 16,
            task_bytes: 8 * MIB,
            combine: false,
            tcp_spill: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The same workload with `task_bytes` per split (small inputs for
    /// the self-test; the spill budget scales with the input).
    pub fn scaled(mut self, task_bytes: usize) -> Spec {
        self.task_bytes = task_bytes;
        self
    }

    /// A-store memory budget per rank on the spilling workload.
    fn memory_budget(&self) -> usize {
        (self.tasks * self.task_bytes / 32).max(1)
    }

    /// The job configuration. `spill_dir` is used only by the spilling
    /// workload.
    pub fn config(&self, spill_dir: &Path) -> JobConfig {
        let mut config = JobConfig::new(RANKS).with_o_parallelism(1);
        if self.combine {
            let combiner = self
                .workload
                .combiner()
                .expect("combining workloads have a combiner");
            config = config.with_combiner(combiner);
        }
        if self.tcp_spill {
            config = config
                .with_transport(Backend::Tcp)
                .with_memory_budget(self.memory_budget())
                .with_spill_dir(spill_dir);
        }
        config
    }

    /// Generates the job's inputs from `seed`.
    pub fn inputs(&self, seed: u64) -> Vec<Bytes> {
        self.workload.inputs(self.tasks, self.task_bytes, seed)
    }
}
