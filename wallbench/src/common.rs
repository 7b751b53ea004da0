//! What the three workloads share: sizes, the run configuration, the
//! pass result, index set-up against each device kind, and the search
//! layer's per-query accumulator.

use crate::layers::{Counters, CountingDevice, Snapshot};
use crate::stats::Metrics;
use iq_engine::QueryTrace;
use iq_geometry::{Dataset, Metric};
use iq_storage::{BlockDevice, FileDevice, IoStats, MemDevice, MmapFileDevice, SimClock};
use iq_tree::{IqTree, IqTreeOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Indexed points per workload.
pub const N: usize = 100_000;
/// Dimensionality of every data set.
pub const DIM: usize = 16;
/// Neighbors per query.
pub const K: usize = 10;
/// Physical block size of every level file (the disk model's 8 KiB).
pub const BLOCK: usize = 8192;
pub const METRIC: Metric = Metric::Euclidean;
/// The three level files of a file-backed index.
pub const FILES: [&str; 3] = ["dir.bin", "quant.bin", "exact.bin"];

/// Seed of the fixed corpus. The workload seed picks the queries and the
/// update sequence, not the data: an index over one fixed data set makes
/// runs with different seeds comparable (CAD-like sets drawn from
/// different seeds differ enough to move `plan` cost by a third).
pub const CORPUS_SEED: u64 = 20_000;
/// Candidate queries: points of the corpus's generator stream that are
/// not indexed, from which each seed draws its query set.
pub const QUERY_POOL: usize = 4_096;

/// The fixed corpus: the `N` indexed points of `generate`'s stream, and
/// the `extra` points that follow them.
pub fn corpus(
    generate: fn(usize, usize, u64) -> Dataset,
    extra: usize,
) -> (Dataset, Vec<Vec<f32>>) {
    let mut all = generate(DIM, N + extra, CORPUS_SEED);
    let tail = all.split_off_tail(extra);
    (all, tail.iter().map(<[f32]>::to_vec).collect())
}

/// `n` distinct points of `pool`, drawn by `seed` (partial Fisher–Yates).
pub fn pick(pool: &[Vec<f32>], n: usize, seed: u64) -> Vec<Vec<f32>> {
    assert!(n <= pool.len(), "cannot draw {n} of {} points", pool.len());
    let mut rng = crate::stats::Rng::new(seed);
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..n {
        let j = i + rng.below(pool.len() - i);
        idx.swap(i, j);
    }
    idx[..n].iter().map(|&i| pool[i].clone()).collect()
}

/// One pass's settings.
pub struct Cfg<'a> {
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Put the counting wrappers under the stack and report layers.
    pub traced: bool,
    /// Independent set-ups timed; `setup_s` is their median.
    pub setups: usize,
    /// Client / batch threads (`available_parallelism`).
    pub threads: usize,
    /// Benchmark-owned temporary directory for file-backed indexes.
    pub tmp: &'a Path,
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Values that must not depend on wall time or tracing: compared
    /// bit for bit between the untraced and traced passes.
    pub deterministic: Vec<(&'static str, f64)>,
    /// Sample counts and settings, as `"key": value` JSON members.
    pub notes: Vec<String>,
}

impl Pass {
    /// Records one operation's outcome.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn note(&mut self, key: &str, json_value: impl std::fmt::Display) {
        self.notes.push(format!("\"{key}\": {json_value}"));
    }
}

/// Wall-clock cost of getting an index ready.
#[derive(Clone, Copy, Default)]
pub struct SetupTime {
    pub build_s: f64,
    pub open_s: f64,
    /// Wall time inside raw device writes during the build (traced only).
    pub device_write_ms: f64,
}

impl SetupTime {
    pub fn total(&self) -> f64 {
        self.build_s + self.open_s
    }
}

/// Wraps `dev` in a counting layer when tracing.
pub fn counted(dev: Box<dyn BlockDevice>, c: Option<&Arc<Counters>>) -> Box<dyn BlockDevice> {
    match c {
        Some(c) => CountingDevice::wrap(dev, c),
        None => dev,
    }
}

fn snap(c: Option<&Arc<Counters>>) -> Snapshot {
    c.map(|c| c.snapshot()).unwrap_or_default()
}

/// Bulk-loads `base` onto three devices from `make_dev` (counted when
/// tracing), timing the build and the raw device writes inside it.
fn timed_build(
    base: &Dataset,
    c: Option<&Arc<Counters>>,
    mut make_dev: impl FnMut() -> Box<dyn BlockDevice>,
) -> (IqTree, SetupTime) {
    let before = snap(c);
    let t0 = Instant::now();
    let tree = IqTree::build(
        base,
        METRIC,
        IqTreeOptions::default(),
        || counted(make_dev(), c),
        &mut SimClock::default(),
    );
    let time = SetupTime {
        build_s: t0.elapsed().as_secs_f64(),
        open_s: 0.0,
        device_write_ms: snap(c).since(&before).write_ns as f64 / 1e6,
    };
    (tree, time)
}

/// Bulk-loads `base` into three in-memory level files.
pub fn build_mem(base: &Dataset, c: Option<&Arc<Counters>>) -> (IqTree, SetupTime) {
    timed_build(base, c, || Box::new(MemDevice::new(BLOCK)))
}

/// Bulk-loads `base` into the three level files under `dir` and closes
/// them again. Returns the quantized level's block count.
pub fn build_files(base: &Dataset, dir: &Path, c: Option<&Arc<Counters>>) -> (u64, SetupTime) {
    std::fs::create_dir_all(dir).expect("create index directory");
    let mut names = FILES.iter();
    let (tree, time) = timed_build(base, c, || {
        let path = dir.join(names.next().expect("three level files"));
        Box::new(FileDevice::create(&path, BLOCK).expect("create level file"))
    });
    (tree.storage_blocks().1, time)
}

/// Opens the level files under `dir` read-only through the mmap device.
pub fn open_mmap(dir: &Path, c: Option<&Arc<Counters>>) -> IqTree {
    let dev = |name: &str| {
        counted(
            Box::new(MmapFileDevice::open(&dir.join(name), BLOCK).expect("map level file")),
            c,
        )
    };
    IqTree::open(
        DIM,
        METRIC,
        IqTreeOptions::default(),
        dev(FILES[0]),
        dev(FILES[1]),
        dev(FILES[2]),
        &mut SimClock::default(),
    )
    .expect("open mapped index")
}

/// Opens the level files under `dir` read-write.
pub fn open_file(dir: &Path, name: &str, c: Option<&Arc<Counters>>) -> Box<dyn BlockDevice> {
    counted(
        Box::new(FileDevice::open(&dir.join(name), BLOCK).expect("open level file")),
        c,
    )
}

/// Times `cfg.setups` independent set-ups (each in `tmp/setup-<i>` when
/// file-backed) and keeps the first index; the others are dropped and
/// their files removed.
pub fn timed_setups<T>(
    cfg: &Cfg,
    mut setup: impl FnMut(&Path) -> (T, SetupTime),
) -> (T, Vec<SetupTime>, PathBuf) {
    let mut kept = None;
    let mut times = Vec::with_capacity(cfg.setups);
    for i in 0..cfg.setups.max(1) {
        let dir = cfg.tmp.join(format!("setup-{i}"));
        // A fresh directory: a leftover log would be replayed on open.
        let _ = std::fs::remove_dir_all(&dir);
        let (index, time) = setup(&dir);
        times.push(time);
        if kept.is_none() {
            kept = Some((index, dir));
        } else {
            drop(index);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (index, dir) = kept.expect("at least one set-up");
    (index, times, dir)
}

/// Fills `setup_s` and the `build.*` layer metrics from the set-ups.
pub fn report_setups(pass: &mut Pass, times: &[SetupTime]) {
    let med =
        |f: fn(&SetupTime) -> f64| crate::stats::median(&times.iter().map(f).collect::<Vec<_>>());
    pass.e2e.put("setup_s", med(SetupTime::total), "s");
    pass.layers.put("build.build_s", med(|t| t.build_s), "s");
    pass.layers.put("build.open_s", med(|t| t.open_s), "s");
    pass.layers
        .put("build.device_write_ms", med(|t| t.device_write_ms), "ms");
    pass.note("setups", times.len());
}

/// Index bytes per live point: the three level files at their block size.
pub fn index_bytes_per_point(tree: &IqTree) -> f64 {
    let (d, q, e) = tree.storage_blocks();
    ((d + q + e) * BLOCK as u64) as f64 / tree.len() as f64
}

/// The search layer's work over a set of queries, from the reports the
/// program returns: per-phase wall time, the `QueryTrace` counters and
/// the clock's `IoStats`.
#[derive(Clone, Default)]
pub struct SearchAcc {
    pub queries: u64,
    pub phase_wall: [f64; 5],
    pub trace: QueryTrace,
    pub io: IoStats,
    /// Wall time of the calls that ran the queries, times the threads
    /// that worked inside them: the time the phases should cover.
    pub busy_s: f64,
}

impl SearchAcc {
    /// Adds the work of `queries` queries charged to `clock`.
    pub fn add(&mut self, queries: u64, clock: &SimClock, trace: &QueryTrace, busy_s: f64) {
        self.queries += queries;
        let pt = clock.phase_times();
        for (acc, w) in self.phase_wall.iter_mut().zip(pt.wall) {
            *acc += w;
        }
        self.trace.merge(trace);
        self.io.merge(&clock.stats());
        self.busy_s += busy_s;
    }

    pub fn merge(&mut self, o: &SearchAcc) {
        self.queries += o.queries;
        for (a, b) in self.phase_wall.iter_mut().zip(o.phase_wall) {
            *a += b;
        }
        self.trace.merge(&o.trace);
        self.io.merge(&o.io);
        self.busy_s += o.busy_s;
    }

    /// The `search.*`, `storage.sim_seeks_per_query` and `cache.hit_rate`
    /// layer metrics.
    pub fn report(&self, layers: &mut Metrics) {
        let q = self.queries.max(1) as f64;
        let names = [
            "search.directory_ms",
            "search.plan_ms",
            "search.filter_ms",
            "search.refine_ms",
            "search.topk_ms",
        ];
        for (name, w) in names.into_iter().zip(self.phase_wall) {
            layers.put(name, w * 1e3 / q, "ms");
        }
        let t = &self.trace;
        layers.put(
            "search.pages_processed",
            t.pages_processed as f64 / q,
            "count",
        );
        layers.put("search.pages_skipped", t.pages_skipped as f64 / q, "count");
        layers.put("search.runs", t.runs as f64 / q, "count");
        layers.put("search.refinements", t.refinements as f64 / q, "count");
        let loaded = (t.pages_processed + t.pages_skipped) as f64;
        layers.put(
            "search.pages_per_run",
            loaded / t.runs.max(1) as f64,
            "count",
        );
        layers.put(
            "search.filter_ns_per_page",
            self.phase_wall[2] * 1e9 / t.pages_processed.max(1) as f64,
            "ns",
        );
        let phases: f64 = self.phase_wall.iter().sum();
        layers.put(
            "search.phase_coverage",
            phases / self.busy_s.max(f64::MIN_POSITIVE),
            "ratio",
        );
        layers.put(
            "storage.sim_seeks_per_query",
            self.io.seeks as f64 / q,
            "count",
        );
        let lookups = self.io.cache_hits + self.io.cache_misses;
        layers.put(
            "cache.hit_rate",
            self.io.cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
        );
    }
}

/// Reports `knn_p50_ms` and the tail `knn_p99_ms` of the k-NN request
/// latencies, with the sample count and the tail percentile used.
pub fn report_latency(pass: &mut Pass, lat_ms: &[f64]) {
    let (p99, tail) = crate::stats::tail(lat_ms);
    pass.e2e
        .put("knn_p50_ms", crate::stats::median(lat_ms), "ms");
    pass.e2e.put("knn_p99_ms", p99, "ms");
    pass.note("latency_samples", lat_ms.len());
    pass.note("knn_tail_percentile", crate::stats::num(tail));
}

/// Reports the storage read metrics for `queries` queries whose device
/// traffic is `io`.
pub fn report_reads(layers: &mut Metrics, io: &Snapshot, queries: u64) {
    let q = queries.max(1) as f64;
    layers.put("storage.reads_per_query", io.reads as f64 / q, "count");
    layers.put(
        "storage.blocks_per_query",
        io.blocks_read as f64 / q,
        "count",
    );
    layers.put(
        "storage.read_ms_per_query",
        io.read_ns as f64 / 1e6 / q,
        "ms",
    );
}

/// Removes the benchmark's temporary directory when dropped, also when the
/// run panics.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
