//! End-to-end fault injection: a tree built on clean files is queried
//! through a [`FaultInjectingDevice`], exercising the retry path (transient
//! faults must be invisible in the results) and the corruption-fallback
//! path (a permanently corrupt quantized block degrades to the exact
//! level, not to a panic or a wrong answer).

mod common;

use common::TempDir;
use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{knn_batch, AccessMethod, QueryOptions, TracedResult};
use iqtree_repro::geometry::{Dataset, Mbr, Metric};
use iqtree_repro::storage::{
    BlockDevice, FaultConfig, FaultInjectingDevice, FileDevice, MemWal, SimClock,
};
use iqtree_repro::tree::verify::verify_index;
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::Path;

const FILES: [&str; 3] = ["dir.bin", "quant.bin", "exact.bin"];

/// Builds an index over `ds` into three files under `dir` and drops it.
fn build_files(dir: &Path, ds: &Dataset, block: usize) {
    let mut clock = SimClock::default();
    let mut names = FILES.iter();
    let tree = IqTree::build(
        ds,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || {
            let path = dir.join(names.next().expect("three files"));
            Box::new(FileDevice::create(&path, block).expect("create index file"))
                as Box<dyn BlockDevice>
        },
        &mut clock,
    );
    drop(tree);
}

/// Reopens the index files, each wrapped by `wrap` (e.g. in a fault
/// injector).
fn reopen(
    dir: &Path,
    block: usize,
    dim: usize,
    mut wrap: impl FnMut(usize, Box<dyn BlockDevice>) -> Box<dyn BlockDevice>,
) -> (IqTree, SimClock) {
    let mut clock = SimClock::default();
    let mut open = |i: usize| {
        let raw = Box::new(FileDevice::open(&dir.join(FILES[i]), block).expect("open index file"))
            as Box<dyn BlockDevice>;
        wrap(i, raw)
    };
    let tree = IqTree::open(
        dim,
        Metric::Euclidean,
        IqTreeOptions::default(),
        open(0),
        open(1),
        open(2),
        &mut clock,
    )
    .expect("index opens");
    clock.reset();
    (tree, clock)
}

/// Seeded transient faults on every level (rate <= 10%): the bounded
/// retries must absorb them all, so a batch k-NN run over a 10k-point
/// index returns exactly the clean run's results — while the I/O
/// statistics prove faults actually fired.
#[test]
fn transient_faults_are_invisible_in_batch_results() {
    let dir = TempDir::new("fault-transient");
    let w = Workload::generate(10_000, 32, |n| data::uniform(8, n, 2024));
    build_files(&dir, &w.db, 4096);
    let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();

    let (clean_tree, mut clean_clock) = reopen(&dir, 4096, 8, |_, d| d);
    let clean = knn_batch(&clean_tree, &mut clean_clock, &queries, 10, 4);

    let cfg = FaultConfig {
        seed: 7,
        read_transient_rate: 0.08, // <= 10%, queries only read
        write_transient_rate: 0.0,
        bit_flip_rate: 0.0,
        torn_write_rate: 0.0,
    };
    let (faulty_tree, mut faulty_clock) = reopen(&dir, 4096, 8, |_, d| {
        Box::new(FaultInjectingDevice::new(d, cfg))
    });
    let faulty = knn_batch(&faulty_tree, &mut faulty_clock, &queries, 10, 4);

    assert_eq!(clean, faulty, "retries must hide every transient fault");
    let stats = faulty_clock.stats();
    assert!(stats.injected_faults > 0, "no fault ever fired: {stats:?}");
    assert!(stats.io_retries > 0, "no retry ever ran: {stats:?}");
    assert_eq!(clean_clock.stats().injected_faults, 0);
}

/// One permanently corrupt quantized (level-2) block: full-result k-NN
/// still returns the exact answer by falling back to the level-3 exact
/// page, and the corruption shows up in the trace and the I/O statistics.
#[test]
fn corrupt_quant_block_falls_back_to_exact_level() {
    let dir = TempDir::new("fault-corrupt");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);

    let (tree, mut clock) = reopen(&dir, 2048, 6, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(3));
        if i == 1 {
            f.corrupt_block(0); // first quantized page, permanently
        }
        Box::new(f)
    });

    // k = n: nothing is prunable, so the corrupt page must be visited.
    let k = tree.len();
    for q in w.queries.iter().take(4) {
        let before = clock.stats().corrupt_blocks;
        let (hits, trace) = tree.knn_traced(&mut clock, q, k);
        assert!(trace.quant_fallbacks >= 1, "fallback never ran: {trace:?}");
        assert_eq!(trace.pages_lost, 0, "exact level was available");
        assert_eq!(trace.points_skipped, 0);
        assert!(clock.stats().corrupt_blocks > before);

        // Degraded — but still exactly right.
        assert_eq!(hits.len(), k);
        let m = Metric::Euclidean;
        let mut expect: Vec<(u32, f64)> = (0..w.db.len())
            .map(|i| (i as u32, m.distance(w.db.point(i), q)))
            .collect();
        expect.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
        for (got, want) in hits.iter().zip(&expect) {
            assert!((got.1 - want.1).abs() < 1e-9);
        }
    }
}

/// Sorted ids of a few `range` and `window` queries around each of the
/// first four workload queries, including a range and a window that cover
/// the whole unit cube (so every page, a corrupt one too, is read).
fn range_and_window_answers(
    tree: &IqTree,
    clock: &mut SimClock,
    queries: &Dataset,
) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for q in queries.iter().take(4) {
        for radius in [0.3, 0.6, 10.0] {
            let mut ids = tree.range(clock, q, radius);
            ids.sort_unstable();
            out.push(ids);
        }
        for half in [0.2f32, 0.4, 10.0] {
            let window = Mbr::from_bounds(
                q.iter().map(|&x| x - half).collect(),
                q.iter().map(|&x| x + half).collect(),
            );
            let mut ids = tree.window(clock, &window);
            ids.sort_unstable();
            out.push(ids);
        }
    }
    out
}

/// The shared multi-query walk over the first eight workload queries as
/// one micro-batch.
fn multi_knn(
    tree: &IqTree,
    clock: &mut SimClock,
    queries: &Dataset,
    k: usize,
) -> Vec<TracedResult> {
    let refs: Vec<&[f32]> = queries.iter().take(8).collect();
    tree.knn_multi_opts_traced(clock, &refs, k, None, &QueryOptions::EXACT)
}

/// One permanently corrupt quantized block degrades every query path the
/// same way as single-query k-NN: the multi-query walk (through
/// `knn_batch`), `range` and `window` answer the page from its exact
/// level and return exactly what a clean tree returns.
#[test]
fn corrupt_quant_block_degrades_every_query_path_to_the_exact_level() {
    let dir = TempDir::new("fault-corrupt-paths");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let (clean, mut clean_clock) = reopen(&dir, 2048, 6, |_, d| d);
    let (tree, mut clock) = reopen(&dir, 2048, 6, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(3));
        if i == 1 {
            f.corrupt_block(0); // first quantized page, permanently
        }
        Box::new(f)
    });
    let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();

    // k = n: nothing is prunable, so every lane reads the corrupt page.
    let k = tree.len();
    assert_eq!(
        knn_batch(&tree, &mut clock, &queries, k, 2),
        knn_batch(&clean, &mut clean_clock, &queries, k, 2)
    );
    for (hits, trace) in multi_knn(&tree, &mut clock, &w.queries, k) {
        assert_eq!(hits.len(), k);
        assert!(trace.quant_fallbacks >= 1, "fallback never ran: {trace:?}");
        assert_eq!(trace.pages_lost, 0, "exact level was available");
        assert_eq!(trace.points_skipped, 0);
    }

    let before = clock.stats().corrupt_blocks;
    assert_eq!(
        range_and_window_answers(&tree, &mut clock, &w.queries),
        range_and_window_answers(&clean, &mut clean_clock, &w.queries)
    );
    assert!(clock.stats().corrupt_blocks > before);
}

/// A page corrupt on both its quantized block and its exact region is
/// lost: every query path completes without a panic on the remaining
/// pages, and k-NN reports the loss in its trace.
#[test]
fn page_corrupt_on_both_levels_is_reported_lost_on_every_path() {
    let dir = TempDir::new("fault-corrupt-both");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let (clean, mut clean_clock) = reopen(&dir, 2048, 6, |_, d| d);
    let page = clean.pages()[0].clone();
    let (tree, mut clock) = reopen(&dir, 2048, 6, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(3));
        if i == 1 {
            f.corrupt_block(page.quant_block);
        }
        if i == 2 {
            for b in page.exact_start..page.exact_start + u64::from(page.exact_blocks) {
                f.corrupt_block(b);
            }
        }
        Box::new(f)
    });

    let k = tree.len();
    for q in w.queries.iter().take(2) {
        let (hits, trace) = tree.knn_traced(&mut clock, q, k);
        assert!(trace.pages_lost >= 1, "loss not reported: {trace:?}");
        assert_eq!(hits.len(), k - page.count as usize);
    }
    for (hits, trace) in multi_knn(&tree, &mut clock, &w.queries, k) {
        assert!(trace.pages_lost >= 1, "loss not reported: {trace:?}");
        assert_eq!(hits.len(), k - page.count as usize);
    }
    let got = range_and_window_answers(&tree, &mut clock, &w.queries);
    let want = range_and_window_answers(&clean, &mut clean_clock, &w.queries);
    for (got, want) in got.iter().zip(&want) {
        assert!(got.iter().all(|id| want.binary_search(id).is_ok()));
    }
}

/// Exact entries that stay unreadable are skipped points, not
/// refinements: with every level-3 block corrupt, single-query k-NN, the
/// multi-query walk and partial refinement all report zero refinements
/// and count every failed exact read in `points_skipped`.
#[test]
fn unreadable_exact_entries_count_as_skipped_not_refined() {
    let dir = TempDir::new("fault-corrupt-exact");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let exact_blocks = std::fs::metadata(dir.join(FILES[2])).expect("stat").len() / 2048;
    let (tree, mut clock) = reopen(&dir, 2048, 6, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(3));
        if i == 2 {
            for b in 0..exact_blocks {
                f.corrupt_block(b);
            }
        }
        Box::new(f)
    });

    for q in w.queries.iter().take(2) {
        let (_, trace) = tree.knn_traced(&mut clock, q, 10);
        assert_eq!(trace.refinements, 0, "{trace:?}");
        assert!(trace.points_skipped > 0, "{trace:?}");
    }
    for (_, trace) in multi_knn(&tree, &mut clock, &w.queries, 10) {
        assert_eq!(trace.refinements, 0, "{trace:?}");
        assert!(trace.points_skipped > 0, "{trace:?}");
    }
    // Partial refinement's batched rerank counts the same way.
    let partial = QueryOptions {
        refine_factor: 2,
        ..QueryOptions::EXACT
    };
    let (_, trace) = tree.knn_opts_traced(&mut clock, w.queries.point(0), 10, None, &partial);
    assert_eq!(trace.refinements, 0, "{trace:?}");
    assert!(trace.points_skipped > 0, "{trace:?}");
}

/// A WAL-attached tree under transient read faults: logged inserts and
/// deletes (whose find/load phases read through the retry layer)
/// interleave with plain `&self` k-NN reads, and every answer — during
/// and after the workload — matches a fault-free run of the identical
/// script, while the I/O statistics prove faults really fired.
#[test]
fn logged_updates_interleaved_with_reads_absorb_transient_faults() {
    let dir = TempDir::new("fault-wal-transient");
    let ds = data::uniform(5, 4_000, 404);
    build_files(&dir, &ds, 2048);
    let queries: Vec<Vec<f32>> = data::uniform(5, 6, 405)
        .iter()
        .map(<[f32]>::to_vec)
        .collect();

    // The same seeded script of updates and reads, replayed twice.
    let run = |tree: &mut IqTree, clock: &mut SimClock| -> Vec<Vec<(u32, u64)>> {
        let mut rng = StdRng::seed_from_u64(406);
        let mut answers = Vec::new();
        let mut live: Vec<(u32, Vec<f32>)> = Vec::new();
        let mut next_id = 4_000u32;
        for step in 0..120 {
            if rng.gen_bool(0.7) || live.is_empty() {
                let p: Vec<f32> = (0..5).map(|_| rng.gen()).collect();
                tree.insert(clock, next_id, &p).expect("logged insert");
                live.push((next_id, p));
                next_id += 1;
            } else {
                let (id, p) = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(tree.delete(clock, id, &p).expect("logged delete"));
            }
            // Interleaved shared reads: k-NN through `&self`.
            if step % 5 == 0 {
                let q = &queries[(step / 5) % queries.len()];
                answers.push(
                    tree.knn(clock, q, 8)
                        .into_iter()
                        .map(|(id, d)| (id, d.to_bits()))
                        .collect(),
                );
            }
        }
        answers
    };

    let reopen_with_wal = |wrap: &dyn Fn(Box<dyn BlockDevice>) -> Box<dyn BlockDevice>| {
        let mut clock = SimClock::default();
        let open = |i: usize| {
            let raw = Box::new(FileDevice::open(&dir.join(FILES[i]), 2048).expect("open"))
                as Box<dyn BlockDevice>;
            wrap(raw)
        };
        let (tree, report) = IqTree::open_with_wal(
            5,
            Metric::Euclidean,
            IqTreeOptions::default(),
            open(0),
            open(1),
            open(2),
            Box::new(MemWal::new()),
            &mut clock,
        )
        .expect("open with fresh log");
        assert!(report.log_was_clean());
        clock.reset();
        (tree, clock)
    };

    let (mut clean_tree, mut clean_clock) = reopen_with_wal(&|d| d);
    let clean = run(&mut clean_tree, &mut clean_clock);
    drop(clean_tree); // updates went to the shared files: rebuild them
    std::fs::remove_dir_all(&dir).expect("reset");
    std::fs::create_dir_all(&dir).expect("reset");
    build_files(&dir, &ds, 2048);

    let cfg = FaultConfig {
        seed: 11,
        read_transient_rate: 0.06,
        write_transient_rate: 0.0,
        bit_flip_rate: 0.0,
        torn_write_rate: 0.0,
    };
    let (mut faulty_tree, mut faulty_clock) =
        reopen_with_wal(&move |d| Box::new(FaultInjectingDevice::new(d, cfg)));
    let faulty = run(&mut faulty_tree, &mut faulty_clock);

    assert_eq!(
        clean, faulty,
        "transient faults must be invisible to logged updates and reads alike"
    );
    let stats = faulty_clock.stats();
    assert!(stats.injected_faults > 0, "no fault fired: {stats:?}");
    assert!(stats.io_retries > 0, "no retry ran: {stats:?}");
    assert!(
        faulty_tree.wal_bytes() > 0,
        "the workload's transactions are in the log"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Corrupting any single block of any of the three files is detected
    /// by `verify_index`, which pinpoints exactly the corrupted block.
    #[test]
    fn prop_verify_pinpoints_any_corrupt_block(seed in 0u64..1_000, pick in 0usize..1_000) {
        let dir = TempDir::new(&format!("fault-prop-{seed}-{pick}"));
        let ds = data::uniform(4, 600, seed);
        build_files(&dir, &ds, 512);

        // Choose a (level, block) uniformly over all blocks of the index.
        let sizes: Vec<u64> = FILES
            .iter()
            .map(|f| {
                let len = std::fs::metadata(dir.join(f)).expect("stat").len();
                len / 512
            })
            .collect();
        let total: u64 = sizes.iter().sum();
        let mut target = (pick as u64 * 7 + seed) % total;
        let mut level = 0;
        while target >= sizes[level] {
            target -= sizes[level];
            level += 1;
        }

        let mut clock = SimClock::default();
        let open_with_fault = |i: usize| -> Box<dyn BlockDevice> {
            let raw = Box::new(FileDevice::open(&dir.join(FILES[i]), 512).expect("open"))
                as Box<dyn BlockDevice>;
            let f = FaultInjectingDevice::new(raw, FaultConfig::none(9));
            if i == level {
                f.corrupt_block(target);
            }
            Box::new(f)
        };
        let report = verify_index(
            open_with_fault(0),
            open_with_fault(1),
            open_with_fault(2),
            &mut clock,
        );
        prop_assert!(!report.is_clean());
        let expect_name = ["directory", "quantized", "exact"][level];
        prop_assert_eq!(report.corrupt_blocks(), vec![(expect_name, target)]);

        // Directory corruption must also fail a real `open`.
        if level == 0 {
            let mut clock = SimClock::default();
            let opened = IqTree::open(
                4,
                Metric::Euclidean,
                IqTreeOptions::default(),
                open_with_fault(0),
                open_with_fault(1),
                open_with_fault(2),
                &mut clock,
            );
            prop_assert!(opened.is_err());
        }
        }
}
