//! Integration: the *cost* behavior the paper claims, measured end to end
//! on the simulated clock — the IQ-tree's headline properties, not just
//! result correctness.

use iqtree_repro::data::{self, Workload};
use iqtree_repro::geometry::Metric;
use iqtree_repro::scan::SeqScan;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use iqtree_repro::xtree::{XTree, XTreeOptions};

fn dev() -> Box<MemDevice> {
    Box::new(MemDevice::new(8192))
}

fn avg_nn_time(
    tree: &mut IqTree,
    clock: &mut SimClock,
    queries: &iqtree_repro::geometry::Dataset,
) -> f64 {
    let mut t = 0.0;
    for q in queries.iter() {
        clock.reset();
        tree.nearest(clock, q);
        t += clock.total_time();
    }
    t / queries.len() as f64
}

#[test]
fn iqtree_beats_scan_in_high_dimensions() {
    // The "best of both worlds" claim at the scan-friendly end: even at
    // d = 16 uniform, the compressed second level keeps the IQ-tree below
    // a full scan of the exact file.
    let w = Workload::generate(20_000, 8, |n| data::uniform(16, n, 71));
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let scan = SeqScan::build(&w.db, Metric::Euclidean, dev(), &mut clock);

    let iq = avg_nn_time(&mut tree, &mut clock, &w.queries);
    let mut sc = 0.0;
    for q in w.queries.iter() {
        clock.reset();
        scan.nearest(&mut clock, q);
        sc += clock.total_time();
    }
    sc /= w.queries.len() as f64;
    assert!(iq < sc, "IQ-tree {iq} vs scan {sc}");
}

#[test]
fn iqtree_beats_xtree_in_high_dimensions() {
    let w = Workload::generate(20_000, 8, |n| data::uniform(14, n, 72));
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let xt = XTree::build(
        &w.db,
        Metric::Euclidean,
        XTreeOptions::default(),
        dev(),
        dev(),
        &mut clock,
    );

    let iq = avg_nn_time(&mut tree, &mut clock, &w.queries);
    let mut xts = 0.0;
    for q in w.queries.iter() {
        clock.reset();
        xt.nearest(&mut clock, q);
        xts += clock.total_time();
    }
    xts /= w.queries.len() as f64;
    assert!(iq < xts, "IQ-tree {iq} vs X-tree {xts}");
}

#[test]
fn scheduled_io_never_pays_more_seeks_on_average() {
    let w = Workload::generate(15_000, 10, |n| data::uniform(12, n, 73));
    let mut c_opt = SimClock::default();
    let t_opt = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut c_opt,
    );
    let mut c_std = SimClock::default();
    let t_std = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions {
            scheduled_io: false,
            ..Default::default()
        },
        || dev(),
        &mut c_std,
    );
    let (mut seeks_opt, mut seeks_std, mut time_opt, mut time_std) = (0u64, 0u64, 0.0, 0.0);
    for q in w.queries.iter() {
        c_opt.reset();
        t_opt.nearest(&mut c_opt, q);
        seeks_opt += c_opt.stats().seeks;
        time_opt += c_opt.total_time();
        c_std.reset();
        t_std.nearest(&mut c_std, q);
        seeks_std += c_std.stats().seeks;
        time_std += c_std.total_time();
    }
    assert!(
        seeks_opt < seeks_std,
        "scheduler must trade seeks: {seeks_opt} vs {seeks_std}"
    );
    assert!(
        time_opt < time_std,
        "and win overall: {time_opt} vs {time_std}"
    );
}

#[test]
fn quantization_compresses_the_scanned_level() {
    // The quantized second level must be substantially smaller than the
    // exact representation it stands in for.
    let w = Workload::generate(20_000, 1, |n| data::uniform(16, n, 74));
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let quant_bytes: usize = tree.num_pages() * 8192;
    let exact_bytes = w.db.len() * 16 * 4;
    assert!(
        (quant_bytes as f64) < 0.7 * exact_bytes as f64,
        "quantized level {quant_bytes} B vs exact {exact_bytes} B"
    );
}

#[test]
fn optimizer_trace_is_recorded_and_minimal_at_choice() {
    let w = Workload::generate(10_000, 1, |n| data::cad_like(12, n, 75));
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let trace = tree.optimize_trace();
    assert!(!trace.cost_per_step.is_empty());
    let min = trace
        .cost_per_step
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert_eq!(trace.cost_per_step[trace.best_step], min);
}

#[test]
fn queries_on_fresh_clock_have_reproducible_cost() {
    let w = Workload::generate(8_000, 3, |n| data::color_like(16, n, 76));
    let run = || -> Vec<(u64, u64)> {
        let mut clock = SimClock::default();
        let tree = IqTree::build(
            &w.db,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || dev(),
            &mut clock,
        );
        w.queries
            .iter()
            .map(|q| {
                clock.reset();
                tree.nearest(&mut clock, q);
                (clock.stats().seeks, clock.stats().blocks_read)
            })
            .collect()
    };
    assert_eq!(run(), run());
}

/// Sums of one query set's simulated cost and scheduler counters.
#[derive(Debug, PartialEq, Eq)]
struct ScheduleSums {
    total_time_bits: u64,
    runs: u64,
    pages_processed: u64,
    pages_skipped: u64,
    refinements: u64,
}

/// Runs 64 exact k = 10 queries, each on a fresh clock, and sums what the
/// page scheduler did.
fn schedule_sums(w: &Workload) -> ScheduleSums {
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let mut total = 0.0f64;
    let mut sums = ScheduleSums {
        total_time_bits: 0,
        runs: 0,
        pages_processed: 0,
        pages_skipped: 0,
        refinements: 0,
    };
    for q in w.queries.iter() {
        clock.reset();
        let (hits, trace) = tree.knn_traced(&mut clock, q, 10);
        assert_eq!(hits.len(), 10);
        total += clock.total_time();
        sums.runs += trace.runs;
        sums.pages_processed += trace.pages_processed;
        sums.pages_skipped += trace.pages_skipped;
        sums.refinements += trace.refinements;
    }
    sums.total_time_bits = total.to_bits();
    sums
}

/// Pins the time-optimized page scheduler (eqs 2–5) end to end: how far
/// each sweep extends depends on the access probabilities, so a kernel
/// change that moves a scheduling decision moves these sums (ulp-level
/// agreement is the access-probability oracle's job). The constants were
/// recorded with the original input-major convolution kernel, before it
/// was rewritten; the rewrite must reproduce them bit for bit.
#[test]
fn golden_schedule_is_bit_identical() {
    let cad = Workload::generate(20_000, 64, |n| data::cad_like(16, n, 77));
    let uni = Workload::generate(4_000, 64, |n| data::uniform(16, n, 78));
    let got = (schedule_sums(&cad), schedule_sums(&uni));
    let want = (
        ScheduleSums {
            total_time_bits: 4622614516333559934,
            runs: 83,
            pages_processed: 593,
            pages_skipped: 0,
            refinements: 919,
        },
        ScheduleSums {
            total_time_bits: 4621601968426458527,
            runs: 64,
            pages_processed: 1024,
            pages_skipped: 0,
            refinements: 642,
        },
    );
    assert_eq!(got, want);
}
