//! Criterion versions of the paper's figures at a reduced scale
//! (wall-clock per query, complementing the simulated-time tables the
//! `fig*` binaries print at paper scale).
//!
//! One benchmark group per figure; each group benches one NN query against
//! each method/variant on a pre-built index over a 20k-point workload.

use criterion::{criterion_group, criterion_main, Criterion};
use iq_bench::{Config, DataKind};
use iq_geometry::Metric;
use iq_scan::SeqScan;
use iq_storage::{MemDevice, SimClock};
use iq_tree::{AccessMethod, IqTree, IqTreeOptions};
use iq_vafile::VaFile;
use iq_xtree::{XTree, XTreeOptions};
use std::hint::black_box;

const N: usize = 20_000;
const QUERIES: usize = 8;

fn clock(cfg: &Config) -> SimClock {
    SimClock::new(cfg.disk, cfg.cpu)
}

fn dev(cfg: &Config) -> Box<MemDevice> {
    Box::new(MemDevice::new(cfg.disk.block_size))
}

/// Figure 7 (reduced): the four IQ-tree concept variants, 12 dimensions.
fn fig7_variants(c: &mut Criterion) {
    let cfg = Config::tiny();
    let w = DataKind::Uniform.workload(12, N, QUERIES, cfg.seed);
    let mut group = c.benchmark_group("fig7_iqtree_variants_12d");
    for (name, opts) in [
        ("opt+quant", IqTreeOptions::default()),
        (
            "opt+noquant",
            IqTreeOptions {
                quantize: false,
                ..Default::default()
            },
        ),
        (
            "std+quant",
            IqTreeOptions {
                scheduled_io: false,
                ..Default::default()
            },
        ),
        (
            "std+noquant",
            IqTreeOptions {
                quantize: false,
                scheduled_io: false,
                ..Default::default()
            },
        ),
    ] {
        let mut cl = clock(&cfg);
        let tree = IqTree::build(&w.db, Metric::Euclidean, opts, || dev(&cfg), &mut cl);
        let mut qi = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                cl.reset();
                let q = w.queries.point(qi % w.queries.len());
                qi += 1;
                black_box(tree.nearest(&mut cl, q))
            })
        });
    }
    group.finish();
}

/// Figure 8 (reduced): method comparison at 12 dimensions.
fn fig8_methods(c: &mut Criterion) {
    let cfg = Config::tiny();
    let w = DataKind::Uniform.workload(12, N, QUERIES, cfg.seed);
    let mut group = c.benchmark_group("fig8_methods_12d");

    let mut cl = clock(&cfg);
    let iq = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(&cfg),
        &mut cl,
    );
    let mut qi = 0usize;
    group.bench_function("iqtree", |b| {
        b.iter(|| {
            cl.reset();
            let q = w.queries.point(qi % w.queries.len());
            qi += 1;
            black_box(iq.nearest(&mut cl, q))
        })
    });

    let mut cl = clock(&cfg);
    let xt = XTree::build(
        &w.db,
        Metric::Euclidean,
        XTreeOptions::default(),
        dev(&cfg),
        dev(&cfg),
        &mut cl,
    );
    let mut qi = 0usize;
    group.bench_function("xtree", |b| {
        b.iter(|| {
            cl.reset();
            let q = w.queries.point(qi % w.queries.len());
            qi += 1;
            black_box(xt.nearest(&mut cl, q))
        })
    });

    let mut cl = clock(&cfg);
    let va = VaFile::build(&w.db, Metric::Euclidean, 5, dev(&cfg), dev(&cfg), &mut cl);
    let mut qi = 0usize;
    group.bench_function("vafile_5bit", |b| {
        b.iter(|| {
            cl.reset();
            let q = w.queries.point(qi % w.queries.len());
            qi += 1;
            black_box(va.nearest(&mut cl, q))
        })
    });

    let mut cl = clock(&cfg);
    let scan = SeqScan::build(&w.db, Metric::Euclidean, dev(&cfg), &mut cl);
    let mut qi = 0usize;
    group.bench_function("scan", |b| {
        b.iter(|| {
            cl.reset();
            let q = w.queries.point(qi % w.queries.len());
            qi += 1;
            black_box(scan.nearest(&mut cl, q))
        })
    });
    group.finish();
}

/// Figures 9–12 (reduced): one NN query per data distribution on the
/// IQ-tree.
fn fig9_to_12_distributions(c: &mut Criterion) {
    let cfg = Config::tiny();
    let mut group = c.benchmark_group("fig9_12_iqtree_distributions");
    for (name, kind, dim) in [
        ("fig9_uniform_16d", DataKind::Uniform, 16),
        ("fig10_cad_16d", DataKind::Cad, 16),
        ("fig11_color_16d", DataKind::Color, 16),
        ("fig12_weather_9d", DataKind::Weather, 9),
    ] {
        let w = kind.workload(dim, N, QUERIES, cfg.seed);
        let mut cl = clock(&cfg);
        let df = iq_bench::estimate_fractal(&w.db);
        let opts = IqTreeOptions {
            fractal_dim: Some(df),
            ..Default::default()
        };
        let tree = IqTree::build(&w.db, Metric::Euclidean, opts, || dev(&cfg), &mut cl);
        let mut qi = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                cl.reset();
                let q = w.queries.point(qi % w.queries.len());
                qi += 1;
                black_box(tree.nearest(&mut cl, q))
            })
        });
    }
    group.finish();
}

/// Build-time benchmark: bulk load + optimal quantization.
fn build_times(c: &mut Criterion) {
    let cfg = Config::tiny();
    let w = DataKind::Uniform.workload(16, N, 1, cfg.seed);
    let mut group = c.benchmark_group("build_20k_16d");
    group.sample_size(10);
    group.bench_function("iqtree", |b| {
        b.iter(|| {
            let mut cl = clock(&cfg);
            black_box(IqTree::build(
                &w.db,
                Metric::Euclidean,
                IqTreeOptions::default(),
                || dev(&cfg),
                &mut cl,
            ))
        })
    });
    group.bench_function("xtree", |b| {
        b.iter(|| {
            let mut cl = clock(&cfg);
            black_box(XTree::build(
                &w.db,
                Metric::Euclidean,
                XTreeOptions::default(),
                dev(&cfg),
                dev(&cfg),
                &mut cl,
            ))
        })
    });
    group.bench_function("vafile_5bit", |b| {
        b.iter(|| {
            let mut cl = clock(&cfg);
            black_box(VaFile::build(
                &w.db,
                Metric::Euclidean,
                5,
                dev(&cfg),
                dev(&cfg),
                &mut cl,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(20);
    targets = fig7_variants, fig8_methods, fig9_to_12_distributions, build_times
}
criterion_main!(figures);
