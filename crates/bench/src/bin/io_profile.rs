//! Per-method I/O profile: decomposes the average NN query cost (I/O vs
//! CPU, seeks vs blocks) of the IQ-tree (scheduled and standard access)
//! and the X-tree, across the four data distributions. Useful when tuning
//! the disk/CPU model or diagnosing scheduler behavior.
use iq_bench::{measure, Config, DataKind};
use iq_geometry::Metric;
use iq_storage::{MemDevice, SimClock};
use iq_tree::{AccessMethod, IqTree, IqTreeOptions};
use iq_xtree::{XTree, XTreeOptions};

fn main() {
    let cfg = Config::tiny();
    for (name, kind, dim) in [
        ("cad", DataKind::Cad, 16),
        ("color", DataKind::Color, 16),
        ("uniform", DataKind::Uniform, 16),
        ("weather", DataKind::Weather, 9),
    ] {
        let w = kind.workload(dim, 100_000, 5, 1);
        let df = iq_bench::estimate_fractal(&w.db);
        let mut clock = SimClock::new(cfg.disk, cfg.cpu);
        let opts = IqTreeOptions {
            fractal_dim: Some(df),
            ..Default::default()
        };
        let tree = IqTree::build(
            &w.db,
            Metric::Euclidean,
            opts,
            || Box::new(MemDevice::new(8192)),
            &mut clock,
        );
        let s = measure(&w.queries, &mut clock, |c, q| {
            tree.nearest(c, q);
        });
        println!(
            "{name:8} IQ: total={:7.3}s io={:7.3} cpu={:6.3} seeks={:6.1} blocks={:7.1} pages={} bits={:?}",
            s.total, s.io, s.cpu, s.seeks, s.blocks, tree.num_pages(), tree.bits_histogram()
        );
        // Ablation: no scheduler.
        let opts = IqTreeOptions {
            fractal_dim: Some(df),
            scheduled_io: false,
            ..Default::default()
        };
        let mut clock = SimClock::new(cfg.disk, cfg.cpu);
        let tree2 = IqTree::build(
            &w.db,
            Metric::Euclidean,
            opts,
            || Box::new(MemDevice::new(8192)),
            &mut clock,
        );
        let s2 = measure(&w.queries, &mut clock, |c, q| {
            tree2.nearest(c, q);
        });
        println!(
            "{name:8} IQ-std: total={:7.3}s io={:7.3} cpu={:6.3} seeks={:6.1} blocks={:7.1}",
            s2.total, s2.io, s2.cpu, s2.seeks, s2.blocks
        );
        let mut clock = SimClock::new(cfg.disk, cfg.cpu);
        let xt = XTree::build(
            &w.db,
            Metric::Euclidean,
            XTreeOptions::default(),
            Box::new(MemDevice::new(8192)),
            Box::new(MemDevice::new(8192)),
            &mut clock,
        );
        let sx = measure(&w.queries, &mut clock, |c, q| {
            xt.nearest(c, q);
        });
        println!(
            "{name:8} XT: total={:7.3}s io={:7.3} cpu={:6.3} seeks={:6.1} blocks={:7.1} pages={}",
            sx.total,
            sx.io,
            sx.cpu,
            sx.seeks,
            sx.blocks,
            xt.num_data_pages()
        );
    }
}
