//! Criterion micro-benchmarks for the IQ-tree building blocks: bit
//! packing, page codecs, the fetch planner, the fractal estimator and the
//! optimal-quantization pass.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use iq_cache::CachedDevice;
use iq_cost::access_prob::fraction_in_ball;
use iq_geometry::{bulk_partition, Mbr, Metric};
use iq_quantize::{unpack_cells, BitReader, BitWriter, DistTable, QuantizedPageCodec};
use iq_storage::{fetch, BlockDevice, CpuModel, DiskModel, MemDevice, SimClock};
use std::hint::black_box;

fn bench_bits(c: &mut Criterion) {
    c.bench_function("bits/write_read_4096x8", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for i in 0..4096u32 {
                w.write(i & 0xFF, 8);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in 0..4096 {
                acc += u64::from(r.read(8).expect("in-bounds read"));
            }
            black_box(acc)
        })
    });
}

fn bench_page_codec(c: &mut Criterion) {
    let dim = 16;
    let codec = QuantizedPageCodec::new(dim, 8192);
    let mbr = Mbr::from_bounds(vec![0.0; dim], vec![1.0; dim]);
    let points = iq_data::uniform(dim, codec.capacity(4), 1);
    let block = codec.encode(
        &mbr,
        4,
        points.iter().enumerate().map(|(i, p)| (i as u32, p)),
    );
    c.bench_function("page/encode_4bit_full_page", |b| {
        b.iter(|| {
            black_box(codec.encode(
                &mbr,
                4,
                points.iter().enumerate().map(|(i, p)| (i as u32, p)),
            ))
        })
    });
    c.bench_function("page/decode_4bit_full_page", |b| {
        b.iter(|| black_box(codec.decode(&block)))
    });
}

fn bench_kernels(c: &mut Criterion) {
    // The PR-4 distance kernels: streaming page filter vs naive decode,
    // table build, and the width-specialized bit unpacker.
    let dim = 16;
    let g = 6u32;
    let codec = QuantizedPageCodec::new(dim, 8192);
    let mbr = Mbr::from_bounds(vec![0.0; dim], vec![1.0; dim]);
    let points = iq_data::uniform(dim, codec.capacity(g), 1);
    let block = codec.encode(
        &mbr,
        g,
        points.iter().enumerate().map(|(i, p)| (i as u32, p)),
    );
    let q = vec![0.37f32; dim];

    let mut table = DistTable::new();
    let mut scratch: Vec<u32> = Vec::new();
    c.bench_function("kernel/page_filter_table_6bit", |b| {
        b.iter(|| {
            let view = codec.try_view(&block).expect("valid page");
            table.build(&mbr, view.bits(), Metric::Euclidean, &q, view.len());
            let mut acc = 0.0f64;
            view.for_each_entry(&mut scratch, |_, cells| {
                acc += table.mindist_key(cells);
            });
            black_box(acc)
        })
    });
    c.bench_function("kernel/page_filter_naive_6bit", |b| {
        b.iter(|| {
            let page = codec.try_decode(&block).expect("valid page");
            let grid = iq_quantize::GridQuantizer::new(&mbr, page.bits());
            let mut acc = 0.0f64;
            for i in 0..page.len() {
                acc += Metric::Euclidean.mindist_key(&q, &grid.cell_box(page.cells(i)));
            }
            black_box(acc)
        })
    });
    c.bench_function("kernel/table_build_16d_6bit", |b| {
        b.iter(|| {
            table.build(&mbr, g, Metric::Euclidean, &q, 1 << 20);
            black_box(table.is_materialized())
        })
    });
    let packed: Vec<u8> = (0..dim).map(|i| i as u8).collect();
    let mut cells = vec![0u32; dim];
    c.bench_function("kernel/unpack_cells_8bit_16d", |b| {
        b.iter(|| {
            unpack_cells(&packed, 8, &mut cells);
            black_box(cells[dim - 1])
        })
    });
}

fn bench_fetch_planner(c: &mut Criterion) {
    let disk = DiskModel::default();
    let positions: Vec<u64> = (0..10_000u64).map(|i| i * 7 % 65_536).collect();
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    c.bench_function("fetch/plan_10k_blocks", |b| {
        b.iter(|| black_box(fetch::plan_fetch(&sorted, &disk)))
    });
}

fn bench_partition(c: &mut Criterion) {
    let ds = iq_data::uniform(16, 50_000, 2);
    c.bench_function("partition/bulk_50k_16d", |b| {
        b.iter_batched(
            || ds.clone(),
            |ds| black_box(bulk_partition(&ds, 1000)),
            BatchSize::LargeInput,
        )
    });
}

fn bench_fractal(c: &mut Criterion) {
    let ds = iq_data::weather_like(9, 20_000, 3);
    c.bench_function("fractal/correlation_dim_20k_9d", |b| {
        b.iter(|| black_box(iq_data::fractal::correlation_dimension_auto(&ds)))
    });
}

fn bench_minkowski(c: &mut Criterion) {
    let sides = vec![0.25f32; 16];
    c.bench_function("volume/minkowski_exact_16d", |b| {
        b.iter(|| {
            black_box(iq_geometry::volume::minkowski_box_ball(
                Metric::Euclidean,
                &sides,
                0.1,
            ))
        })
    });
}

fn bench_access_probability(c: &mut Criterion) {
    // The convolution fraction is the scheduler's hot path.
    let mbr = Mbr::from_bounds(vec![0.2; 16], vec![0.6; 16]);
    let q = vec![0.35f32; 16];
    c.bench_function("access_prob/conv_fraction_16d", |b| {
        b.iter(|| black_box(fraction_in_ball(Metric::Euclidean, &mbr, &q, 0.45)))
    });
    c.bench_function("access_prob/maxmetric_fraction_16d", |b| {
        b.iter(|| black_box(fraction_in_ball(Metric::Maximum, &mbr, &q, 0.45)))
    });
}

fn bench_cache(c: &mut Criterion) {
    let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
    let mut dev = CachedDevice::new(Box::new(MemDevice::new(8192)), 1024);
    dev.append(&mut clock, &vec![1u8; 8192 * 512])
        .expect("append");
    // Warm the frames.
    for b in 0..512u64 {
        dev.read_to_vec(&mut clock, b, 1).expect("warm read");
    }
    let mut i = 0u64;
    c.bench_function("cache/hit_read_8k", |b| {
        b.iter(|| {
            i = (i + 7) % 512;
            black_box(dev.read_to_vec(&mut clock, i, 1))
        })
    });
}

fn bench_nn_query(c: &mut Criterion) {
    use iq_tree::{AccessMethod, IqTree, IqTreeOptions};
    let ds = iq_data::uniform(16, 50_000, 9);
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        &ds,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || Box::new(MemDevice::new(8192)),
        &mut clock,
    );
    let mut i = 0u32;
    c.bench_function("iqtree/nn_query_50k_16d", |b| {
        b.iter(|| {
            clock.reset();
            i = i.wrapping_add(1);
            let q = vec![(i % 97) as f32 / 97.0; 16];
            black_box(tree.nearest(&mut clock, &q))
        })
    });
    let mut i = 0u32;
    c.bench_function("iqtree/knn10_query_50k_16d", |b| {
        b.iter(|| {
            clock.reset();
            i = i.wrapping_add(1);
            let q = vec![(i % 89) as f32 / 89.0; 16];
            black_box(tree.knn(&mut clock, &q, 10))
        })
    });
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20);
    targets = bench_bits, bench_page_codec, bench_kernels, bench_fetch_planner,
              bench_partition, bench_fractal, bench_minkowski,
              bench_access_probability, bench_cache, bench_nn_query
}
criterion_main!(components);
