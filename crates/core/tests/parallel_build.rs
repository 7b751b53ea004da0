//! Property: the parallel page encoder is byte-for-byte deterministic.
//!
//! `encode_pages` stamps each quantization job with its page index and
//! merges results in order, so the level-2 and level-3 page images must be
//! identical no matter how many worker threads encoded the pages —
//! including `threads = 0` (one per core, what `IqTree::build` uses),
//! whatever this machine's core count happens to be.

use iq_cost::{DirectoryParams, RefineParams};
use iq_geometry::{bulk_partition, Dataset, Metric};
use iq_quantize::{ExactPageCodec, QuantizedPageCodec};
use iq_storage::DiskModel;
use iq_tree::build::{encode_pages, optimize_partitions, EncodedPage, SolutionPage};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_ds(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(dim, n);
    let mut row = vec![0.0f32; dim];
    for _ in 0..n {
        row.fill_with(|| rng.gen());
        ds.push(&row);
    }
    ds
}

/// The page solution `IqTree::build` would write for `ds` at block size
/// `bs`: the initial bulk partitioning refined by the optimal-quantization
/// algorithm.
fn solution(ds: &Dataset, bs: usize) -> Vec<SolutionPage> {
    let (dim, metric) = (ds.dim(), Metric::Euclidean);
    let codec = QuantizedPageCodec::new(dim, bs);
    let refine = RefineParams::fractal(metric, dim, dim as f64, ds.len());
    let dir = DirectoryParams::new(metric, dim, dim as f64, ds.len());
    let initial = bulk_partition(ds, codec.capacity(1));
    optimize_partitions(
        ds,
        &codec,
        &refine,
        &dir,
        &DiskModel::default(),
        initial,
        true,
    )
    .0
}

fn images(pages: &[EncodedPage]) -> Vec<(&[u8], &[u8])> {
    pages
        .iter()
        .map(|p| (p.quant.as_slice(), p.exact.as_slice()))
        .collect()
}

#[test]
fn parallel_build_is_byte_identical_to_sequential() {
    let (dim, bs) = (6, 512);
    let ds = random_ds(2_000, dim, 77);
    let pages = solution(&ds, bs);
    assert!(pages.len() > 1, "want a multi-page build");
    let codec = QuantizedPageCodec::new(dim, bs);
    let exact_codec = ExactPageCodec::new(dim);
    // Identity ids, and external ids as `IqTree::rebuild` passes them.
    let renamed: Vec<u32> = (0..ds.len() as u32).rev().collect();
    for id_map in [None, Some(renamed.as_slice())] {
        let seq = encode_pages(&ds, id_map, &pages, &codec, &exact_codec, 1);
        assert_eq!(seq.len(), pages.len());
        for threads in [1usize, 2, 4, 8, 0] {
            let par = encode_pages(&ds, id_map, &pages, &codec, &exact_codec, threads);
            assert!(
                images(&par) == images(&seq),
                "page images differ with threads = {threads} (external ids: {})",
                id_map.is_some()
            );
        }
    }
}
