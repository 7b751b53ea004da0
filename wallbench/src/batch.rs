//! `knn-batch`: 32-query exact `knn_batch` requests over uniform data,
//! read back through the mmap device — the shared multi-query walk, which
//! never calls `plan` and spends its time in the SIMD page filter.

use crate::common::*;
use crate::layers::Counters;
use crate::stats::{median, peak_rss_mib};
use crate::truth::Live;
use iq_engine::{knn_batch_opts_traced, AccessMethod, QueryOptions, MAX_MICRO_BATCH};
use iq_storage::SimClock;
use iq_tree::IqTree;
use std::sync::Arc;
use std::time::Instant;

/// Queries per `knn_batch` request.
const BATCH: usize = 32;
/// Distinct requests; the loop cycles through them.
const REQUESTS: usize = 8;

/// What one request did.
struct Call {
    results: Vec<Vec<(u32, f64)>>,
    clock: SimClock,
    trace: iq_engine::QueryTrace,
    wall_s: f64,
}

fn call(tree: &IqTree, req: &[Vec<f32>], threads: usize) -> Call {
    let mut clock = SimClock::default();
    let t0 = Instant::now();
    let (res, trace) = knn_batch_opts_traced(
        tree,
        &mut clock,
        req,
        K,
        threads,
        None,
        &QueryOptions::EXACT,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    Call {
        results: res.into_iter().map(|(r, _)| r).collect(),
        clock,
        trace,
        wall_s,
    }
}

/// How many answers of one request differ from the ground truth.
fn check(live: &Live, req: &[Vec<f32>], truth: &[Vec<(u32, f64)>], got: &Call) -> usize {
    req.iter()
        .zip(truth)
        .zip(&got.results)
        .filter(|((q, t), g)| !live.answer_ok(q, g, t))
        .count()
}

pub fn run(cfg: &Cfg) -> Pass {
    let mut pass = Pass::default();
    let total = BATCH * REQUESTS;
    let (base, extra) = corpus(iq_data::uniform, QUERY_POOL);
    let queries = pick(&extra, total, cfg.seed);
    let live = Live::from_dataset(&base);
    let truth = live.knn_many(&queries, K, cfg.threads);
    let requests: Vec<&[Vec<f32>]> = queries.chunks(BATCH).collect();
    let truths: Vec<&[Vec<(u32, f64)>]> = truth.chunks(BATCH).collect();

    let counters = cfg.traced.then(|| Arc::new(Counters::default()));
    let c = counters.as_ref();
    let (tree, times, _) = timed_setups(cfg, |dir| {
        let (_, mut time) = build_files(&base, dir, c);
        let t0 = Instant::now();
        let tree = open_mmap(dir, c);
        time.open_s = t0.elapsed().as_secs_f64();
        (tree, time)
    });
    report_setups(&mut pass, &times);

    // Warm-up: every request once (SIMD dispatch, mmap page-in), outside
    // the samples; its clocks give the simulated cost.
    let mut sim_s = 0.0;
    for (r, req) in requests.iter().enumerate() {
        let got = call(&tree, req, cfg.threads);
        sim_s += got.clock.total_time();
        let bad = check(&live, req, truths[r], &got);
        pass.attempted += BATCH as u64;
        pass.failed += bad as u64;
    }
    let sim_ms = sim_s * 1e3 / total as f64;

    let before = c.map(|c| c.snapshot()).unwrap_or_default();
    let mut lat_ms = Vec::new();
    let mut per_request: Vec<Vec<f64>> = vec![Vec::new(); REQUESTS];
    let mut acc = SearchAcc::default();
    let mut busy = 0.0;
    let start = Instant::now();
    let mut r = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let got = call(&tree, requests[r], cfg.threads);
        busy += got.wall_s;
        lat_ms.push(got.wall_s * 1e3);
        per_request[r].push(got.wall_s);
        acc.add(
            BATCH as u64,
            &got.clock,
            &got.trace,
            got.wall_s * cfg.threads as f64,
        );
        pass.attempted += BATCH as u64;
        pass.failed += check(&live, requests[r], truths[r], &got) as u64;
        r = (r + 1) % REQUESTS;
    }
    let io = c.map(|c| c.snapshot().since(&before)).unwrap_or_default();

    pass.e2e
        .put("qps", (lat_ms.len() * BATCH) as f64 / busy, "queries/s");
    report_latency(&mut pass, &lat_ms);
    pass.e2e.put("sim_ms_per_query", sim_ms, "ms");
    let bytes = index_bytes_per_point(&tree);
    pass.e2e.put("index_bytes_per_point", bytes, "B");
    pass.e2e.put("peak_rss_mb", peak_rss_mib(), "MiB");
    pass.deterministic = vec![
        ("sim_ms_per_query", sim_ms),
        ("index_bytes_per_point", bytes),
    ];

    acc.report(&mut pass.layers);
    report_reads(&mut pass.layers, &io, acc.queries);
    pass.layers
        .put("engine.batch_call_ms", median(&lat_ms), "ms");
    if cfg.traced {
        pass.layers.put(
            "engine.parallel_efficiency",
            parallel_efficiency(&tree, &requests, &per_request, cfg.threads),
            "ratio",
        );
    }
    pass.note("batch_size", BATCH);
    pass.note("batch_threads", cfg.threads);
    pass.note("warmup_requests", REQUESTS);
    pass
}

/// The same micro-batches run serially through `knn_multi_opts_traced`,
/// divided by `threads` × the parallel call time (medians per request,
/// then the median over requests).
fn parallel_efficiency(
    tree: &IqTree,
    requests: &[&[Vec<f32>]],
    call_s: &[Vec<f64>],
    threads: usize,
) -> f64 {
    let ratios: Vec<f64> = requests
        .iter()
        .zip(call_s)
        .filter(|(_, calls)| !calls.is_empty())
        .map(|(req, calls)| {
            let serial: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    for mb in req.chunks(MAX_MICRO_BATCH) {
                        let refs: Vec<&[f32]> = mb.iter().map(Vec::as_slice).collect();
                        let mut clock = SimClock::default();
                        std::hint::black_box(tree.knn_multi_opts_traced(
                            &mut clock,
                            &refs,
                            K,
                            None,
                            &QueryOptions::EXACT,
                        ));
                    }
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            median(&serial) / (threads as f64 * median(calls))
        })
        .collect();
    median(&ratios)
}
