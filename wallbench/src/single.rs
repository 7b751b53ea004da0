//! `knn-single`: closed-loop single k-NN queries over CAD-like data in
//! memory — the `iq query` path, where the access-probability `plan`
//! phase dominates.

use crate::common::*;
use crate::layers::Counters;
use crate::stats::peak_rss_mib;
use crate::truth::Live;
use iq_engine::{AccessMethod, QueryOptions, QueryTrace};
use iq_storage::SimClock;
use iq_tree::IqTree;
use std::sync::Arc;
use std::time::Instant;

/// Distinct queries; the loop cycles through them. Enough that the tail
/// percentile and the mean cost do not hinge on a handful of queries.
const QUERIES: usize = 2048;
/// Queries run once before timing.
const WARMUP: usize = 64;

/// One exact k-NN query on a fresh clock: results, trace, clock, wall s.
pub fn query(tree: &IqTree, q: &[f32]) -> (Vec<(u32, f64)>, QueryTrace, SimClock, f64) {
    let mut clock = SimClock::default();
    let t0 = Instant::now();
    let (res, trace) = tree.knn_opts_traced(&mut clock, q, K, None, &QueryOptions::EXACT);
    let wall = t0.elapsed().as_secs_f64();
    (res, trace, clock, wall)
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    latencies_ms: Vec<f64>,
    /// Simulated cost of each query this client ran (deterministic: a
    /// fresh clock on an uncached in-memory index).
    sim_s: Vec<Option<f64>>,
    acc: SearchAcc,
    attempted: u64,
    failed: u64,
    end_s: f64,
}

pub fn run(cfg: &Cfg) -> Pass {
    let mut pass = Pass::default();
    let (base, extra) = corpus(iq_data::cad_like, QUERY_POOL);
    let queries = pick(&extra, QUERIES, cfg.seed);
    let live = Live::from_dataset(&base);
    let truth = live.knn_many(&queries, K, cfg.threads);

    let counters = cfg.traced.then(|| Arc::new(Counters::default()));
    let c = counters.as_ref();
    let (tree, times, _) = timed_setups(cfg, |_| build_mem(&base, c));
    report_setups(&mut pass, &times);

    // Warm-up: the first queries once each (SIMD dispatch, allocator),
    // outside the samples.
    for (_, _, ok) in run_each(&tree, &live, &queries, &truth, 0..WARMUP, cfg.threads) {
        pass.count(ok);
    }

    // Closed loop: each client sends its next query when the last returns.
    let before = c.map(|c| c.snapshot()).unwrap_or_default();
    let start = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let (tree, live, queries, truth) = (&tree, &live, &queries, &truth);
                s.spawn(move || {
                    let mut me = Client {
                        sim_s: vec![None; QUERIES],
                        ..Client::default()
                    };
                    let mut i = t * QUERIES / cfg.threads;
                    while start.elapsed().as_secs_f64() < cfg.seconds {
                        let q = &queries[i % QUERIES];
                        let (res, trace, clock, wall) = query(tree, q);
                        me.latencies_ms.push(wall * 1e3);
                        me.sim_s[i % QUERIES] = Some(clock.total_time());
                        me.acc.add(1, &clock, &trace, wall);
                        me.attempted += 1;
                        if !live.answer_ok(q, &res, &truth[i % QUERIES]) {
                            me.failed += 1;
                        }
                        i += 1;
                    }
                    me.end_s = start.elapsed().as_secs_f64();
                    me
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = clients.iter().map(|c| c.end_s).fold(0.0, f64::max);
    let io = c.map(|c| c.snapshot().since(&before)).unwrap_or_default();

    let mut lat = Vec::new();
    let mut acc = SearchAcc::default();
    let mut sim_s = vec![None; QUERIES];
    for cl in &clients {
        lat.extend_from_slice(&cl.latencies_ms);
        acc.merge(&cl.acc);
        pass.attempted += cl.attempted;
        pass.failed += cl.failed;
        for (all, mine) in sim_s.iter_mut().zip(&cl.sim_s) {
            *all = all.or(*mine);
        }
    }
    // The mean simulated cost covers every query, whether or not the loop
    // reached it, so it does not depend on the loop's length.
    let missed: Vec<usize> = (0..QUERIES).filter(|&i| sim_s[i].is_none()).collect();
    for (i, sim, ok) in run_each(&tree, &live, &queries, &truth, missed, cfg.threads) {
        sim_s[i] = Some(sim);
        pass.count(ok);
    }
    let sim_ms = sim_s.iter().flatten().sum::<f64>() * 1e3 / QUERIES as f64;
    pass.e2e.put("qps", lat.len() as f64 / elapsed, "queries/s");
    report_latency(&mut pass, &lat);
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
    pass.note("clients", cfg.threads);
    pass.note("distinct_queries", QUERIES);
    pass.note("warmup_queries", WARMUP);
    pass
}

/// Runs the queries at `indices` once each, split over `threads` threads:
/// `(index, simulated seconds, answer correct)` in index order.
fn run_each(
    tree: &IqTree,
    live: &Live,
    queries: &[Vec<f32>],
    truth: &[Vec<(u32, f64)>],
    indices: impl IntoIterator<Item = usize>,
    threads: usize,
) -> Vec<(usize, f64, bool)> {
    let indices: Vec<usize> = indices.into_iter().collect();
    let chunk = indices.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = indices
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let (res, _, clock, _) = query(tree, &queries[i]);
                            let ok = live.answer_ok(&queries[i], &res, &truth[i]);
                            (i, clock.total_time(), ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("query thread panicked"))
            .collect()
    })
}
