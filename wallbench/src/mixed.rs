//! `update-mixed`: 70% exact k-NN queries, 15% inserts, 15% deletes over
//! CAD-like data on file devices, every write committed through a
//! `fdatasync`ed file WAL, a checkpoint every 500 writes, and a buffer
//! pool a quarter the size of the quantized level. Ends with a durability
//! round trip: the tree is dropped without a final checkpoint, reopened
//! through WAL recovery, and probed.

use crate::common::*;
use crate::layers::{Counters, CountingWal, Snapshot};
use crate::single::query;
use crate::stats::{median, peak_rss_mib, percentile, tail, Rng};
use crate::truth::Live;
use iq_storage::{FileWal, SimClock, WalStore};
use iq_tree::{IqTree, IqTreeOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Distinct queries the read operations draw from.
const QUERIES: usize = 2048;
/// Queries run once before timing (they also warm the buffer pool).
const WARMUP: usize = 256;
/// Fresh points for inserts, taken in order from a seeded start (reused
/// with new ids if the loop outruns it).
const POOL: usize = 20_000;
/// Writes between checkpoints.
const CHECKPOINT_EVERY: u64 = 500;
/// Operations every pass runs, whatever `--seconds` says: the
/// deterministic metrics are taken at this point of the sequence.
const PREFIX_OPS: u64 = 2_000;
/// Queries re-run after the recovery reopen.
const PROBES: usize = 16;
const WAL_FILE: &str = "wal.bin";

fn open_with_wal(dir: &Path, cache_blocks: usize, c: Option<&Arc<Counters>>) -> IqTree {
    let wal: Box<dyn WalStore> =
        Box::new(FileWal::open(&dir.join(WAL_FILE)).expect("open WAL file"));
    let wal = match c {
        Some(c) => CountingWal::wrap(wal, c),
        None => wal,
    };
    let opts = IqTreeOptions {
        cache_blocks: Some(cache_blocks),
        ..Default::default()
    };
    IqTree::open_with_wal(
        DIM,
        METRIC,
        opts,
        open_file(dir, FILES[0], c),
        open_file(dir, FILES[1], c),
        open_file(dir, FILES[2], c),
        wal,
        &mut SimClock::default(),
    )
    .expect("open index with WAL")
    .0
}

/// Device and WAL traffic of the writes (traced only).
#[derive(Default)]
struct WriteIo {
    io: Snapshot,
    wall_s: f64,
}

pub fn run(cfg: &Cfg) -> Pass {
    let mut pass = Pass::default();
    let (base, extra) = corpus(iq_data::cad_like, QUERY_POOL + POOL);
    let (query_pool, pool) = extra.split_at(QUERY_POOL);
    let queries = pick(query_pool, QUERIES, cfg.seed);
    let first_insert = Rng::new(cfg.seed).below(POOL);
    let mut live = Live::from_dataset(&base);

    let counters = cfg.traced.then(|| Arc::new(Counters::default()));
    let c = counters.as_ref();
    let mut cache_blocks = 0;
    let (mut tree, times, dir) = timed_setups(cfg, |dir| {
        let (quant_blocks, mut time) = build_files(&base, dir, c);
        cache_blocks = (quant_blocks / 4) as usize;
        let t0 = Instant::now();
        let tree = open_with_wal(dir, cache_blocks, c);
        time.open_s = t0.elapsed().as_secs_f64();
        (tree, time)
    });
    report_setups(&mut pass, &times);

    // Warm-up outside the samples; it also fills the buffer pool, so the
    // loop starts from a warm cache.
    for q in &queries[..WARMUP] {
        let (res, _, _, _) = query(&tree, q);
        pass.count(live.answer_ok(q, &res, &live.knn(q, K)));
    }

    let snap = || c.map(|c| c.snapshot()).unwrap_or_default();
    let mut rng = Rng::new(cfg.seed ^ 0x6d69_7865_6400);
    let mut wclock = SimClock::default();
    let (mut qlat, mut ilat, mut dlat, mut ckpt_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut acc = SearchAcc::default();
    let (mut query_io, mut write_io, mut ckpt_io) =
        (Snapshot::default(), WriteIo::default(), Snapshot::default());
    let (mut ops, mut writes, mut inserted) = (0u64, 0u64, 0usize);
    let (mut prefix_sim, mut prefix_queries) = (0.0, 0u64);
    let pages0 = tree.num_pages();
    let io0 = snap();
    let mut at_prefix = None;
    let mut busy = 0.0;
    let mut log = Vec::new();
    while ops < PREFIX_OPS || busy < cfg.seconds {
        let roll = rng.below(100);
        let before = snap();
        if roll < 70 {
            let qi = rng.below(QUERIES);
            let (res, trace, clock, wall) = query(&tree, &queries[qi]);
            busy += wall;
            qlat.push(wall * 1e3);
            acc.add(1, &clock, &trace, wall);
            query_io += snap().since(&before);
            if ops < PREFIX_OPS {
                prefix_sim += clock.total_time();
                prefix_queries += 1;
            }
            log.push(Logged::Query { q: qi, got: res });
        } else {
            let ok = if roll < 85 {
                let pi = (first_insert + inserted) % POOL;
                let p = &pool[pi];
                let id = u32::try_from(N + inserted).expect("id fits u32");
                inserted += 1;
                let t0 = Instant::now();
                let r = tree.insert(&mut wclock, id, p);
                let wall = t0.elapsed().as_secs_f64();
                busy += wall;
                ilat.push(wall * 1e3);
                write_io.wall_s += wall;
                live.insert(id, p);
                log.push(Logged::Insert { id, p: pi });
                r.is_ok()
            } else {
                let id = live.id_at(rng.below(live.len()));
                let p = live.point(id).expect("live id has a point").to_vec();
                let t0 = Instant::now();
                let r = tree.delete(&mut wclock, id, &p);
                let wall = t0.elapsed().as_secs_f64();
                busy += wall;
                dlat.push(wall * 1e3);
                write_io.wall_s += wall;
                live.remove(id);
                log.push(Logged::Delete { id });
                matches!(r, Ok(true))
            };
            write_io.io += snap().since(&before);
            pass.count(ok);
            writes += 1;
            if writes % CHECKPOINT_EVERY == 0 {
                let before = snap();
                let t0 = Instant::now();
                let r = tree.checkpoint(&mut wclock);
                let wall = t0.elapsed().as_secs_f64();
                busy += wall;
                ckpt_ms.push(wall * 1e3);
                ckpt_io += snap().since(&before);
                pass.count(r.is_ok());
            }
        }
        ops += 1;
        if ops == PREFIX_OPS {
            at_prefix = Some(Prefix {
                sim_ms: prefix_sim * 1e3 / prefix_queries.max(1) as f64,
                bytes_per_point: index_bytes_per_point(&tree),
                sim_blocks_written: wclock.stats().blocks_written as f64,
                device_bytes: snap().since(&io0),
                user_bytes: (writes * (DIM * 4) as u64) as f64,
                pages_added: tree.num_pages() as f64 - pages0 as f64,
            });
        }
    }
    let prefix = at_prefix.expect("the loop runs at least the prefix");
    // Read when the loop ends. Recovery below holds the whole log in
    // memory, and how much log is left depends on where the loop stopped.
    let peak_rss = peak_rss_mib();

    // Check the loop's answers by replaying it on a second shadow set.
    // Brute force inside the loop would sweep the caches between queries.
    let mut shadow = Live::from_dataset(&base);
    drop(base);
    for op in log {
        match op {
            Logged::Query { q, got } => {
                let q = &queries[q];
                pass.count(shadow.answer_ok(q, &got, &shadow.knn(q, K)));
            }
            Logged::Insert { id, p } => shadow.insert(id, &pool[p]),
            Logged::Delete { id } => shadow.remove(id),
        }
    }

    // Durability round trip: no final checkpoint; recovery must restore
    // every committed write.
    drop(tree);
    let tree = open_with_wal(&dir, cache_blocks, c);
    for q in &queries[..PROBES] {
        let (res, _, _, _) = query(&tree, q);
        pass.count(live.answer_ok(q, &res, &live.knn(q, K)));
    }

    let wlat: Vec<f64> = ilat.iter().chain(&dlat).copied().collect();
    pass.e2e.put("qps", qlat.len() as f64 / busy, "queries/s");
    report_latency(&mut pass, &qlat);
    pass.e2e.put("sim_ms_per_query", prefix.sim_ms, "ms");
    pass.e2e
        .put("index_bytes_per_point", prefix.bytes_per_point, "B");
    pass.e2e.put("peak_rss_mb", peak_rss, "MiB");
    pass.deterministic = vec![
        ("sim_ms_per_query", prefix.sim_ms),
        ("index_bytes_per_point", prefix.bytes_per_point),
        ("sim_blocks_written", prefix.sim_blocks_written),
    ];

    let l = &mut pass.layers;
    l.put("write_p50_ms", percentile(&wlat, 50.0), "ms");
    let (write_tail, write_tail_pct) = tail(&wlat);
    l.put("write_p99_ms", write_tail, "ms");
    acc.report(l);
    report_reads(l, &query_io, acc.queries);
    let w = writes.max(1) as f64;
    let wio = &write_io.io;
    let d = &prefix.device_bytes;
    l.put(
        "write_amp",
        (d.bytes_written + d.wal_bytes) as f64 / prefix.user_bytes,
        "ratio",
    );
    l.put(
        "storage.bytes_written_per_write",
        wio.bytes_written as f64 / w,
        "B",
    );
    l.put(
        "storage.write_ms_per_write",
        wio.write_ns as f64 / 1e6 / w,
        "ms",
    );
    l.put("wal.bytes_per_write", wio.wal_bytes as f64 / w, "B");
    l.put("wal.syncs_per_write", wio.wal_syncs as f64 / w, "count");
    l.put(
        "wal.sync_ms_per_write",
        wio.wal_sync_ns as f64 / 1e6 / w,
        "ms",
    );
    l.put("update.insert_ms", median(&ilat), "ms");
    l.put("update.delete_ms", median(&dlat), "ms");
    l.put(
        "update.self_ms_per_write",
        (write_io.wall_s * 1e3 - wio.io_ns() as f64 / 1e6) / w,
        "ms",
    );
    l.put("update.pages_added", prefix.pages_added, "count");
    let ck = ckpt_ms.len().max(1) as f64;
    l.put("durability.checkpoint_ms", median(&ckpt_ms), "ms");
    l.put(
        "durability.bytes_per_checkpoint",
        (ckpt_io.bytes_written + ckpt_io.wal_bytes) as f64 / ck,
        "B",
    );

    pass.note("write_samples", wlat.len());
    pass.note("write_tail_percentile", crate::stats::num(write_tail_pct));
    pass.note("checkpoints", ckpt_ms.len());
    pass.note("cache_blocks", cache_blocks);
    pass.note("wal_flush", "\"fdatasync on every commit\"");
    pass.note("deterministic_prefix_ops", PREFIX_OPS);
    pass.note("recovery_probes", PROBES);
    pass.note("distinct_queries", QUERIES);
    pass.note("warmup_queries", WARMUP);
    pass
}

/// One operation of the timed loop, kept for checking after it.
enum Logged {
    Query { q: usize, got: Vec<(u32, f64)> },
    Insert { id: u32, p: usize },
    Delete { id: u32 },
}

/// The state at the end of the fixed operation prefix.
struct Prefix {
    sim_ms: f64,
    bytes_per_point: f64,
    sim_blocks_written: f64,
    device_bytes: Snapshot,
    user_bytes: f64,
    pages_added: f64,
}
