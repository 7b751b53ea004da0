//! Recall@k vs simulated-time speedup curves for the approximate k-NN
//! knobs ([`QueryOptions`]): ε-termination, `nprobes` truncation and
//! `refine_factor` capping, swept per engine against that engine's own
//! exact search on one clustered synthetic workload. The `recommended`
//! row is the measured sweet spot (highest speedup at recall ≥ 0.95,
//! falling back to ≥ 0.9) and is what CI's recall-smoke job asserts on.

use crate::{estimate_fractal, Config};
use iq_data::Workload;
use iq_engine::{AccessMethod, PageSpec, QueryOptions};
use iq_geometry::Metric;
use iq_tree::{IqTree, IqTreeOptions};
use iq_vafile::VaFile;
use iq_xtree::{XTree, XTreeOptions};
use std::collections::HashSet;

const K: usize = 10;
const N: usize = 10_000;
const DIM: usize = 16;

/// One measured setting of one knob on one engine.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    /// Knob value (ε, nprobes or refine_factor, as a float for JSON).
    pub value: f64,
    /// Mean fraction of the true 10-NN ids returned.
    pub recall: f64,
    /// Mean simulated milliseconds per query.
    pub ms_per_query: f64,
    /// Exact-search time of the same engine divided by this time.
    pub speedup: f64,
    /// Fraction of queries that terminated early.
    pub early_frac: f64,
    /// Mean candidates skipped per query by the knob.
    pub skipped_per_query: f64,
}

/// All curves of one engine.
#[derive(Clone, Debug)]
pub struct EngineCurves {
    pub engine: &'static str,
    pub exact_ms: f64,
    /// `(knob name, points)` in sweep order.
    pub curves: Vec<(&'static str, Vec<CurvePoint>)>,
}

fn ground_truth(w: &Workload, metric: Metric) -> Vec<HashSet<u32>> {
    w.queries
        .iter()
        .map(|q| {
            let all = (0..w.db.len())
                .map(|i| (i as u32, metric.distance(w.db.point(i), q)))
                .collect();
            PageSpec::top(K)
                .slice(all)
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        })
        .collect()
}

fn sweep_setting(
    cfg: &Config,
    eng: &dyn AccessMethod,
    w: &Workload,
    truth: &[HashSet<u32>],
    opts: &QueryOptions,
) -> (f64, f64, f64, f64) {
    let mut clock = cfg.clock();
    let (mut total, mut recall, mut early, mut skipped) = (0.0, 0.0, 0.0, 0.0);
    for (q, want) in w.queries.iter().zip(truth) {
        clock.reset();
        let (hits, trace) = eng.knn_opts_traced(&mut clock, q, K, None, opts);
        total += clock.total_time();
        let got: HashSet<u32> = hits.iter().map(|&(id, _)| id).collect();
        recall += want.intersection(&got).count() as f64 / K as f64;
        early += trace.terminated_early as f64;
        skipped += trace.candidates_skipped as f64;
    }
    let nq = w.queries.len() as f64;
    (total / nq * 1e3, recall / nq, early / nq, skipped / nq)
}

fn run_engine(
    cfg: &Config,
    eng: &dyn AccessMethod,
    name: &'static str,
    w: &Workload,
    truth: &[HashSet<u32>],
) -> EngineCurves {
    let (exact_ms, exact_recall, _, _) = sweep_setting(cfg, eng, w, truth, &QueryOptions::EXACT);
    assert!(
        exact_recall > 0.999,
        "{name}: exact search must have recall 1.0, got {exact_recall}"
    );
    let mut curves = Vec::new();
    let point = |opts: &QueryOptions, value: f64| -> CurvePoint {
        let (ms, recall, early_frac, skipped_per_query) = sweep_setting(cfg, eng, w, truth, opts);
        CurvePoint {
            value,
            recall,
            ms_per_query: ms,
            speedup: exact_ms / ms.max(1e-12),
            early_frac,
            skipped_per_query,
        }
    };
    let eps_curve: Vec<CurvePoint> = [0.1, 0.25, 0.5, 1.0, 2.0]
        .iter()
        .map(|&eps| {
            point(
                &QueryOptions {
                    epsilon: eps,
                    ..QueryOptions::EXACT
                },
                eps,
            )
        })
        .collect();
    curves.push(("epsilon", eps_curve));
    let np_curve: Vec<CurvePoint> = [1u64, 2, 4, 8, 16, 32]
        .iter()
        .map(|&np| {
            point(
                &QueryOptions {
                    nprobes: Some(np),
                    ..QueryOptions::EXACT
                },
                np as f64,
            )
        })
        .collect();
    curves.push(("nprobes", np_curve));
    let rf_curve: Vec<CurvePoint> = [2u32, 4, 8]
        .iter()
        .map(|&rf| {
            point(
                &QueryOptions {
                    refine_factor: rf,
                    ..QueryOptions::EXACT
                },
                f64::from(rf),
            )
        })
        .collect();
    curves.push(("refine_factor", rf_curve));
    // Combined sweep: nprobes truncation with batched partial refinement
    // (refine_factor = 2) — the knobs attack different cost components
    // (filter I/O vs refinement seeks), so the product is where the
    // recall/speedup sweet spot lives. The point value is nprobes.
    let combo_curve: Vec<CurvePoint> = [2u64, 4, 8, 16]
        .iter()
        .map(|&np| {
            point(
                &QueryOptions {
                    nprobes: Some(np),
                    refine_factor: 2,
                    ..QueryOptions::EXACT
                },
                np as f64,
            )
        })
        .collect();
    curves.push(("nprobes_with_rf2", combo_curve));
    EngineCurves {
        engine: name,
        exact_ms,
        curves,
    }
}

/// Runs the full sweep and renders the `BENCH_PR8.json` report.
pub fn run_pr8(quick: bool) -> String {
    run_with(&Config::from_env(), quick, N)
}

fn run_with(cfg: &Config, quick: bool, n: usize) -> String {
    let w = crate::DataKind::Cad.workload(DIM, n, cfg.queries, cfg.seed);
    let metric = Metric::Euclidean;
    let truth = ground_truth(&w, metric);

    let mut clock = cfg.clock();
    let iq = IqTree::build(
        &w.db,
        metric,
        IqTreeOptions {
            fractal_dim: Some(estimate_fractal(&w.db)),
            ..Default::default()
        },
        || cfg.make_dev(),
        &mut clock,
    );
    let xt = XTree::build(
        &w.db,
        metric,
        XTreeOptions::default(),
        cfg.make_dev(),
        cfg.make_dev(),
        &mut clock,
    );
    let va = VaFile::build(&w.db, metric, 8, cfg.make_dev(), cfg.make_dev(), &mut clock);

    let engines: Vec<EngineCurves> = vec![
        run_engine(cfg, &iq, "iqtree", &w, &truth),
        run_engine(cfg, &xt, "xtree", &w, &truth),
        run_engine(cfg, &va, "vafile", &w, &truth),
    ];

    // The recommended setting: highest speedup among IQ-tree points with
    // recall >= 0.95, falling back to >= 0.9.
    let iq_curves = &engines[0];
    let mut best: Option<(&'static str, &CurvePoint)> = None;
    for floor in [0.95, 0.9] {
        for (knob, points) in &iq_curves.curves {
            for p in points {
                if p.recall >= floor && best.is_none_or(|(_, b)| p.speedup > b.speedup) {
                    best = Some((*knob, p));
                }
            }
        }
        if best.is_some() {
            break;
        }
    }
    let (rec_knob, rec) = best.expect("some setting reaches the recall floor");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"approximate knn recall vs speedup\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"n\": {n}, \"dim\": {DIM}, \"k\": {K}, \"queries\": {}, \"dataset\": \"cad\",\n",
        cfg.queries
    ));
    json.push_str("  \"engines\": [\n");
    for (ei, e) in engines.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"exact_ms_per_query\": {:.6}, \"curves\": [\n",
            e.engine, e.exact_ms
        ));
        for (ci, (knob, points)) in e.curves.iter().enumerate() {
            json.push_str(&format!("      {{\"knob\": \"{knob}\", \"points\": [\n"));
            for (pi, p) in points.iter().enumerate() {
                let sep = if pi + 1 == points.len() { "" } else { "," };
                json.push_str(&format!(
                    "        {{\"value\": {}, \"recall_at_10\": {:.4}, \"ms_per_query\": {:.6}, \
                     \"speedup\": {:.3}, \"terminated_early_frac\": {:.3}, \
                     \"candidates_skipped_per_query\": {:.1}}}{sep}\n",
                    p.value, p.recall, p.ms_per_query, p.speedup, p.early_frac, p.skipped_per_query
                ));
            }
            let sep = if ci + 1 == e.curves.len() { "" } else { "," };
            json.push_str(&format!("      ]}}{sep}\n"));
        }
        let sep = if ei + 1 == engines.len() { "" } else { "," };
        json.push_str(&format!("    ]}}{sep}\n"));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"recommended\": {{\"engine\": \"iqtree\", \"knob\": \"{rec_knob}\", \
         \"value\": {}, \"recall_at_10\": {:.4}, \"speedup\": {:.3}}},\n",
        rec.value, rec.recall, rec.speedup
    ));
    json.push_str(
        "  \"note\": \"speedup is each engine's exact simulated time divided by its \
         approximate time on the same workload; recall is id-overlap with the \
         brute-force 10-NN\"\n",
    );
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use crate::Config;

    #[test]
    fn tiny_report_is_wellformed_and_covers_all_engines() {
        let json = super::run_with(&Config::tiny(), true, 2_000);
        assert!(json.contains("\"recommended\""));
        assert!(json.contains("\"engine\": \"iqtree\""));
        assert!(json.contains("\"engine\": \"vafile\""));
        assert!(json.contains("\"engine\": \"xtree\""));
        assert!(json.contains("\"knob\": \"epsilon\""));
        assert!(json.contains("\"knob\": \"nprobes\""));
        assert!(json.contains("\"knob\": \"refine_factor\""));
    }
}
