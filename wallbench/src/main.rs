//! Wall-clock benchmark of the IQ-tree.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload knn-single|knn-batch|update-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against the library's public API, checks every
//! answer against brute force, and prints the metrics by name with their
//! units. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer ones.
//!
//! A traced run makes two passes over the same inputs: an untraced one,
//! then one with counting wrappers under the device stack and the WAL. The
//! simulated metrics must be bit-identical between them (the wrappers
//! forward `device_id`, so they cannot move the disk model), and the gap
//! in wall QPS is reported as the tracing overhead.

mod batch;
mod common;
mod layers;
mod mixed;
mod single;
mod stats;
mod truth;

use common::{Cfg, Pass, TempDir};
use stats::{num, Metrics};
use std::process::ExitCode;

/// Seed kept aside: not used while the benchmark was tuned, so a later
/// speed-up claim can be re-checked on inputs nobody optimised for.
const HOLDOUT_SEED: u64 = 7_777_777;

/// Independent set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;

#[derive(Clone, Copy)]
enum Workload {
    KnnSingle,
    KnnBatch,
    UpdateMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "knn-single" => Some(Self::KnnSingle),
            "knn-batch" => Some(Self::KnnBatch),
            "update-mixed" => Some(Self::UpdateMixed),
            _ => None,
        }
    }

    fn run(self, cfg: &Cfg) -> Pass {
        match self {
            Self::KnnSingle => single::run(cfg),
            Self::KnnBatch => batch::run(cfg),
            Self::UpdateMixed => mixed::run(cfg),
        }
    }
}

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0 there.
const LAYER_METRICS: [(&str, &str); 38] = [
    ("search.directory_ms", "ms"),
    ("search.plan_ms", "ms"),
    ("search.filter_ms", "ms"),
    ("search.refine_ms", "ms"),
    ("search.topk_ms", "ms"),
    ("search.phase_coverage", "ratio"),
    ("search.pages_processed", "count"),
    ("search.pages_skipped", "count"),
    ("search.runs", "count"),
    ("search.refinements", "count"),
    ("search.pages_per_run", "count"),
    ("search.filter_ns_per_page", "ns"),
    ("engine.batch_call_ms", "ms"),
    ("engine.parallel_efficiency", "ratio"),
    ("storage.reads_per_query", "count"),
    ("storage.blocks_per_query", "count"),
    ("storage.read_ms_per_query", "ms"),
    ("storage.sim_seeks_per_query", "count"),
    ("storage.bytes_written_per_write", "B"),
    ("storage.write_ms_per_write", "ms"),
    ("cache.hit_rate", "ratio"),
    ("wal.bytes_per_write", "B"),
    ("wal.syncs_per_write", "count"),
    ("wal.sync_ms_per_write", "ms"),
    ("update.insert_ms", "ms"),
    ("update.delete_ms", "ms"),
    ("update.self_ms_per_write", "ms"),
    ("update.pages_added", "count"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.bytes_per_checkpoint", "B"),
    ("build.build_s", "s"),
    ("build.open_s", "s"),
    ("build.device_write_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("write_amp", "ratio"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload_name = get("--workload")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: wallbench --workload knn-single|knn-batch|update-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    // Temporary files inside the benchmark's own directory; removed on exit.
    let tmp = TempDir(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!(".tmp-{}", std::process::id())),
    );
    let dirs = [tmp.0.join("plain"), tmp.0.join("traced")];
    let cfg = |traced: bool, setups| Cfg {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        setups,
        threads,
        tmp: &dirs[usize::from(traced)],
    };

    let (metrics, attempted, failed, mismatches, notes) = if args.trace {
        let plain = args.workload.run(&cfg(false, 1));
        let traced = args.workload.run(&cfg(true, 1));
        let mismatches: Vec<String> = plain
            .deterministic
            .iter()
            .zip(&traced.deterministic)
            .filter(|(a, b)| a.1.to_bits() != b.1.to_bits())
            .map(|(a, b)| format!("{}: untraced {} vs traced {}", a.0, a.1, b.1))
            .collect();
        let attempted = plain.attempted + traced.attempted;
        let failed = plain.failed + traced.failed;
        let qps = |p: &Pass| p.e2e.get("qps").expect("every workload reports qps");
        let overhead_pct = (qps(&plain) - qps(&traced)) / qps(&plain) * 100.0;
        let mut layers = traced.layers;
        layers.put("error_rate", failed as f64 / attempted as f64, "ratio");
        layers.put("trace.overhead_pct", overhead_pct, "%");
        let mut metrics = Metrics::default();
        for (name, unit) in LAYER_METRICS {
            metrics.put(name, layers.get(name).unwrap_or(0.0), unit);
        }
        (metrics, attempted, failed, mismatches, traced.notes)
    } else {
        let pass = args.workload.run(&cfg(false, SETUPS));
        (
            pass.e2e,
            pass.attempted,
            pass.failed,
            Vec::new(),
            pass.notes,
        )
    };
    drop(tmp);

    for m in &mismatches {
        eprintln!("error: traced run changed a simulated metric: {m}");
    }
    let prov = iq_bench::provenance::collect(None);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"holdout_seed\": {HOLDOUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \"simd_kernel\": \"{}\", \
         \"nproc\": {}, {}}}",
        args.workload_name,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        prov.commit,
        prov.kernel,
        threads,
        notes.join(", "),
    );
    for (name, value, unit) in &metrics.0 {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && mismatches.is_empty(),
        metrics.to_json(),
    );
    ExitCode::SUCCESS
}
