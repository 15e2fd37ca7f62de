//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <hf256-single|lc256-ingest> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates its workload's rows and queries from the seed, sets
//! the index up, measures for `--seconds`, and checks every answer of the
//! timed phase against a brute-force oracle. The last line of standard
//! output is one JSON object: the exactness audit and, untraced, every
//! end-to-end metric or, traced, every per-layer metric. Any inexact or
//! failed answer makes the exit code 1. `WORKLOADS.md` records why each
//! workload exists and what each per-layer metric should move.

mod common;
mod hf256;
mod layers;
mod lc256;
mod oracle;
mod serve;
mod trace;

use common::{Metrics, Params};

/// What a user of the system sees, measured untraced.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("slo_qps", "1/s"),
    ("insert_rows_per_s", "1/s"),
    ("exact_rate", "ratio"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not use
/// reads 0 on that workload.
const PER_LAYER: [(&str, &str); 40] = [
    ("index.query_us", "us"),
    ("index.seed_us", "us"),
    ("index.lbd_checked", "count"),
    ("index.rows_refined", "count"),
    ("index.prune_ratio", "ratio"),
    ("index.leaves_refined", "count"),
    ("index.nodes_pruned", "count"),
    ("index.refine_bytes", "bytes"),
    ("index.quant_groups", "count"),
    ("index.quant_kill_ratio", "ratio"),
    ("index.build_transform_s", "s"),
    ("index.build_tree_s", "s"),
    ("index.insert_us.p50", "us"),
    ("index.insert_us.max", "us"),
    ("index.first_insert_ms", "ms"),
    ("index.fallback_leaf_pct", "%"),
    ("snapshot.open_s", "s"),
    ("snapshot.first_query_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("summaries.prep_us", "us"),
    ("fft.rdft_ns", "ns"),
    ("simd.l2_ns", "ns"),
    ("simd.l2_gbps", "GB/s"),
    ("simd.mindist_block_ns", "ns"),
    ("simd.quant_lb_ns", "ns"),
    ("simd.copy_gbps", "GB/s"),
    ("exec.broadcast_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.tick_fill", "count"),
    ("serve.ticks", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.aborted", "count"),
    ("serve.overhead_us", "us"),
    ("shard.fanout_us", "us"),
    ("shard.imbalance", "ratio"),
    ("baselines.flat_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: sofa-benchmark --workload <hf256-single|lc256-ingest> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Params), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let params = Params { seed: seed.ok_or("--seed is required")?, seconds, trace, tiny };
    Ok((workload.ok_or("--workload is required")?, params))
}

fn main() {
    let (workload, p) = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run = match workload.as_str() {
        "hf256-single" => hf256::run,
        "lc256-ingest" => lc256::run,
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let copy_gbps = common::copy_gbps();
    println!("{}", common::machine_line(copy_gbps));

    let out = run(&p, copy_gbps);
    let bad = out.failed + out.inexact;
    println!(
        "oracle: {} requests checked, {} inexact, {} failed",
        out.attempted, out.inexact, out.failed
    );
    let mut m = out.metrics;
    let list: &[(&str, &str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    if !p.trace {
        m.put("exact_rate", 1.0 - bad as f64 / out.attempted.max(1) as f64);
        m.put("rss_mb", common::peak_rss_mb());
    }
    println!("{}", result_line(&m, list, p.trace, out.attempted, bad));
    std::process::exit(i32::from(bad > 0));
}

/// The result object. Every metric of `list` appears, in order; under
/// trace, a layer the workload did not report reads 0.
fn result_line(
    m: &Metrics,
    list: &[(&str, &str)],
    trace: bool,
    attempted: u64,
    bad: u64,
) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let value = m.get(name).unwrap_or_else(|| {
                assert!(trace, "the workload did not report end-to-end metric {name}");
                0.0
            });
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {bad}, \"metrics\": {{{}}}}}",
        bad == 0,
        metrics.join(", ")
    )
}
