//! Shared pieces of every workload: the seeded generator, order
//! statistics, the metric sink, and the machine descriptor.

use std::time::Instant;

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every build of the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile of `v` (sorted in place), `p` in `[0, 100]`.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of a run cut into parts (passes or rounds):
/// each part's `p`-th percentile, read at the median part for p50 and at
/// the lower quartile for a tail. The shared machine stalls for 5–30 ms
/// every few seconds, in stretches that can cover half a run; a stall
/// lifts every tail it falls in, so the tail is read in the quieter parts,
/// where it is the program's own.
pub fn part_percentile(parts: &[Vec<f64>], p: f64) -> f64 {
    let mut per_part: Vec<f64> =
        parts.iter().filter(|g| !g.is_empty()).map(|g| percentile(&mut g.clone(), p)).collect();
    percentile(&mut per_part, if p > 50.0 { 25.0 } else { 50.0 })
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Metric values by name; units live with the metric lists in `main`.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// What a workload hands back: its metrics and the exactness audit of
/// every request the timed phase issued.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub inexact: u64,
}

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizing: a few thousand rows, so every code path runs
    /// in seconds.
    pub tiny: bool,
}

impl Params {
    /// A size: `full` normally, `tiny` for the smoke test.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// Peak resident set size of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// STREAM-style copy bandwidth in GB/s (bytes read + written), the
/// memory roof the kernel and refine numbers are read against. Median
/// of five copies of a 64 MB buffer, far above any cache.
pub fn copy_gbps() -> f64 {
    const LEN: usize = 16 << 20;
    let src: Vec<f32> = (0..LEN).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; LEN];
    dst.copy_from_slice(&src);
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&dst);
            (2 * 4 * LEN) as f64 / secs(t) / 1e9
        })
        .collect();
    median(&mut rates)
}

/// The machine line printed with every result, so a number from another
/// box or another kernel tier is recognisable.
pub fn machine_line(copy_gbps: f64) -> String {
    let nproc = nproc();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"machine\": {{\"nproc\": {nproc}, \"cpu\": {}, \"kernel_tier\": \"{}\", \
         \"copy_gbps\": {copy_gbps:.3}}}}}",
        json_string(&model),
        sofa::simd::active_tier().name()
    )
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where a run leaves its scratch files (snapshot, trace): beside the
/// benchmark executable, inside the build directory of the checkout.
pub fn scratch_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let dir = exe.parent().expect("an executable lives in a directory").join("sofa-benchmark-runs");
    std::fs::create_dir_all(&dir).expect("create the run directory beside the executable");
    dir
}

/// The registry profile `name` with its generator seed overridden by the
/// run's seed: the program sees only the rows and queries this produces.
pub fn dataset_spec(name: &str, seed: u64) -> sofa::data::DatasetSpec {
    let mut spec = sofa::data::registry()
        .into_iter()
        .find(|s| s.name == name)
        .expect("the profile is in the dataset registry");
    spec.seed = seed;
    spec
}

/// Worker threads the machine offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
