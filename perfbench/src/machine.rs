//! The machine a result was measured on: a record of the environment,
//! calibration probes for the roofline, and resident memory.

use crate::stats::{json_str, median};
use lcrec_tensor::active_backend;
use std::hint::black_box;
use std::time::Instant;

/// Variables that change what an "untraced" run executes: `Engine::new`
/// reads the fault plan, and the serving knobs and backend are read from
/// the environment. The benchmark refuses to run with any of them set.
const PINNED: &[&str] = &[
    "LCREC_OBS",
    "LCREC_BACKEND",
    "LCREC_SHARDS",
    "LCREC_HEDGE_ATTEMPTS",
];
const PINNED_PREFIXES: &[&str] = &["LCREC_FAULT", "LCREC_SERVE_"];

pub fn pinned_violations(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|k| {
        PINNED.contains(&k.as_str()) || PINNED_PREFIXES.iter().any(|p| k.starts_with(p))
    })
    .collect()
}

/// The environment as a JSON object: thread settings, CPU, kernel backend
/// and the code measured.
pub fn environment() -> String {
    let nproc = lcrec_par::default_threads();
    let threads = std::env::var(lcrec_par::THREADS_ENV).unwrap_or_else(|_| "unset".into()); // lint: allow(det, reason = "recorded with the result, never used to run anything")
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\": {nproc}, \"LCREC_THREADS\": {}, \"pool_threads\": {}, \"cpu_model\": {}, \"cpu_flags\": {}, \"backend\": {}, \"git_rev\": {}, \"source_fnv64\": {}}}",
        json_str(&threads),
        lcrec_par::threads_from_env(),
        json_str(&field("model name")),
        json_str(&field("flags")),
        json_str(active_backend().name()),
        json_str(&git_rev()),
        json_str(&format!("{:016x}", source_digest())),
    )
}

/// The commit checked out, read from `.git` directly: a checkout without
/// `.git` reports "unknown" instead of some enclosing repository's head.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .unwrap_or("unknown")
                    .to_string()
            }),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a over the workspace manifest and every crate source under
/// `crates/`, in path order: names the code measured when no git rev is
/// available.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.toml")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A field of `/proc/self/status` given in kB (`VmHWM`, `VmRSS`), in MB.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| {
            v.trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The benchmark's one clock read: every duration it reports is measured
/// from here.
pub fn now() -> Instant {
    Instant::now() // lint: allow(det, reason = "the benchmark measures wall time by design; answers are bit-compared separately by the correctness gate")
}

/// Median wall time of `reps` calls of `f`, after one warm-up call.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let a = now();
            f();
            a.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Single-core peak of multiply-add on the ISA this binary was built
/// for: 48 independent `acc = acc * x + y` chains, which the compiler
/// keeps in vector registers.
pub fn peak_gflops() -> f64 {
    const LANES: usize = 48;
    const ITERS: usize = 2_000_000;
    let (x, y) = (black_box(0.999_999f32), black_box(1e-7f32));
    let s = time_median(5, || {
        let mut acc = [1.0f32; LANES];
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * x + y;
            }
        }
        black_box(acc);
    });
    2.0 * (LANES * ITERS) as f64 / s / 1e9
}

/// Streaming copy bandwidth (bytes read + written) over two 32 MiB
/// buffers, larger than the last-level cache share of one core.
pub fn stream_gbs() -> f64 {
    const N: usize = 8 << 20;
    let src: Vec<f32> = (0..N).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; N];
    let s = time_median(7, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    (2 * 4 * N) as f64 / s / 1e9
}

/// `(sparse gemm, dense gemm)` GFLOP/s of the active backend at the large
/// tier's decode shapes: 80 candidate rows through a `dim × ff_hidden`
/// projection, and through the tied LM head (`dim × vocab`).
pub fn kernel_gflops(dim: usize, ff: usize, vocab: usize) -> (f64, f64) {
    const M: usize = 80;
    let mut rng = crate::workload::SplitMix::new(7);
    let mut fill = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.next_f64() as f32 - 0.5).collect() };
    let a = fill(M * dim);
    let w = fill(dim * ff);
    let head = fill(dim * vocab);
    let backend = active_backend();
    let mut out = vec![0.0f32; M * ff.max(vocab)];
    let reps = 200;
    let sparse = time_median(5, || {
        for _ in 0..reps {
            backend.gemm_acc(black_box(&a), &w, &mut out[..M * ff], M, dim, ff);
        }
    });
    let dense = time_median(5, || {
        for _ in 0..reps {
            backend.gemm_dense_acc(black_box(&a), &head, &mut out[..M * vocab], M, dim, vocab);
        }
    });
    let gflops = |n: usize, s: f64| 2.0 * (M * dim * n * reps) as f64 / s / 1e9;
    (gflops(ff, sparse), gflops(vocab, dense))
}

/// Roofline bound in GFLOP/s for an `m × k × n` f32 GEMM: the lower of
/// peak compute and bandwidth times arithmetic intensity, counting each
/// operand and the output once.
pub fn roofline_gflops(peak: f64, gbs: f64, m: usize, k: usize, n: usize) -> f64 {
    let flops = 2.0 * (m * k * n) as f64;
    let bytes = 4.0 * (m * k + k * n + m * n) as f64;
    peak.min(gbs * flops / bytes)
}
