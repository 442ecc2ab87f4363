//! Metrics computed from a pass: latencies and the report-line
//! figures of every run, and the per-layer metrics of a traced pass. The
//! benchmark's own timings around the router's public calls come from the
//! pass records; everything inside the router is read from the spans,
//! counters and stopwatches `lcrec-obs` already records once enabled.
//! Rates of the LM are computed from its configuration and the row
//! counters, not measured by hardware counters.

use crate::drive::{Pass, Resolved};
use crate::machine;
use crate::stats::{json_num, mean, median, percentile};
use crate::workload::{Traffic, Workload, World};
use lcrec_core::LmConfig;
use lcrec_obs::Snapshot;

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("router.submit_us", "us"),
    ("router.swap_ms", "ms"),
    ("router.shard_imbalance", "ratio"),
    ("router.redirects", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.batch_fill", "ratio"),
    ("serve.batches", "count"),
    ("beam.decode_batch_ms", "ms"),
    ("beam.score_ms", "ms"),
    ("beam.kv_clone_ms", "ms"),
    ("beam.keep_ratio", "ratio"),
    ("beam.trie_visits", "count"),
    ("lm.prefill_ms", "ms"),
    ("lm.prefill_steps", "count"),
    ("lm.prefill_rows_per_step", "rows"),
    ("lm.decode_step_ms", "ms"),
    ("lm.decode_rows_per_step", "rows"),
    ("lm.prefill_gflops", "GFLOP/s"),
    ("lm.decode_gflops", "GFLOP/s"),
    ("lm.decode_weight_gbs", "GB/s"),
    ("kernel.gemm_gflops", "GFLOP/s"),
    ("kernel.gemm_dense_gflops", "GFLOP/s"),
    ("kernel.roofline_frac", "ratio"),
    ("machine.peak_gflops", "GFLOP/s"),
    ("machine.stream_gbs", "GB/s"),
    ("catalog.insert_us", "us"),
    ("catalog.materialize_ms", "ms"),
    ("catalog.rebuild_ms", "ms"),
    ("publish_p50_ms", "ms"),
    ("publish_p90_ms", "ms"),
    ("par.busy_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("gen.lag_p99_ms", "ms"),
    ("traffic.repeat_frac", "ratio"),
    ("slo_ok_frac", "ratio"),
    ("error_frac", "ratio"),
];

/// Per-layer metrics a workload does not exercise: the churn write path
/// outside `medium-churn`, and the latency limit of the open loops in the
/// offline drain. They are reported as 0 and listed in the report.
pub fn not_applicable(w: Workload) -> Vec<&'static str> {
    let mut out = Vec::new();
    if !w.churn() {
        out.extend([
            "router.swap_ms",
            "catalog.insert_us",
            "catalog.materialize_ms",
            "catalog.rebuild_ms",
            "publish_p50_ms",
            "publish_p90_ms",
        ]);
    }
    if !w.open_loop() {
        out.push("slo_ok_frac");
    }
    out
}

/// Latency limit for `slo_ok_frac`, fixed once near the `medium-open`
/// p99 of the commit that defined the benchmark.
pub const SLO_MS: f64 = 50.0;

/// The largest share of the serving loop's busy time that may fall
/// outside every engine batch span before a traced run fails.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Dense-projection and LM-head FLOPs of one LM row step (attention's
/// position-dependent score and mix products are left out), and the
/// bytes of weights one step streams.
pub fn lm_row_cost(cfg: &LmConfig) -> (f64, f64) {
    let (d, ff, v) = (cfg.dim as f64, cfg.ff_hidden as f64, cfg.vocab as f64);
    let weights = cfg.layers as f64 * (4.0 * d * d + 3.0 * d * ff) + d * v;
    (2.0 * weights, 4.0 * weights)
}

/// Latencies (due → answer) of the completed requests, in ms.
pub fn latencies_ms(pass: &Pass<'_>, traffic: &Traffic) -> Vec<f64> {
    pass.recs
        .iter()
        .zip(&traffic.requests)
        .filter_map(|(rec, req)| match rec.outcome {
            Resolved::Completed { done_s, .. } => Some((done_s - req.due_s) * 1e3),
            _ => None,
        })
        .collect()
}

/// Metrics every pass has, traced or not: the open-loop SLO share,
/// failures, publish latency and generator lag.
pub fn pass_metrics(pass: &Pass<'_>, traffic: &Traffic) -> Vec<(&'static str, f64)> {
    let sent = pass.recs.len().max(1) as f64;
    let lat = latencies_ms(pass, traffic);
    let within = lat.iter().filter(|&&l| l <= SLO_MS).count() as f64;
    let failed = pass
        .recs
        .iter()
        .filter(|r| matches!(r.outcome, Resolved::Rejected | Resolved::TimedOut))
        .count();
    let publish: Vec<f64> = pass.publishes.iter().map(|p| p.total_ms).collect();
    let lag: Vec<f64> = pass
        .recs
        .iter()
        .zip(&traffic.requests)
        .map(|(r, q)| (r.submit_s - q.due_s) * 1e3)
        .collect();
    vec![
        ("slo_ok_frac", within / sent),
        ("error_frac", failed as f64 / sent),
        ("publish_p50_ms", median(&publish)),
        ("publish_p90_ms", percentile(&publish, 0.9)),
        ("gen.lag_p99_ms", percentile(&lag, 0.99)),
        ("traffic.repeat_frac", traffic.repeat_frac()),
    ]
}

/// Machine and kernel probes, measured once per traced run.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub peak_gflops: f64,
    pub stream_gbs: f64,
    pub gemm_gflops: f64,
    pub gemm_dense_gflops: f64,
    pub roofline_frac: f64,
}

impl Calibration {
    /// Kernels are timed at the large tier's decode shapes whatever the
    /// workload, so the numbers compare across workloads.
    pub fn measure() -> Calibration {
        let large = Workload::LargeOffline;
        let vocab =
            lcrec_text::Vocab::build([lcrec_serve::ServeConfig::default().template.as_str()], 1)
                .len()
                + large.tier().levels * large.tier().codebook_size;
        let cfg = large.lm_config(vocab);
        let peak_gflops = machine::peak_gflops();
        let stream_gbs = machine::stream_gbs();
        let (gemm_gflops, gemm_dense_gflops) =
            machine::kernel_gflops(cfg.dim, cfg.ff_hidden, cfg.vocab);
        let bound = machine::roofline_gflops(peak_gflops, stream_gbs, 80, cfg.dim, cfg.ff_hidden);
        Calibration {
            peak_gflops,
            stream_gbs,
            gemm_gflops,
            gemm_dense_gflops,
            roofline_frac: gemm_gflops / bound,
        }
    }
}

/// Where a traced pass's serving time went. The router calls that returned
/// answers, plus the batches drained inside catalog swaps, are the loop's
/// busy time; the engine's `serve.batch` spans hold each batch's prefill,
/// scoring, advance and remainder; busy time outside every batch span is
/// unattributed.
#[derive(Clone, Copy, Debug)]
pub struct Reconciliation {
    pub busy_s: f64,
    pub batch_s: f64,
    pub prefill_s: f64,
    pub score_s: f64,
    pub advance_s: f64,
}

impl Reconciliation {
    pub fn of(pass: &Pass<'_>, snap: &Snapshot) -> Reconciliation {
        let sum = |name: &str| snap.profile.get(name).map_or(0.0, |h| h.sum);
        Reconciliation {
            busy_s: pass.busy_s + pass.publishes.iter().map(|p| p.swap_batch_s).sum::<f64>(),
            batch_s: snap
                .spans
                .iter()
                .filter(|(p, _)| p.ends_with("serve.batch"))
                .map(|(_, s)| s.total_s())
                .sum(),
            prefill_s: sum("lm.prefill_s"),
            score_s: sum("beam.score_s"),
            advance_s: sum("beam.advance_s"),
        }
    }

    /// Batch time outside prefill, scoring and advance: prompt rendering,
    /// cache set-up and finalizing the rankings.
    pub fn remainder_s(&self) -> f64 {
        self.batch_s - self.prefill_s - self.score_s - self.advance_s
    }

    pub fn unattributed_frac(&self) -> f64 {
        if self.busy_s <= 0.0 {
            0.0
        } else {
            (self.busy_s - self.batch_s) / self.busy_s
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"busy_s\": {}, \"prefill_s\": {}, \"score_s\": {}, \"advance_s\": {}, \"remainder_s\": {}, \"unattributed_s\": {}}}",
            json_num(self.busy_s),
            json_num(self.prefill_s),
            json_num(self.score_s),
            json_num(self.advance_s),
            json_num(self.remainder_s()),
            json_num(self.busy_s - self.batch_s),
        )
    }
}

/// Every per-layer metric of a traced pass, by name.
pub fn per_layer(
    world: &World,
    traffic: &Traffic,
    pass: &Pass<'_>,
    snap: &Snapshot,
    untraced_busy_s: f64,
    rebuild_ms: &[f64],
    cal: &Calibration,
) -> Vec<(&'static str, f64)> {
    let prof = |name: &str| {
        snap.profile
            .get(name)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum))
    };
    let counter = |name: &str| snap.counter(name) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (prefill_n, prefill_s) = prof("lm.prefill_s");
    let (decode_n, decode_s) = prof("lm.decode_s");
    let (score_n, score_s) = prof("beam.score_s");
    let (advance_n, advance_s) = prof("beam.advance_s");
    let (_, worker_busy_s) = prof("par.worker_busy_s");
    let decode_batch = snap
        .spans
        .iter()
        .filter(|(p, _)| p.ends_with("beam.decode_batch"))
        .fold((0.0, 0.0), |(n, s), (_, st)| {
            (n + st.count as f64, s + st.total_s())
        });
    let batches = counter("serve.batches");
    let (flops_row, weight_bytes) = lm_row_cost(world.lm.config());
    let shard_requests: Vec<f64> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("router.shard") && k.ends_with(".requests"))
        .map(|(_, &v)| v as f64)
        .collect();
    let max_batch = world.workload.router_config(1).shard.max_batch as f64;
    let (mut queue_wait, mut service, mut fill) = (Vec::new(), Vec::new(), Vec::new());
    for (rec, req) in pass.recs.iter().zip(&traffic.requests) {
        if let Resolved::Completed {
            step_start_s,
            done_s,
            batch_size,
            ..
        } = rec.outcome
        {
            queue_wait.push((step_start_s - req.due_s) * 1e3);
            service.push((done_s - step_start_s) * 1e3);
            fill.push(batch_size as f64 / max_batch);
        }
    }
    let submit_us: Vec<f64> = pass.recs.iter().map(|r| r.submit_us).collect();
    let swap_ms: Vec<f64> = pass.publishes.iter().map(|p| p.swap_ms).collect();
    let insert_us: Vec<f64> = pass
        .publishes
        .iter()
        .flat_map(|p| p.insert_us.iter().copied())
        .collect();
    let materialize_ms: Vec<f64> = pass.publishes.iter().map(|p| p.materialize_ms).collect();
    let threads = lcrec_par::threads_from_env() as f64;
    let mut out = vec![
        ("router.submit_us", median(&submit_us)),
        ("router.swap_ms", median(&swap_ms)),
        (
            "router.shard_imbalance",
            per(
                shard_requests.iter().copied().fold(0.0, f64::max),
                mean(&shard_requests),
            ),
        ),
        ("router.redirects", counter("router.redirects")),
        ("serve.queue_wait_p50_ms", median(&queue_wait)),
        ("serve.queue_wait_p99_ms", percentile(&queue_wait, 0.99)),
        ("serve.service_ms", median(&service)),
        ("serve.batch_fill", mean(&fill)),
        ("serve.batches", batches),
        (
            "beam.decode_batch_ms",
            per(decode_batch.1 * 1e3, decode_batch.0),
        ),
        ("beam.score_ms", per(score_s * 1e3, score_n)),
        (
            "beam.kv_clone_ms",
            per((advance_s - decode_s) * 1e3, advance_n),
        ),
        (
            "beam.keep_ratio",
            per(counter("beam.cache_advances"), counter("beam.expansions")),
        ),
        ("beam.trie_visits", counter("beam.trie_visits")),
        ("lm.prefill_ms", per(prefill_s * 1e3, batches)),
        ("lm.prefill_steps", per(prefill_n, batches)),
        (
            "lm.prefill_rows_per_step",
            per(counter("lm.prefill_tokens"), prefill_n),
        ),
        ("lm.decode_step_ms", per(decode_s * 1e3, decode_n)),
        (
            "lm.decode_rows_per_step",
            per(counter("lm.decode_tokens"), decode_n),
        ),
        (
            "lm.prefill_gflops",
            per(counter("lm.prefill_tokens") * flops_row, prefill_s * 1e9),
        ),
        (
            "lm.decode_gflops",
            per(counter("lm.decode_tokens") * flops_row, decode_s * 1e9),
        ),
        (
            "lm.decode_weight_gbs",
            per(decode_n * weight_bytes, decode_s * 1e9),
        ),
        ("kernel.gemm_gflops", cal.gemm_gflops),
        ("kernel.gemm_dense_gflops", cal.gemm_dense_gflops),
        ("kernel.roofline_frac", cal.roofline_frac),
        ("machine.peak_gflops", cal.peak_gflops),
        ("machine.stream_gbs", cal.stream_gbs),
        ("catalog.insert_us", median(&insert_us)),
        ("catalog.materialize_ms", median(&materialize_ms)),
        ("catalog.rebuild_ms", median(rebuild_ms)),
        ("par.busy_frac", per(worker_busy_s, threads * pass.busy_s)),
        ("obs.overhead_frac", per(pass.busy_s, untraced_busy_s) - 1.0),
        (
            "trace.unattributed_frac",
            Reconciliation::of(pass, snap).unattributed_frac(),
        ),
    ];
    out.extend(pass_metrics(pass, traffic));
    out
}
