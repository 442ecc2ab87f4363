//! Contract tests for the `lcrec-obs` observability subsystem: span
//! nesting, the off-by-default gate, and — the load-bearing property —
//! bit-identical deterministic sections across thread counts.
//!
//! The registry and its gate are process-global, so every test takes
//! `GUARD` and leaves the gate disabled on exit.

use lc_rec::core::{
    constrained_beam_search_with, multi_constrained_beam_search_with, CausalLm, ExtendedVocab,
    LmConfig,
};
use lc_rec::obs;
use lc_rec::prelude::*;
use std::sync::{Mutex, MutexGuard};

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    match GUARD.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[test]
fn spans_nest_by_thread_local_stack() {
    let _l = lock();
    obs::set_enabled(true);
    obs::reset();
    {
        let _outer = obs::span("outer");
        for _ in 0..2 {
            let _inner = obs::span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let outer = snap.span("outer").expect("outer span recorded");
    let inner = snap.span("outer/inner").expect("nested path recorded");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 2);
    assert!(snap.span("inner").is_none(), "nested span must not appear as a root");
    assert!(inner.total_ns > 0, "slept inside the span; elapsed must be non-zero");
    assert!(
        outer.total_ns >= inner.total_ns,
        "a parent span covers its children: outer {} < inner {}",
        outer.total_ns,
        inner.total_ns
    );
}

#[test]
fn gate_off_records_nothing() {
    let _l = lock();
    obs::set_enabled(false);
    obs::reset();
    {
        let _s = obs::span("ghost");
        obs::counter_add("ghost.counter", 7);
        obs::hist_record("ghost.hist", 3.0);
        obs::profile_record("ghost.profile", 0.5);
        let watch = obs::stopwatch();
        assert!(!watch.running());
        watch.stop("ghost.watch");
        // Instrumented library code must also record nothing while off.
        let pool = Pool::new(4);
        let sum: u64 = pool.map_reduce(64, |i| i as u64, 0, |a, b| a + b);
        assert_eq!(sum, 2016);
    }
    assert!(obs::snapshot().is_empty(), "LCREC_OBS off must record nothing at all");
}

/// Runs an instrumented workload — direct recording, pool fan-out with
/// worker-side recording, a real constrained beam search and a batched
/// decode wide enough to split the LM forward into row lanes — and returns
/// the full snapshot.
fn instrumented_workload(threads: usize) -> obs::Snapshot {
    obs::set_enabled(true);
    obs::reset();
    let pool = Pool::new(threads);

    // Worker-side counters/histograms through the pool's merge path.
    let sums = pool.map_range(100, |i| {
        obs::counter_add("test.work_items", 1);
        obs::hist_record("test.values", (i % 7) as f64);
        i as u64
    });
    assert_eq!(sums.len(), 100);

    // A real decode so beam/lm/par instrumentation all fire.
    let base = Vocab::build(["recommend something nice"], 1);
    let indices = ItemIndices::new(
        vec![3, 3],
        vec![vec![0, 0], vec![0, 1], vec![1, 2], vec![2, 2]],
    );
    let trie = IndexTrie::build(&indices);
    let vocab = ExtendedVocab::new(base, indices);
    let lm = CausalLm::new(LmConfig::test(vocab.len()));
    let prompt = vocab.render(&[Seg::Text("recommend".into())]);
    let hyps = constrained_beam_search_with(&pool, &lm, &vocab, &trie, &prompt, 4);
    assert_eq!(hyps.len(), 4);

    // A batched decode on a wider LM: its block prefill and its decode
    // steps carry enough rows to run as several lanes on a 4-thread pool.
    let wide = CausalLm::new(LmConfig {
        dim: 96,
        heads: 4,
        layers: 2,
        ff_hidden: 192,
        ..LmConfig::test(vocab.len())
    });
    let prompts: Vec<Vec<u32>> = ["recommend something nice", "something", "nice recommend"]
        .iter()
        .map(|t| vocab.render(&[Seg::Text((*t).into())]))
        .collect();
    let ranked =
        multi_constrained_beam_search_with(&pool, &wide, &vocab, &trie, &prompts, &[4, 4, 4]);
    assert!(ranked.iter().all(|r| r.len() == 4));

    let snap = obs::snapshot();
    obs::set_enabled(false);
    snap
}

#[test]
fn deterministic_section_is_bit_identical_across_thread_counts() {
    let _l = lock();
    let serial_snap = instrumented_workload(1);
    let parallel_snap = instrumented_workload(4);
    let (serial, parallel) = (serial_snap.deterministic_json(), parallel_snap.deterministic_json());
    assert!(!serial.is_empty());
    assert!(serial.contains("test.work_items"), "worker counters must merge");
    assert!(serial.contains("beam.expansions"), "beam counters must record");
    assert!(serial.contains("lm.decode_tokens"), "lm counters must record");
    assert!(serial.contains("lm.prefill_tokens"), "block prefill must record its rows");
    assert_eq!(
        serial, parallel,
        "deterministic observability section must be bit-identical at 1 vs 4 threads"
    );
    // One stopwatch sample per forward call, whatever the lane count.
    let calls = |snap: &obs::Snapshot, name: &str| snap.profile.get(name).map_or(0, |h| h.count);
    for name in ["lm.prefill_s", "lm.decode_s"] {
        assert_eq!(calls(&serial_snap, name), calls(&parallel_snap, name), "{name}");
    }
    let busy = |snap: &obs::Snapshot| calls(snap, "par.worker_busy_s");
    assert_eq!(busy(&serial_snap), 0, "a serial pool spawns no workers");
    assert!(busy(&parallel_snap) > 0);
}

#[test]
fn row_lanes_record_worker_busy_time_once_per_lane() {
    let _l = lock();
    obs::set_enabled(true);
    obs::reset();
    let mut groups = vec![0u64; 3];
    Pool::new(2).for_each_mut(&mut groups, |i, g| *g = (0..20_000u64).map(|x| x ^ i as u64).sum());
    let snap = obs::snapshot();
    let busy = snap.profile.get("par.worker_busy_s").expect("groups record busy time");
    assert_eq!(busy.count, 2, "one sample per group: two groups on a 2-thread pool");
    assert!(snap.counters.keys().all(|k| !k.starts_with("par.")), "no deterministic par.* records");

    // A block prefill of three 12-token prompts on a wide LM: three lanes
    // on a 4-thread pool, one busy sample each, one stopwatch sample.
    obs::reset();
    let lm = CausalLm::new(LmConfig {
        dim: 96,
        heads: 4,
        layers: 2,
        ff_hidden: 192,
        ..LmConfig::test(50)
    });
    let prompts: Vec<Vec<u32>> =
        (0..3u32).map(|p| (0..12).map(|t| (p * 13 + t * 7) % 50).collect()).collect();
    let seqs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut caches: Vec<_> = (0..3).map(|_| lm.new_cache()).collect();
    let mut slots: Vec<_> = caches.iter_mut().collect();
    let mut scratch = lm.new_scratch();
    lm.forward_block(&Pool::new(4), &mut scratch, &mut slots, &seqs);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    let count = |name: &str| snap.profile.get(name).map_or(0, |h| h.count);
    assert_eq!(count("par.worker_busy_s"), 3, "one busy sample per lane");
    assert_eq!(count("lm.prefill_s"), 1, "one stopwatch sample per call, on the caller");
    assert_eq!(snap.counter("lm.prefill_tokens"), 36);
}

#[test]
fn full_snapshot_has_profile_but_deterministic_json_does_not() {
    let _l = lock();
    obs::set_enabled(true);
    obs::reset();
    let watch = obs::stopwatch();
    std::thread::sleep(std::time::Duration::from_millis(1));
    watch.stop("test.phase_s");
    obs::counter_add("test.count", 1);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let full = snap.to_json();
    assert!(full.contains("test.phase_s"));
    assert!(full.contains("test.count"));
    let det = snap.deterministic_json();
    assert!(det.contains("test.count"));
    assert!(
        !det.contains("test.phase_s"),
        "wall-clock records must stay out of the bit-compared section"
    );
    let table = snap.table();
    assert!(table.contains("test.phase_s") && table.contains("test.count"));
}
