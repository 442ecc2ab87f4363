//! Decode fast-path contract tests: the fused KV-cached decode (scratch
//! buffers + inference-backend kernels + arena trie) must be a **pure
//! speedup** — bit-identical to the graph-backed baseline at every batch
//! size and thread count, with the arena trie node-for-node equivalent to
//! the pointer-node reference implementation on randomized ID sets.

use lc_rec::core::{
    constrained_beam_search_graph, constrained_beam_search_with,
    multi_constrained_beam_search_scratch, multi_constrained_beam_search_with, CausalLm,
    ExtendedVocab, LmConfig,
};
use lc_rec::data::Seg;
use lc_rec::par::Pool;
use lc_rec::rqvae::{IndexTrie, ItemIndices, PointerTrie};
use lc_rec::tensor::{BlockedBackend, InferenceBackend, ReferenceBackend};
use lc_rec::text::Vocab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A 3-level, 12-item model big enough that beams diverge and pruning
/// actually cuts, small enough to decode in milliseconds.
fn setup() -> (CausalLm, ExtendedVocab, IndexTrie) {
    let base = Vocab::build(["the user bought several items recommend one more"], 1);
    let indices = ItemIndices::new(
        vec![4, 4, 4],
        vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![0, 1, 2],
            vec![0, 3, 3],
            vec![1, 0, 0],
            vec![1, 2, 2],
            vec![1, 2, 3],
            vec![2, 0, 1],
            vec![2, 1, 1],
            vec![3, 0, 0],
            vec![3, 2, 0],
            vec![3, 3, 3],
        ],
    );
    let trie = IndexTrie::build(&indices);
    let vocab = ExtendedVocab::new(base, indices);
    let lm = CausalLm::new(LmConfig::test(vocab.len()));
    (lm, vocab, trie)
}

fn prompts(vocab: &ExtendedVocab, n: usize) -> Vec<Vec<u32>> {
    let texts = [
        "recommend one more",
        "the user bought items",
        "several items",
        "bought several items recommend",
        "the user",
        "recommend",
        "items recommend one",
        "user bought one",
    ];
    (0..n)
        .map(|i| vocab.render(&[Seg::Text(texts[i % texts.len()].into())]))
        .collect()
}

fn bits(hyps: &[lc_rec::core::Hypothesis]) -> Vec<(u32, u32)> {
    hyps.iter().map(|h| (h.item, h.logprob.to_bits())).collect()
}

/// The tentpole contract: fused batched decode equals the graph-backed
/// baseline bit for bit at every batch size × thread count combination.
#[test]
fn fused_decode_matches_graph_baseline_at_every_batch_and_thread_count() {
    let (lm, vocab, trie) = setup();
    let all_prompts = prompts(&vocab, 8);
    let width = 4usize;
    let oracle: Vec<Vec<(u32, u32)>> = all_prompts
        .iter()
        .map(|p| bits(&constrained_beam_search_graph(&lm, &vocab, &trie, p, width)))
        .collect();
    for batch in [1usize, 3, 8] {
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            let widths = vec![width; batch];
            let got = multi_constrained_beam_search_with(
                &pool,
                &lm,
                &vocab,
                &trie,
                &all_prompts[..batch],
                &widths,
            );
            assert_eq!(got.len(), batch);
            for (pi, ranked) in got.iter().enumerate() {
                assert_eq!(
                    bits(ranked),
                    oracle[pi],
                    "batch {batch} × threads {threads}, prompt {pi}: fused batched decode \
                     must be bit-identical to the graph baseline"
                );
            }
            // The single-request fused path too, at this thread count.
            for (pi, p) in all_prompts[..batch].iter().enumerate() {
                let solo = constrained_beam_search_with(&pool, &lm, &vocab, &trie, p, width);
                assert_eq!(bits(&solo), oracle[pi], "single-request fused vs graph");
            }
        }
    }
}

fn to_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The fused forward must produce bit-identical logits to the reference
/// path for every slot: a block prefill against `prefill_batch`, then
/// one-token blocks against `advance_batch`, across batch sizes and
/// successive steps on the same caches.
#[test]
fn fused_advance_matches_reference_advance_bitwise() {
    let (lm, vocab, _trie) = setup();
    let all_prompts = prompts(&vocab, 8);
    let mut scratch = lm.new_scratch();
    let vocab_n = lm.config().vocab;
    for threads in [1usize, 2] {
        let pool = Pool::new(threads);
        for batch in [1usize, 3, 8] {
            let seqs: Vec<&[u32]> = all_prompts[..batch].iter().map(Vec::as_slice).collect();
            let mut ref_caches: Vec<_> = (0..batch).map(|_| lm.new_cache()).collect();
            let ref_first = lm.prefill_batch(&mut ref_caches, &seqs);
            let mut fused_caches: Vec<_> = (0..batch).map(|_| lm.new_cache()).collect();
            let mut slots: Vec<_> = fused_caches.iter_mut().collect();
            let fused_first = lm.forward_block(&pool, &mut scratch, &mut slots, &seqs);
            for (a, b) in ref_first.iter().zip(fused_first.chunks_exact(vocab_n)) {
                assert_eq!(to_bits(a), to_bits(b), "prefill logits (batch {batch})");
            }
            // Three decode steps, feeding each path the same tokens.
            for step in 0..3u32 {
                let toks: Vec<u32> = (0..batch as u32).map(|s| (s + step) % 4).collect();
                let mut ref_slots: Vec<_> = ref_caches.iter_mut().collect();
                let ref_rows = lm.advance_batch(&mut ref_slots, &toks);
                let mut fused_slots: Vec<_> = fused_caches.iter_mut().collect();
                let runs: Vec<&[u32]> = toks.iter().map(std::slice::from_ref).collect();
                let fused_flat = lm.forward_block(&pool, &mut scratch, &mut fused_slots, &runs);
                let rows = ref_rows.iter().zip(fused_flat.chunks_exact(vocab_n));
                for (slot, (r, f)) in rows.enumerate() {
                    assert_eq!(
                        to_bits(r),
                        to_bits(f),
                        "advance step {step}, batch {batch}, slot {slot}, threads {threads}: \
                         fused logits must be bit-identical to the reference step"
                    );
                }
            }
        }
    }
}

/// Block prefill — every slot's whole token run through one fused forward,
/// split into row lanes — must equal the reference lockstep
/// `prefill_batch` bit for bit, in the logits and in the caches (checked
/// through a following `advance_batch`), at 1, 2 and 4 lanes' worth of
/// pool threads. The runs mix lengths 0, 1 and more than `max_seq`
/// (clamped positions), and the second round starts from caches that
/// already hold the first round's tokens.
#[test]
fn block_prefill_matches_reference_prefill_bitwise() {
    // Wide enough that the block carries several lanes' worth of work.
    let vocab_n = 60;
    let cfg = LmConfig {
        dim: 64,
        heads: 4,
        layers: 2,
        ff_hidden: 128,
        max_seq: 24,
        ..LmConfig::test(vocab_n)
    };
    let max_seq = cfg.max_seq;
    let lm = CausalLm::new(cfg);
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let lens = [5usize, 0, 1, max_seq + 7, 12, 3, 1, 20];
    let rounds: Vec<Vec<Vec<u32>>> = (0..2)
        .map(|_| {
            lens.iter()
                .map(|&n| (0..n).map(|_| rng.random_range(0..vocab_n as u32)).collect())
                .collect()
        })
        .collect();
    let next: Vec<u32> = (0..lens.len() as u32).map(|i| (i * 7) % vocab_n as u32).collect();

    // The reference: lockstep prefill, round after round, then one step.
    let mut ref_caches: Vec<_> = lens.iter().map(|_| lm.new_cache()).collect();
    let mut ref_logits = Vec::new();
    for round in &rounds {
        let seqs: Vec<&[u32]> = round.iter().map(Vec::as_slice).collect();
        ref_logits.push(lm.prefill_batch(&mut ref_caches, &seqs));
    }
    let ref_lens: Vec<usize> = ref_caches.iter().map(|c| c.len()).collect();
    let mut ref_slots: Vec<_> = ref_caches.iter_mut().collect();
    let ref_next = lm.advance_batch(&mut ref_slots, &next);

    for threads in [1usize, 2, 4] {
        let pool = Pool::new(threads);
        let mut scratch = lm.new_scratch();
        let mut caches: Vec<_> = lens.iter().map(|_| lm.new_cache()).collect();
        for (ri, round) in rounds.iter().enumerate() {
            let seqs: Vec<&[u32]> = round.iter().map(Vec::as_slice).collect();
            let mut slots: Vec<_> = caches.iter_mut().collect();
            let got = lm.forward_block(&pool, &mut scratch, &mut slots, &seqs);
            let rows = ref_logits[ri].iter().zip(got.chunks_exact(vocab_n));
            for (slot, (want, row)) in rows.enumerate() {
                if lens[slot] == 0 {
                    assert!(want.is_empty(), "the reference has no logits for an empty run");
                    assert!(row.iter().all(|&v| v.to_bits() == 0), "an empty run gets a zero row");
                } else {
                    assert_eq!(
                        to_bits(want),
                        to_bits(row),
                        "round {ri}, slot {slot}, threads {threads}: block prefill logits"
                    );
                }
            }
        }
        for (slot, (c, &want)) in caches.iter().zip(&ref_lens).enumerate() {
            assert_eq!(c.len(), want, "slot {slot}, threads {threads}: cache length");
        }
        let mut slots: Vec<_> = caches.iter_mut().collect();
        let runs: Vec<&[u32]> = next.iter().map(std::slice::from_ref).collect();
        let got = lm.forward_block(&pool, &mut scratch, &mut slots, &runs);
        for (slot, (want, row)) in ref_next.iter().zip(got.chunks_exact(vocab_n)).enumerate() {
            assert_eq!(
                to_bits(want),
                to_bits(row),
                "slot {slot}, threads {threads}: the caches a block prefill leaves must \
                 decode like the reference's"
            );
        }
    }
}

/// Reusing one scratch across many decodes (the serving engine's pattern)
/// must give the same bits as a fresh scratch per call.
#[test]
fn scratch_reuse_is_bit_deterministic() {
    let (lm, vocab, trie) = setup();
    let all_prompts = prompts(&vocab, 4);
    let widths = vec![3usize; all_prompts.len()];
    let pool = Pool::new(2);
    let fresh =
        multi_constrained_beam_search_with(&pool, &lm, &vocab, &trie, &all_prompts, &widths);
    let mut scratch = lm.new_scratch();
    for round in 0..3 {
        let reused = multi_constrained_beam_search_scratch(
            &pool,
            &lm,
            &vocab,
            &trie,
            &all_prompts,
            &widths,
            &mut scratch,
        );
        for (a, b) in fresh.iter().zip(&reused) {
            assert_eq!(bits(a), bits(b), "round {round}: reused scratch changed results");
        }
    }
}

/// Both inference-backend kernels must match the reference bit for bit on
/// randomized shapes and values — small random shapes plus every pairing
/// of row counts around the 4-row tile (1, 3, 4, 5) and the serving
/// shapes (75, 152) with column counts around the 32-column tile and the
/// model widths — with exact `0.0`, `-0.0` and `±inf` mixed into both
/// operands, where the skip (`gemm_acc`) and multiply (`gemm_dense_acc`)
/// contracts differ.
#[test]
fn backend_kernels_are_bit_identical_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut shapes: Vec<(usize, usize, usize)> = (0..40)
        .map(|_| (rng.random_range(1..9), rng.random_range(1..70), rng.random_range(1..130)))
        .collect();
    for m in [1usize, 3, 4, 5, 75, 152] {
        for n in [31usize, 32, 33, 200, 640] {
            let k = [1usize, 17, 64, 320, 640][(m + n) % 5];
            shapes.push((m, k, n));
        }
    }
    let fill = |rng: &mut StdRng, len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| match rng.random_range(0..64) {
                0..=5 => 0.0,
                6 => -0.0,
                7 => f32::INFINITY,
                8 => f32::NEG_INFINITY,
                _ => rng.random_range(-2.0f32..2.0),
            })
            .collect()
    };
    for (m, k, n) in shapes {
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        for dense in [false, true] {
            let mut blocked = vec![0.0f32; m * n];
            let mut reference = vec![0.0f32; m * n];
            if dense {
                BlockedBackend.gemm_dense_acc(&a, &b, &mut blocked, m, k, n);
                ReferenceBackend.gemm_dense_acc(&a, &b, &mut reference, m, k, n);
            } else {
                BlockedBackend.gemm_acc(&a, &b, &mut blocked, m, k, n);
                ReferenceBackend.gemm_acc(&a, &b, &mut reference, m, k, n);
            }
            assert_eq!(to_bits(&blocked), to_bits(&reference), "m={m} k={k} n={n} dense={dense}");
        }
    }
}

/// Randomized code set for the trie property tests.
fn arb_codes(rng: &mut StdRng, levels: usize, k: u16, max: usize) -> Vec<Vec<u16>> {
    let want = rng.random_range(1..=max);
    let mut set: BTreeSet<Vec<u16>> = BTreeSet::new();
    for _ in 0..want * 8 {
        if set.len() == want {
            break;
        }
        set.insert((0..levels).map(|_| rng.random_range(0..k)).collect());
    }
    set.into_iter().collect()
}

/// Every reachable prefix of the trie, by walking `allowed` transitions.
fn all_prefixes(trie: &IndexTrie, levels: usize) -> Vec<Vec<u16>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::<u16>::new()];
    for _ in 0..levels {
        let mut next = Vec::new();
        for p in &frontier {
            for &c in trie.allowed_slice(p) {
                let mut q = p.clone();
                q.push(c);
                next.push(q);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// The arena/CSR trie must be node-for-node equivalent to the pointer-node
/// reference on randomized ID sets: same allowed codes at every reachable
/// prefix (and at illegal ones), same item resolution, same node count —
/// and its text serialization must round-trip to an equivalent trie.
#[test]
fn arena_trie_is_node_for_node_equivalent_to_pointer_trie() {
    let mut rng = StdRng::seed_from_u64(0xA2E7A);
    for case in 0..64 {
        let levels = rng.random_range(2usize..5);
        let codes = arb_codes(&mut rng, levels, 6, 50);
        let indices = ItemIndices::new(vec![6; levels], codes.clone());
        let arena = IndexTrie::build(&indices);
        let pointer = PointerTrie::build(&indices);
        assert_eq!(arena.levels(), pointer.levels());
        assert_eq!(arena.num_nodes(), pointer.num_nodes(), "case {case}: node counts differ");
        let prefixes = all_prefixes(&arena, levels);
        for p in &prefixes {
            assert_eq!(
                arena.allowed(p),
                pointer.allowed(p),
                "case {case}: allowed({p:?}) differs"
            );
            assert_eq!(
                arena.allowed_slice(p).to_vec(),
                pointer.allowed(p),
                "case {case}: allowed_slice({p:?}) differs from pointer allowed"
            );
            assert_eq!(arena.item_at(p), pointer.item_at(p), "case {case}: item_at({p:?})");
        }
        // Illegal lookups agree too: mutate a real path out of the set.
        if let Some(path) = codes.first() {
            let mut bad = path.clone();
            bad[levels - 1] = bad[levels - 1].wrapping_add(7) % 6 + 6;
            assert_eq!(arena.allowed(&bad), pointer.allowed(&bad));
            assert_eq!(arena.item_at(&bad), pointer.item_at(&bad));
            assert!(arena.item_at(&bad).is_none());
        }
        // Serialization round trip preserves every lookup.
        let text = arena.to_text();
        let back = IndexTrie::from_text(&text).expect("round trip must parse");
        assert_eq!(back.num_nodes(), arena.num_nodes());
        for p in &prefixes {
            assert_eq!(back.allowed(p), arena.allowed(p), "case {case}: round-trip allowed");
            assert_eq!(back.item_at(p), arena.item_at(p), "case {case}: round-trip item_at");
        }
        assert_eq!(back.to_text(), text, "case {case}: serialization must be a fixed point");
    }
}
