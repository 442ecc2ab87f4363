//! Trie-constrained beam search over item-index tokens (paper §III-D2).
//!
//! Starting from a prefilled prompt cache, the decoder expands `H` levels.
//! At each level only codes that extend a real item prefix are legal
//! ("probabilities of tokens that may result in illegal item indices will
//! be assigned 0"); each surviving beam therefore maps to an actual item.
//! Beams share the prompt's KV cache by cloning, which is cheap at these
//! model sizes and exactly reproduces the paper's KV-cache optimization.
//!
//! Per level, candidate scoring fans out over the surviving beams on an
//! [`lcrec_par::Pool`] and reassembles in beam order; the transformer step
//! then runs **every** pruned candidate through one fused, allocation-free
//! forward ([`CausalLm::forward_block`], one token per candidate) against
//! a reusable [`DecodeScratch`], its row lanes on the same pool.
//! Scoring applies **top-k pre-pruning**: each beam
//! keeps only its `beam_size` best legal continuations before the global
//! prune — provably without changing the result (see `score_beam`'s doc
//! comment) — so
//! the cross-beam sort never sees more than `beam_size²` candidates.
//! Parallel and serial runs return bit-identical hypotheses (see DESIGN.md
//! "Threading model").
//!
//! The serving path adds a second axis of batching:
//! [`multi_constrained_beam_search_with`] decodes many prompts at once,
//! sharing each transformer step across *every* request's surviving
//! candidates. Scoring, pruning and finalization reuse the single-request
//! helpers, so the batched decode is bit-identical to running
//! [`constrained_beam_search_with`] once per request — the contract
//! `tests/serving.rs` pins.
//!
//! [`constrained_beam_search_graph`] is the pre-KV-cache baseline: the
//! same search driven by full autograd-graph re-forwards
//! ([`CausalLm::logits_uncached`]) instead of cached fused steps. It
//! exists as the benchmark "before" ( `repro --exp decode`,
//! `results/decode.md`) and as the independent oracle the fast path is
//! bit-compared against (`tests/decode.rs`).

use crate::lm::{CausalLm, DecodeScratch, KvCache};
use crate::vocab::ExtendedVocab;
use lcrec_par::Pool;
use lcrec_rqvae::IndexTrie;

/// One completed hypothesis.
#[derive(Clone, Debug)]
pub struct Hypothesis {
    /// The decoded item.
    pub item: u32,
    /// Sum of token log-probabilities.
    pub logprob: f32,
}

struct Beam {
    cache: KvCache,
    logits: Vec<f32>,
    prefix: Vec<u16>,
    logprob: f32,
}

/// Scores one beam's legal continuations: the beam's log-softmax over the
/// full vocabulary restricted to the codes that extend a real item prefix
/// (illegal tokens get probability 0), **pre-pruned to the beam's `width`
/// best codes**. Returns `(code, cumulative logprob)` pairs in trie order
/// — every decode path shares this exact arithmetic, which keeps them all
/// bit-identical.
///
/// Top-k pre-pruning is exact: the global prune is a *stable* descending
/// sort truncated to `width`, so any candidate this beam drops is preceded
/// in the flattened candidate list by at least `width` same-beam
/// candidates with a strictly better score or an equal score and an
/// earlier position — the dropped candidate could never have survived the
/// global cut, and the survivors keep their original relative order, so
/// the pruned result is identical to scoring everything. (Ranking by raw
/// logit equals ranking by log-probability: the softmax normalizer and
/// the beam's cumulative score are constants within one beam.)
fn score_beam(
    trie: &IndexTrie,
    vocab: &ExtendedVocab,
    logits: &[f32],
    prefix: &[u16],
    logprob: f32,
    width: usize,
) -> Vec<(u16, f32)> {
    let allowed = trie.allowed_slice(prefix);
    if allowed.is_empty() || width == 0 {
        return Vec::new();
    }
    let level = prefix.len();
    // Trie intersection first: the legal codes with their raw logits.
    let mut legal: Vec<(u16, f32)> = allowed
        .iter()
        .filter_map(|&code| {
            // A token outside the logit table can only mean a vocab/trie
            // mismatch; skip the code instead of panicking mid-decode.
            let tok = vocab.index_token(level, code) as usize;
            logits.get(tok).map(|&l| (code, l))
        })
        .collect();
    // Top-k pre-pruning, stable: keep the `width` best by logit, ties to
    // the earlier code, survivors back in trie order.
    if legal.len() > width {
        let mut order: Vec<usize> = (0..legal.len()).collect();
        order.sort_by(|&a, &b| {
            legal[b] // lint: allow(panic, reason = "order enumerates legal's indices")
                .1
                .partial_cmp(&legal[a].1) // lint: allow(panic, reason = "order enumerates legal's indices")
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.truncate(width);
        order.sort_unstable();
        legal = order
            .into_iter()
            .filter_map(|i| legal.get(i).copied())
            .collect();
    }
    let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = logits.iter().map(|&v| (v - mx).exp()).sum();
    let lz = z.ln() + mx;
    legal.into_iter().map(|(code, l)| (code, logprob + l - lz)).collect()
}

/// The shared pruning rule: a *stable* descending sort on score followed by
/// truncation to the beam width. Candidates must arrive flattened in beam
/// order, so equal scores resolve identically on every path.
fn prune(candidates: &mut Vec<(usize, u16, f32)>, beam_size: usize) {
    candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    candidates.truncate(beam_size);
}

/// Maps finished `(prefix, logprob)` beams to ranked hypotheses
/// (descending log-probability).
fn finalize(trie: &IndexTrie, beams: Vec<(Vec<u16>, f32)>) -> Vec<Hypothesis> {
    let mut out: Vec<Hypothesis> = beams
        .into_iter()
        .filter_map(|(prefix, logprob)| {
            trie.item_at(&prefix).map(|item| Hypothesis { item, logprob })
        })
        .collect();
    out.sort_by(|a, b| b.logprob.partial_cmp(&a.logprob).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Runs constrained beam search and returns up to `beam_size` items ranked
/// by log-probability. `prompt` must be non-empty. Parallelism comes from
/// the ambient [`Pool::from_env`] (`LCREC_THREADS`); see
/// [`constrained_beam_search_with`] for an explicit pool.
pub fn constrained_beam_search(
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    prompt: &[u32],
    beam_size: usize,
) -> Vec<Hypothesis> {
    constrained_beam_search_with(&Pool::from_env(), lm, vocab, trie, prompt, beam_size)
}

/// [`constrained_beam_search`] with an explicit thread pool. Output is
/// bit-identical (item ids **and** log-probabilities) at every thread
/// count: candidate lists are flattened in beam order, the pruning sort is
/// stable, and the fused batched transformer step accumulates strictly row
/// by row, so no first-come-first-served effect can leak into scores.
pub fn constrained_beam_search_with(
    pool: &Pool,
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    prompt: &[u32],
    beam_size: usize,
) -> Vec<Hypothesis> {
    // A zero-width beam asks for nothing: return nothing rather than panic.
    // (The serving layer rejects `k = 0` with a typed error before it gets
    // here; this keeps the library call total for direct users too.) An
    // empty prompt has nothing to decode from.
    if beam_size == 0 || prompt.is_empty() {
        return Vec::new();
    }
    let obs_on = lcrec_obs::enabled();
    let _span = lcrec_obs::span("beam.decode");
    let mut scratch = lm.new_scratch();
    let mut cache = lm.new_cache();
    let logits = lm.forward_block(pool, &mut scratch, &mut [&mut cache], &[prompt]).to_vec();
    let mut beams =
        vec![Beam { cache, logits, prefix: Vec::new(), logprob: 0.0 }];
    let vocab_n = lm.config().vocab;
    for _level in 0..trie.levels() {
        if obs_on {
            lcrec_obs::counter_add("beam.trie_visits", beams.len() as u64);
        }
        let score_watch = lcrec_obs::stopwatch();
        // Phase 1 — candidate scoring, parallel over surviving beams.
        // Each beam's log-softmax over the full vocabulary is restricted to
        // legal codes (illegal tokens get probability 0) and pre-pruned to
        // the beam width (exact; see `score_beam`).
        let per_beam: Vec<Vec<(usize, u16, f32)>> = pool.map(&beams, |bi, beam| {
            score_beam(trie, vocab, &beam.logits, &beam.prefix, beam.logprob, beam_size)
                .into_iter()
                .map(|(code, logprob)| (bi, code, logprob))
                .collect()
        });
        // (beam, code, logprob), flattened in beam order exactly as the
        // serial double loop would produce them.
        let mut candidates: Vec<(usize, u16, f32)> =
            per_beam.into_iter().flatten().collect();
        score_watch.stop("beam.score_s");
        if candidates.is_empty() {
            return Vec::new();
        }
        if obs_on {
            lcrec_obs::counter_add("beam.expansions", candidates.len() as u64);
            lcrec_obs::hist_record("beam.candidates_per_level", candidates.len() as f64);
        }
        prune(&mut candidates, beam_size);
        if obs_on {
            lcrec_obs::counter_add("beam.cache_advances", candidates.len() as u64);
        }
        let advance_watch = lcrec_obs::stopwatch();
        // Phase 2 — one fused, allocation-free transformer step over every
        // pruned candidate, each on a clone of its source cache.
        let mut new_caches: Vec<KvCache> = candidates
            .iter()
            .map(|&(bi, _, _)| beams[bi].cache.clone()) // lint: allow(panic, reason = "bi was produced by enumerating this very `beams` vector in phase 1")
            .collect();
        let toks: Vec<u32> = candidates
            .iter()
            .map(|&(bi, code, _)| vocab.index_token(beams[bi].prefix.len(), code)) // lint: allow(panic, reason = "bi was produced by enumerating this very `beams` vector in phase 1")
            .collect();
        let mut slots: Vec<&mut KvCache> = new_caches.iter_mut().collect();
        let runs: Vec<&[u32]> = toks.iter().map(std::slice::from_ref).collect();
        let all_logits = lm.forward_block(pool, &mut scratch, &mut slots, &runs);
        beams = candidates
            .iter()
            .zip(new_caches)
            .zip(all_logits.chunks_exact(vocab_n.max(1)))
            .map(|((&(bi, code, logprob), cache), row)| {
                let mut prefix = beams[bi].prefix.clone(); // lint: allow(panic, reason = "bi was produced by enumerating this very `beams` vector in phase 1")
                prefix.push(code);
                Beam { cache, logits: row.to_vec(), prefix, logprob }
            })
            .collect();
        advance_watch.stop("beam.advance_s");
    }
    finalize(trie, beams.into_iter().map(|b| (b.prefix, b.logprob)).collect())
}

/// The graph-backed baseline decode: the same constrained search, driven
/// by a full autograd-graph forward over the whole sequence at every step
/// ([`CausalLm::logits_uncached`]) instead of KV-cached fused steps — no
/// cache, fresh `Graph` node allocations per token, O(T²) attention work.
/// This is the paper's §III-D2 "before": the decode benchmark
/// (`repro --exp decode`) measures the fast path against it, and
/// `tests/decode.rs` pins that both return **bit-identical** hypotheses
/// (the two paths share `score_beam`/`prune`/`finalize`, and the graph
/// forward is bit-identical to the cached step).
///
/// `prompt` must be short enough that prompt + `levels` index tokens fit
/// the LM context window, as every in-contract caller (prompt rendering
/// budgets, serving) guarantees; beyond it the graph path truncates
/// history where the cached path clamps positions, and the two may
/// legitimately diverge.
pub fn constrained_beam_search_graph(
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    prompt: &[u32],
    beam_size: usize,
) -> Vec<Hypothesis> {
    if beam_size == 0 {
        return Vec::new();
    }
    let _span = lcrec_obs::span("beam.decode_graph");
    struct GraphBeam {
        tokens: Vec<u32>,
        logits: Vec<f32>,
        prefix: Vec<u16>,
        logprob: f32,
    }
    let logits = lm.logits_uncached(prompt);
    let mut beams =
        vec![GraphBeam { tokens: prompt.to_vec(), logits, prefix: Vec::new(), logprob: 0.0 }];
    for _level in 0..trie.levels() {
        let mut candidates: Vec<(usize, u16, f32)> = Vec::new();
        for (bi, beam) in beams.iter().enumerate() {
            candidates.extend(
                score_beam(trie, vocab, &beam.logits, &beam.prefix, beam.logprob, beam_size)
                    .into_iter()
                    .map(|(code, logprob)| (bi, code, logprob)),
            );
        }
        if candidates.is_empty() {
            return Vec::new();
        }
        prune(&mut candidates, beam_size);
        beams = candidates
            .iter()
            .filter_map(|&(bi, code, logprob)| {
                // bi enumerates this very `beams` vector, so the lookup
                // always succeeds; `.get` keeps the baseline total anyway.
                let src = beams.get(bi)?;
                let mut tokens = src.tokens.clone();
                tokens.push(vocab.index_token(src.prefix.len(), code));
                // The whole sequence re-forwards through a fresh graph.
                let logits = lm.logits_uncached(&tokens);
                let mut prefix = src.prefix.clone();
                prefix.push(code);
                Some(GraphBeam { tokens, logits, prefix, logprob })
            })
            .collect();
    }
    finalize(trie, beams.into_iter().map(|b| (b.prefix, b.logprob)).collect())
}

/// Decodes several prompts at once with a uniform beam width; see
/// [`multi_constrained_beam_search_with`]. Parallelism comes from the
/// ambient [`Pool::from_env`] (`LCREC_THREADS`).
pub fn multi_constrained_beam_search(
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    prompts: &[Vec<u32>],
    beam_size: usize,
) -> Vec<Vec<Hypothesis>> {
    let widths = vec![beam_size; prompts.len()];
    multi_constrained_beam_search_with(&Pool::from_env(), lm, vocab, trie, prompts, &widths)
}

/// Multi-request trie-constrained beam search: decodes `prompts[i]` at
/// width `beam_sizes[i]`, all at once, and returns one ranked hypothesis
/// list per prompt (in prompt order). A zero width yields an empty list
/// for that prompt without disturbing the others.
///
/// The requests share the model's weight passes — prefill runs all prompts
/// as one block through [`CausalLm::forward_block`], and each decode level
/// runs *every* request's surviving candidates through a single
/// one-token-per-slot [`CausalLm::forward_block`] call — but never share
/// any state:
/// each request has its own KV caches, its own candidate list and its own
/// pruning cut. Scoring/pruning reuse the single-request helpers and the
/// batched transformer step is bit-identical per row, so the output equals
/// calling [`constrained_beam_search_with`] once per prompt, bit for bit,
/// at any batch composition and any thread count. An empty prompt yields
/// an empty list, as it does there.
pub fn multi_constrained_beam_search_with(
    pool: &Pool,
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    prompts: &[Vec<u32>],
    beam_sizes: &[usize],
) -> Vec<Vec<Hypothesis>> {
    let mut scratch = lm.new_scratch();
    multi_constrained_beam_search_scratch(pool, lm, vocab, trie, prompts, beam_sizes, &mut scratch)
}

/// [`multi_constrained_beam_search_with`] against a caller-owned
/// [`DecodeScratch`], so a long-lived caller (the serving engine) reuses
/// one set of decode buffers — and one cached LM-head transpose — across
/// every batch instead of re-allocating per dispatch. The scratch must
/// have been created from `lm` by [`CausalLm::new_scratch`] after its
/// last parameter update. Results are bit-identical whichever scratch is
/// passed; the scratch holds no decode state between calls.
#[allow(clippy::too_many_arguments)]
pub fn multi_constrained_beam_search_scratch(
    pool: &Pool,
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    prompts: &[Vec<u32>],
    beam_sizes: &[usize],
    scratch: &mut DecodeScratch,
) -> Vec<Vec<Hypothesis>> {
    assert_eq!(prompts.len(), beam_sizes.len(), "one beam width per prompt");
    let n = prompts.len();
    if n == 0 {
        return Vec::new();
    }
    let obs_on = lcrec_obs::enabled();
    let _span = lcrec_obs::span("beam.decode_batch");
    let vocab_n = lm.config().vocab;
    // Block prefill: every prompt goes into its own cache, all prompts'
    // tokens through one fused forward.
    let mut caches: Vec<KvCache> = (0..n).map(|_| lm.new_cache()).collect();
    let seqs: Vec<&[u32]> = prompts.iter().map(|p| p.as_slice()).collect();
    let mut slots: Vec<&mut KvCache> = caches.iter_mut().collect();
    let first_logits = lm.forward_block(pool, scratch, &mut slots, &seqs);
    let mut requests: Vec<Vec<Beam>> = caches
        .into_iter()
        .zip(first_logits.chunks_exact(vocab_n.max(1)))
        .zip(&seqs)
        .map(|((cache, row), prompt)| {
            // An empty prompt has nothing to decode from.
            if prompt.is_empty() {
                return Vec::new();
            }
            vec![Beam { cache, logits: row.to_vec(), prefix: Vec::new(), logprob: 0.0 }]
        })
        .collect();
    for _level in 0..trie.levels() {
        // Phase 1 — score every (request, beam) pair, parallel over the
        // flattened pair list; results reassemble in pair order, which is
        // exactly each request's serial beam order.
        let pairs: Vec<(usize, usize)> = requests
            .iter()
            .enumerate()
            .flat_map(|(ri, beams)| (0..beams.len()).map(move |bi| (ri, bi)))
            .collect();
        if pairs.is_empty() {
            break;
        }
        if obs_on {
            lcrec_obs::counter_add("beam.trie_visits", pairs.len() as u64);
        }
        let score_watch = lcrec_obs::stopwatch();
        let scored: Vec<Vec<(u16, f32)>> = pool.map(&pairs, |_, &(ri, bi)| {
            let beam = &requests[ri][bi]; // lint: allow(panic, reason = "(ri, bi) pairs were built by enumerating `requests` and its beam lists above")
            score_beam(trie, vocab, &beam.logits, &beam.prefix, beam.logprob, beam_sizes[ri]) // lint: allow(panic, reason = "ri < n and beam_sizes.len() == n is asserted at entry")
        });
        score_watch.stop("beam.score_s");
        let mut per_req: Vec<Vec<(usize, u16, f32)>> = vec![Vec::new(); n];
        for (&(ri, bi), cands) in pairs.iter().zip(&scored) {
            for &(code, logprob) in cands {
                per_req[ri].push((bi, code, logprob)); // lint: allow(panic, reason = "ri < n: pairs enumerate `requests`, which has n entries")
            }
        }
        // Jobs for the shared transformer step: (request, beam, code, lp),
        // each request pruned to its own width first.
        let mut jobs: Vec<(usize, usize, u16, f32)> = Vec::new();
        for (ri, mut cands) in per_req.into_iter().enumerate() {
            if obs_on && !cands.is_empty() {
                lcrec_obs::counter_add("beam.expansions", cands.len() as u64);
                lcrec_obs::hist_record("beam.candidates_per_level", cands.len() as f64);
            }
            prune(&mut cands, beam_sizes[ri]); // lint: allow(panic, reason = "ri < n and beam_sizes.len() == n is asserted at entry")
            jobs.extend(cands.into_iter().map(|(bi, code, logprob)| (ri, bi, code, logprob)));
        }
        if obs_on {
            lcrec_obs::counter_add("beam.cache_advances", jobs.len() as u64);
        }
        // Every request pruned to nothing (e.g. all widths zero): skip the
        // batched step this level; the empty beam lists end the loop above.
        if jobs.is_empty() {
            requests = (0..n).map(|_| Vec::new()).collect();
            continue;
        }
        let advance_watch = lcrec_obs::stopwatch();
        // Phase 2 — one batched transformer step over every surviving
        // candidate of every request, each on a clone of its source cache.
        let mut new_caches: Vec<KvCache> =
            jobs.iter().map(|&(ri, bi, _, _)| requests[ri][bi].cache.clone()).collect(); // lint: allow(panic, reason = "jobs carry (ri, bi) coordinates taken from this level's `requests` candidates")
        let toks: Vec<u32> = jobs
            .iter()
            .map(|&(ri, bi, code, _)| vocab.index_token(requests[ri][bi].prefix.len(), code)) // lint: allow(panic, reason = "jobs carry (ri, bi) coordinates taken from this level's `requests` candidates")
            .collect();
        let mut slots: Vec<&mut KvCache> = new_caches.iter_mut().collect();
        let runs: Vec<&[u32]> = toks.iter().map(std::slice::from_ref).collect();
        let all_logits = lm.forward_block(pool, scratch, &mut slots, &runs);
        let mut next: Vec<Vec<Beam>> = Vec::with_capacity(n);
        next.resize_with(n, Vec::new);
        for ((&(ri, bi, code, logprob), cache), row) in
            jobs.iter().zip(new_caches).zip(all_logits.chunks_exact(vocab_n.max(1)))
        {
            let mut prefix = requests[ri][bi].prefix.clone(); // lint: allow(panic, reason = "jobs carry (ri, bi) coordinates taken from this level's `requests` candidates")
            prefix.push(code);
            next[ri].push(Beam { cache, logits: row.to_vec(), prefix, logprob }); // lint: allow(panic, reason = "next was sized to n slots and ri < n by construction")
        }
        requests = next;
        advance_watch.stop("beam.advance_s");
    }
    requests
        .into_iter()
        .map(|beams| finalize(trie, beams.into_iter().map(|b| (b.prefix, b.logprob)).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::LmConfig;
    use lcrec_rqvae::ItemIndices;
    use lcrec_text::Vocab;

    fn setup() -> (CausalLm, ExtendedVocab, IndexTrie) {
        let base = Vocab::build(["recommend something"], 1);
        let indices = ItemIndices::new(
            vec![3, 3],
            vec![vec![0, 0], vec![0, 1], vec![1, 2], vec![2, 2]],
        );
        let trie = IndexTrie::build(&indices);
        let vocab = ExtendedVocab::new(base, indices);
        let lm = CausalLm::new(LmConfig::test(vocab.len()));
        (lm, vocab, trie)
    }

    #[test]
    fn all_results_are_real_items() {
        let (lm, vocab, trie) = setup();
        let prompt = vocab.render(&[lcrec_data::Seg::Text("recommend something".into())]);
        let hyps = constrained_beam_search(&lm, &vocab, &trie, &prompt, 4);
        assert_eq!(hyps.len(), 4, "beam must fill with the 4 existing items");
        let mut items: Vec<u32> = hyps.iter().map(|h| h.item).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 4, "no duplicates across beams");
    }

    #[test]
    fn results_are_sorted_by_logprob() {
        let (lm, vocab, trie) = setup();
        let prompt = vocab.render(&[lcrec_data::Seg::Text("recommend".into())]);
        let hyps = constrained_beam_search(&lm, &vocab, &trie, &prompt, 4);
        for w in hyps.windows(2) {
            assert!(w[0].logprob >= w[1].logprob);
        }
        // Log-probabilities of a 2-level decode are sums of two log-probs.
        assert!(hyps.iter().all(|h| h.logprob < 0.0));
    }

    #[test]
    fn beam_one_is_greedy_over_legal_tokens() {
        let (lm, vocab, trie) = setup();
        let prompt = vocab.render(&[lcrec_data::Seg::Text("something".into())]);
        let hyps = constrained_beam_search(&lm, &vocab, &trie, &prompt, 1);
        assert_eq!(hyps.len(), 1);
    }

    #[test]
    fn multi_request_matches_single_request_bit_for_bit() {
        let (lm, vocab, trie) = setup();
        let prompts: Vec<Vec<u32>> = ["recommend something", "recommend", "something"]
            .iter()
            .map(|t| vocab.render(&[lcrec_data::Seg::Text((*t).into())]))
            .collect();
        let widths = [4usize, 2, 3];
        for pool in [Pool::serial(), Pool::new(4)] {
            let batched =
                multi_constrained_beam_search_with(&pool, &lm, &vocab, &trie, &prompts, &widths);
            assert_eq!(batched.len(), prompts.len());
            for ((prompt, &w), got) in prompts.iter().zip(&widths).zip(&batched) {
                let solo = constrained_beam_search_with(&pool, &lm, &vocab, &trie, prompt, w);
                assert_eq!(got.len(), solo.len());
                for (a, b) in got.iter().zip(&solo) {
                    assert_eq!(a.item, b.item, "rankings must agree");
                    assert_eq!(a.logprob.to_bits(), b.logprob.to_bits(), "scores to the bit");
                }
            }
        }
    }

    #[test]
    fn multi_request_handles_empty_and_single_inputs() {
        let (lm, vocab, trie) = setup();
        assert!(multi_constrained_beam_search(&lm, &vocab, &trie, &[], 4).is_empty());
        let prompt = vocab.render(&[lcrec_data::Seg::Text("recommend".into())]);
        let one = multi_constrained_beam_search(&lm, &vocab, &trie, &[prompt.clone()], 4);
        let solo = constrained_beam_search(&lm, &vocab, &trie, &prompt, 4);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), solo.len());
        for (a, b) in one[0].iter().zip(&solo) {
            assert_eq!((a.item, a.logprob.to_bits()), (b.item, b.logprob.to_bits()));
        }
    }

    #[test]
    fn zero_width_degrades_to_empty_without_panicking() {
        let (lm, vocab, trie) = setup();
        let prompt = vocab.render(&[lcrec_data::Seg::Text("recommend".into())]);
        assert!(constrained_beam_search(&lm, &vocab, &trie, &prompt, 0).is_empty());
        // All widths zero: the batched step is skipped entirely.
        let all_zero = multi_constrained_beam_search_with(
            &Pool::new(1),
            &lm,
            &vocab,
            &trie,
            &[prompt.clone(), prompt.clone()],
            &[0, 0],
        );
        assert_eq!(all_zero.len(), 2);
        assert!(all_zero.iter().all(Vec::is_empty));
        // A mixed batch: the zero-width slot is empty, the live slot is
        // bit-identical to decoding alone.
        let mixed = multi_constrained_beam_search_with(
            &Pool::new(1),
            &lm,
            &vocab,
            &trie,
            &[prompt.clone(), prompt.clone()],
            &[0, 4],
        );
        assert!(mixed[0].is_empty());
        let solo = constrained_beam_search(&lm, &vocab, &trie, &prompt, 4);
        assert_eq!(mixed[1].len(), solo.len());
        for (a, b) in mixed[1].iter().zip(&solo) {
            assert_eq!((a.item, a.logprob.to_bits()), (b.item, b.logprob.to_bits()));
        }
    }

    #[test]
    fn smaller_beam_scores_prefix_of_larger() {
        // The top hypothesis must be identical for beam sizes 2 and 4
        // whenever level-wise pruning doesn't cut the optimum at width 2 —
        // with 3 codes per level, width 4 covers everything, so compare
        // the best of width-4 against width-3 (still exhaustive at level 1).
        let (lm, vocab, trie) = setup();
        let prompt = vocab.render(&[lcrec_data::Seg::Text("recommend".into())]);
        let big = constrained_beam_search(&lm, &vocab, &trie, &prompt, 4);
        let small = constrained_beam_search(&lm, &vocab, &trie, &prompt, 3);
        assert_eq!(big[0].item, small[0].item);
    }
}
